// Shortest-path extraction.
//
// The paper derives each host's IP-level link map with measurement tools like
// RocketFuel and notes that Internet routes are stable for a day or more
// (Section 3.2), so maps are computed rarely.  In the simulation the oracle
// extracts exact shortest paths from the topology (BFS over unweighted links
// with deterministic tie-breaking), playing the role of that stable map.
// The oracle searches a flat (CSR) copy of the topology's adjacency taken at
// construction; routers and links added later are not seen.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/topology.h"
#include "util/arena.h"

namespace concilium::net {

/// A route through the IP network.  routers.size() == links.size() + 1;
/// routers.front() is the source and routers.back() the destination.
struct Path {
    std::vector<RouterId> routers;
    std::vector<LinkId> links;

    [[nodiscard]] bool empty() const noexcept { return links.empty(); }
    [[nodiscard]] std::size_t hops() const noexcept { return links.size(); }
};

/// A route viewed as spans into arena storage (see PathOracle::paths_into).
/// Same shape contract as Path: routers.size() == links.size() + 1 for a
/// non-empty route, both empty when unreachable or src == dst.
struct PathView {
    std::span<const RouterId> routers;
    std::span<const LinkId> links;

    [[nodiscard]] bool empty() const noexcept { return links.empty(); }
    [[nodiscard]] std::size_t hops() const noexcept { return links.size(); }

    /// Owning copy, for the few cold consumers that outlive the arena.
    [[nodiscard]] Path to_path() const {
        return Path{{routers.begin(), routers.end()},
                    {links.begin(), links.end()}};
    }
};

class PathOracle {
  public:
    /// Copies the topology's adjacency into CSR form, keeping each router's
    /// edges in Topology order.  O(routers + links).
    explicit PathOracle(const Topology& topo);

    /// Shortest path from src to dst.  Deterministic: ties break by
    /// adjacency-list order, which is fixed by construction order.
    /// Returns an empty path when dst is unreachable or src == dst.
    [[nodiscard]] Path path(RouterId src, RouterId dst) const;

    /// One BFS from src, extracting the paths to every destination.
    /// Unreachable destinations yield empty paths.
    [[nodiscard]] std::vector<Path> paths_from(
        RouterId src, std::span<const RouterId> dsts) const;

    /// One BFS from src; every extracted path is carved out of `arena`
    /// (two pointer bumps per path, no per-path heap traffic) and returned
    /// as spans.  The spans stay valid until the arena is reset or
    /// destroyed.  At full-SCAN scale this is the difference between two
    /// heap allocations per (member, peer) pair and none.
    [[nodiscard]] std::vector<PathView> paths_into(
        RouterId src, std::span<const RouterId> dsts,
        util::Arena& arena) const;

  private:
    /// Runs BFS from src; fills parent-link arrays sized to the topology.
    void bfs(RouterId src, std::vector<RouterId>& parent,
             std::vector<LinkId>& via) const;

    /// Router r's edges are edges_[offsets_[r], offsets_[r + 1]).
    std::vector<std::uint32_t> offsets_;
    std::vector<Topology::Edge> edges_;
};

}  // namespace concilium::net
