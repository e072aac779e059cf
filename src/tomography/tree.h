// Probe trees and forests.
//
// "Each host H is connected to its routing peers by a set of links in the
// underlying IP network.  These links induce a communication tree T_H whose
// root is H and whose leaves are H's routing peers.  We define the forest
// F_H as the union of the tree rooted at H and the trees rooted at each of
// H's routing peers.  Concilium's goal is to estimate link quality in F_H."
// (Section 3.2)
//
// Shortest paths from a single source form a tree by construction, so T_H is
// assembled by merging the root's paths to each routing peer.

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/paths.h"
#include "net/topology.h"

namespace concilium::tomography {

/// The IP-level tree spanning one host and its routing peers.
///
/// Nodes are stored flat and parent-first: every node's parent has a
/// smaller index, so one forward pass over nodes() settles a parent before
/// any of its children (the striped-probe sampler relies on this).
class ProbeTree {
  public:
    struct Node {
        net::RouterId router = net::kInvalidRouter;
        net::LinkId via = net::kInvalidLink;  ///< link to parent (none at root)
        int parent = -1;
        std::vector<int> children;
        /// Index into leaves() when this node is a probed leaf endpoint.
        std::optional<int> leaf_slot;
    };

    /// Builds the tree for `root` from its paths to each leaf host.  Paths
    /// must all start at `root`; empty paths (unreachable leaves) are
    /// skipped.  Paths from one BFS never disagree on a router's parent; a
    /// disagreeing path set throws std::invalid_argument.
    ProbeTree(net::RouterId root, std::span<const net::Path> paths);

    /// Same contract over arena-backed path views (PathOracle::paths_into).
    ProbeTree(net::RouterId root, std::span<const net::PathView> paths);

    [[nodiscard]] net::RouterId root() const noexcept { return root_; }
    [[nodiscard]] const std::vector<Node>& nodes() const noexcept {
        return nodes_;
    }
    /// Probed leaf routers, in construction order.  (A "leaf" is a probed
    /// endpoint; in degenerate topologies it can be an interior router of
    /// the tree as well.)
    [[nodiscard]] const std::vector<net::RouterId>& leaves() const noexcept {
        return leaves_;
    }

    /// All distinct links in the tree.  Node i >= 1 owns links()[i-1]
    /// (its `via`): a node and its uplink are always appended together.
    [[nodiscard]] const std::vector<net::LinkId>& links() const noexcept {
        return links_;
    }

    /// Tree-node index per leaf slot.
    [[nodiscard]] const std::vector<int>& leaf_nodes() const noexcept {
        return leaf_nodes_;
    }

    /// Tree-node index of a router, if present.
    [[nodiscard]] std::optional<int> node_of(net::RouterId router) const;

    /// Links from the root to the given leaf slot, root-side first.
    [[nodiscard]] std::vector<net::LinkId> path_links(int leaf_slot) const;

    /// Leaf slots in the subtree rooted at node index n.
    [[nodiscard]] std::vector<int> leaf_slots_under(int node) const;

  private:
    /// Grafts one root-anchored path into the tree; shared by both
    /// constructors.
    void insert_path(std::span<const net::RouterId> routers,
                     std::span<const net::LinkId> links,
                     std::unordered_set<net::LinkId>& seen_links);

    net::RouterId root_;
    std::vector<Node> nodes_;
    std::vector<net::RouterId> leaves_;
    std::vector<int> leaf_nodes_;  ///< node index per leaf slot
    std::vector<net::LinkId> links_;
    std::unordered_map<net::RouterId, int> node_of_;
};

/// The union-of-trees view: which links of F_H are covered when H combines
/// its own tree with some of its peers' trees (Figure 4).
class Forest {
  public:
    /// trees[0] is H's own tree; the rest belong to H's routing peers.
    explicit Forest(std::vector<const ProbeTree*> trees);

    [[nodiscard]] std::size_t tree_count() const noexcept {
        return trees_.size();
    }

    /// All distinct links in the forest.
    [[nodiscard]] const std::vector<net::LinkId>& links() const noexcept {
        return links_;
    }

    /// Fraction of forest links present in the union of the first
    /// `tree_count` trees.
    [[nodiscard]] double coverage(std::size_t tree_count) const;

    /// Number of the first `tree_count` trees containing each covered link,
    /// i.e. how many peers can vouch for it (Figure 4's second series).
    [[nodiscard]] double mean_vouchers(std::size_t tree_count) const;

  private:
    std::vector<const ProbeTree*> trees_;
    std::vector<net::LinkId> links_;
};

}  // namespace concilium::tomography
