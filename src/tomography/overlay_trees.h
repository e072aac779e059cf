// Probe trees for every overlay member.
//
// Builds, for each member of an overlay, the tree T_H spanning it and its
// routing peers (Section 3.2), together with the peer -> leaf-slot mapping
// and the flat list of (host, routing peer) IP paths -- the candidate set
// that the failure model of Section 4.2 draws from.
//
// Every per-(member, peer) link path produced by the per-member BFS is
// carved out of one shared arena (PathOracle::paths_into) and served as a
// span.  The hot query path_links() -- hit once per packet transmission and
// once per judgment -- is therefore a bounds-checked table read with zero
// allocation, instead of rebuilding a vector by walking tree parents.

#pragma once

#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "net/paths.h"
#include "net/topology.h"
#include "overlay/network.h"
#include "tomography/tree.h"
#include "util/arena.h"

namespace concilium::tomography {

class OverlayTrees {
  public:
    OverlayTrees(const overlay::OverlayNetwork& net,
                 const net::Topology& topology);

    [[nodiscard]] const ProbeTree& tree(overlay::MemberIndex m) const {
        return trees_.at(m);
    }
    [[nodiscard]] std::size_t size() const noexcept { return trees_.size(); }

    /// Leaf slot of `peer` in `m`'s tree, when the IP path exists.
    [[nodiscard]] std::optional<int> leaf_slot(
        overlay::MemberIndex m, overlay::MemberIndex peer) const;

    /// IP links of the path m -> peer, as a span into shared arena storage
    /// (valid for the lifetime of this OverlayTrees).  Throws when no path
    /// exists.
    [[nodiscard]] std::span<const net::LinkId> path_links(
        overlay::MemberIndex m, overlay::MemberIndex peer) const;

    /// IP links of m's path to leaf slot `slot` (span into the arena).
    [[nodiscard]] std::span<const net::LinkId> slot_path_links(
        overlay::MemberIndex m, int slot) const {
        return leaf_paths_.at(m).at(static_cast<std::size_t>(slot));
    }

    /// Overlay identifiers of `m`'s tree leaves, in leaf-slot order (the
    /// argument make_snapshot() wants).
    [[nodiscard]] const std::vector<util::NodeId>& leaf_ids(
        overlay::MemberIndex m) const {
        return leaf_ids_.at(m);
    }

    /// Member behind each leaf slot of m's tree.
    [[nodiscard]] const std::vector<overlay::MemberIndex>& leaf_members(
        overlay::MemberIndex m) const {
        return leaf_members_.at(m);
    }

    /// All (member, routing peer) paths with at least one hop; the failure
    /// model's candidate set.
    [[nodiscard]] const std::vector<net::Path>& member_peer_paths() const {
        return member_peer_paths_;
    }

    /// Bytes of arena-backed path storage (diagnostics / bench reporting).
    [[nodiscard]] std::size_t path_bytes() const noexcept {
        return arena_.bytes_used();
    }

  private:
    /// Backs every per-(member, peer) router/link sequence.  Declared first
    /// so the spans below die before the storage they point into.
    util::Arena arena_;
    std::vector<ProbeTree> trees_;
    /// Per member: (peer, leaf slot) sorted by peer for binary search.  A
    /// member has a few dozen routing peers, so a sorted probe beats a hash
    /// map on both locality and determinism.
    std::vector<std::vector<std::pair<overlay::MemberIndex, int>>>
        leaf_slots_;
    /// Per member, per leaf slot: the m -> peer link path in the arena.
    std::vector<std::vector<std::span<const net::LinkId>>> leaf_paths_;
    std::vector<std::vector<util::NodeId>> leaf_ids_;
    std::vector<std::vector<overlay::MemberIndex>> leaf_members_;
    std::vector<net::Path> member_peer_paths_;
};

}  // namespace concilium::tomography
