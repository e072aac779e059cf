#include "tomography/verification.h"

#include <stdexcept>

namespace concilium::tomography {

std::vector<bool> detect_fabricators(std::size_t leaf_count,
                                     std::span<const ProbeRecord> probes) {
    std::vector<bool> flagged(leaf_count, false);
    for (const ProbeRecord& rec : probes) {
        for (std::size_t leaf = 0; leaf < leaf_count; ++leaf) {
            if (rec.acked[leaf] && !rec.nonce_valid[leaf]) {
                flagged[leaf] = true;
            }
        }
    }
    return flagged;
}

std::vector<bool> detect_suppressors(const ProbeTree& tree,
                                     std::span<const ProbeRecord> probes,
                                     const SuppressionTestParams& params) {
    const std::size_t leaf_count = tree.leaves().size();
    std::vector<bool> flagged(leaf_count, false);

    // For each leaf, evidence = stripes where some leaf in a *sibling*
    // subtree acknowledged, proving delivery up to the shared ancestor.
    // The immediate parent is usually a pass-through router with a single
    // child, so we climb to the nearest ancestor that has leaf descendants
    // outside this leaf's own subtree.
    //
    // Leaf slots under every node, from one reverse pass: nodes are stored
    // parent-first, so each node's list is complete before it is merged
    // into its parent's.
    const auto& nodes = tree.nodes();
    std::vector<std::vector<int>> under(nodes.size());
    for (std::size_t i = nodes.size(); i-- > 0;) {
        const ProbeTree::Node& node = nodes[i];
        if (node.leaf_slot.has_value()) under[i].push_back(*node.leaf_slot);
        if (node.parent >= 0) {
            auto& up = under[static_cast<std::size_t>(node.parent)];
            up.insert(up.end(), under[i].begin(), under[i].end());
        }
    }
    std::vector<bool> is_own(leaf_count, false);
    for (std::size_t leaf = 0; leaf < leaf_count; ++leaf) {
        const auto node_idx =
            static_cast<std::size_t>(tree.leaf_nodes()[leaf]);
        const std::vector<int>& own = under[node_idx];
        int anc = nodes[node_idx].parent;
        while (anc >= 0 &&
               under[static_cast<std::size_t>(anc)].size() == own.size()) {
            anc = nodes[static_cast<std::size_t>(anc)].parent;
        }
        if (anc < 0) continue;  // no cross-check possible

        for (const int s : own) is_own[static_cast<std::size_t>(s)] = true;
        std::vector<int> siblings;
        for (const int s : under[static_cast<std::size_t>(anc)]) {
            if (!is_own[static_cast<std::size_t>(s)]) siblings.push_back(s);
        }
        for (const int s : own) is_own[static_cast<std::size_t>(s)] = false;

        int evidence = 0;
        int acked_given_evidence = 0;
        for (const ProbeRecord& rec : probes) {
            bool sibling_ack = false;
            for (const int s : siblings) {
                const auto i = static_cast<std::size_t>(s);
                if (rec.acked[i] && rec.nonce_valid[i]) {
                    sibling_ack = true;
                    break;
                }
            }
            if (!sibling_ack) continue;
            ++evidence;
            if (rec.acked[leaf] && rec.nonce_valid[leaf]) {
                ++acked_given_evidence;
            }
        }
        if (evidence < params.min_evidence) continue;
        const double conditional = static_cast<double>(acked_given_evidence) /
                                   static_cast<double>(evidence);
        if (conditional < params.min_conditional_ack_rate) {
            flagged[leaf] = true;
        }
    }
    return flagged;
}

void exclude_leaves(std::span<ProbeRecord> probes,
                    const std::vector<bool>& excluded) {
    for (ProbeRecord& rec : probes) {
        if (rec.acked.size() != excluded.size()) {
            throw std::invalid_argument("exclude_leaves: size mismatch");
        }
        for (std::size_t leaf = 0; leaf < excluded.size(); ++leaf) {
            if (excluded[leaf]) {
                rec.acked[leaf] = false;
                rec.nonce_valid[leaf] = false;
            }
        }
    }
}

}  // namespace concilium::tomography
