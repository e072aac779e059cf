#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "net/paths.h"
#include "tomography/probing.h"
#include "tomography/snapshot.h"
#include "tomography/tree.h"
#include "tomography/verification.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace concilium::tomography {
namespace {

struct ProbeFixture : ::testing::Test {
    ProbeFixture() {
        for (int i = 0; i < 7; ++i) topo.add_router(net::RouterTier::kCore);
        links[0] = topo.add_link(0, 1);
        links[1] = topo.add_link(1, 2);
        links[2] = topo.add_link(1, 3);
        links[3] = topo.add_link(2, 4);
        links[4] = topo.add_link(2, 5);
        links[5] = topo.add_link(3, 6);
        const net::PathOracle oracle(topo);
        const std::vector<net::RouterId> dsts{4, 5, 6};
        tree.emplace(0, oracle.paths_from(0, dsts));
    }

    /// Pass-probability function: perfect except for listed lossy links.
    PassProbabilityFn make_pass_fn(
        std::unordered_map<net::LinkId, double> loss = {}) {
        return [loss](net::LinkId l, util::SimTime) {
            const auto it = loss.find(l);
            return it == loss.end() ? 1.0 : 1.0 - it->second;
        };
    }

    net::Topology topo;
    net::LinkId links[6];
    std::optional<ProbeTree> tree;
};

TEST_F(ProbeFixture, PerfectNetworkAllLeavesAck) {
    util::Rng rng(1);
    const auto rec =
        sample_striped_probe(*tree, make_pass_fn(), 0, {}, rng);
    for (std::size_t leaf = 0; leaf < 3; ++leaf) {
        EXPECT_TRUE(rec.acked[leaf]);
        EXPECT_FALSE(rec.fabricated[leaf]);
    }
}

TEST_F(ProbeFixture, DeadRootLinkSilencesEveryLeaf) {
    util::Rng rng(2);
    const auto rec = sample_striped_probe(
        *tree, make_pass_fn({{links[0], 1.0}}), 0, {}, rng);
    for (std::size_t leaf = 0; leaf < 3; ++leaf) {
        EXPECT_FALSE(rec.acked[leaf]);
        EXPECT_FALSE(rec.fabricated[leaf]);
    }
}

TEST_F(ProbeFixture, SharedLinkLossIsCorrelatedAcrossLeaves) {
    // Leaves 4 and 5 share links[1]; their outcomes under its loss must be
    // identical in every stripe -- the multicast-emulation property.
    util::Rng rng(3);
    for (int trial = 0; trial < 200; ++trial) {
        const auto rec = sample_striped_probe(
            *tree, make_pass_fn({{links[1], 0.5}}), 0, {}, rng);
        EXPECT_EQ(rec.acked[0], rec.acked[1]) << "trial " << trial;
        EXPECT_TRUE(rec.acked[2]);  // leaf 6 unaffected
    }
}

TEST_F(ProbeFixture, LastMileLossAffectsOneLeafOnly) {
    util::Rng rng(4);
    int lost4 = 0;
    const int n = 500;
    for (int trial = 0; trial < n; ++trial) {
        const auto rec = sample_striped_probe(
            *tree, make_pass_fn({{links[3], 0.3}}), 0, {}, rng);
        if (!rec.acked[0]) ++lost4;
        EXPECT_TRUE(rec.acked[1]);
        EXPECT_TRUE(rec.acked[2]);
    }
    EXPECT_NEAR(lost4, 150, 45);
}

TEST_F(ProbeFixture, SuppressorDropsAcksButReceives) {
    util::Rng rng(5);
    std::vector<LeafBehavior> behaviors(3);
    behaviors[1].suppress_ack_probability = 1.0;
    auto& suppressed =
        util::metrics::Registry::global().counter("tomography.acks_suppressed");
    const std::int64_t before = suppressed.value();
    const auto rec =
        sample_striped_probe(*tree, make_pass_fn(), 0, behaviors, rng);
    EXPECT_EQ(suppressed.value() - before, 1);  // the probe did arrive
    EXPECT_FALSE(rec.acked[1]);
    EXPECT_FALSE(rec.fabricated[1]);
}

TEST_F(ProbeFixture, FabricatorAcksWithInvalidNonce) {
    util::Rng rng(6);
    std::vector<LeafBehavior> behaviors(3);
    behaviors[2].fabricate_acks = true;
    const auto rec = sample_striped_probe(
        *tree, make_pass_fn({{links[5], 1.0}}), 0, behaviors, rng);
    EXPECT_FALSE(rec.acked[2]);  // cannot echo an unseen nonce
    EXPECT_TRUE(rec.fabricated[2]);
}

TEST_F(ProbeFixture, BehaviorSizeMismatchThrows) {
    util::Rng rng(7);
    std::vector<LeafBehavior> behaviors(2);
    EXPECT_THROW(
        sample_striped_probe(*tree, make_pass_fn(), 0, behaviors, rng),
        std::invalid_argument);
}

TEST_F(ProbeFixture, HeavyweightSessionCountsAcks) {
    util::Rng rng(8);
    HeavyweightParams params;
    params.probe_count = 400;
    const auto result = run_heavyweight_session(
        *tree, make_pass_fn({{links[3], 0.25}}), 0, params, {}, rng);
    EXPECT_EQ(result.probes.size(), 400u);
    const auto ack_rate = [&](std::size_t leaf) {
        int acks = 0;
        for (const ProbeRecord& rec : result.probes) acks += rec.acked[leaf];
        return acks / 400.0;
    };
    EXPECT_NEAR(ack_rate(0), 0.75, 0.07);
    EXPECT_NEAR(ack_rate(1), 1.0, 1e-12);
    EXPECT_NEAR(ack_rate(2), 1.0, 1e-12);
    EXPECT_GT(result.finished_at, result.started_at);
    EXPECT_THROW(run_heavyweight_session(*tree, make_pass_fn(), 0,
                                         HeavyweightParams{.probe_count = 0},
                                         {}, rng),
                 std::invalid_argument);
}

TEST_F(ProbeFixture, LightweightRetriesRecoverLossyLeaves) {
    util::Rng rng(9);
    // 50% lossy last mile: retries almost always get through eventually.
    int responsive = 0;
    for (int trial = 0; trial < 100; ++trial) {
        const auto result = run_lightweight_probe(
            *tree, make_pass_fn({{links[3], 0.5}}), 0, 6, {}, rng);
        if (result.responsive[0]) ++responsive;
    }
    EXPECT_GT(responsive, 95);
}

TEST_F(ProbeFixture, LightweightCannotRecoverDeadLink) {
    util::Rng rng(10);
    const auto result = run_lightweight_probe(
        *tree, make_pass_fn({{links[5], 1.0}}), 0, 5, {}, rng);
    EXPECT_FALSE(result.responsive[2]);
    EXPECT_TRUE(result.responsive[0]);
    EXPECT_TRUE(result.responsive[1]);
}

TEST_F(ProbeFixture, DetectFabricatorsFlagsOnlyGuiltyLeaf) {
    util::Rng rng(11);
    std::vector<LeafBehavior> behaviors(3);
    behaviors[0].fabricate_acks = true;
    auto session = run_heavyweight_session(
        *tree, make_pass_fn({{links[3], 0.4}}), 0,
        HeavyweightParams{.probe_count = 200}, behaviors, rng);
    const auto flagged = exclude_unverified_feedback(
        *tree, session.probes, SuppressionTestParams{});
    EXPECT_TRUE(flagged[0]);
    EXPECT_FALSE(flagged[1]);
    EXPECT_FALSE(flagged[2]);
}

TEST_F(ProbeFixture, DetectSuppressorsFlagsAckDropper) {
    util::Rng rng(12);
    std::vector<LeafBehavior> behaviors(3);
    behaviors[0].suppress_ack_probability = 0.95;
    auto session = run_heavyweight_session(
        *tree, make_pass_fn(), 0, HeavyweightParams{.probe_count = 300},
        behaviors, rng);
    const auto flagged = exclude_unverified_feedback(
        *tree, session.probes, SuppressionTestParams{});
    EXPECT_TRUE(flagged[0]);
    EXPECT_FALSE(flagged[1]);
    EXPECT_FALSE(flagged[2]);
}

TEST_F(ProbeFixture, HonestLeavesUnderModerateLossNotFlagged) {
    util::Rng rng(13);
    auto session = run_heavyweight_session(
        *tree, make_pass_fn({{links[3], 0.2}, {links[1], 0.1}}), 0,
        HeavyweightParams{.probe_count = 300}, {}, rng);
    const auto flagged = exclude_unverified_feedback(
        *tree, session.probes, SuppressionTestParams{});
    EXPECT_FALSE(flagged[0]);
    EXPECT_FALSE(flagged[1]);
    EXPECT_FALSE(flagged[2]);
}

TEST_F(ProbeFixture, ExcludeLeavesSilencesFlaggedFeedback) {
    util::Rng rng(14);
    std::vector<LeafBehavior> behaviors(3);
    behaviors[0].fabricate_acks = true;
    auto session = run_heavyweight_session(
        *tree, make_pass_fn({{links[3], 0.5}}), 0,
        HeavyweightParams{.probe_count = 40}, behaviors, rng);
    const auto flagged = exclude_unverified_feedback(
        *tree, session.probes, SuppressionTestParams{});
    EXPECT_EQ(flagged, (std::vector<bool>{true, false, false}));
    for (const auto& rec : session.probes) {
        EXPECT_FALSE(rec.acked[0]);
        EXPECT_FALSE(rec.fabricated[0]);
        EXPECT_TRUE(rec.acked[1]);
    }
    session.probes[3].acked.pop_back();
    EXPECT_THROW(exclude_unverified_feedback(*tree, session.probes,
                                             SuppressionTestParams{}),
                 std::invalid_argument);
}

// --- the flat sampler against the pre-flattening reference ------------------

/// The probe record as it stood before it held only what the root sees:
/// the reference below fills and reads all three fields.
struct ReferenceRecord {
    std::vector<bool> received;     ///< probe physically reached the leaf
    std::vector<bool> acked;        ///< root saw an acknowledgment
    std::vector<bool> nonce_valid;  ///< the ack echoed the probe's nonce
};

/// The root's view of a reference record: a verified ack, or an ack
/// without the nonce.
ProbeRecord root_view(const ReferenceRecord& ref) {
    ProbeRecord rec;
    for (std::size_t leaf = 0; leaf < ref.acked.size(); ++leaf) {
        rec.acked.push_back(ref.acked[leaf] && ref.nonce_valid[leaf]);
        rec.fabricated.push_back(ref.acked[leaf] && !ref.nonce_valid[leaf]);
    }
    return rec;
}

/// The striped-probe sampler as it stood before the flat forward pass: one
/// Bernoulli draw per link into a per-stripe link -> passed map, then a DFS
/// with a heap stack propagating delivery.  Kept verbatim (minus the
/// metrics) as the reference the flat sampler must match draw for draw.
ReferenceRecord reference_stripe(const ProbeTree& tree,
                                 const PassProbabilityFn& pass_probability,
                                 util::SimTime t,
                                 std::span<const LeafBehavior> behaviors,
                                 util::Rng& rng) {
    std::unordered_map<net::LinkId, bool> link_passed;
    for (const net::LinkId l : tree.links()) {
        link_passed.emplace(l, rng.bernoulli(pass_probability(l, t)));
    }
    const std::size_t n = tree.leaves().size();
    ReferenceRecord record;
    record.received.assign(n, false);
    record.acked.assign(n, false);
    record.nonce_valid.assign(n, false);
    std::vector<bool> reached(tree.nodes().size(), false);
    reached[0] = true;
    std::vector<int> stack{0};
    while (!stack.empty()) {
        const int n_idx = stack.back();
        stack.pop_back();
        const auto& node = tree.nodes()[static_cast<std::size_t>(n_idx)];
        for (const int child : node.children) {
            const auto& cn = tree.nodes()[static_cast<std::size_t>(child)];
            if (reached[static_cast<std::size_t>(n_idx)] &&
                link_passed.at(cn.via)) {
                reached[static_cast<std::size_t>(child)] = true;
            }
            stack.push_back(child);
        }
        if (node.leaf_slot.has_value()) {
            record.received[static_cast<std::size_t>(*node.leaf_slot)] =
                reached[static_cast<std::size_t>(n_idx)];
        }
    }
    for (std::size_t leaf = 0; leaf < n; ++leaf) {
        const LeafBehavior b = behaviors.empty() ? LeafBehavior{}
                                                 : behaviors[leaf];
        if (record.received[leaf]) {
            const bool suppressed = rng.bernoulli(b.suppress_ack_probability);
            record.acked[leaf] = !suppressed;
            record.nonce_valid[leaf] = !suppressed;
        } else if (b.fabricate_acks) {
            record.acked[leaf] = true;
            record.nonce_valid[leaf] = false;
        }
    }
    return record;
}

/// detect_fabricators as it stood before the one verification pass.
std::vector<bool> reference_fabricators(
    std::size_t leaf_count, std::span<const ReferenceRecord> probes) {
    std::vector<bool> flagged(leaf_count, false);
    for (const ReferenceRecord& rec : probes) {
        for (std::size_t leaf = 0; leaf < leaf_count; ++leaf) {
            if (rec.acked[leaf] && !rec.nonce_valid[leaf]) {
                flagged[leaf] = true;
            }
        }
    }
    return flagged;
}

/// detect_suppressors as it stood before the one-pass sibling sets:
/// node_of plus leaf_slots_under per ancestor per leaf.
std::vector<bool> reference_suppressors(
    const ProbeTree& tree, std::span<const ReferenceRecord> probes,
    const SuppressionTestParams& params) {
    const std::size_t leaf_count = tree.leaves().size();
    std::vector<bool> flagged(leaf_count, false);
    for (std::size_t leaf = 0; leaf < leaf_count; ++leaf) {
        const auto node_idx = tree.node_of(tree.leaves()[leaf]);
        if (!node_idx.has_value()) continue;
        std::vector<bool> is_own(leaf_count, false);
        for (const int s : tree.leaf_slots_under(*node_idx)) {
            is_own[static_cast<std::size_t>(s)] = true;
        }
        std::vector<int> siblings;
        for (int cur = *node_idx;
             siblings.empty() &&
             tree.nodes()[static_cast<std::size_t>(cur)].parent >= 0;) {
            const int anc = tree.nodes()[static_cast<std::size_t>(cur)].parent;
            for (const int s : tree.leaf_slots_under(anc)) {
                if (!is_own[static_cast<std::size_t>(s)]) siblings.push_back(s);
            }
            cur = anc;
        }
        if (siblings.empty()) continue;
        int evidence = 0;
        int acked_given_evidence = 0;
        for (const ReferenceRecord& rec : probes) {
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
        if (static_cast<double>(acked_given_evidence) /
                static_cast<double>(evidence) <
            params.min_conditional_ack_rate) {
            flagged[leaf] = true;
        }
    }
    return flagged;
}

/// exclude_leaves as it stood before the one verification pass.
void reference_exclude_leaves(std::span<ReferenceRecord> probes,
                              const std::vector<bool>& excluded) {
    for (ReferenceRecord& rec : probes) {
        for (std::size_t leaf = 0; leaf < excluded.size(); ++leaf) {
            if (excluded[leaf]) {
                rec.acked[leaf] = false;
                rec.nonce_valid[leaf] = false;
            }
        }
    }
}

/// A random recursive tree topology probed from a random root, with
/// fractional per-link pass probabilities (some links certain, some dead)
/// and random leaf misbehaviour.  At least one probed leaf is an interior
/// router of the probe tree.
struct RandomProbeWorld {
    explicit RandomProbeWorld(std::uint64_t seed) {
        util::Rng rng(seed);
        const std::size_t routers = 12 + rng.uniform_index(60);
        for (std::size_t r = 0; r < routers; ++r) {
            topo.add_router(net::RouterTier::kCore);
        }
        for (std::size_t r = 1; r < routers; ++r) {
            topo.add_link(static_cast<net::RouterId>(rng.uniform_index(r)),
                          static_cast<net::RouterId>(r));
        }
        const auto root =
            static_cast<net::RouterId>(rng.uniform_index(routers));
        std::vector<net::RouterId> dsts;
        const std::size_t want = 2 + rng.uniform_index(12);
        for (std::size_t i = 0; i < want; ++i) {
            const auto d =
                static_cast<net::RouterId>(rng.uniform_index(routers));
            if (d != root) dsts.push_back(d);
        }
        const net::PathOracle oracle(topo);
        auto paths = oracle.paths_from(root, dsts);
        // Probe the midpoint of the longest path too: an interior leaf.
        std::size_t longest = 0;
        for (std::size_t i = 0; i < paths.size(); ++i) {
            if (paths[i].routers.size() > paths[longest].routers.size()) {
                longest = i;
            }
        }
        if (!paths.empty() && paths[longest].routers.size() >= 3) {
            dsts.push_back(
                paths[longest].routers[paths[longest].routers.size() / 2]);
            paths = oracle.paths_from(root, dsts);
        }
        tree.emplace(root, paths);

        pass.resize(topo.link_count());
        for (double& p : pass) {
            const double u = rng.uniform();
            p = u < 0.15 ? 1.0 : u < 0.2 ? 0.0 : rng.uniform(0.3, 1.0);
        }
        if (rng.bernoulli(0.8)) {
            behaviors.resize(tree->leaves().size());
            for (LeafBehavior& b : behaviors) {
                const double u = rng.uniform();
                b.suppress_ack_probability =
                    u < 0.6 ? 0.0 : u < 0.8 ? rng.uniform(0.1, 0.9) : 1.0;
                b.fabricate_acks = rng.bernoulli(0.2);
            }
        }
    }

    [[nodiscard]] PassProbabilityFn pass_fn() const {
        return [p = pass](net::LinkId l, util::SimTime) { return p[l]; };
    }

    [[nodiscard]] bool has_interior_leaf() const {
        for (const int node : tree->leaf_nodes()) {
            if (!tree->nodes()[static_cast<std::size_t>(node)]
                     .children.empty()) {
                return true;
            }
        }
        return false;
    }

    net::Topology topo;
    std::optional<ProbeTree> tree;
    std::vector<double> pass;
    std::vector<LeafBehavior> behaviors;
};

void expect_same_record(const ReferenceRecord& want, const ProbeRecord& got) {
    const ProbeRecord view = root_view(want);
    EXPECT_EQ(view.acked, got.acked);
    EXPECT_EQ(view.fabricated, got.fabricated);
}

TEST(ProbeTreeLayout, NodeOwnsItsUplinkAndFollowsItsParent) {
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        const RandomProbeWorld world(seed);
        const ProbeTree& tree = *world.tree;
        ASSERT_EQ(tree.links().size() + 1, tree.nodes().size());
        for (std::size_t i = 1; i < tree.nodes().size(); ++i) {
            EXPECT_EQ(tree.links()[i - 1], tree.nodes()[i].via);
            EXPECT_LT(tree.nodes()[i].parent, static_cast<int>(i));
            EXPECT_GE(tree.nodes()[i].parent, 0);
        }
        for (std::size_t slot = 0; slot < tree.leaves().size(); ++slot) {
            EXPECT_EQ(tree.nodes()[static_cast<std::size_t>(
                                       tree.leaf_nodes()[slot])]
                          .router,
                      tree.leaves()[slot]);
        }
        // A random leaf mask: mark_subtrees marks exactly the nodes with a
        // marked slot among leaf_slots_under.
        util::Rng mask_rng(seed * 31);
        std::vector<bool> mask(tree.leaves().size());
        for (std::size_t slot = 0; slot < mask.size(); ++slot) {
            mask[slot] = mask_rng.bernoulli(0.4);
        }
        std::vector<char> marked{7, 7};  // stale scratch is overwritten
        tree.mark_subtrees(mask, marked);
        ASSERT_EQ(marked.size(), tree.nodes().size());
        for (std::size_t k = 0; k < marked.size(); ++k) {
            const auto under = tree.leaf_slots_under(static_cast<int>(k));
            const bool want =
                std::any_of(under.begin(), under.end(), [&](int s) {
                    return mask[static_cast<std::size_t>(s)];
                });
            EXPECT_EQ(marked[k] != 0, want)
                << "seed " << seed << " node " << k;
        }
        mask.push_back(true);
        EXPECT_THROW(tree.mark_subtrees(mask, marked), std::invalid_argument);
    }
}

TEST(StripedProbeEquivalence, MatchesReferenceDrawForDraw) {
    int interior_worlds = 0;
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
        const RandomProbeWorld world(seed);
        if (world.has_interior_leaf()) ++interior_worlds;
        const auto pass = world.pass_fn();
        util::Rng want_rng(seed * 977);
        util::Rng got_rng(seed * 977);
        for (int stripe = 0; stripe < 25; ++stripe) {
            const util::SimTime t = stripe * util::kSecond;
            const ReferenceRecord want = reference_stripe(
                *world.tree, pass, t, world.behaviors, want_rng);
            const ProbeRecord got = sample_striped_probe(
                *world.tree, pass, t, world.behaviors, got_rng);
            expect_same_record(want, got);
        }
        // Same number of draws, in the same order: the streams stay in step.
        EXPECT_EQ(want_rng.uniform_u64(), got_rng.uniform_u64())
            << "seed " << seed;
    }
    EXPECT_GT(interior_worlds, 0);
}

TEST(StripedProbeEquivalence, HeavyweightSessionMatchesReference) {
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
        const RandomProbeWorld world(seed);
        const auto pass = world.pass_fn();
        const HeavyweightParams params{.probe_count = 40,
                                       .spacing = 50 * util::kMillisecond};
        util::Rng want_rng(seed + 5);
        util::Rng got_rng(seed + 5);
        auto session = run_heavyweight_session(
            *world.tree, pass, 7 * util::kSecond, params, world.behaviors,
            got_rng);
        ASSERT_EQ(session.probes.size(), 40u);
        std::vector<ReferenceRecord> reference;
        util::SimTime t = 7 * util::kSecond;
        for (const ProbeRecord& got : session.probes) {
            reference.push_back(reference_stripe(*world.tree, pass, t,
                                                 world.behaviors, want_rng));
            expect_same_record(reference.back(), got);
            t += params.spacing;
        }
        EXPECT_EQ(session.finished_at, t);
        EXPECT_EQ(want_rng.uniform_u64(), got_rng.uniform_u64())
            << "seed " << seed;

        // The one verification pass excludes exactly the leaves the old
        // fabricator and per-ancestor suppressor passes flagged, and leaves
        // the records as the old exclude_leaves did.
        const SuppressionTestParams test{.min_conditional_ack_rate = 0.5,
                                         .min_evidence = 5};
        const std::size_t leaf_count = world.tree->leaves().size();
        const auto fabricators = reference_fabricators(leaf_count, reference);
        const auto suppressors =
            reference_suppressors(*world.tree, reference, test);
        std::vector<bool> want_excluded(leaf_count, false);
        for (std::size_t leaf = 0; leaf < leaf_count; ++leaf) {
            want_excluded[leaf] = fabricators[leaf] || suppressors[leaf];
        }
        EXPECT_EQ(exclude_unverified_feedback(*world.tree, session.probes,
                                              test),
                  want_excluded)
            << "seed " << seed;
        reference_exclude_leaves(reference, want_excluded);
        for (std::size_t i = 0; i < reference.size(); ++i) {
            expect_same_record(reference[i], session.probes[i]);
        }
    }
}

/// The lightweight link rule as it stood in the protocol loop: every link
/// on a responsive leaf's path, gathered through a link -> up map.
std::vector<net::LinkId> reference_lightweight_links(
    const ProbeTree& tree, const LightweightResult& light) {
    std::unordered_map<net::LinkId, bool> up_links;
    for (std::size_t leaf = 0; leaf < light.responsive.size(); ++leaf) {
        if (!light.responsive[leaf]) continue;
        for (const net::LinkId l : tree.path_links(static_cast<int>(leaf))) {
            up_links[l] = true;
        }
    }
    std::vector<net::LinkId> out;
    for (const auto& [link, up] : up_links) out.push_back(link);
    std::sort(out.begin(), out.end());
    return out;
}

TEST(LightweightSnapshotEquivalence, ReportsTheResponsivePathUnion) {
    int interior_worlds = 0;
    int partial_rounds = 0;
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
        const RandomProbeWorld world(seed);
        if (world.has_interior_leaf()) ++interior_worlds;
        const ProbeTree& tree = *world.tree;
        const std::vector<util::NodeId> leaf_ids(tree.leaves().size());
        util::Rng rng(seed * 101);
        for (int round = 0; round < 5; ++round) {
            const LightweightResult light = run_lightweight_probe(
                tree, world.pass_fn(), round * util::kSecond, 2,
                world.behaviors, rng);
            const TomographicSnapshot snap = make_lightweight_snapshot(
                util::NodeId{}, round * util::kSecond, tree, light, leaf_ids);
            std::vector<net::LinkId> got;
            for (const LinkObservation& l : snap.links) {
                EXPECT_TRUE(l.up);
                got.push_back(l.link);
            }
            std::sort(got.begin(), got.end());
            EXPECT_EQ(got, reference_lightweight_links(tree, light))
                << "seed " << seed << " round " << round;
            ASSERT_EQ(snap.paths.size(), light.responsive.size());
            for (std::size_t leaf = 0; leaf < snap.paths.size(); ++leaf) {
                EXPECT_EQ(snap.paths[leaf].bucket,
                          light.responsive[leaf] ? LossBucket::kClean
                                                 : LossBucket::kDown);
            }
            const bool any_up =
                std::count(light.responsive.begin(), light.responsive.end(),
                           true) > 0;
            const bool any_silent =
                std::count(light.responsive.begin(), light.responsive.end(),
                           false) > 0;
            if (any_up && any_silent) ++partial_rounds;
        }
    }
    EXPECT_GT(interior_worlds, 0);
    EXPECT_GT(partial_rounds, 0);
}

TEST(StripedProbeEquivalence, CountersTallyEveryStripe) {
    auto& registry = util::metrics::Registry::global();
    const auto value = [&](const char* name) {
        return registry.counter(name).value();
    };
    const char* names[] = {"tomography.stripes_sampled",
                           "tomography.probes_issued",
                           "tomography.probes_lost",
                           "tomography.probe_acks",
                           "tomography.acks_suppressed",
                           "tomography.acks_fabricated"};
    std::int64_t before[6];
    for (int i = 0; i < 6; ++i) before[i] = value(names[i]);

    const RandomProbeWorld world(3);
    const auto pass = world.pass_fn();
    const HeavyweightParams params{.probe_count = 30};
    util::Rng rng(8);
    const auto session = run_heavyweight_session(
        *world.tree, pass, 0, params, world.behaviors, rng);
    util::Rng want_rng(8);
    std::int64_t want[6] = {0, 0, 0, 0, 0, 0};
    for (std::size_t i = 0; i < session.probes.size(); ++i) {
        const ReferenceRecord rec = reference_stripe(
            *world.tree, pass, static_cast<util::SimTime>(i) * params.spacing,
            world.behaviors, want_rng);
        expect_same_record(rec, session.probes[i]);
        ++want[0];
        for (std::size_t leaf = 0; leaf < rec.received.size(); ++leaf) {
            ++want[1];
            if (!rec.received[leaf]) {
                ++want[2];
                if (rec.acked[leaf]) ++want[5];
            } else {
                ++want[rec.acked[leaf] ? 3 : 4];
            }
        }
    }
    for (int i = 0; i < 6; ++i) {
        EXPECT_EQ(value(names[i]) - before[i], want[i]) << names[i];
    }
}

}  // namespace
}  // namespace concilium::tomography
