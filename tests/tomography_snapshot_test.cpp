#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "crypto/certificates.h"
#include "net/paths.h"
#include "tomography/inference.h"
#include "tomography/probing.h"
#include "tomography/snapshot.h"
#include "util/serialize.h"
#include "util/rng.h"

namespace concilium::tomography {
namespace {

TEST(LossBucket, QuantizationBoundaries) {
    EXPECT_EQ(quantize_loss(0.0), LossBucket::kClean);
    EXPECT_EQ(quantize_loss(0.009), LossBucket::kClean);
    EXPECT_EQ(quantize_loss(0.01), LossBucket::kLow);
    EXPECT_EQ(quantize_loss(0.049), LossBucket::kLow);
    EXPECT_EQ(quantize_loss(0.05), LossBucket::kModerate);
    EXPECT_EQ(quantize_loss(0.2), LossBucket::kHigh);
    EXPECT_EQ(quantize_loss(0.8), LossBucket::kDown);
    EXPECT_EQ(quantize_loss(1.0), LossBucket::kDown);
}

TEST(SnapshotWire, HugeCountsThrowOutOfRange) {
    const util::NodeId origin = util::NodeId::hash_of("origin");
    util::ByteWriter paths;
    paths.node_id(origin);
    paths.u64(1);
    paths.i64(0);
    paths.u32(0xFFFFFFFF);  // 2^32 - 1 path summaries
    paths.u64(0);
    util::ByteReader paths_reader(paths.data());
    EXPECT_THROW(read_snapshot_wire(paths_reader), std::out_of_range);

    util::ByteWriter links;
    links.node_id(origin);
    links.u64(1);
    links.i64(0);
    links.u32(0);
    links.u32(0xFFFFFFFF);  // 2^32 - 1 link observations
    links.u64(0);
    util::ByteReader links_reader(links.data());
    EXPECT_THROW(read_snapshot_wire(links_reader), std::out_of_range);
}

TEST(LossBucket, RepresentativeLossIsInsideBucket) {
    EXPECT_EQ(quantize_loss(bucket_loss(LossBucket::kLow)), LossBucket::kLow);
    EXPECT_EQ(quantize_loss(bucket_loss(LossBucket::kModerate)),
              LossBucket::kModerate);
    EXPECT_EQ(quantize_loss(bucket_loss(LossBucket::kHigh)),
              LossBucket::kHigh);
    EXPECT_EQ(quantize_loss(bucket_loss(LossBucket::kDown)),
              LossBucket::kDown);
}

struct SnapshotFixture : ::testing::Test {
    SnapshotFixture() : ca(7) {
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
        origin = ca.admit(0);
        util::Rng rng(5);
        for (int i = 0; i < 3; ++i) {
            leaf_ids.push_back(util::NodeId::random(rng));
        }
    }

    /// A snapshot of a session under `loss`, signed as its origin would
    /// sign it at publication.
    TomographicSnapshot snap(std::unordered_map<net::LinkId, double> loss,
                             std::vector<bool> excluded = {false, false,
                                                           false}) {
        util::Rng rng(3);
        const auto pass = [&loss](net::LinkId l, util::SimTime) {
            const auto it = loss.find(l);
            return it == loss.end() ? 1.0 : 1.0 - it->second;
        };
        const auto session = run_heavyweight_session(
            *tree, pass, 0, HeavyweightParams{.probe_count = 2000}, {}, rng);
        const auto inference = infer_link_loss(*tree, session.probes);
        auto s = make_snapshot(origin->certificate.node_id,
                               42 * util::kSecond, *tree, inference, excluded,
                               SnapshotParams{}, leaf_ids);
        s.signature = origin->keys.sign(s.signed_payload());
        return s;
    }

    [[nodiscard]] static std::vector<net::LinkId> reported(
        const TomographicSnapshot& s) {
        std::vector<net::LinkId> out;
        for (const auto& l : s.links) out.push_back(l.link);
        std::sort(out.begin(), out.end());
        return out;
    }

    /// True when the snapshot's links appear in tree-node order.
    [[nodiscard]] bool in_node_order(const TomographicSnapshot& s) const {
        std::vector<std::ptrdiff_t> at;
        for (const auto& l : s.links) {
            const auto it = std::find(tree->links().begin(),
                                      tree->links().end(), l.link);
            if (it == tree->links().end()) return false;
            at.push_back(it - tree->links().begin());
        }
        return std::adjacent_find(at.begin(), at.end(),
                                  std::greater_equal<>()) == at.end();
    }

    net::Topology topo;
    net::LinkId links[6];
    std::optional<ProbeTree> tree;
    crypto::CertificateAuthority ca;
    std::optional<crypto::CertificateAuthority::Admission> origin;
    std::vector<util::NodeId> leaf_ids;
};

TEST_F(SnapshotFixture, CleanNetworkSnapshotsAllUp) {
    const auto s = snap({});
    EXPECT_EQ(s.paths.size(), 3u);
    EXPECT_EQ(s.links.size(), 6u);
    for (const auto& p : s.paths) EXPECT_EQ(p.bucket, LossBucket::kClean);
    for (const auto& l : s.links) EXPECT_TRUE(l.up);
}

TEST_F(SnapshotFixture, DownLinkReportedDownOnCorrectPath) {
    const auto s = snap({{links[3], 1.0}});
    // The path to leaf 0 (router 4) is dead; others clean.
    EXPECT_EQ(s.paths[0].bucket, LossBucket::kDown);
    EXPECT_EQ(s.paths[1].bucket, LossBucket::kClean);
    EXPECT_EQ(s.paths[2].bucket, LossBucket::kClean);
    for (const auto& l : s.links) {
        if (l.link == links[3]) {
            EXPECT_FALSE(l.up);
        } else {
            EXPECT_TRUE(l.up) << "link " << l.link;
        }
    }
}

TEST_F(SnapshotFixture, ModerateLossIsUpButBucketed) {
    const auto s = snap({{links[5], 0.10}});
    EXPECT_EQ(s.paths[2].bucket, LossBucket::kModerate);
    for (const auto& l : s.links) {
        if (l.link == links[5]) EXPECT_TRUE(l.up);  // below down threshold
    }
}

TEST_F(SnapshotFixture, SignatureVerifiesAndTamperFails) {
    auto s = snap({});
    EXPECT_TRUE(
        verify_snapshot(s, origin->keys.public_key(), ca.registry()));
    s.links[0].up = !s.links[0].up;  // flip a probe result after signing
    EXPECT_FALSE(
        verify_snapshot(s, origin->keys.public_key(), ca.registry()));
}

TEST_F(SnapshotFixture, WrongOriginKeyFails) {
    const auto s = snap({});
    const auto other = ca.admit(99);
    EXPECT_FALSE(verify_snapshot(s, other.keys.public_key(), ca.registry()));
}

TEST_F(SnapshotFixture, WireBytesUseOneBytePerPath) {
    const auto s = snap({});
    EXPECT_EQ(s.wire_bytes(),
              s.paths.size() + util::NodeId::kBytes + 8 + 8 +
                  crypto::Signature::kWireBytes);
}

TEST_F(SnapshotFixture, LeafIdCountMismatchThrows) {
    util::Rng rng(3);
    const auto session = run_heavyweight_session(
        *tree, [](net::LinkId, util::SimTime) { return 1.0; }, 0,
        HeavyweightParams{.probe_count = 10}, {}, rng);
    const auto inference = infer_link_loss(*tree, session.probes);
    std::vector<util::NodeId> wrong(2);
    EXPECT_THROW(make_snapshot(origin->certificate.node_id, 0, *tree,
                               inference, {false, false, false},
                               SnapshotParams{}, wrong),
                 std::invalid_argument);
}

TEST_F(SnapshotFixture, ExcludedLeavesVouchForNoLinkOfTheirOwn) {
    // Leaves: slot 0 = router 4 (links 0,1,3), slot 1 = router 5 (links
    // 0,1,4), slot 2 = router 6 (links 0,2,5).
    EXPECT_EQ(reported(snap({})).size(), 6u);
    // Slot 0's last mile is reachable only through it; links 0 and 1 are
    // shared with its verified sibling at router 5.
    EXPECT_EQ(reported(snap({}, {true, false, false})),
              (std::vector<net::LinkId>{links[0], links[1], links[2],
                                        links[4], links[5]}));
    // Excluding slot 2 as well drops its whole branch below router 1.
    EXPECT_EQ(reported(snap({}, {true, false, true})),
              (std::vector<net::LinkId>{links[0], links[1], links[4]}));
    EXPECT_TRUE(reported(snap({}, {true, true, true})).empty());
    // Paths are summarized for every leaf either way.
    EXPECT_EQ(snap({}, {true, true, true}).paths.size(), 3u);
}

TEST_F(SnapshotFixture, ExclusionMaskSizeMismatchThrows) {
    EXPECT_THROW(snap({}, {false, false}), std::invalid_argument);
    EXPECT_THROW(snap({}, {}), std::invalid_argument);
}

TEST_F(SnapshotFixture, LinksFollowTreeNodeOrder) {
    // Heavyweight: every link, and any vouched subset, in node order.
    const auto all = snap({});
    ASSERT_EQ(all.links.size(), tree->links().size());
    for (std::size_t i = 0; i < all.links.size(); ++i) {
        EXPECT_EQ(all.links[i].link, tree->links()[i]);
    }
    EXPECT_TRUE(in_node_order(snap({{links[3], 1.0}}, {false, true, false})));

    // Lightweight: slot 1 (router 5) is silent, so links 0, 1, 3 (to
    // router 4) and 2, 5 (to router 6) are up; link 4 goes unreported.
    const auto light = make_lightweight_snapshot(
        origin->certificate.node_id, 42 * util::kSecond, *tree,
        LightweightResult{{true, false, true}}, leaf_ids);
    EXPECT_TRUE(in_node_order(light));
    EXPECT_EQ(reported(light),
              (std::vector<net::LinkId>{links[0], links[1], links[2],
                                        links[3], links[5]}));
    for (const auto& l : light.links) EXPECT_TRUE(l.up);
    EXPECT_EQ(light.paths[0].bucket, LossBucket::kClean);
    EXPECT_EQ(light.paths[1].bucket, LossBucket::kDown);
    EXPECT_EQ(light.paths[2].bucket, LossBucket::kClean);
    EXPECT_EQ(light.paths[1].peer, leaf_ids[1]);
    EXPECT_TRUE(make_lightweight_snapshot(
                    origin->certificate.node_id, 0, *tree,
                    LightweightResult{{false, false, false}}, leaf_ids)
                    .links.empty());
}

TEST_F(SnapshotFixture, LightweightSizeMismatchThrows) {
    const LightweightResult all_up{{true, true, true}};
    std::vector<util::NodeId> wrong(2);
    EXPECT_THROW(make_lightweight_snapshot(origin->certificate.node_id, 0,
                                           *tree, all_up, wrong),
                 std::invalid_argument);
    EXPECT_THROW(make_lightweight_snapshot(origin->certificate.node_id, 0,
                                           *tree,
                                           LightweightResult{{true, true}},
                                           leaf_ids),
                 std::invalid_argument);
}

}  // namespace
}  // namespace concilium::tomography
