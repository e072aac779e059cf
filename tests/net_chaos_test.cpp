// Fault-spec parsing and fault-plan generation (net/chaos.h).

#include "net/chaos.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "net/transport.h"
#include "util/rng.h"

namespace concilium::net {
namespace {

using util::kMinute;
using util::kSecond;

// ------------------------------------------------------------- FaultSpec

TEST(FaultSpec, EmptyStringIsEmptySpec) {
    const FaultSpec spec = FaultSpec::parse("");
    EXPECT_TRUE(spec.empty());
    EXPECT_EQ(spec.to_string(), "");
}

TEST(FaultSpec, ParsesEveryKind) {
    const FaultSpec spec = FaultSpec::parse(
        "flap:0.02,corr:0.5,loss:1,reorder:0.25,dup:0.125,churn:0.01,"
        "ackdrop:0.3,ackdelay:0,crash:0.03,partition:0.04");
    EXPECT_DOUBLE_EQ(spec.rate(FaultKind::kFlap), 0.02);
    EXPECT_DOUBLE_EQ(spec.rate(FaultKind::kCorrelated), 0.5);
    EXPECT_DOUBLE_EQ(spec.rate(FaultKind::kLossSpike), 1.0);
    EXPECT_DOUBLE_EQ(spec.rate(FaultKind::kReorder), 0.25);
    EXPECT_DOUBLE_EQ(spec.rate(FaultKind::kDuplicate), 0.125);
    EXPECT_DOUBLE_EQ(spec.rate(FaultKind::kChurn), 0.01);
    EXPECT_DOUBLE_EQ(spec.rate(FaultKind::kAckDrop), 0.3);
    EXPECT_DOUBLE_EQ(spec.rate(FaultKind::kAckDelay), 0.0);
    EXPECT_DOUBLE_EQ(spec.rate(FaultKind::kCrash), 0.03);
    EXPECT_DOUBLE_EQ(spec.rate(FaultKind::kPartition), 0.04);
    EXPECT_FALSE(spec.empty());
}

TEST(FaultSpec, RejectsMalformedRecoveryKinds) {
    // The CI smoke test depends on these exiting loudly at parse time.
    EXPECT_THROW((void)FaultSpec::parse("crash:1.5"), std::invalid_argument);
    EXPECT_THROW((void)FaultSpec::parse("partition:abc"),
                 std::invalid_argument);
    EXPECT_THROW((void)FaultSpec::parse("crash:"), std::invalid_argument);
    EXPECT_THROW((void)FaultSpec::parse("partition:-0.1"),
                 std::invalid_argument);
}

TEST(FaultSpec, ToStringRoundTrips) {
    const FaultSpec spec = FaultSpec::parse("churn:0.01,flap:0.02");
    // Canonical order is enum order, regardless of input order.
    EXPECT_EQ(spec.to_string(), "flap:0.02,churn:0.01");
    const FaultSpec again = FaultSpec::parse(spec.to_string());
    for (std::size_t k = 0; k < static_cast<std::size_t>(FaultKind::kCount_);
         ++k) {
        EXPECT_DOUBLE_EQ(again.rate(static_cast<FaultKind>(k)),
                         spec.rate(static_cast<FaultKind>(k)));
    }
}

TEST(FaultSpec, RejectsUnknownKind) {
    try {
        (void)FaultSpec::parse("flap:0.02,warp:0.1");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("unknown fault kind 'warp'"), std::string::npos)
            << what;
        EXPECT_NE(what.find("flap"), std::string::npos)
            << "message should list the known kinds: " << what;
    }
}

TEST(FaultSpec, RejectsMalformedPairs) {
    EXPECT_THROW((void)FaultSpec::parse("flap"), std::invalid_argument);
    EXPECT_THROW((void)FaultSpec::parse("flap:"), std::invalid_argument);
    EXPECT_THROW((void)FaultSpec::parse(":0.1"), std::invalid_argument);
    EXPECT_THROW((void)FaultSpec::parse("flap:0.1,"), std::invalid_argument);
    EXPECT_THROW((void)FaultSpec::parse("flap:0.1x"), std::invalid_argument);
    EXPECT_THROW((void)FaultSpec::parse("flap:nan"), std::invalid_argument);
    EXPECT_THROW((void)FaultSpec::parse("flap:inf"), std::invalid_argument);
}

TEST(FaultSpec, RejectsOutOfRangeRates) {
    EXPECT_THROW((void)FaultSpec::parse("flap:1.5"), std::invalid_argument);
    EXPECT_THROW((void)FaultSpec::parse("flap:-0.1"), std::invalid_argument);
    EXPECT_THROW((void)FaultSpec::parse("dup:1e9"), std::invalid_argument);
    FaultSpec spec;
    EXPECT_THROW(spec.set_rate(FaultKind::kFlap, 2.0), std::invalid_argument);
    EXPECT_THROW(spec.set_rate(FaultKind::kFlap, -1.0),
                 std::invalid_argument);
}

TEST(FaultSpec, RejectsDuplicateKind) {
    EXPECT_THROW((void)FaultSpec::parse("flap:0.1,flap:0.2"),
                 std::invalid_argument);
}

TEST(FaultSpec, ScaledMultipliesAndClamps) {
    const FaultSpec spec = FaultSpec::parse("flap:0.02,dup:0.6");
    const FaultSpec doubled = spec.scaled(2.0);
    EXPECT_DOUBLE_EQ(doubled.rate(FaultKind::kFlap), 0.04);
    EXPECT_DOUBLE_EQ(doubled.rate(FaultKind::kDuplicate), 1.0);  // clamped
    EXPECT_TRUE(spec.scaled(0.0).empty());
}

// ------------------------------------------------------------- FaultPlan

/// Hand-built candidate paths: three disjoint 3-link paths over links
/// 0..8, enough structure for every fault process to draw from.
std::vector<Path> test_paths() {
    std::vector<Path> paths;
    for (LinkId base = 0; base < 9; base += 3) {
        Path p;
        p.routers = {base + 100, base + 101, base + 102, base + 103};
        p.links = {base, base + 1, base + 2};
        paths.push_back(p);
    }
    return paths;
}

TEST(FaultPlan, EmptySpecYieldsEmptyPlanAndDrawsNothing) {
    const auto paths = test_paths();
    util::Rng rng(42);
    const FaultPlan plan =
        build_fault_plan(FaultSpec{}, 2 * util::kHour, paths, 50, rng);
    EXPECT_TRUE(plan.spikes.empty());
    EXPECT_TRUE(plan.churn.empty());
    EXPECT_FALSE(plan.has_packet_effects());
    EXPECT_TRUE(plan.link_up(0, kMinute));
    // Determinism contract: an empty spec consumes no randomness, so
    // pre-existing seeds' worlds are untouched when chaos is off.
    util::Rng fresh(42);
    EXPECT_EQ(rng.uniform_u64(), fresh.uniform_u64());
}

TEST(FaultPlan, SameSeedSameSpecIsByteIdentical) {
    const auto paths = test_paths();
    const FaultSpec spec =
        FaultSpec::parse("flap:0.5,corr:1,loss:1,churn:0.05");
    util::Rng a(7);
    util::Rng b(7);
    const FaultPlan pa = build_fault_plan(spec, 2 * util::kHour, paths, 50, a);
    const FaultPlan pb = build_fault_plan(spec, 2 * util::kHour, paths, 50, b);

    ASSERT_EQ(pa.spikes.size(), pb.spikes.size());
    for (std::size_t i = 0; i < pa.spikes.size(); ++i) {
        EXPECT_EQ(pa.spikes[i].link, pb.spikes[i].link);
        EXPECT_EQ(pa.spikes[i].start, pb.spikes[i].start);
        EXPECT_EQ(pa.spikes[i].end, pb.spikes[i].end);
        EXPECT_DOUBLE_EQ(pa.spikes[i].loss, pb.spikes[i].loss);
    }
    ASSERT_EQ(pa.churn.size(), pb.churn.size());
    for (std::size_t i = 0; i < pa.churn.size(); ++i) {
        EXPECT_EQ(pa.churn[i].node, pb.churn[i].node);
        EXPECT_EQ(pa.churn[i].leave, pb.churn[i].leave);
        EXPECT_EQ(pa.churn[i].rejoin, pb.churn[i].rejoin);
    }
    for (LinkId l = 0; l < 9; ++l) {
        ASSERT_EQ(pa.downs.intervals(l).size(), pb.downs.intervals(l).size());
        for (std::size_t i = 0; i < pa.downs.intervals(l).size(); ++i) {
            EXPECT_EQ(pa.downs.intervals(l)[i].start,
                      pb.downs.intervals(l)[i].start);
            EXPECT_EQ(pa.downs.intervals(l)[i].end,
                      pb.downs.intervals(l)[i].end);
        }
    }
}

TEST(FaultPlan, HighRatesProduceEvents) {
    const auto paths = test_paths();
    const FaultSpec spec =
        FaultSpec::parse("flap:0.5,corr:1,loss:1,churn:0.2,reorder:0.5,"
                         "dup:0.5,ackdrop:0.1,ackdelay:0.1");
    util::Rng rng(11);
    const FaultPlan plan =
        build_fault_plan(spec, 2 * util::kHour, paths, 50, rng);
    std::size_t down_intervals = 0;
    for (LinkId l = 0; l < 9; ++l) {
        down_intervals += plan.downs.intervals(l).size();
    }
    EXPECT_GT(down_intervals, 0u);
    EXPECT_FALSE(plan.spikes.empty());
    EXPECT_FALSE(plan.churn.empty());
    EXPECT_TRUE(plan.has_packet_effects());
    for (const ChurnEvent& ev : plan.churn) {
        EXPECT_LT(ev.node, 50u);
        EXPECT_LT(ev.leave, ev.rejoin);
        EXPECT_LE(ev.rejoin, 2 * util::kHour);
    }
    for (const LossSpike& s : plan.spikes) {
        EXPECT_LT(s.start, s.end);
        EXPECT_GE(s.loss, 0.2);
        EXPECT_LE(s.loss, 0.8);
    }
}

TEST(FaultPlan, CrashAndPartitionEventsAreWellFormed) {
    const auto paths = test_paths();
    const FaultSpec spec = FaultSpec::parse("crash:0.2,partition:0.2");
    util::Rng rng(19);
    const auto duration = 2 * util::kHour;
    const FaultPlan plan = build_fault_plan(spec, duration, paths, 50, rng);

    ASSERT_FALSE(plan.crashes.empty());
    ASSERT_FALSE(plan.partitions.empty());
    EXPECT_TRUE(plan.has_recovery_faults());
    for (const CrashEvent& ev : plan.crashes) {
        EXPECT_LT(ev.node, 50u);
        EXPECT_LT(ev.crash, ev.restart);
        EXPECT_LE(ev.restart, duration);
        // Downtime is 1-4 minutes unless clipped by the horizon.
        if (ev.restart < duration) {
            EXPECT_GE(ev.restart - ev.crash, kMinute);
            EXPECT_LE(ev.restart - ev.crash, 4 * kMinute);
        }
    }
    util::SimTime prev_heal = 0;
    for (const PartitionEvent& ev : plan.partitions) {
        EXPECT_LT(ev.start, ev.heal);
        EXPECT_LE(ev.heal, duration);
        EXPECT_GE(ev.start, prev_heal) << "partition events must not overlap";
        prev_heal = ev.heal;
        ASSERT_EQ(ev.side.size(), 50u);
        // A bisection: both sides populated, middle-heavy cut.
        std::size_t ones = 0;
        for (const std::uint8_t s : ev.side) ones += s;
        EXPECT_GE(ones, 50u / 4);
        EXPECT_LE(ones, 50u - 50u / 4);
    }
}

TEST(FaultPlan, RecoveryKindsDrawFromDedicatedSubstreams) {
    // Determinism contract for stacked specs: adding crash/partition to an
    // existing spec must not perturb the events the original kinds
    // generate, because pre-existing seeds' chaos schedules are part of
    // their recorded figures.
    const auto paths = test_paths();
    const FaultSpec base =
        FaultSpec::parse("flap:0.5,corr:1,loss:1,churn:0.05");
    const FaultSpec stacked = FaultSpec::parse(
        "flap:0.5,corr:1,loss:1,churn:0.05,crash:0.3,partition:0.3");
    util::Rng a(7);
    util::Rng b(7);
    const FaultPlan pa = build_fault_plan(base, 2 * util::kHour, paths, 50, a);
    const FaultPlan pb =
        build_fault_plan(stacked, 2 * util::kHour, paths, 50, b);

    EXPECT_TRUE(pa.crashes.empty());
    EXPECT_FALSE(pb.crashes.empty());
    ASSERT_EQ(pa.spikes.size(), pb.spikes.size());
    for (std::size_t i = 0; i < pa.spikes.size(); ++i) {
        EXPECT_EQ(pa.spikes[i].link, pb.spikes[i].link);
        EXPECT_EQ(pa.spikes[i].start, pb.spikes[i].start);
    }
    ASSERT_EQ(pa.churn.size(), pb.churn.size());
    for (std::size_t i = 0; i < pa.churn.size(); ++i) {
        EXPECT_EQ(pa.churn[i].node, pb.churn[i].node);
        EXPECT_EQ(pa.churn[i].leave, pb.churn[i].leave);
    }
    for (LinkId l = 0; l < 9; ++l) {
        ASSERT_EQ(pa.downs.intervals(l).size(), pb.downs.intervals(l).size());
    }
}

TEST(FaultPlan, PartitionBlocksOnlyAcrossTheActiveCut) {
    FaultPlan plan;
    PartitionEvent ev;
    ev.start = 10 * kSecond;
    ev.heal = 60 * kSecond;
    ev.side = {0, 0, 1, 1};
    plan.partitions.push_back(ev);
    plan.downs.finalize();

    EXPECT_TRUE(plan.partition_active(10 * kSecond));
    EXPECT_FALSE(plan.partition_active(5 * kSecond));
    EXPECT_FALSE(plan.partition_active(60 * kSecond));  // heal exclusive

    EXPECT_TRUE(plan.partition_blocks(0, 2, 30 * kSecond));
    EXPECT_TRUE(plan.partition_blocks(3, 1, 30 * kSecond));
    EXPECT_FALSE(plan.partition_blocks(0, 1, 30 * kSecond));  // same side
    EXPECT_FALSE(plan.partition_blocks(2, 3, 30 * kSecond));
    EXPECT_FALSE(plan.partition_blocks(0, 2, 5 * kSecond));  // not yet
    EXPECT_FALSE(plan.partition_blocks(0, 2, 60 * kSecond));  // healed
    // Nodes beyond the recorded side vector are unpartitioned.
    EXPECT_FALSE(plan.partition_blocks(0, 9, 30 * kSecond));
    EXPECT_FALSE(plan.partition_blocks(9, 10, 30 * kSecond));
}

TEST(FaultPlan, LossAtReportsActiveSpikesOnly) {
    FaultPlan plan;
    plan.spikes.push_back({/*link=*/3, 10 * kSecond, 20 * kSecond, 0.5});
    plan.spikes.push_back({/*link=*/3, 15 * kSecond, 30 * kSecond, 0.3});
    plan.downs.finalize();
    EXPECT_DOUBLE_EQ(plan.loss_at(3, 5 * kSecond), 0.0);
    EXPECT_DOUBLE_EQ(plan.loss_at(3, 12 * kSecond), 0.5);
    EXPECT_DOUBLE_EQ(plan.loss_at(3, 17 * kSecond), 0.5);  // max of both
    EXPECT_DOUBLE_EQ(plan.loss_at(3, 25 * kSecond), 0.3);
    EXPECT_DOUBLE_EQ(plan.loss_at(3, 30 * kSecond), 0.0);  // end exclusive
    EXPECT_DOUBLE_EQ(plan.loss_at(4, 12 * kSecond), 0.0);  // other link
}

// ----------------------------------------------- Transport composition

TEST(Transport, ChaosDownsAndSpikesFoldIntoPassProbability) {
    FailureTimeline timeline;
    timeline.finalize();  // scenario says every link is healthy
    Transport transport(timeline, util::Rng(3));

    FaultPlan plan;
    plan.downs.add_down(1, {10 * kSecond, 20 * kSecond});
    plan.spikes.push_back({/*link=*/2, 0, kMinute, 0.4});
    plan.downs.finalize();

    // Without a plan the transport is untouched.
    EXPECT_DOUBLE_EQ(transport.pass_probability(1, 15 * kSecond), 1.0);

    transport.set_chaos(&plan);
    EXPECT_DOUBLE_EQ(transport.pass_probability(1, 15 * kSecond), 0.0);
    EXPECT_DOUBLE_EQ(transport.pass_probability(1, 25 * kSecond), 1.0);
    EXPECT_DOUBLE_EQ(transport.pass_probability(2, 30 * kSecond), 0.6);
    EXPECT_DOUBLE_EQ(transport.pass_probability(0, 30 * kSecond), 1.0);

    transport.set_chaos(nullptr);
    EXPECT_DOUBLE_EQ(transport.pass_probability(1, 15 * kSecond), 1.0);
}

TEST(Transport, ScenarioDownWinsOverChaos) {
    FailureTimeline timeline;
    timeline.add_down(5, {0, kMinute});
    timeline.finalize();
    Transport transport(timeline, util::Rng(3));
    FaultPlan plan;
    plan.downs.finalize();
    transport.set_chaos(&plan);
    EXPECT_DOUBLE_EQ(transport.pass_probability(5, 30 * kSecond), 0.0);
}

}  // namespace
}  // namespace concilium::net
