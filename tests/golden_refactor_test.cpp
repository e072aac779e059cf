// Golden seams for the arena/index-addressing refactor.
//
// The memory-architecture refactor (flat storage, calendar queue, interned
// digests) must be behaviour-preserving: routes, verdicts, and generated
// topologies are required to come out byte-identical before and after.
// These checksums were captured against the pre-refactor implementations;
// any divergence means the refactor changed observable behaviour, not just
// layout.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/verdicts.h"
#include "net/chaos.h"
#include "net/paths.h"
#include "net/topology_gen.h"
#include "runtime/cluster.h"
#include "sim/scenario.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/time.h"

namespace concilium {
namespace {

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        h = (h ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
    }
    return h;
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

TEST(GoldenRefactor, PathOracleRoutesAreByteIdentical) {
    util::Rng rng(7);
    const auto topo = net::generate_topology(net::small_params(), rng);
    ASSERT_EQ(topo.router_count(), 204u);
    ASSERT_EQ(topo.link_count(), 241u);

    net::PathOracle oracle(topo);
    std::vector<net::RouterId> dsts;
    for (net::RouterId r = 0; r < topo.router_count(); r += 17) {
        dsts.push_back(r);
    }
    std::uint64_t h = kFnvOffset;
    for (net::RouterId src = 0; src < topo.router_count(); src += 41) {
        const auto paths = oracle.paths_from(src, dsts);
        for (const auto& p : paths) {
            h = fnv(h, p.routers.size());
            for (const auto r : p.routers) h = fnv(h, r);
            for (const auto l : p.links) h = fnv(h, l);
        }
    }
    EXPECT_EQ(h, 0xe41f4298f8a83b96ULL);
}

TEST(GoldenRefactor, VerdictOutcomesAreByteIdentical) {
    core::VerdictLedger ledger{core::VerdictParams{}};
    util::Rng rng(1234);
    std::uint64_t h = kFnvOffset;
    for (int i = 0; i < 5000; ++i) {
        const auto suspect =
            util::NodeId::hash_of(std::string(1, static_cast<char>('a' + i % 23)));
        const auto out = ledger.record(suspect, rng.uniform(),
                                       i * util::kSecond);
        h = fnv(h, static_cast<std::uint64_t>(out.guilty));
        h = fnv(h, static_cast<std::uint64_t>(out.guilty_in_window));
        h = fnv(h, static_cast<std::uint64_t>(out.accusation_triggered));
    }
    for (int k = 0; k < 23; ++k) {
        const auto suspect =
            util::NodeId::hash_of(std::string(1, static_cast<char>('a' + k)));
        const int n = ledger.retract_guilty(suspect, 1000 * util::kSecond,
                                            3000 * util::kSecond);
        h = fnv(h, static_cast<std::uint64_t>(n));
        h = fnv(h, static_cast<std::uint64_t>(ledger.guilty_count(suspect)));
        h = fnv(h, static_cast<std::uint64_t>(ledger.verdict_count(suspect)));
    }
    for (const auto& w : ledger.export_windows()) {
        for (const auto b : w.suspect.bytes()) h = fnv(h, b);
        for (const auto& e : w.entries) {
            h = fnv(h, static_cast<std::uint64_t>(e.guilty));
            h = fnv(h, static_cast<std::uint64_t>(e.at));
        }
    }
    EXPECT_EQ(h, 0x9bce516a5f11c3a9ULL);
}

TEST(GoldenRefactor, FullScanTopologyStatsAreByteIdentical) {
    // Matches `concilium topology --full --seed 1`, which ROADMAP pins as a
    // byte-determinism acceptance gate for the refactor.
    util::Rng rng(1);
    const auto topo = net::generate_topology(net::scan_like_params(), rng);
    const auto s = net::summarize(topo);
    EXPECT_EQ(s.routers, 113302u);
    EXPECT_EQ(s.links, 172975u);
    EXPECT_EQ(s.core_routers, 600u);
    EXPECT_EQ(s.stub_routers, 75302u);
    EXPECT_EQ(s.end_hosts, 37400u);
    EXPECT_NEAR(s.link_router_ratio, 1.526672, 1e-6);
    EXPECT_NEAR(s.mean_interior_degree, 4.065110, 1e-6);
    EXPECT_TRUE(topo.connected());
}

std::uint64_t fnv_outcome(std::uint64_t h,
                          const runtime::Cluster::MessageOutcome& o) {
    h = fnv(h, static_cast<std::uint64_t>(o.delivered));
    h = fnv(h, static_cast<std::uint64_t>(o.network_blamed));
    h = fnv(h, static_cast<std::uint64_t>(o.insufficient_evidence));
    h = fnv(h, static_cast<std::uint64_t>(o.blamed.has_value()));
    if (o.blamed) {
        for (const auto b : o.blamed->bytes()) h = fnv(h, b);
    }
    h = fnv(h, o.route.size());
    for (const auto m : o.route) h = fnv(h, m);
    h = fnv(h, o.true_drop_hop.value_or(~std::size_t{0}));
    h = fnv(h, static_cast<std::uint64_t>(o.true_network_drop));
    h = fnv(h, o.true_network_segment.value_or(~std::size_t{0}));
    return h;
}

std::uint64_t fnv_stats(const runtime::Cluster::Stats& s) {
    const std::size_t fields[] = {
        s.messages, s.delivered, s.dropped_by_forwarder,
        s.dropped_by_network, s.guilty_verdicts, s.innocent_verdicts,
        s.accusations_filed, s.revisions_pushed, s.revisions_applied,
        s.snapshots_published, s.snapshots_rejected, s.lightweight_rounds,
        s.heavyweight_sessions, s.commitments_issued, s.commitments_refused,
        s.reputation_votes, s.advertisements_accepted,
        s.advertisements_rejected, s.forward_retransmissions,
        s.snapshot_retries, s.snapshot_deliveries_failed,
        s.duplicates_suppressed, s.churn_leaves, s.churn_rejoins, s.crashes,
        s.restarts, s.journal_replays, s.recovery_announcements,
        s.recovery_repairs_accepted, s.recovery_repairs_rejected,
        s.stewardships_resumed, s.stewardships_abandoned,
        s.insufficient_verdicts, s.verdicts_retracted,
        s.partition_activations, s.partition_heals,
        s.partition_blocked_packets, s.resync_rounds,
        s.equivocations_published, s.replays_published, s.slanders_filed,
        s.spam_puts, s.collusions_pushed, s.snapshots_rejected_stale,
        s.snapshots_rejected_epoch, s.equivocation_proofs_filed,
        s.revisions_rejected, s.dht_puts_rejected};
    std::uint64_t h = kFnvOffset;
    for (const std::size_t f : fields) h = fnv(h, f);
    return h;
}

TEST(GoldenRefactor, ClusterRunIsByteIdentical) {
    // The event-driven protocol end to end: one dropper, one equivocator
    // and one replayer under flap, churn, crash and partition chaos.  The
    // run crosses mismatching digest lookups, proof filing, retried
    // snapshot deliveries and every cold control event, so any change to
    // event order, RNG draws or archive answers moves a checksum.
    sim::ScenarioParams params;
    params.topology = net::small_params();
    params.topology.end_hosts = 300;
    params.overlay_nodes_override = 40;
    params.duration = 20 * util::kMinute;
    params.chaos = net::FaultSpec::parse(
        "flap:0.05,churn:0.05,crash:0.05,partition:0.2");
    params.seed = 43;
    const sim::Scenario world(params);
    const auto& net = world.overlay_net();
    const std::size_t n = net.size();

    // The workload is drawn up front so the dropper can sit on a route.
    util::Rng pick(5);
    std::vector<std::pair<overlay::MemberIndex, util::NodeId>> sends;
    for (int i = 0; i < 30; ++i) {
        const auto from =
            static_cast<overlay::MemberIndex>(pick.uniform_index(n));
        sends.emplace_back(from, util::NodeId::random(pick));
    }
    overlay::MemberIndex dropper = 0;
    for (const auto& [from, key] : sends) {
        const auto route = net.route(from, key);
        if (route.size() >= 3) {
            dropper = route[1];
            break;
        }
    }
    std::vector<runtime::NodeBehavior> behaviors(n);
    behaviors[dropper].drop_forward_probability = 0.6;
    behaviors[(dropper + 1) % n].equivocate_snapshots = true;
    behaviors[(dropper + 2) % n].replay_snapshots = true;

    auto& registry = util::metrics::Registry::global();
    registry.reset();
    runtime::RuntimeParams rp;
    rp.forward_retry.max_attempts = 3;
    net::EventSim sim;
    runtime::Cluster cluster(sim, world.timeline(), net, world.trees(), rp,
                             behaviors, util::Rng(11));
    cluster.set_chaos(&world.fault_plan());
    cluster.start();
    sim.run_until(3 * util::kMinute);

    std::uint64_t outcomes = kFnvOffset;
    std::size_t completed = 0;
    for (const auto& [from, key] : sends) {
        cluster.send(from, key,
                     [&](const runtime::Cluster::MessageOutcome& o) {
                         outcomes = fnv_outcome(outcomes, o);
                         ++completed;
                     });
        sim.run_until(sim.now() + 20 * util::kSecond);
    }
    sim.run_until(sim.now() + 5 * util::kMinute);

    std::uint64_t counters = kFnvOffset;
    for (const auto& c : registry.snapshot().counters) {
        if (c.timing) continue;
        if (!c.name.starts_with("tomography.") &&
            !c.name.starts_with("defense.") &&
            !c.name.starts_with("net.events_")) {
            continue;
        }
        for (const char ch : c.name) {
            counters = fnv(counters, static_cast<std::uint8_t>(ch));
        }
        counters = fnv(counters, static_cast<std::uint64_t>(c.value));
    }

    // The run reached every path it is meant to pin down.
    const auto& s = cluster.stats();
    EXPECT_GT(completed, 0u);
    EXPECT_GT(s.dropped_by_forwarder, 0u);
    EXPECT_GT(s.equivocation_proofs_filed, 0u);
    EXPECT_GT(s.replays_published, 0u);
    EXPECT_GT(s.snapshot_retries, 0u);
    EXPECT_GT(s.churn_leaves, 0u);
    EXPECT_GT(s.crashes, 0u);
    EXPECT_GT(s.restarts, 0u);
    EXPECT_GT(s.partition_heals, 0u);
    EXPECT_GT(s.resync_rounds, 0u);

    EXPECT_EQ(outcomes, 0x5de431ac0cf8dd13ULL);
    EXPECT_EQ(fnv_stats(s), 0x5baf17aee4d96b3dULL);
    EXPECT_EQ(counters, 0x7558029c0b0e1294ULL);
}

}  // namespace
}  // namespace concilium
