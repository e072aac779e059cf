// Soak: the crash/partition recovery pipeline -- journaled restarts,
// recovery handshakes, degraded-mode judgments, heal-time resync -- must
// be byte-reproducible at any worker count.  This is the in-process
// version of the nightly recovery sweep's `--jobs 1` vs `--jobs 4` artifact
// comparison.

#include <gtest/gtest.h>

#include <string>

#include "net/chaos.h"
#include "runtime/cluster.h"
#include "sim/experiment_driver.h"
#include "sim/scenario.h"
#include "util/metrics.h"

namespace concilium::sim {
namespace {

/// The deterministic half of the registry's JSON snapshot (everything
/// before the "timing" section).
std::string metrics_section() {
    const std::string json =
        util::metrics::Registry::global().snapshot().to_json();
    const auto cut = json.find("\"timing\"");
    return json.substr(0, cut);
}

/// A miniature recovery soak: per-trial crash/partition plan from the
/// trial substream, a recovery-enabled cluster, a paced workload, and a
/// printable row.  Returns the concatenated rows (merged in trial order).
std::string run_soak(const Scenario& world, std::size_t jobs) {
    const ExperimentDriver driver(23, jobs);
    std::string table;
    driver.run(
        3,
        [&](std::uint64_t trial, util::Rng& rng) {
            const net::FaultSpec spec =
                net::FaultSpec::parse("crash:0.05,partition:0.1");
            auto plan_rng = rng.fork();
            const net::FaultPlan plan = net::build_fault_plan(
                spec.scaled(static_cast<double>(trial)),
                world.params().duration, world.trees().member_peer_paths(),
                world.overlay_net().size(), plan_rng);

            runtime::RuntimeParams params;
            params.forward_retry.max_attempts = 3;
            net::EventSim sim;
            runtime::Cluster cluster(sim, world.timeline(),
                                     world.overlay_net(), world.trees(),
                                     params, {}, rng.fork());
            cluster.set_chaos(&plan);
            cluster.start();
            sim.run_until(3 * util::kMinute);

            std::size_t delivered = 0;
            std::size_t insufficient = 0;
            for (int i = 0; i < 10; ++i) {
                const auto from = static_cast<overlay::MemberIndex>(
                    rng.uniform_index(world.overlay_net().size()));
                cluster.send(from, util::NodeId::random(rng),
                             [&](const runtime::Cluster::MessageOutcome& o) {
                                 if (o.delivered) ++delivered;
                                 if (o.insufficient_evidence) ++insufficient;
                             });
                sim.run_until(sim.now() + 45 * util::kSecond);
            }
            // Past the longest restart delay, so every handshake lands.
            sim.run_until(sim.now() + 5 * util::kMinute);

            return std::to_string(trial) + ":" + std::to_string(delivered) +
                   ":" + std::to_string(insufficient) + ":" +
                   std::to_string(cluster.stats().restarts) + ":" +
                   std::to_string(cluster.stats().partition_heals) + ":" +
                   std::to_string(cluster.stats().stewardships_resumed +
                                  cluster.stats().stewardships_abandoned) +
                   "\n";
        },
        [&](std::uint64_t, std::string&& row) { table += row; });
    return table;
}

TEST(RecoveryDeterminism, SoakIsByteIdenticalAcrossJobs) {
    ScenarioParams params;
    params.topology = net::small_params();
    params.topology.end_hosts = 300;
    params.overlay_nodes_override = 50;
    params.seed = 29;
    const Scenario world(params);

    auto& registry = util::metrics::Registry::global();

    registry.reset();
    const std::string table_seq = run_soak(world, 1);
    const std::string section_seq = metrics_section();

    registry.reset();
    const std::string table_par = run_soak(world, 4);
    const std::string section_par = metrics_section();

    // The printed table and every deterministic metric -- including the
    // recovery.* and partition.* instruments fed by journal replays,
    // handshakes, and heal-time resync -- are byte-identical at any
    // worker count.
    EXPECT_EQ(table_seq, table_par);
    EXPECT_EQ(section_seq, section_par);
    EXPECT_NE(table_seq.find(':'), std::string::npos);
    EXPECT_NE(section_seq.find("\"recovery.crashes\""), std::string::npos);
    EXPECT_NE(section_seq.find("\"partition.activations\""),
              std::string::npos);
    // The soak exercised the machinery it claims to pin down: trials 1-2
    // carry nonzero crash rates, so the crash counter must have fired.
    EXPECT_EQ(section_seq.find("\"recovery.crashes\": 0,"),
              std::string::npos);
}

}  // namespace
}  // namespace concilium::sim
