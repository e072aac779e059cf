// Soak: the full chaos pipeline -- scenario-built fault plan, cluster with
// retry/backoff, per-packet effects -- must be byte-reproducible at any
// worker count.  This is the in-process version of the nightly
// `soak --chaos ... --jobs 1` vs `--jobs 4` artifact comparison.

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

/// A miniature chaos soak: per-trial fault plan from the trial substream, a
/// chaos-attached cluster, a paced message workload, and a printable row.
/// Returns the concatenated rows (merged in trial order by the driver).
std::string run_soak(const Scenario& world, std::size_t jobs) {
    const ExperimentDriver driver(17, jobs);
    std::string table;
    driver.run(
        3,
        [&](std::uint64_t trial, util::Rng& rng) {
            const net::FaultSpec spec = net::FaultSpec::parse(
                "flap:0.02,churn:0.01,dup:0.05,reorder:0.05");
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
            for (int i = 0; i < 10; ++i) {
                const auto from = static_cast<overlay::MemberIndex>(
                    rng.uniform_index(world.overlay_net().size()));
                cluster.send(from, util::NodeId::random(rng),
                             [&](const runtime::Cluster::MessageOutcome& o) {
                                 if (o.delivered) ++delivered;
                             });
                sim.run_until(sim.now() + 45 * util::kSecond);
            }
            sim.run_until(sim.now() + 2 * util::kMinute);

            return std::to_string(trial) + ":" + std::to_string(delivered) +
                   ":" +
                   std::to_string(cluster.stats().forward_retransmissions) +
                   ":" + std::to_string(cluster.stats().churn_leaves) + "\n";
        },
        [&](std::uint64_t, std::string&& row) { table += row; });
    return table;
}

TEST(ChaosDeterminism, SoakIsByteIdenticalAcrossJobs) {
    // One shared world, as in the benches (scenario construction is
    // single-threaded and jobs-independent by design).
    ScenarioParams params;
    params.topology = net::small_params();
    params.topology.end_hosts = 300;
    params.overlay_nodes_override = 50;
    params.seed = 21;
    const Scenario world(params);

    auto& registry = util::metrics::Registry::global();

    registry.reset();
    const std::string table_seq = run_soak(world, 1);
    const std::string section_seq = metrics_section();

    registry.reset();
    const std::string table_par = run_soak(world, 4);
    const std::string section_par = metrics_section();

    // The printed table and every deterministic metric -- including the
    // chaos.* and runtime.retry.* instruments and the backoff histogram --
    // are byte-identical at any worker count.
    EXPECT_EQ(table_seq, table_par);
    EXPECT_EQ(section_seq, section_par);
    EXPECT_NE(table_seq.find(':'), std::string::npos);
    EXPECT_NE(section_seq.find("\"chaos.plans_built\""), std::string::npos);
    EXPECT_NE(section_seq.find("\"runtime.retry.backoff_seconds\""),
              std::string::npos);
}

TEST(ChaosDeterminism, ScenarioBuildsPlanFromChaosParams) {
    ScenarioParams params;
    params.topology = net::small_params();
    params.topology.end_hosts = 300;
    params.overlay_nodes_override = 40;
    params.chaos = net::FaultSpec::parse("churn:0.05,flap:0.2");
    params.seed = 33;
    const Scenario with_chaos(params);
    EXPECT_FALSE(with_chaos.fault_plan().churn.empty());

    // The same seed without chaos builds the identical world: the plan is
    // drawn after everything else, so enabling chaos never perturbs the
    // scenario's topology, overlay, or failure ground truth.
    ScenarioParams quiet = params;
    quiet.chaos = net::FaultSpec{};
    const Scenario without_chaos(quiet);
    EXPECT_TRUE(without_chaos.fault_plan().churn.empty());
    EXPECT_EQ(with_chaos.overlay_net().size(),
              without_chaos.overlay_net().size());
    for (overlay::MemberIndex m = 0; m < with_chaos.overlay_net().size();
         ++m) {
        ASSERT_EQ(with_chaos.overlay_net().member(m).id(),
                  without_chaos.overlay_net().member(m).id());
    }
}

}  // namespace
}  // namespace concilium::sim
