// Soak: the attack pipeline -- campaign materialization, the Byzantine
// cluster roles, proof filing, and the defense counters -- must be
// byte-reproducible at any worker count.  This is the in-process version of
// the nightly `soak --attack ... --jobs 1` vs `--jobs 4` artifact
// comparison.

#include <gtest/gtest.h>

#include <string>

#include "runtime/attack.h"
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

/// A miniature attack soak: per-trial recruitment from the trial
/// substream, a cluster under campaign roles, a paced message workload, and
/// a printable row.  Returns the concatenated rows (merged in trial order).
std::string run_soak(const Scenario& world, std::size_t jobs) {
    const ExperimentDriver driver(19, jobs);
    std::string table;
    driver.run(
        3,
        [&](std::uint64_t trial, util::Rng& rng) {
            const auto base = runtime::AttackCampaign::parse(
                "equivocate:0.08,replay:0.08,slander:0.06,spam:0.04,"
                "collude:0.06");
            const auto campaign =
                base.scaled(static_cast<double>(trial));
            auto recruit_rng = rng.fork();
            auto behaviors = runtime::materialize_attackers(
                campaign, world.overlay_net().size(), recruit_rng);
            if (trial == 0) behaviors.clear();

            runtime::RuntimeParams params;
            net::EventSim sim;
            runtime::Cluster cluster(sim, world.timeline(),
                                     world.overlay_net(), world.trees(),
                                     params, behaviors, rng.fork());
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

            const auto& s = cluster.stats();
            return std::to_string(trial) + ":" + std::to_string(delivered) +
                   ":" + std::to_string(s.equivocations_published) + ":" +
                   std::to_string(s.replays_published) + ":" +
                   std::to_string(s.slanders_filed) + ":" +
                   std::to_string(s.equivocation_proofs_filed) + ":" +
                   std::to_string(s.revisions_rejected) + ":" +
                   std::to_string(s.dht_puts_rejected) + "\n";
        },
        [&](std::uint64_t, std::string&& row) { table += row; });
    return table;
}

TEST(AttackDeterminism, SoakIsByteIdenticalAcrossJobs) {
    ScenarioParams params;
    params.topology = net::small_params();
    params.topology.end_hosts = 300;
    params.overlay_nodes_override = 50;
    params.seed = 23;
    const Scenario world(params);

    auto& registry = util::metrics::Registry::global();

    registry.reset();
    const std::string table_seq = run_soak(world, 1);
    const std::string section_seq = metrics_section();

    registry.reset();
    const std::string table_par = run_soak(world, 4);
    const std::string section_par = metrics_section();

    // The printed table and every deterministic metric -- including the
    // attack.* recruitment and defense.* rejection counters -- are
    // byte-identical at any worker count.
    EXPECT_EQ(table_seq, table_par);
    EXPECT_EQ(section_seq, section_par);
    EXPECT_NE(table_seq.find(':'), std::string::npos);
    EXPECT_NE(section_seq.find("\"attack.nodes_recruited\""),
              std::string::npos);
    EXPECT_NE(section_seq.find("\"dht.puts\""), std::string::npos);
}

}  // namespace
}  // namespace concilium::sim
