// Soak sweeps: the full protocol runtime under injected faults, a Byzantine
// campaign, or both.
//
//   soak --chaos SPEC [--attack SPEC] [--full] [--seed N] [--samples N] ...
//   soak --attack SPEC ...
//
// The given spec is scaled through an intensity ladder; at each level the
// event-driven cluster runs a paced workload and every message is scored
// against simulation ground truth by runtime::classify_outcome.  The specs
// pick one of three sweeps (the Sweep constants below):
//
//   attack    any --attack (a --chaos spec applies alongside it): evasion,
//             verified slander, and false accusations -- blame that lands
//             on a node that is not Byzantine.
//   recovery  --chaos with a crash or partition kind: false-accusation and
//             orphaned-message rates, abstentions, crashes, retractions.
//   chaos     any other --chaos: false-accusation rate, retransmissions,
//             churn.
//
// tools/check_soak.py gates the nightly build on each sweep's metrics.  One
// driver trial per intensity level; fault plans, recruitment and the
// workload are pure functions of the trial substream, so the table and the
// deterministic metrics section are byte-identical at any --jobs count.

#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/trace.h"
#include "runtime/cluster.h"
#include "runtime/outcome.h"
#include "util/metrics.h"

namespace {

using namespace concilium;

void append(std::string& out, const char* fmt, auto... args) {
    char buf[64];
    std::snprintf(buf, sizeof buf, fmt, args...);
    out += buf;
}

/// One intensity level's scores; each sweep prints and exports a subset.
struct Tally {
    std::size_t messages = 0;
    std::size_t attackers = 0;
    std::size_t delivered = 0;
    std::size_t completed = 0;
    std::size_t diagnosed = 0;
    std::size_t correct = 0;
    std::size_t false_accusations = 0;
    std::size_t insufficient = 0;
    std::size_t orphans = 0;
    std::size_t with_drops = 0;
    std::size_t caught = 0;
    std::size_t evaded = 0;
    std::size_t slander_successes = 0;
    std::size_t proofs = 0;
    std::size_t retransmissions = 0;
    std::size_t churn = 0;
    std::size_t crashes = 0;
    std::size_t retracted = 0;
    std::size_t resyncs = 0;
    std::size_t trace_recorded = 0;
    double false_rate = 0.0;
    double evasion_rate = 0.0;
};

/// A table column after the leading intensity: a count, or (when `rate`
/// is set) a four-decimal rate.
struct Column {
    const char* name;
    int width;
    std::size_t Tally::*count;
    double Tally::*rate;
};

/// A counter the sweep exports, named in full so a search for the metric
/// finds where it is set.
struct Counter {
    const char* name;
    std::size_t Tally::*value;
};

constexpr Column kChaosColumns[] = {
    {"delivered", 10, &Tally::delivered, nullptr},
    {"diagnosed", 10, &Tally::diagnosed, nullptr},
    {"false_acc", 10, &Tally::false_accusations, nullptr},
    {"false_rate", 10, nullptr, &Tally::false_rate},
    {"retransmit", 10, &Tally::retransmissions, nullptr},
    {"churn", 10, &Tally::churn, nullptr},
    {"trace", 8, &Tally::trace_recorded, nullptr},
};
constexpr Counter kChaosCounters[] = {
    {"chaos.diagnosed_messages", &Tally::diagnosed},
    {"chaos.false_accusations", &Tally::false_accusations},
    {"chaos.correct_accusations", &Tally::correct},
};

constexpr Column kAttackColumns[] = {
    {"attackers", 10, &Tally::attackers, nullptr},
    {"delivered", 10, &Tally::delivered, nullptr},
    {"diagnosed", 10, &Tally::diagnosed, nullptr},
    {"caught", 8, &Tally::caught, nullptr},
    {"evaded", 8, &Tally::evaded, nullptr},
    {"evasion_rate", 12, nullptr, &Tally::evasion_rate},
    {"slander_ok", 10, &Tally::slander_successes, nullptr},
    {"false_acc", 10, &Tally::false_accusations, nullptr},
    {"proofs", 8, &Tally::proofs, nullptr},
};
constexpr Counter kAttackCounters[] = {
    {"attack.diagnosed_messages", &Tally::diagnosed},
    {"attack.false_accusations", &Tally::false_accusations},
    {"attack.attackers_with_drops", &Tally::with_drops},
    {"attack.attackers_caught", &Tally::caught},
    {"attack.attackers_evaded", &Tally::evaded},
    {"attack.slander_successes", &Tally::slander_successes},
};

constexpr Column kRecoveryColumns[] = {
    {"delivered", 10, &Tally::delivered, nullptr},
    {"diagnosed", 10, &Tally::diagnosed, nullptr},
    {"false_acc", 10, &Tally::false_accusations, nullptr},
    {"false_rate", 10, nullptr, &Tally::false_rate},
    {"insuff", 8, &Tally::insufficient, nullptr},
    {"crashes", 8, &Tally::crashes, nullptr},
    {"retract", 8, &Tally::retracted, nullptr},
    {"orphans", 8, &Tally::orphans, nullptr},
    {"resync", 8, &Tally::resyncs, nullptr},
};
constexpr Counter kRecoveryCounters[] = {
    {"recovery.soak_messages", &Tally::messages},
    {"recovery.diagnosed_messages", &Tally::diagnosed},
    {"recovery.false_accusations", &Tally::false_accusations},
    {"recovery.correct_attributions", &Tally::correct},
    {"recovery.insufficient_outcomes", &Tally::insufficient},
    {"recovery.orphaned_messages", &Tally::orphans},
};

constexpr double kFiveLevels[] = {0.0, 0.5, 1.0, 2.0, 4.0};
constexpr double kFourLevels[] = {0.0, 0.5, 1.0, 2.0};

/// What genuinely differs between the sweeps; everything else is shared.
struct Sweep {
    const char* report;  ///< --bench-out name
    const char* figure;
    const char* caption;
    const char* false_series;  ///< false accusations by sim-minute
    std::uint64_t driver_seed;
    std::span<const double> intensities;
    /// Steward tries per hop before judging: chaos and recovery runs
    /// retransmit, so transient IP loss -- or a loss just before a heal or
    /// a restart -- does not masquerade as a malicious drop.
    int forward_attempts;
    /// Post-workload settle.  Recovery waits out the slowest crash restart
    /// (4 min) plus the diagnosis tail, so stewardship resumes complete.
    util::SimTime settle;
    std::span<const Column> columns;
    std::span<const Counter> counters;
};

constexpr Sweep kChaosSweep{
    .report = "soak_chaos",
    .figure = "soak-chaos",
    .caption = "false-accusation rate vs chaos intensity",
    .false_series = "chaos.false_accusations.by_minute",
    .driver_seed = 93,
    .intensities = kFiveLevels,
    .forward_attempts = 3,
    .settle = 5 * util::kMinute,
    .columns = kChaosColumns,
    .counters = kChaosCounters,
};
constexpr Sweep kAttackSweep{
    .report = "soak_attacks",
    .figure = "soak-attacks",
    .caption = "evidence-integrity defenses vs campaign intensity",
    .false_series = "attack.false_accusations.by_minute",
    .driver_seed = 107,
    .intensities = kFourLevels,
    .forward_attempts = 1,
    .settle = 5 * util::kMinute,
    .columns = kAttackColumns,
    .counters = kAttackCounters,
};
constexpr Sweep kRecoverySweep{
    .report = "soak_recovery",
    .figure = "soak-recovery",
    .caption = "false-accusation / orphan rates vs crash+partition intensity",
    .false_series = "recovery.false_accusations.by_minute",
    .driver_seed = 94,
    .intensities = kFiveLevels,
    .forward_attempts = 3,
    .settle = 10 * util::kMinute,
    .columns = kRecoveryColumns,
    .counters = kRecoveryCounters,
};

const Sweep& pick_sweep(const bench::BenchArgs& args) {
    if (!args.attack.empty()) return kAttackSweep;
    const bool recovery = args.chaos.rate(net::FaultKind::kCrash) > 0.0 ||
                          args.chaos.rate(net::FaultKind::kPartition) > 0.0;
    return recovery ? kRecoverySweep : kChaosSweep;
}

std::string header_line(const Sweep& sweep) {
    std::string out;
    append(out, "%-10s", "intensity");
    for (const Column& c : sweep.columns) append(out, " %-*s", c.width, c.name);
    return out + "\n";
}

std::string row_line(const Sweep& sweep, double intensity, const Tally& t) {
    std::string out;
    append(out, "%-10.2g", intensity);
    for (const Column& c : sweep.columns) {
        if (c.rate != nullptr) {
            append(out, " %-*.4f", c.width, t.*c.rate);
        } else {
            append(out, " %-*zu", c.width, t.*c.count);
        }
    }
    return out + "\n";
}

double ratio(std::size_t num, std::size_t den) {
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
}

/// One row of the sweep plus the trial's retained blame journal (empty
/// unless --trace-out is armed).
struct LevelOut {
    std::string row;
    std::vector<core::DiagnosisRecord> trace_records;
    std::uint64_t trace_total = 0;
};

}  // namespace

int main(int argc, char** argv) {
    using namespace concilium;
    const auto args = bench::parse_args(argc, argv);
    if (args.chaos.empty() && args.attack.empty()) {
        std::fprintf(stderr, "soak: give --chaos SPEC, --attack SPEC, or "
                             "both\n");
        bench::usage(argv[0]);
    }
    const Sweep& sweep = pick_sweep(args);
    bench::BenchReport report(sweep.report, args);

    // The runtime simulates every probe packet, so the world stays small
    // (the runtime_e2e scale).
    sim::ScenarioParams world_params;
    world_params.topology = net::small_params();
    world_params.topology.end_hosts = args.full ? 1500 : 600;
    world_params.topology.stub_domains = args.full ? 40 : 16;
    world_params.overlay_nodes_override = args.full ? 220 : 90;
    world_params.duration = 2 * util::kHour;
    world_params.seed = args.seed;
    const sim::Scenario world(world_params);
    const auto& overlay_net = world.overlay_net();

    const std::size_t message_count =
        args.samples != 0 ? args.samples : (args.full ? 300 : 120);

    bench::print_header(sweep.figure, sweep.caption);
    if (args.attack.empty()) {
        bench::print_param("base_spec", args.chaos.to_string());
    } else {
        bench::print_param("base_spec", args.attack.to_string());
        if (!args.chaos.empty()) {
            bench::print_param("chaos_spec", args.chaos.to_string());
        }
    }
    bench::print_param("overlay_nodes",
                       static_cast<double>(overlay_net.size()));
    bench::print_param("messages", static_cast<double>(message_count));
    bench::print_param("seed", static_cast<double>(args.seed));
    std::fputs(header_line(sweep).c_str(), stdout);

    const auto driver = bench::make_driver(args, sweep.driver_seed);

    // Windowed sim-clock series: false accusations bucketed by the virtual
    // minute they were diagnosed in.  Sum mode commutes, so the exported
    // windows stay byte-identical at any --jobs count.
    auto& false_acc_by_minute = util::metrics::Registry::global().series(
        sweep.false_series, util::kMinute, 240,
        util::metrics::SeriesMetric::Mode::kSum);

    const auto run_level = [&](std::uint64_t trial, util::Rng& rng) {
        const double intensity = sweep.intensities[trial];

        // The fault plan and the recruitment are pure functions of the
        // trial substream.  Forks are drawn only for the families present,
        // so a single-family sweep keeps its stream.
        net::FaultPlan plan;
        if (!args.chaos.empty()) {
            auto plan_rng = rng.fork();
            plan = net::build_fault_plan(
                args.chaos.scaled(intensity), world_params.duration,
                world.trees().member_peer_paths(), overlay_net.size(),
                plan_rng);
        }
        std::vector<runtime::NodeBehavior> behaviors;
        if (!args.attack.empty()) {
            auto recruit_rng = rng.fork();
            behaviors = runtime::materialize_attackers(
                args.attack.scaled(intensity), overlay_net.size(),
                recruit_rng);
            if (intensity == 0.0) behaviors.clear();  // all honest baseline
        }
        const auto is_byzantine = [&](overlay::MemberIndex m) {
            return !behaviors.empty() && behaviors[m].byzantine();
        };

        runtime::RuntimeParams params;
        params.forward_retry.max_attempts = sweep.forward_attempts;
        core::DiagnosisTrace trace(512);
        net::EventSim sim;
        runtime::Cluster cluster(sim, world.timeline(), overlay_net,
                                 world.trees(), params, behaviors,
                                 rng.fork());
        if (!args.chaos.empty()) cluster.set_chaos(&plan);
        cluster.set_trace(&trace);
        cluster.start();
        sim.run_until(3 * util::kMinute);

        Tally t;
        t.messages = message_count;
        std::vector<bool> dropped_one(overlay_net.size(), false);
        std::vector<bool> blamed_once(overlay_net.size(), false);
        for (std::size_t i = 0; i < message_count; ++i) {
            const auto from = static_cast<overlay::MemberIndex>(
                rng.uniform_index(overlay_net.size()));
            cluster.send(
                from, util::NodeId::random(rng),
                [&](const runtime::Cluster::MessageOutcome& res) {
                    ++t.completed;
                    const runtime::OutcomeClass cls =
                        runtime::classify_outcome(res, overlay_net);
                    if (cls == runtime::OutcomeClass::kDelivered) {
                        ++t.delivered;
                        return;
                    }
                    if (res.true_drop_hop.has_value()) {
                        dropped_one[res.route[*res.true_drop_hop]] = true;
                    }
                    if (cls == runtime::OutcomeClass::kAbstained) {
                        ++t.insufficient;
                        return;
                    }
                    if (cls == runtime::OutcomeClass::kUnscored) return;
                    ++t.diagnosed;
                    const std::optional<overlay::MemberIndex> blamed =
                        res.blamed.has_value()
                            ? overlay_net.index_of(*res.blamed)
                            : std::nullopt;
                    if (blamed.has_value()) blamed_once[*blamed] = true;
                    if (cls == runtime::OutcomeClass::kCorrect) {
                        ++t.correct;
                    } else if (cls ==
                                   runtime::OutcomeClass::kFalseAccusation &&
                               !(blamed.has_value() &&
                                 is_byzantine(*blamed))) {
                        // Blame on a Byzantine node is never false: it
                        // misbehaves whether or not it dropped this one.
                        ++t.false_accusations;
                        false_acc_by_minute.observe(sim.now());
                    }
                });
            // Pace the workload across the virtual two hours.
            sim.run_until(sim.now() + 45 * util::kSecond);
        }
        sim.run_until(sim.now() + sweep.settle);
        t.orphans = message_count - t.completed;

        if (!args.attack.empty()) {
            // Score the campaign against the repository, as a third party
            // would.
            for (overlay::MemberIndex m = 0; m < overlay_net.size(); ++m) {
                const bool byz = is_byzantine(m);
                if (byz) ++t.attackers;

                bool proven = false;
                for (const auto& proof :
                     cluster.equivocation_proofs_against(m)) {
                    if (cluster.verify(proof, m) ==
                        core::EquivocationCheck::kOk) {
                        proven = true;
                    }
                }
                if (proven) ++t.proofs;

                bool verified_accusation = false;
                for (const auto& acc : cluster.accusations_against(m)) {
                    if (cluster.verify(acc) != core::AccusationCheck::kOk) {
                        continue;
                    }
                    verified_accusation = true;
                    // Was this verified accusation filed by a slanderer?
                    const auto accuser = overlay_net.index_of(acc.accuser);
                    if (!behaviors.empty() && accuser.has_value() &&
                        behaviors[*accuser].slander) {
                        ++t.slander_successes;
                    }
                }

                if (!byz) continue;
                const bool detected =
                    blamed_once[m] || verified_accusation || proven;
                if (detected) ++t.caught;
                if (dropped_one[m] && !detected) ++t.evaded;
                if (dropped_one[m]) ++t.with_drops;
            }
        }

        const auto& stats = cluster.stats();
        t.retransmissions = stats.forward_retransmissions;
        t.churn = stats.churn_leaves + stats.churn_rejoins;
        t.crashes = stats.crashes;
        t.retracted = stats.verdicts_retracted;
        t.resyncs = stats.resync_rounds;
        t.trace_recorded = trace.total_recorded();
        t.false_rate = ratio(t.false_accusations, t.diagnosed);
        t.evasion_rate = ratio(t.evaded, t.with_drops);

        auto& reg = util::metrics::Registry::global();
        for (const Counter& c : sweep.counters) {
            reg.counter(c.name).add(static_cast<std::int64_t>(t.*c.value));
        }

        LevelOut out;
        out.row = row_line(sweep, intensity, t);
        if (bench::trace_out_armed()) {
            out.trace_records = trace.records();
            out.trace_total = trace.total_recorded();
        }
        return out;
    };

    driver.run(
        sweep.intensities.size(),
        [&](std::uint64_t trial, util::Rng& rng) {
            return run_level(trial, rng);
        },
        [](std::uint64_t, LevelOut&& out) {
            std::fputs(out.row.c_str(), stdout);
            bench::trace_sink_add(std::move(out.trace_records),
                                  out.trace_total);
        });
    return 0;
}
