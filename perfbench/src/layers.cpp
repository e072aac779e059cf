#include "layers.h"

#include <algorithm>

#include "tomography/probing.h"

namespace perfbench {

namespace {

using namespace concilium;
using util::spans::SpanType;

double per(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

// External linkage keeps the timed lookups from being optimized away.
std::uint64_t g_lookup_sink = 0;

double stripe_ns(const sim::Scenario& scenario, std::uint64_t seed) {
    const auto& net = scenario.overlay_net();
    const auto& timeline = scenario.timeline();
    const tomography::PassProbabilityFn pass = [&](net::LinkId l,
                                                   util::SimTime t) {
        return timeline.is_up(l, t) ? 1.0 : 0.0;
    };
    util::Rng rng(seed ^ 0x57121BEULL);
    const auto span = static_cast<double>(scenario.params().duration);
    return ns_per_call(0.1, 16, [&](std::size_t i) {
        const auto m = static_cast<overlay::MemberIndex>(i % net.size());
        const auto t = static_cast<util::SimTime>(rng.uniform(0.0, span));
        (void)tomography::sample_striped_probe(scenario.tree(m), pass, t, {},
                                               rng);
    });
}

double digest_lookup_ns(const runtime::Cluster& cluster,
                        const overlay::OverlayNetwork& net) {
    struct Key {
        overlay::MemberIndex holder;
        util::NodeId origin;
        std::uint64_t epoch;
    };
    std::vector<Key> keys;
    for (overlay::MemberIndex m = 0; m < net.size(); ++m) {
        for (const auto p : net.routing_peers(m)) {
            const auto& id = net.member(p).id();
            for (const auto* snap : cluster.archive(m).snapshots_from(id)) {
                keys.push_back({m, id, snap->epoch});
            }
        }
    }
    if (keys.empty()) return 0.0;
    std::uint64_t sink = 0;
    const double ns = ns_per_call(0.05, keys.size(), [&](std::size_t i) {
        const Key& k = keys[i % keys.size()];
        sink += cluster.archive(k.holder).digest_of(k.origin, k.epoch);
    });
    g_lookup_sink += sink;
    return ns;
}

double mean_fanout(const overlay::OverlayNetwork& net) {
    double sum = 0.0;
    for (overlay::MemberIndex m = 0; m < net.size(); ++m) {
        sum += static_cast<double>(net.routing_peers(m).size());
    }
    return net.size() == 0 ? 0.0 : sum / static_cast<double>(net.size());
}

std::map<std::string, double> report_layers(Result& r,
                                            const CounterDelta& c,
                                            const LayerInputs& in) {
    const auto stats = span_stats();
    const auto stat = [&](const char* name) {
        const auto it = stats.find(name);
        return it == stats.end() ? SpanStat{} : it->second;
    };
    const auto mean_ns = [&](const char* name) {
        const SpanStat s = stat(name);
        return per(s.total_s * 1e9, static_cast<double>(s.count));
    };
    const auto& prog = program_spans();

    // sim
    r.set("sim.world.topology_gen_s", prog.s(SpanType::kTopologyGen), "s");
    r.set("sim.world.overlay_build_s", prog.s(SpanType::kOverlayBuild), "s");
    r.set("sim.world.tree_build_s", prog.s(SpanType::kTreeBuild), "s");
    r.set("sim.world.failure_timeline_s", prog.s(SpanType::kFailureTimeline),
          "s");
    r.set("sim.world.scenario_index_s", prog.s(SpanType::kScenarioIndex), "s");
    r.set("sim.gather_probes_ns", mean_ns("sim.gather_probes"), "ns");
    r.set("sim.driver.worker_utilization", in.driver_utilization, "ratio");
    r.set("sim.driver.parallel_eff", in.parallel_eff, "ratio");

    // tomography
    const double stripes = c("tomography.stripes_sampled");
    const double mle_s = prog.s(SpanType::kMleSolve);
    const double hw_s = prog.s(SpanType::kHeavyweightSession) +
                        stat("tomography.heavyweight").total_s;
    r.set("tomography.stripes_sampled", stripes, "count");
    r.set("tomography.probes_per_msg",
          per(c("tomography.probes_issued"), in.messages), "probes/msg");
    r.set("tomography.stripe_ns", in.stripe_ns, "ns");
    const double probe_s = stripes * in.stripe_ns * 1e-9;
    r.set("tomography.probe_share", per(probe_s, in.cpu_s), "ratio");
    r.set("tomography.heavyweight_s", hw_s, "s");
    r.set("tomography.mle_s", mle_s, "s");
    r.set("tomography.infer_ns",
          per(mle_s * 1e9,
              static_cast<double>(prog.n(SpanType::kMleSolve))),
          "ns");
    r.set("tomography.solver_iterations", c("tomography.solver_iterations"),
          "count");
    r.set("tomography.coverage_s", stat("tomography.coverage").total_s, "s");
    r.set("tomography.path_bytes", in.path_bytes, "bytes");

    // net
    const double events = c("net.events_executed");
    r.set("net.events_executed", events, "count");
    r.set("net.events_per_msg", per(events, in.messages), "events/msg");
    r.set("net.eventsim.queue_high_water",
          gauge("net.eventsim.queue_high_water"), "count");
    r.set("net.dispatch_pod_ns", in.dispatch_pod_ns, "ns");
    r.set("net.dispatch_callback_ns", in.dispatch_callback_ns, "ns");
    r.set("net.packets_sent", c("net.packets_sent"), "count");
    r.set("net.packets_dropped", c("net.packets_dropped"), "count");

    // runtime
    const double published = c("runtime.snapshots_published");
    r.set("runtime.start_s", in.runtime_start_s, "s");
    r.set("runtime.snapshots_published", published, "count");
    r.set("runtime.snapshot_deliveries", published * in.routing_fanout,
          "count");
    r.set("runtime.digest_lookup_ns", in.digest_lookup_ns, "ns");
    r.set("defense.equivocation_proofs_filed",
          c("defense.equivocation_proofs_filed"), "count");
    r.set("defense.snapshots_rejected_epoch",
          c("defense.snapshots_rejected_epoch"), "count");
    r.set("defense.snapshots_rejected_stale",
          c("defense.snapshots_rejected_stale"), "count");
    r.set("runtime.retry.forward_attempts",
          c("runtime.retry.forward_attempts"), "count");
    r.set("runtime.retry.snapshot_retries",
          c("runtime.retry.snapshot_retries"), "count");

    // core and crypto
    const double hits = c("crypto.verify.cache_hit");
    const double lookups = hits + c("crypto.verify.cache_miss");
    r.set("core.blame_ns", mean_ns("core.blame"), "ns");
    r.set("core.blame_evaluations", c("core.blame_evaluations"), "count");
    r.set("core.verdicts_guilty", c("core.verdicts_guilty"), "count");
    r.set("core.verdicts_innocent", c("core.verdicts_innocent"), "count");
    r.set("core.verify_ms", in.verify_ms, "ms");
    r.set("crypto.verify_hit_ratio", per(hits, lookups), "ratio");
    r.set("crypto.verify_lookups", lookups, "count");

    // dht and overlay
    r.set("dht.puts", c("dht.puts"), "count");
    r.set("dht.gets", c("dht.gets"), "count");
    r.set("dht.puts_rejected_quota", c("dht.puts_rejected_quota"), "count");
    r.set("dht.audit_s", in.audit_s, "s");
    r.set("overlay.ads_validated", c("overlay.ads_validated"), "count");
    r.set("overlay.ads_rejected", c("overlay.ads_rejected"), "count");

    // daemon
    const double checkpoints = c("daemon.checkpoints_written");
    r.set("daemon.parse_s", in.daemon_parse_s, "s");
    r.set("daemon.build_s", in.daemon_build_s, "s");
    r.set("daemon.run_s", in.daemon_run_s, "s");
    r.set("daemon.ticks", c("daemon.ticks"), "count");
    r.set("daemon.checkpoints_written", checkpoints, "count");
    r.set("daemon.checkpoint_bytes", in.checkpoint_bytes, "bytes");
    r.set("daemon.io_ops", in.io_ops, "count");
    r.set("daemon.state_text_ms", in.state_text_ms, "ms");
    r.set("daemon.checkpoint_share",
          per(checkpoints * in.state_text_ms * 1e-3, in.daemon_run_s),
          "ratio");
    r.set("recovery.journal_replays", c("recovery.journal_replays"), "count");
    r.set("recovery.restarts", c("recovery.restarts"), "count");

    // diagnosis quality (ground truth) and the run itself
    report_quality(r, in.score, in.run_s);
    r.set("trace_overhead_frac", in.trace_overhead_frac, "ratio");
    r.set("steps.samples", in.step_samples, "count");
    r.set("spans.program_lost", static_cast<double>(prog.lost), "count");

    // Seconds per layer.  Measured: the self time of the benchmark's spans,
    // by the layer prefix of their names, with the program's own
    // heavyweight/MLE wall spans moved out of the span that enclosed them.
    // Estimated: lightweight striped probes, which run inside EventSim
    // dispatch and have no span; stripes x stripe_ns is moved from the
    // enclosing layer into tomography when it exceeds the spans' share.
    std::map<std::string, double> layers;
    for (const auto& [name, s] : stats) {
        layers[name.substr(0, name.find('.'))] += s.self_s;
    }
    const double program_tomo = prog.s(SpanType::kHeavyweightSession) > 0.0
                                    ? prog.s(SpanType::kHeavyweightSession)
                                    : mle_s;
    const double tomo = std::max(program_tomo, probe_s);
    const char* host = layers.count("daemon") != 0 ? "daemon" : "net";
    if (layers.count(host) != 0 && tomo > 0.0) {
        const double moved = std::min(tomo, layers[host]);
        layers[host] -= moved;
        layers["tomography"] += moved;
    }
    return layers;
}

}  // namespace perfbench
