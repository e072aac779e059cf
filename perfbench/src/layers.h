// The per-layer metrics every traced run reports.  Each workload fills the
// inputs it measured; a layer the workload does not exercise reads 0, which
// is itself the prediction README.md states for that (layer, workload) pair.

#pragma once

#include <map>
#include <string>

#include "harness.h"
#include "overlay/network.h"
#include "runtime/cluster.h"
#include "sim/scenario.h"

namespace perfbench {

/// Nanoseconds per tomography::sample_striped_probe call on the scenario's
/// own trees and failure timeline.
double stripe_ns(const concilium::sim::Scenario& scenario, std::uint64_t seed);

/// Nanoseconds per SnapshotArchive::digest_of over every (origin, epoch)
/// the cluster's final archives hold; 0 when they hold none.
double digest_lookup_ns(const concilium::runtime::Cluster& cluster,
                        const concilium::overlay::OverlayNetwork& net);

/// Mean routing peers per member (the snapshot gossip fan-out).
double mean_fanout(const concilium::overlay::OverlayNetwork& net);

struct LayerInputs {
    double cpu_s = 0.0;     ///< CPU seconds of the traced pass
    double messages = 0.0;  ///< application messages (or diagnoses) fed
    double path_bytes = 0.0;
    double stripe_ns = 0.0;
    double digest_lookup_ns = 0.0;
    double dispatch_pod_ns = 0.0;
    double dispatch_callback_ns = 0.0;
    double driver_utilization = 0.0;
    double parallel_eff = 0.0;
    double runtime_start_s = 0.0;
    double routing_fanout = 0.0;  ///< mean routing peers per member
    double verify_ms = 0.0;
    double audit_s = 0.0;
    double daemon_parse_s = 0.0;
    double daemon_build_s = 0.0;
    double daemon_run_s = 0.0;
    double checkpoint_bytes = 0.0;
    double io_ops = 0.0;
    double state_text_ms = 0.0;
    Scoring score;          ///< ground-truth tally of the traced pass
    double run_s = 0.0;     ///< wall seconds behind `score`
    double trace_overhead_frac = 0.0;
    double step_samples = 0.0;
};

/// Sets every per-layer metric in `result` from the inputs, the counter
/// deltas over the traced pass, the benchmark's spans and the drained
/// program spans.  Returns seconds per layer for the layer table.
std::map<std::string, double> report_layers(Result& result,
                                            const CounterDelta& counters,
                                            const LayerInputs& in);

}  // namespace perfbench
