// scan_world: the paper-scale SCAN world (bench_scale --full), built and
// then judged.  Every diagnosis covers one sampled (A, B, C) triple: A's
// forest coverage, the probe evidence A gathers about B -> C, the blame
// verdict on B, and a heavyweight MINC session with link-loss inference on
// A's tree.  Diagnoses run on sim::ExperimentDriver workers; trial q always
// draws from the driver's substream q, so the verdict sequence -- and its
// digest -- is the same at any worker count.

#include <memory>

#include "core/blame.h"
#include "harness.h"
#include "layers.h"
#include "speed.h"
#include "sim/experiment_driver.h"
#include "sim/scenario.h"
#include "tomography/inference.h"
#include "tomography/probing.h"
#include "tomography/tree.h"

namespace perfbench {

namespace {

using namespace concilium;

constexpr std::uint64_t kWorldSeed = 1;

sim::ScenarioParams world_params(const Args& args) {
    sim::ScenarioParams p;
    if (args.tiny()) {
        p.topology = net::small_params();
        p.topology.end_hosts = 400;
        p.overlay_nodes_override = 40;
    } else {
        p.topology = net::scan_like_params();
        p.overlay_fraction = 0.03;
    }
    p.duration = 2 * util::kHour;
    // The world is a fixture (bench_scale's default world), so every run
    // builds and judges the same world; the seed draws the triples.  The
    // per-diagnosis tail differed across seeded worlds by more than the
    // bounds allow.
    p.seed = kWorldSeed;
    return p;
}

struct Verdict {
    overlay::MemberIndex a = 0, b = 0, c = 0;
    bool guilty = false;
    bool path_bad = false;
    std::int64_t blame_nano = 0;
    std::int64_t coverage_nano = 0;
    std::size_t probes = 0;
    std::size_t inferred_links = 0;
    /// Compute time of this diagnosis on its worker's CPU clock (not
    /// digested).  With every core busy, wall time would also count the
    /// worker's preemption by anything else on the machine.
    double ms = 0.0;
};

Verdict diagnose(const sim::Scenario& scenario, std::uint64_t q,
                 util::Rng& rng) {
    const Span outer("sim.diagnose");
    const double t0 = thread_cpu_s();
    const auto& net = scenario.overlay_net();
    const auto& blame_params = scenario.params().blame;
    Verdict v;
    std::optional<sim::Scenario::Triple> triple;
    while (!triple.has_value()) triple = scenario.sample_triple(rng);
    v.a = triple->a;
    v.b = triple->b;
    v.c = triple->c;
    const auto t = static_cast<util::SimTime>(rng.uniform(
        static_cast<double>(blame_params.delta),
        static_cast<double>(scenario.params().duration - blame_params.delta)));

    {
        const Span span("tomography.coverage");
        std::vector<const tomography::ProbeTree*> trees{&scenario.tree(v.a)};
        for (const auto p : net.routing_peers(v.a)) {
            trees.push_back(&scenario.tree(p));
        }
        const tomography::Forest forest(trees);
        v.coverage_nano = std::llround(forest.coverage(trees.size()) * 1e9);
    }

    const auto path = scenario.path_links(v.b, v.c);
    std::vector<core::ProbeResult> probes;
    {
        const Span span("sim.gather_probes");
        probes = scenario.gather_probes(v.a, path, t,
                                        sim::Scenario::CollusionStance::kNone,
                                        q, /*reporter_cap=*/8);
    }
    v.probes = probes.size();
    {
        const Span span("core.blame");
        const auto breakdown = core::compute_blame(
            path, probes, t, net.member(v.b).id(), blame_params);
        v.blame_nano = std::llround(breakdown.blame * 1e9);
        v.guilty = breakdown.blame >= 0.5;
    }
    v.path_bad = scenario.path_bad(path, t);

    const auto& tree = scenario.tree(v.a);
    if (!tree.leaves().empty()) {
        const auto& timeline = scenario.timeline();
        const tomography::PassProbabilityFn pass =
            [&](net::LinkId l, util::SimTime at) {
                return timeline.is_up(l, at) ? 1.0 : 0.0;
            };
        tomography::HeavyweightParams hw;
        hw.probe_count = 24;
        tomography::HeavyweightResult session;
        {
            const Span span("tomography.heavyweight");
            session =
                tomography::run_heavyweight_session(tree, pass, t, hw, {}, rng);
        }
        const Span span("tomography.infer");
        v.inferred_links =
            tomography::infer_link_loss(tree, session.probes).links.size();
    }
    v.ms = (thread_cpu_s() - t0) * 1e3;
    return v;
}

void digest_verdict(Digest& d, std::uint64_t q, const Verdict& v) {
    d.add(q);
    d.add(static_cast<std::uint64_t>(v.a) << 32 | v.b);
    d.add(static_cast<std::uint64_t>(v.c) << 2 |
          static_cast<std::uint64_t>(v.guilty) << 1 |
          static_cast<std::uint64_t>(v.path_bad));
    d.add(static_cast<std::uint64_t>(v.blame_nano));
    d.add(static_cast<std::uint64_t>(v.coverage_nano));
    d.add(v.probes);
    d.add(v.inferred_links);
}

/// What a block of diagnoses [first, first + count) produced.
struct Block {
    std::uint64_t count = 0;
    std::uint64_t digest = 0;
    std::uint64_t prefix_digest = 0;  ///< over the first kPrefix diagnoses
    Scoring score;
    std::vector<double> step_ms;
    std::vector<double> batch_rates;  ///< diagnoses per wall second, per batch
    double wall = 0.0;
    double busy = 0.0;
    double cpu = 0.0;
};

constexpr std::uint64_t kPrefix = 48;

/// Runs diagnoses in driver batches until `count` are done, or -- when
/// `count` is 0 -- until `seconds` of wall time have passed.  `speed`, if
/// given, samples between batches; wall and cpu leave its samples out.
Block run_block(const sim::Scenario& scenario, const Args& args,
                std::size_t workers, std::uint64_t count, double seconds,
                Speed* speed = nullptr) {
    const sim::ExperimentDriver driver(args.seed + 47, workers);
    const std::uint64_t batch = 32 * workers;
    Block out;
    Digest digest;
    const double w0 = wall_s();
    const double c0 = cpu_s();
    const double sampled_wall = speed ? speed->spent_wall_s() : 0.0;
    const double sampled_cpu = speed ? speed->spent_cpu_s() : 0.0;
    while (count != 0 ? out.count < count
                      : (out.count == 0 || wall_s() - w0 < seconds)) {
        if (speed) speed->maybe_sample();
        const std::uint64_t base = out.count;
        const double b0 = wall_s();
        const std::uint64_t n =
            count != 0 ? std::min(batch, count - out.count) : batch;
        const auto stats = driver.run(
            n,
            [&](std::uint64_t i, util::Rng&) {
                util::Rng rng = driver.trial_rng(base + i);
                return diagnose(scenario, base + i, rng);
            },
            [&](std::uint64_t i, Verdict&& v) {
                const std::uint64_t q = base + i;
                digest_verdict(digest, q, v);
                if (q + 1 == kPrefix) out.prefix_digest = digest.value();
                out.step_ms.push_back(v.ms);
                Scoring& s = out.score;
                ++s.resolved;
                ++s.diagnosed;
                if (v.guilty && v.path_bad) ++s.false_accusations;
                if (v.guilty != v.path_bad) ++s.correct;
            });
        out.busy += stats.busy_seconds;
        out.count += n;
        out.batch_rates.push_back(static_cast<double>(n) / (wall_s() - b0));
        drain_program_spans();
    }
    out.wall = wall_s() - w0;
    out.cpu = cpu_s() - c0;
    if (speed) {
        out.wall -= speed->spent_wall_s() - sampled_wall;
        out.cpu -= speed->spent_cpu_s() - sampled_cpu;
    }
    out.digest = digest.value();
    if (out.count < kPrefix) out.prefix_digest = out.digest;
    return out;
}

/// The same first diagnoses on one worker must give the same digest.
void check_one_worker(const sim::Scenario& scenario, const Args& args,
                      std::size_t workers, const Block& main,
                      Result& result) {
    const std::uint64_t n = std::min<std::uint64_t>(kPrefix, main.count);
    const Block one = run_block(scenario, args, 1, n, 0.0);
    const std::uint64_t reference =
        main.prefix_digest ^ (args.plant_bad_digest ? 1 : 0);
    result.check(one.digest == reference,
                 "verdict digest differs between 1 worker and " +
                     std::to_string(workers) + " workers");
}

}  // namespace

void run_scan_world(const Args& args, Result& result) {
    const std::size_t workers = default_workers();
    result.note("workers", std::to_string(workers));
    const auto params = world_params(args);

    if (!args.trace) {
        // A world build is one call, so the speed kernel samples beside it,
        // on its core; diagnoses are sampled between driver batches, one
        // kernel per worker at once.
        const int builds = args.tiny() ? 1 : 2;
        Speed build_speed;
        std::vector<double> build_s;
        std::vector<double> build_cpu;
        std::unique_ptr<sim::Scenario> scenario;
        for (int i = 0; i < builds; ++i) {
            scenario.reset();
            const double sampled = build_speed.spent_cpu_s();
            const double w0 = wall_s();
            const double c0 = cpu_s();
            {
                const Speed::Beside beside(build_speed);
                scenario = std::make_unique<sim::Scenario>(params);
            }
            const double w1 = wall_s();
            build_s.push_back(w1 - w0 - build_speed.spent_within(w0, w1));
            build_cpu.push_back(cpu_s() - c0 -
                                (build_speed.spent_cpu_s() - sampled));
        }
        Speed speed(static_cast<unsigned>(workers));
        const Block main =
            run_block(*scenario, args, workers, 0, args.seconds, &speed);
        result.attempt(main.count);
        check_one_worker(*scenario, args, workers, main, result);

        EndToEnd e2e;
        e2e.setup_s = build_s;
        // Every diagnosis resolves one dropped message.  The median batch
        // rate keeps a burst of contention on a shared machine from moving
        // the figure.
        e2e.msgs_per_s = median(main.batch_rates);
        // One world build plus 1,000 diagnoses, so the figure does not
        // depend on how many diagnoses fit in the measuring time.
        e2e.setup_cpu_s = median(build_cpu);
        e2e.cpu_s = main.cpu * 1000.0 / static_cast<double>(main.count);
        e2e.step_ms = main.step_ms;
        e2e.score = main.score;
        e2e.run_s = main.wall;
        e2e.setup_scale = build_speed.scale();
        e2e.scale = speed.scale();
        report_end_to_end(result, e2e);
        result.note("outcome_digest", hex64(main.digest));
        return;
    }

    // Traced: one build with the program's recorder armed (its world-build
    // phase spans), an untraced block of diagnoses, then the same block with
    // both recorders armed.  Digests must match.  Every driver batch starts
    // new worker threads, each with its own ring; a batch records about two
    // events per diagnosis.
    constexpr std::size_t kRing = std::size_t{1} << 11;
    arm_program_spans(kRing);
    const double c0 = cpu_s();
    std::unique_ptr<sim::Scenario> scenario;
    arm_spans();
    {
        const Span span("sim.world_build");
        scenario = std::make_unique<sim::Scenario>(params);
    }
    const double build_cpu = cpu_s() - c0;
    drain_program_spans();

    // The untraced block records nothing: both recorders are lowered
    // around it.
    util::spans::Recorder::global().disable();
    disarm_spans();
    const Block plain =
        run_block(*scenario, args, workers, 0, args.seconds / 2);
    arm_spans();
    arm_program_spans(kRing);
    CounterDelta counters;
    const Block traced =
        run_block(*scenario, args, workers, plain.count, 0.0);
    counters.stop();
    result.attempt(traced.count);
    result.check(traced.digest ==
                     (plain.digest ^ (args.plant_bad_digest ? 1 : 0)),
                 "verdict digest differs between traced and untraced runs");

    LayerInputs in;
    in.cpu_s = build_cpu + traced.cpu;
    in.messages = static_cast<double>(traced.count);
    in.path_bytes = static_cast<double>(scenario->trees().path_bytes());
    in.stripe_ns = stripe_ns(*scenario, args.seed);
    in.dispatch_pod_ns = eventsim_dispatch_ns(true);
    in.dispatch_callback_ns = eventsim_dispatch_ns(false);
    in.driver_utilization =
        traced.busy / (traced.wall * static_cast<double>(workers));
    in.parallel_eff = traced.cpu / (traced.wall * static_cast<double>(workers));
    in.trace_overhead_frac = plain.cpu > 0.0 ? traced.cpu / plain.cpu - 1.0
                                             : 0.0;
    in.step_samples = static_cast<double>(traced.step_ms.size());
    in.score = traced.score;
    in.run_s = traced.wall;
    const auto layers = report_layers(result, counters, in);
    name_top_layer(result, layers, in.cpu_s);
    result.note("outcome_digest", hex64(traced.digest));
    check_one_worker(*scenario, args, workers, traced, result);
    if (!args.out_dir.empty()) {
        const std::string stem =
            args.out_dir + "/scan_world-seed" + std::to_string(args.seed);
        write_layer_table(stem + ".layers.txt", args, result, layers,
                          in.cpu_s);
        write_chrome_trace(stem + ".trace.json");
    }
}

}  // namespace perfbench
