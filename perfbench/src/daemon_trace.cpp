// daemon_trace: an in-process daemon::Daemon at conciliumd's default options
// (30 s tick, a checkpoint every 10 sim minutes, 120 s probe intervals)
// replaying a generated workload trace, checkpointing into a scratch
// directory.  The trace generator runs before this program starts; here a
// pass is parse + Daemon construction + Daemon::run over the whole trace.
//
// Tick latency is observed from outside, as an operator would: a poller
// thread reads Daemon::health_text() (safe off-thread by contract) and
// timestamps each advance of the sim clock.  The poller's own CPU time is
// taken out of the pass's CPU time.

#include <filesystem>
#include <memory>
#include <stop_token>
#include <thread>

#include "daemon/daemon.h"
#include "harness.h"
#include "layers.h"
#include "speed.h"

namespace perfbench {

namespace {

using namespace concilium;

struct Setup {
    std::unique_ptr<daemon::Daemon> daemon;
    std::string dir;
    double parse_s = 0.0;
    double build_s = 0.0;
};

Setup set_up(const std::string& trace_file, const Args& args,
             unsigned index) {
    Setup s;
    s.dir = args.scratch + "/daemon-ckpt-" + std::to_string(index);
    std::filesystem::remove_all(s.dir);
    std::filesystem::create_directories(s.dir);
    double t0 = wall_s();
    daemon::Workload wl;
    {
        const Span span("daemon.parse");
        wl = daemon::Workload::parse_file(trace_file);
    }
    s.parse_s = wall_s() - t0;
    daemon::DaemonOptions opts;
    opts.checkpoint_dir = s.dir;
    t0 = wall_s();
    {
        const Span span("daemon.build");
        s.daemon = std::make_unique<daemon::Daemon>(std::move(wl), opts);
    }
    s.build_s = wall_s() - t0;
    return s;
}

/// Wall-clock interval of every sim tick, sampled through health_text().
class TickWatch {
  public:
    using Interval = std::pair<double, double>;
    TickWatch(const daemon::Daemon& d, util::SimTime tick)
        : thread_([this, &d, tick](std::stop_token stop) {
              watch(d, tick, stop);
          }) {}
    /// Stops the poller and returns its samples.
    std::vector<Interval> finish() {
        thread_.request_stop();
        thread_.join();
        return std::move(samples_);
    }
    /// The poller thread's CPU seconds; valid after finish().
    [[nodiscard]] double cpu_s() const { return cpu_s_; }

  private:
    static std::int64_t sim_clock(const daemon::Daemon& d) {
        const std::string text = d.health_text();
        const auto at = text.find("sim-clock-us ");
        return at == std::string::npos ? 0 : std::stoll(text.substr(at + 13));
    }
    void watch(const daemon::Daemon& d, util::SimTime tick,
               const std::stop_token& stop) {
        std::int64_t last_clock = sim_clock(d);
        double last_wall = wall_s();
        while (!stop.stop_requested()) {
            std::this_thread::sleep_for(std::chrono::microseconds(250));
            const std::int64_t clock = sim_clock(d);
            if (clock == last_clock) continue;
            const double now = wall_s();
            const auto ticks = std::max<std::int64_t>(
                1, (clock - last_clock + tick - 1) / tick);
            const double each = (now - last_wall) / static_cast<double>(ticks);
            for (std::int64_t i = 0; i < ticks; ++i) {
                const double begin = last_wall + each * static_cast<double>(i);
                samples_.emplace_back(begin, begin + each);
            }
            last_clock = clock;
            last_wall = now;
        }
        cpu_s_ = thread_cpu_s();
    }

    std::vector<Interval> samples_;
    double cpu_s_ = 0.0;
    std::jthread thread_;  // last: joins before samples_ is destroyed
};

struct PassOut {
    std::uint64_t digest = 0;
    daemon::Daemon::Score score;
    std::vector<TickWatch::Interval> ticks;
    std::vector<double> tick_ms;  ///< ticks less the speed samples in them
    double poller_cpu_s = 0.0;
    TickWatch::Interval run;      ///< Daemon::run
    double run_s = 0.0;           ///< run less the speed samples in it
    double state_text_ms = 0.0;
    double checkpoint_bytes = 0.0;
    double io_ops = 0.0;
};

PassOut run_pass(Setup& s, Result& result) {
    PassOut out;
    auto& d = *s.daemon;
    const daemon::DaemonOptions defaults;
    TickWatch watch(d, defaults.tick);
    out.run.first = wall_s();
    bool finished = false;
    {
        const Span span("daemon.run");
        finished = d.run();
    }
    out.run.second = wall_s();
    out.ticks = watch.finish();
    out.poller_cpu_s = watch.cpu_s();
    result.check(finished, "Daemon::run stopped before the trace ended");

    out.score = d.score();
    result.attempt(out.score.fed);
    result.check(out.score.orphans() == 0,
                 std::to_string(out.score.orphans()) + " orphaned messages");
    std::string state;
    const double st0 = wall_s();
    {
        const Span span("daemon.state_text");
        state = d.state_text();
    }
    out.state_text_ms = (wall_s() - st0) * 1e3;
    Digest digest;
    digest.add(state);
    out.digest = digest.value();
    for (const auto& entry : std::filesystem::directory_iterator(s.dir)) {
        if (entry.is_regular_file()) {
            out.checkpoint_bytes += static_cast<double>(entry.file_size());
        }
    }
    out.io_ops = static_cast<double>(d.io().ops());
    return out;
}

Scoring scoring(const daemon::Daemon::Score& s) {
    Scoring sc;
    sc.resolved = s.completed;
    sc.diagnosed = s.diagnosed;
    sc.false_accusations = s.false_accusations;
    sc.correct = s.correct_attributions;
    return sc;
}

}  // namespace

void run_daemon_trace(const Args& args, Result& result) {
    const auto& traces = args.trace_files;
    if (traces.empty()) {
        result.fail("daemon_trace needs --trace-file");
        return;
    }
    Speed speed;
    std::vector<double> setup_samples;
    unsigned setups = 0;
    const auto timed_setup = [&](const std::string& trace) {
        const double t0 = wall_s();
        Setup s = set_up(trace, args, setups++);
        setup_samples.push_back(wall_s() - t0);
        return s;
    };
    // A pass is one set-up and one Daemon::run, a single call, so the speed
    // kernel samples beside the run, on its core.  The poller's CPU time and
    // the samples' CPU and wall time are taken out of the pass's.
    const auto timed_pass = [&](const std::string& trace, Setup& s,
                                double& cpu) {
        const double sampled = speed.spent_cpu_s();
        const double c0 = cpu_s();
        s = timed_setup(trace);
        PassOut out;
        {
            const Speed::Beside beside(speed);
            out = run_pass(s, result);
        }
        cpu = cpu_s() - c0 - out.poller_cpu_s -
              (speed.spent_cpu_s() - sampled);
        const auto [b, e] = out.run;
        out.run_s = e - b - speed.spent_within(b, e);
        for (const auto& [tb, te] : out.ticks) {
            out.tick_ms.push_back((te - tb - speed.spent_within(tb, te)) *
                                  1e3);
        }
        return out;
    };
    const auto pass = [&](const std::string& trace, double& cpu) {
        Setup s;
        PassOut out = timed_pass(trace, s, cpu);
        s.daemon.reset();
        std::filesystem::remove_all(s.dir);
        return out;
    };

    if (!args.trace) {
        // Extra set-ups make setup_s a median.  Then one pass per trace (rate,
        // ticks and CPU pooled), repeated until the time is
        // used and a thousand ticks are sampled (ten beyond the p99).  At
        // least one trace is replayed, and must end in the same state.
        for (int i = 0; i < 3; ++i) {
            Setup s = timed_setup(traces[0]);
            s.daemon.reset();
            std::filesystem::remove_all(s.dir);
        }
        EndToEnd e2e;
        std::vector<std::uint64_t> digests;
        std::vector<double> pass_cpu;
        std::size_t passes = 0;
        const std::size_t min_ticks = args.tiny() ? 0 : 1000;
        const std::size_t min_passes = traces.size() + 1;
        while (passes < min_passes || e2e.run_s < args.seconds ||
               e2e.step_ms.size() < min_ticks) {
            double cpu = 0.0;
            const PassOut out = pass(traces[passes % traces.size()], cpu);
            if (passes < traces.size()) {
                digests.push_back(out.digest ^
                                  (args.plant_bad_digest ? 1 : 0));
            } else {
                result.check(out.digest == digests[passes % traces.size()],
                             "state_text digest differs between passes of "
                             "one trace");
            }
            ++passes;
            pass_cpu.push_back(cpu);
            e2e.run_s += out.run_s;
            const Scoring sc = scoring(out.score);
            e2e.score.resolved += sc.resolved;
            e2e.score.diagnosed += sc.diagnosed;
            e2e.score.false_accusations += sc.false_accusations;
            e2e.score.correct += sc.correct;
            e2e.step_ms.insert(e2e.step_ms.end(), out.tick_ms.begin(),
                               out.tick_ms.end());
        }
        e2e.setup_s = setup_samples;
        e2e.msgs_per_s = static_cast<double>(e2e.score.resolved) / e2e.run_s;
        // Per 100 messages: a pass's CPU time follows how many messages
        // its trace holds, which the seed draws.
        double total_cpu = 0.0;
        for (const double c : pass_cpu) total_cpu += c;
        e2e.cpu_s = 100.0 * total_cpu / static_cast<double>(e2e.score.resolved);
        e2e.scale = speed.scale();
        e2e.setup_scale = e2e.scale;
        report_end_to_end(result, e2e);
        result.note("passes", std::to_string(passes));
        std::string per_pass;
        for (const double c : pass_cpu) per_pass += std::to_string(c) + " ";
        result.note("pass_cpu_s", per_pass);
        Digest all;
        for (const auto d : digests) all.add(d);
        result.note("outcome_digest", hex64(all.value()));
        return;
    }

    // Traced: the first trace untraced, then the same trace with both span
    // recorders armed.  The final states must match.
    double cpu_plain = 0.0;
    const std::uint64_t reference =
        pass(traces[0], cpu_plain).digest ^ (args.plant_bad_digest ? 1 : 0);
    arm_spans();
    // Daemon::run is one call, so the ring must hold a whole pass (about
    // 26,000 events for a two-hour trace).
    arm_program_spans(std::size_t{1} << 17);
    reset_program_spans();
    clear_spans();
    CounterDelta counters;
    Setup s;
    double cpu_traced = 0.0;
    const PassOut out = timed_pass(traces[0], s, cpu_traced);
    drain_program_spans();
    counters.stop();
    result.check(out.digest == reference,
                 "state_text digest differs between traced and untraced "
                 "passes");

    // The daemon keeps its world private; the same directives rebuild the
    // same world, whose trees and timeline the stripe timing runs on.
    const auto& wl = s.daemon->workload();
    sim::ScenarioParams wp;
    wp.topology = net::small_params();
    wp.topology.end_hosts = wl.end_hosts;
    wp.topology.stub_domains = static_cast<int>(wl.stub_domains);
    wp.overlay_nodes_override = wl.overlay_nodes;
    wp.duration = wl.duration;
    wp.seed = wl.seed;
    const sim::Scenario world(wp);

    LayerInputs in;
    in.cpu_s = cpu_traced;
    in.messages = static_cast<double>(out.score.fed);
    in.path_bytes = static_cast<double>(world.trees().path_bytes());
    in.stripe_ns = stripe_ns(world, args.seed);
    in.digest_lookup_ns =
        digest_lookup_ns(s.daemon->cluster(), world.overlay_net());
    in.dispatch_pod_ns = eventsim_dispatch_ns(true);
    in.dispatch_callback_ns = eventsim_dispatch_ns(false);
    in.routing_fanout = mean_fanout(world.overlay_net());
    in.daemon_parse_s = s.parse_s;
    in.daemon_build_s = s.build_s;
    in.daemon_run_s = out.run_s;
    in.checkpoint_bytes = out.checkpoint_bytes;
    in.io_ops = out.io_ops;
    in.state_text_ms = out.state_text_ms;
    in.trace_overhead_frac = cpu_plain > 0.0 ? cpu_traced / cpu_plain - 1.0
                                             : 0.0;
    in.step_samples = static_cast<double>(out.tick_ms.size());
    in.score = scoring(out.score);
    in.run_s = out.run_s;
    const auto layers = report_layers(result, counters, in);
    name_top_layer(result, layers, cpu_traced);
    result.note("outcome_digest", hex64(out.digest));
    s.daemon.reset();
    std::filesystem::remove_all(s.dir);
    if (!args.out_dir.empty()) {
        const std::string stem =
            args.out_dir + "/daemon_trace-seed" + std::to_string(args.seed);
        write_layer_table(stem + ".layers.txt", args, result, layers,
                          cpu_traced);
        write_chrome_trace(stem + ".trace.json");
    }
}

}  // namespace perfbench
