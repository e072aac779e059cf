// Shared plumbing of the perfbench workloads: arguments, the result that
// becomes the last stdout line, the benchmark's own span recorder, reads of
// the program's util::spans wall spans and util::metrics counters, and the
// small statistics helpers every workload uses.
//
// Everything here measures the program from outside.  The benchmark's spans
// wrap the public calls it makes into each layer and are named after the
// per-layer metrics (see README.md); the program's own recorder is armed only
// through its public API, and only in a traced run.

#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/spans.h"

namespace perfbench {

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// "full" (the benchmark) or "tiny" (the self-test's small worlds).
    std::string size = "full";
    /// daemon_trace: the generated workload traces, one per pass.
    std::vector<std::string> trace_files;
    /// Scratch directory for checkpoints (inside the checkout).
    std::string scratch = ".";
    /// Where a traced run writes its per-layer table and Chrome trace.
    std::string out_dir;
    /// Self-test hook: perturb the reference digest, which every output
    /// check must then report as a failed operation.
    bool plant_bad_digest = false;

    [[nodiscard]] bool tiny() const { return size == "tiny"; }
};

/// One run's outcome.  `metrics` holds the values the run reports; a
/// violated output check is recorded with fail() and counts as a failed
/// operation.
class Result {
  public:
    void set(const std::string& name, double value, const std::string& unit);
    [[nodiscard]] double get(const std::string& name) const;

    void attempt(std::uint64_t n = 1) { attempted_ += n; }
    /// Records a failed operation with a reason (printed to stderr).
    void fail(const std::string& why);
    /// Checks `ok`; a false check is one failed operation.
    void check(bool ok, const std::string& what);

    void note(const std::string& key, const std::string& value);

    [[nodiscard]] std::uint64_t failed() const { return failed_; }
    [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
    /// The run-context line ("# context {...}").
    [[nodiscard]] std::string context_json() const;
    /// The final result line: correct, attempted, failed, metrics.
    [[nodiscard]] std::string to_json() const;
    [[nodiscard]] const std::vector<std::string>& names() const {
        return order_;
    }
    [[nodiscard]] const std::string& unit(const std::string& name) const;

  private:
    std::map<std::string, std::pair<double, std::string>> metrics_;
    std::vector<std::string> order_;
    std::vector<std::pair<std::string, std::string>> notes_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

// ---------------------------------------------------------------------------
// The benchmark's own spans.  Disarmed (the untraced run), a Span is one
// branch; armed, it records name, wall interval and parent on the calling
// thread.  Timestamps share the program recorder's clock
// (util::spans::wall_now_ns), so both sets line up in one Chrome trace.

void arm_spans();
void disarm_spans();

class Span {
  public:
    explicit Span(const char* name) noexcept;
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

  private:
    std::int64_t index_ = -1;
};

struct SpanStat {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;  ///< total minus the time covered by child spans
};

/// Per-name totals over every span recorded so far, all threads.  Call
/// only while no other thread records.
[[nodiscard]] std::map<std::string, SpanStat> span_stats();
/// Drops every recorded span.
void clear_spans();

// ---------------------------------------------------------------------------
// The program's util::spans recorder, read from outside.

/// Arms the program's recorder with `per_thread` events of ring per
/// recording thread; callers drain it often enough, or size it large
/// enough, that the ring never wraps (spans.program_lost counts any loss).
void arm_program_spans(std::size_t per_thread);
/// Folds every buffered program wall span into running per-type totals and
/// clears the recorder.  Call only while no other thread records.
void drain_program_spans();

struct ProgramSpanTotals {
    std::array<std::uint64_t,
               static_cast<std::size_t>(concilium::util::spans::SpanType::kCount)>
        count{};
    std::array<double,
               static_cast<std::size_t>(concilium::util::spans::SpanType::kCount)>
        seconds{};
    std::uint64_t lost = 0;  ///< events overwritten before a drain
    [[nodiscard]] double s(concilium::util::spans::SpanType t) const {
        return seconds[static_cast<std::size_t>(t)];
    }
    [[nodiscard]] std::uint64_t n(concilium::util::spans::SpanType t) const {
        return count[static_cast<std::size_t>(t)];
    }
};
[[nodiscard]] const ProgramSpanTotals& program_spans();
void reset_program_spans();

/// Writes the Chrome trace of the benchmark's spans plus the drained
/// program wall spans.
void write_chrome_trace(const std::string& path);

// ---------------------------------------------------------------------------
// util::metrics counters, read as deltas.

class CounterDelta {
  public:
    /// Snapshots every counter the per-layer metrics read.
    CounterDelta();
    /// Freezes the end of the measured interval (otherwise "now").
    void stop();
    /// Value at stop() (or now) minus value at construction.
    [[nodiscard]] double operator()(std::string_view name) const;

  private:
    std::map<std::string, std::int64_t, std::less<>> start_;
    std::map<std::string, std::int64_t, std::less<>> stop_;
};

/// Current value of a util::metrics gauge.
[[nodiscard]] double gauge(std::string_view name);

// ---------------------------------------------------------------------------
// Clocks, resources, digests and statistics.

[[nodiscard]] double wall_s();         ///< steady clock, seconds
[[nodiscard]] double cpu_s();          ///< process user + system
[[nodiscard]] double thread_cpu_s();   ///< calling thread's CPU clock
[[nodiscard]] double peak_rss_mb();    ///< process high-water RSS
[[nodiscard]] unsigned nproc();
[[nodiscard]] std::size_t default_workers();

/// FNV-1a over the outcome sequence of a run.
class Digest {
  public:
    void add(std::uint64_t v);
    void add(std::string_view bytes);
    [[nodiscard]] std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

[[nodiscard]] std::string hex64(std::uint64_t v);
[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank percentile, p in (0, 100].
[[nodiscard]] double percentile(std::vector<double> v, double p);
/// Number of samples strictly above the p-th percentile.
[[nodiscard]] std::size_t beyond(const std::vector<double>& v, double p);

/// Ground-truth tally with the daemon's and runtime_e2e's outcome rules.
struct Scoring {
    std::uint64_t resolved = 0;
    std::uint64_t diagnosed = 0;
    std::uint64_t false_accusations = 0;
    std::uint64_t correct = 0;
    [[nodiscard]] double false_rate() const;
    [[nodiscard]] double accuracy() const;
};

/// What an untraced run measured, in measured seconds.
struct EndToEnd {
    std::vector<double> setup_s;  ///< one sample per set-up
    double msgs_per_s = 0.0;
    double cpu_s = 0.0;
    /// CPU seconds of one set-up when cpu_s leaves it out; cpu_s reports
    /// the sum.
    double setup_cpu_s = 0.0;
    std::vector<double> step_ms;  ///< one sample per step, all passes
    Scoring score;
    double run_s = 0.0;           ///< wall seconds behind `score`
    /// Reference seconds per measured second (speed.h), for the set-ups
    /// and for the rest of the run.
    double setup_scale = 1.0;
    double scale = 1.0;
};

/// Sets the end-to-end metrics in reference seconds, and notes the
/// measured figures and scales, the step sample counts and the diagnosis
/// quality (reported as metrics by the traced run) in the context.
void report_end_to_end(Result& result, const EndToEnd& e2e);

/// Sets the diagnosis-quality metrics: diagnoses_per_s, false_acc_rate and
/// diag_accuracy.
void report_quality(Result& result, const Scoring& score, double run_s);

/// Writes the per-layer table: every per-layer metric, the layer seconds
/// and shares of cpu_s, and the layer with the largest share.
void write_layer_table(const std::string& path, const Args& args,
                       const Result& result,
                       const std::map<std::string, double>& layer_seconds,
                       double cpu_seconds);

/// Puts the layer with the largest share of `cpu_seconds` into `result`
/// (as layer.top_share) and its name into the context notes.
void name_top_layer(Result& result,
                    const std::map<std::string, double>& layer_seconds,
                    double cpu_seconds);

/// Times `fn` in repeated batches until at least `min_seconds` have passed;
/// returns nanoseconds per call.  `calls_per_batch` calls happen per batch.
template <typename Fn>
double ns_per_call(double min_seconds, std::size_t calls_per_batch, Fn&& fn) {
    std::size_t calls = 0;
    const double start = wall_s();
    double elapsed = 0.0;
    do {
        for (std::size_t i = 0; i < calls_per_batch; ++i) fn(calls + i);
        calls += calls_per_batch;
        elapsed = wall_s() - start;
    } while (elapsed < min_seconds);
    return calls == 0 ? 0.0 : elapsed * 1e9 / static_cast<double>(calls);
}

/// Nanoseconds per dispatched event of a self-reposting EventSim chain,
/// through the POD handler path (`pod`) or the std::function path.
[[nodiscard]] double eventsim_dispatch_ns(bool pod);

// The workloads.  Each fills `result` and returns normally; output-check
// violations are failures in `result`, not exceptions.
void run_protocol_e2e(const Args& args, Result& result);
void run_scan_world(const Args& args, Result& result);
void run_daemon_trace(const Args& args, Result& result);

}  // namespace perfbench
