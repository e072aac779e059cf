#include "harness.h"

#include <sys/resource.h>

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>

#include "net/event_sim.h"
#include "util/json.h"
#include "util/metrics.h"

namespace perfbench {

namespace spans = concilium::util::spans;
namespace metrics = concilium::util::metrics;

// ---------------------------------------------------------------------------
// Result

void Result::set(const std::string& name, double value,
                 const std::string& unit) {
    if (metrics_.find(name) == metrics_.end()) order_.push_back(name);
    metrics_[name] = {value, unit};
}

double Result::get(const std::string& name) const {
    const auto it = metrics_.find(name);
    return it == metrics_.end() ? 0.0 : it->second.first;
}

const std::string& Result::unit(const std::string& name) const {
    return metrics_.at(name).second;
}

void Result::fail(const std::string& why) {
    ++failed_;
    std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
}

void Result::check(bool ok, const std::string& what) {
    if (!ok) fail(what);
}

void Result::note(const std::string& key, const std::string& value) {
    for (auto& [k, v] : notes_) {
        if (k == key) {
            v = value;
            return;
        }
    }
    notes_.emplace_back(key, value);
}

std::string Result::context_json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < notes_.size(); ++i) {
        if (i != 0) out += ", ";
        out += concilium::util::json_quote(notes_[i].first) + ": " +
               concilium::util::json_quote(notes_[i].second);
    }
    return out + "}";
}

std::string Result::to_json() const {
    char num[64];
    std::string out = "{\"correct\": ";
    out += failed_ == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < order_.size(); ++i) {
        const auto& [value, unit] = metrics_.at(order_[i]);
        std::snprintf(num, sizeof num, "%.17g",
                      std::isfinite(value) ? value : 0.0);
        if (i != 0) out += ", ";
        out += concilium::util::json_quote(order_[i]) + ": {\"value\": " +
               num + ", \"unit\": " + concilium::util::json_quote(unit) + "}";
    }
    return out + "}}";
}

// ---------------------------------------------------------------------------
// Benchmark spans

namespace {

struct SpanRecord {
    const char* name;
    std::int64_t begin;
    std::int64_t end;
    std::int64_t parent;  ///< index in the same thread buffer, or -1
};

struct ThreadSpans {
    std::vector<SpanRecord> records;
    std::int64_t open = -1;  ///< innermost open span
    std::uint32_t ordinal = 0;
};

struct SpanState {
    std::mutex mutex;
    std::vector<std::unique_ptr<ThreadSpans>> threads;
};

SpanState& span_state() {
    static SpanState* s = new SpanState;  // leaked: spans outlive main's locals
    return *s;
}

// Flipped only while no worker thread runs (thread start orders it).
bool g_spans_armed = false;

ThreadSpans& this_thread_spans() {
    thread_local ThreadSpans* cached = nullptr;
    if (cached == nullptr) {
        auto& s = span_state();
        const std::lock_guard lock(s.mutex);
        s.threads.push_back(std::make_unique<ThreadSpans>());
        s.threads.back()->ordinal =
            static_cast<std::uint32_t>(s.threads.size());
        cached = s.threads.back().get();
    }
    return *cached;
}

}  // namespace

void arm_spans() { g_spans_armed = true; }
void disarm_spans() { g_spans_armed = false; }

Span::Span(const char* name) noexcept {
    if (!g_spans_armed) return;
    auto& t = this_thread_spans();
    index_ = static_cast<std::int64_t>(t.records.size());
    t.records.push_back({name, spans::wall_now_ns(), 0, t.open});
    t.open = index_;
}

Span::~Span() {
    if (index_ < 0) return;
    auto& t = this_thread_spans();
    auto& r = t.records[static_cast<std::size_t>(index_)];
    r.end = spans::wall_now_ns();
    t.open = r.parent;
}

std::map<std::string, SpanStat> span_stats() {
    std::map<std::string, SpanStat> out;
    auto& s = span_state();
    const std::lock_guard lock(s.mutex);
    for (const auto& t : s.threads) {
        std::vector<double> child_s(t->records.size(), 0.0);
        for (const auto& r : t->records) {
            if (r.parent >= 0) {
                child_s[static_cast<std::size_t>(r.parent)] +=
                    static_cast<double>(r.end - r.begin) * 1e-9;
            }
        }
        for (std::size_t i = 0; i < t->records.size(); ++i) {
            const auto& r = t->records[i];
            const double d = static_cast<double>(r.end - r.begin) * 1e-9;
            auto& st = out[r.name];
            ++st.count;
            st.total_s += d;
            st.self_s += d - child_s[i];
        }
    }
    return out;
}

void clear_spans() {
    auto& s = span_state();
    const std::lock_guard lock(s.mutex);
    for (auto& t : s.threads) {
        t->records.clear();
        t->open = -1;
    }
}

// ---------------------------------------------------------------------------
// Program spans

namespace {

ProgramSpanTotals g_program;
std::vector<spans::Event> g_program_events;  // kept for the Chrome trace
constexpr std::size_t kMaxTraceEvents = 200000;

}  // namespace

void arm_program_spans(std::size_t per_thread) {
    spans::Recorder::global().enable(per_thread);
}

void drain_program_spans() {
    if (!spans::enabled()) return;
    auto& rec = spans::Recorder::global();
    // clear() below rewinds every ring, so whatever overwrote since the
    // last drain is exactly the dropped tally now.
    g_program.lost += rec.total_dropped();
    for (const auto& e : rec.collect()) {
        if (e.wall_begin == spans::kNoClock || e.wall_end == spans::kNoClock) {
            continue;
        }
        const auto i = static_cast<std::size_t>(e.type);
        ++g_program.count[i];
        g_program.seconds[i] +=
            static_cast<double>(e.wall_end - e.wall_begin) * 1e-9;
        if (g_program_events.size() < kMaxTraceEvents) {
            g_program_events.push_back(e);
        }
    }
    rec.clear();
}

const ProgramSpanTotals& program_spans() { return g_program; }

void reset_program_spans() {
    drain_program_spans();
    g_program = ProgramSpanTotals{};
    g_program_events.clear();
}

void write_chrome_trace(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return;
    }
    std::fputs("{\"traceEvents\": [\n", f);
    bool first = true;
    const auto emit = [&](const char* name, const char* cat, int pid,
                          std::uint32_t tid, std::int64_t b, std::int64_t e) {
        std::fprintf(f,
                     "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                     "\"pid\": %d, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f}",
                     first ? "" : ",\n", name, cat, pid, tid,
                     static_cast<double>(b) * 1e-3,
                     static_cast<double>(e - b) * 1e-3);
        first = false;
    };
    {
        auto& s = span_state();
        const std::lock_guard lock(s.mutex);
        std::size_t n = 0;
        for (const auto& t : s.threads) {
            for (const auto& r : t->records) {
                if (++n > kMaxTraceEvents) break;
                emit(r.name, "perfbench", 1, t->ordinal, r.begin, r.end);
            }
        }
    }
    for (const auto& e : g_program_events) {
        emit(spans::span_name(e.type), "program", 2, e.thread, e.wall_begin,
             e.wall_end);
    }
    std::fputs("\n]}\n", f);
    std::fclose(f);
}

// ---------------------------------------------------------------------------
// Counters

namespace {

constexpr const char* kCounters[] = {
    "tomography.stripes_sampled",  "tomography.probes_issued",
    "tomography.solver_iterations", "tomography.heavyweight_sessions",
    "tomography.inference_runs",   "net.events_executed",
    "net.packets_sent",            "net.packets_dropped",
    "runtime.snapshots_published", "runtime.messages_sent",
    "runtime.retry.forward_attempts", "runtime.retry.snapshot_retries",
    "defense.equivocation_proofs_filed",
    "defense.snapshots_rejected_epoch", "defense.snapshots_rejected_stale",
    "core.blame_evaluations",      "core.verdicts_guilty",
    "core.verdicts_innocent",      "crypto.verify.cache_hit",
    "crypto.verify.cache_miss",    "dht.puts",
    "dht.gets",                    "dht.puts_rejected_quota",
    "overlay.ads_validated",       "overlay.ads_rejected",
    "daemon.ticks",                "daemon.checkpoints_written",
    "recovery.journal_replays",    "recovery.restarts",
};

}  // namespace

CounterDelta::CounterDelta() {
    auto& reg = metrics::Registry::global();
    for (const char* name : kCounters) {
        start_.emplace(name, reg.counter(name).value());
    }
}

void CounterDelta::stop() {
    auto& reg = metrics::Registry::global();
    for (const char* name : kCounters) {
        stop_[name] = reg.counter(name).value();
    }
}

double CounterDelta::operator()(std::string_view name) const {
    const auto it = start_.find(name);
    const auto end = stop_.find(name);
    const std::int64_t base = it == start_.end() ? 0 : it->second;
    const std::int64_t now =
        end == stop_.end() ? metrics::Registry::global().counter(name).value()
                           : end->second;
    return static_cast<double>(now - base);
}

double gauge(std::string_view name) {
    return metrics::Registry::global().gauge(name).value();
}

// ---------------------------------------------------------------------------
// Clocks and resources

double wall_s() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double cpu_s() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto tv = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double thread_cpu_s() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

unsigned nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

std::size_t default_workers() { return std::min<std::size_t>(4, nproc()); }

// ---------------------------------------------------------------------------
// Digests and statistics

void Digest::add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        h_ ^= (v >> (8 * i)) & 0xffu;
        h_ *= 0x100000001b3ULL;
    }
}

void Digest::add(std::string_view bytes) {
    for (const char c : bytes) {
        h_ ^= static_cast<unsigned char>(c);
        h_ *= 0x100000001b3ULL;
    }
}

std::string hex64(std::uint64_t v) {
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

std::size_t beyond(const std::vector<double>& v, double p) {
    const double cut = percentile(v, p);
    return static_cast<std::size_t>(
        std::count_if(v.begin(), v.end(), [&](double x) { return x > cut; }));
}

double Scoring::false_rate() const {
    return diagnosed == 0 ? 0.0
                          : static_cast<double>(false_accusations) /
                                static_cast<double>(diagnosed);
}

double Scoring::accuracy() const {
    return diagnosed == 0 ? 0.0
                          : static_cast<double>(correct) /
                                static_cast<double>(diagnosed);
}

void report_end_to_end(Result& r, const EndToEnd& e) {
    r.set("setup_s", median(e.setup_s) * e.setup_scale, "s");
    r.set("msgs_per_s", e.msgs_per_s / e.scale, "1/s");
    r.set("cpu_s", e.cpu_s * e.scale + e.setup_cpu_s * e.setup_scale, "s");
    r.set("peak_rss_mb", peak_rss_mb(), "MB");
    r.set("step_ms_p50", percentile(e.step_ms, 50) * e.scale, "ms");
    r.set("step_ms_p99", percentile(e.step_ms, 99) * e.scale, "ms");
    char measured[200];
    std::snprintf(measured, sizeof measured,
                  "setup_s %.6g s, msgs_per_s %.6g 1/s, cpu_s %.6g s, "
                  "step_ms_p50 %.6g ms, step_ms_p99 %.6g ms",
                  median(e.setup_s), e.msgs_per_s, e.cpu_s + e.setup_cpu_s,
                  percentile(e.step_ms, 50), percentile(e.step_ms, 99));
    r.note("measured", measured);
    std::snprintf(measured, sizeof measured, "setup %.4f, run %.4f",
                  e.setup_scale, e.scale);
    r.note("reference_scale", measured);
    r.note("setup_samples", std::to_string(e.setup_s.size()));
    r.note("step_samples", std::to_string(e.step_ms.size()));
    r.note("step_samples_beyond_p99", std::to_string(beyond(e.step_ms, 99)));
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "diagnoses_per_s %.4f 1/s, false_acc_rate %.4f ratio, "
                  "diag_accuracy %.4f ratio",
                  e.run_s > 0.0 ? static_cast<double>(e.score.diagnosed) /
                                      e.run_s
                                : 0.0,
                  e.score.false_rate(), e.score.accuracy());
    r.note("quality", buf);
}

void report_quality(Result& r, const Scoring& score, double run_s) {
    r.set("diagnoses_per_s",
          run_s > 0.0 ? static_cast<double>(score.diagnosed) / run_s : 0.0,
          "1/s");
    r.set("false_acc_rate", score.false_rate(), "ratio");
    r.set("diag_accuracy", score.accuracy(), "ratio");
}

// ---------------------------------------------------------------------------
// EventSim dispatch chains

namespace {

struct Chain {
    concilium::net::EventSim* sim = nullptr;
    concilium::net::EventSim::HandlerId handler = 0;
    std::uint64_t left = 0;
};

void chain_step(void* ctx, std::uint32_t, std::uint64_t, std::uint64_t) {
    auto* c = static_cast<Chain*>(ctx);
    if (c->left == 0) return;
    --c->left;
    c->sim->post_after(1, c->handler);
}

}  // namespace

double eventsim_dispatch_ns(bool pod) {
    constexpr std::uint64_t kEvents = 400000;
    concilium::net::EventSim sim;
    const double start = wall_s();
    if (pod) {
        Chain chain{&sim, 0, kEvents};
        chain.handler = sim.register_handler(&chain, &chain_step);
        sim.post_after(1, chain.handler);
        sim.run_all();
    } else {
        std::uint64_t left = kEvents;
        std::function<void()> step = [&] {
            if (left == 0) return;
            --left;
            sim.schedule_after(1, step);
        };
        sim.schedule_after(1, step);
        sim.run_all();
    }
    return (wall_s() - start) * 1e9 / static_cast<double>(kEvents + 1);
}

// ---------------------------------------------------------------------------
// Per-layer table

void name_top_layer(Result& result,
                    const std::map<std::string, double>& layer_seconds,
                    double cpu_seconds) {
    std::string top = "none";
    double best = 0.0;
    for (const auto& [layer, sec] : layer_seconds) {
        if (sec > best) {
            best = sec;
            top = layer;
        }
    }
    result.set("layer.top_share", cpu_seconds > 0.0 ? best / cpu_seconds : 0.0,
               "ratio");
    result.note("top_layer", top);
}

void write_layer_table(const std::string& path, const Args& args,
                       const Result& result,
                       const std::map<std::string, double>& layer_seconds,
                       double cpu_seconds) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(f, "# perfbench per-layer table: workload %s, seed %llu\n",
                 args.workload.c_str(),
                 static_cast<unsigned long long>(args.seed));
    std::fprintf(f, "# context %s\n", result.context_json().c_str());
    std::fprintf(f, "\n%-28s %14s %10s\n", "layer (traced pass)", "seconds",
                 "of cpu_s");
    for (const auto& [layer, sec] : layer_seconds) {
        std::fprintf(f, "%-28s %14.4f %10.4f\n", layer.c_str(), sec,
                     cpu_seconds > 0.0 ? sec / cpu_seconds : 0.0);
    }
    std::fprintf(f, "%-28s %14.4f\n", "cpu_s", cpu_seconds);
    std::fprintf(f, "\n%-40s %20s %s\n", "metric", "value", "unit");
    for (const auto& name : result.names()) {
        std::fprintf(f, "%-40s %20.6f %s\n", name.c_str(), result.get(name),
                     result.unit(name).c_str());
    }
    std::fclose(f);
}

}  // namespace perfbench
