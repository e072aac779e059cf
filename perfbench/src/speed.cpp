#include "speed.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <queue>
#include <thread>

#include "harness.h"

namespace perfbench {

namespace {

// The kernel: 12,000 pushes of pseudo-random keys onto a
// std::priority_queue, then as many pops -- the event queue's kind of
// work: branchy, cache-missing, allocating.  Of the candidates timed in two
// runs of 14 and 16 identical protocol_e2e passes whose CPU time drifted
// with the host (dependent loads over 1 MiB and over 32 MiB,
// std::unordered_map inserts and lookups, this heap), the heap's time
// followed the passes' most nearly one for one: the log of a pass's CPU
// time moved 1.03 and 1.06 times the log of the heap's, at correlation
// 0.90 and 0.82.
constexpr std::size_t kKeys = 12000;

/// Runs the kernel once; returns the calling thread's CPU seconds.
double run_kernel() {
    const double c0 = thread_cpu_s();
    std::priority_queue<std::uint64_t> heap;
    std::uint64_t x = 1;
    for (std::size_t i = 0; i < kKeys; ++i) {
        x = x * 6364136223846793005ULL + 1;
        heap.push(x);
    }
    std::uint64_t acc = 0;
    while (!heap.empty()) {
        acc = acc * 31 + heap.top();
        heap.pop();
    }
    static std::atomic<std::uint64_t> sink{0};
    sink.fetch_add(acc, std::memory_order_relaxed);
    return thread_cpu_s() - c0;
}

}  // namespace

Speed::Speed(unsigned threads) : threads_(std::max(1u, threads)) {}

void Speed::sample() {
    std::vector<double> cpu(threads_, 0.0);
    std::vector<std::exception_ptr> errors(threads_);
    const double w0 = wall_s();
    {
        std::vector<std::jthread> others;
        for (unsigned i = 1; i < threads_; ++i) {
            others.emplace_back([&cpu, &errors, i] {
                try {
                    cpu[i] = run_kernel();
                } catch (...) {
                    errors[i] = std::current_exception();
                }
            });
        }
        cpu[0] = run_kernel();
    }
    for (const auto& e : errors) {
        if (e) std::rethrow_exception(e);
    }
    last_ = wall_s();
    intervals_.emplace_back(w0, last_);
    spent_wall_ += last_ - w0;
    for (const double c : cpu) {
        cpu_.push_back(c);
        spent_cpu_ += c;
    }
}

void Speed::maybe_sample() {
    if (wall_s() - last_ >= kInterval) sample();
}

Speed::Beside::Beside(Speed& speed) {
    // Pinning is best effort: unpinned, the samples still follow the host,
    // if less closely.
    cpu_set_t here;
    CPU_ZERO(&here);
    const int cpu = sched_getcpu();
    if (cpu >= 0 && sched_getaffinity(0, sizeof affinity_, &affinity_) == 0) {
        CPU_SET(cpu, &here);
        pinned_ = sched_setaffinity(0, sizeof here, &here) == 0;
    }
    thread_ = std::jthread([&speed, here, pin = pinned_](
                               const std::stop_token& stop) {
        if (pin) sched_setaffinity(0, sizeof here, &here);
        std::mutex mutex;
        std::condition_variable_any wake;
        std::unique_lock lock(mutex);
        try {
            while (!stop.stop_requested()) {
                speed.sample();
                wake.wait_for(lock, stop,
                              std::chrono::duration<double>(kInterval),
                              [] { return false; });
            }
        } catch (...) {
            speed.error_ = std::current_exception();
        }
    });
}

Speed::Beside::~Beside() {
    thread_.request_stop();
    thread_.join();
    if (pinned_) sched_setaffinity(0, sizeof affinity_, &affinity_);
}

double Speed::scale() const {
    if (error_) std::rethrow_exception(error_);
    return cpu_.empty() ? 1.0 : kReferenceS / median(cpu_);
}

double Speed::spent_within(double from, double to) const {
    double s = 0.0;
    for (const auto& [b, e] : intervals_) {
        s += std::max(0.0, std::min(e, to) - std::max(b, from));
    }
    return s;
}

}  // namespace perfbench
