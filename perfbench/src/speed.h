// The machine's speed, measured beside the workload.
//
// The benchmark runs on shared hosts whose speed drifts: the same pass of
// the same seed has taken from 10 to 16 CPU seconds minutes apart, on the
// wall clock and the CPU clock alike.  So every run also times a reference
// kernel of the benchmark's own -- fixed code and fixed work, none of it
// the program's -- on the workload's own cores throughout the run, and
// reports each time in reference seconds:
//
//   reference seconds = measured seconds * kReferenceS / kernel seconds
//
// where the kernel seconds are the median CPU time of all the run's
// samples.  A change to the program moves the measured seconds and not the
// kernel, so it moves the reported figure by the same ratio; a slower host
// moves both, and the figure stays put.  kReferenceS is about what one
// sample takes on the host the benchmark was defined on (4 vCPUs of a
// shared x86-64 VM, GCC 12, RelWithDebInfo), so there a reference second is
// about a second.  The measured seconds are kept in each run's context
// line.

#pragma once

#include <sched.h>

#include <exception>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

class Speed {
  public:
    /// About the median CPU seconds of one sample on the defining host.
    static constexpr double kReferenceS = 0.002;
    /// Wall seconds between samples.
    static constexpr double kInterval = 0.1;

    /// Each sample runs `threads` copies of the kernel at once, one per
    /// thread the workload keeps busy, so it sees the contention the
    /// workload sees.
    explicit Speed(unsigned threads = 1);
    Speed(const Speed&) = delete;
    Speed& operator=(const Speed&) = delete;

    /// Takes one sample.
    void sample();
    /// Takes a sample when kInterval has passed since the last.
    void maybe_sample();

    /// While alive, samples every kInterval on a thread of its own, pinned
    /// with the constructing thread to the CPU that thread is on: for a
    /// single long call of the program, which cannot be interleaved with
    /// samples but is then preempted by them.  Touch the Speed only after
    /// it is destroyed.  Needs a one-kernel Speed.
    class Beside {
      public:
        explicit Beside(Speed& speed);
        ~Beside();
        Beside(const Beside&) = delete;
        Beside& operator=(const Beside&) = delete;

      private:
        cpu_set_t affinity_{};  ///< the caller's, restored on destruction
        bool pinned_ = false;
        std::jthread thread_;
    };

    /// Reference seconds per measured second; 1 before any sample.
    /// Rethrows what stopped a Beside sampler, if anything did.
    [[nodiscard]] double scale() const;

    /// Wall and process-CPU seconds all samples so far took, so callers can
    /// take them out of what they measured around them.
    [[nodiscard]] double spent_wall_s() const { return spent_wall_; }
    [[nodiscard]] double spent_cpu_s() const { return spent_cpu_; }
    /// Wall seconds of samples inside [from, to] (wall_s() clock).
    [[nodiscard]] double spent_within(double from, double to) const;

  private:
    unsigned threads_;
    std::vector<double> cpu_;  ///< per sample and kernel
    std::vector<std::pair<double, double>> intervals_;  ///< per sample
    double last_ = 0.0;
    double spent_wall_ = 0.0;
    double spent_cpu_ = 0.0;
    std::exception_ptr error_;  ///< set by a Beside sampler that failed
};

}  // namespace perfbench
