// Packet transport over the simulated IP network.
//
// A packet sent along a path is dropped when any traversed link is down at
// the moment of crossing, or (with a small configurable probability per link)
// by residual loss on healthy links.  Latency is a fixed per-hop cost --
// the Concilium evaluation depends on loss and ordering, not on queueing
// dynamics.

#pragma once

#include <span>

#include "net/chaos.h"
#include "net/link_state.h"
#include "net/paths.h"
#include "util/rng.h"

namespace concilium::net {

struct TransportParams {
    util::SimTime per_hop_latency = 2 * util::kMillisecond;
    double healthy_link_loss = 0.0;  ///< residual loss on an up link
};

class Transport {
  public:
    Transport(const FailureTimeline& timeline, util::Rng rng,
              TransportParams params = {})
        : timeline_(&timeline), rng_(rng), params_(params) {}

    /// Probability that one packet crossing `link` at time t survives.
    [[nodiscard]] double pass_probability(LinkId link, util::SimTime t) const;

    /// Samples a single packet traversal of `path` starting at time t.
    /// Each link is crossed per_hop_latency later than the previous one.
    /// Returns true when the packet reaches the end of the path.
    bool sample_traversal(const Path& path, util::SimTime t);
    bool sample_traversal(std::span<const LinkId> links, util::SimTime t);

    [[nodiscard]] util::SimTime latency(std::size_t hops) const noexcept {
        return static_cast<util::SimTime>(hops) * params_.per_hop_latency;
    }
    [[nodiscard]] util::SimTime latency(const Path& path) const noexcept {
        return latency(path.hops());
    }

    [[nodiscard]] const TransportParams& params() const noexcept {
        return params_;
    }

    /// Attaches a chaos plan: flap / correlated-outage intervals and loss
    /// spikes fold into pass_probability, so every packet -- probes and
    /// application traffic alike -- sees the injected faults.  The plan
    /// must outlive the transport; pass nullptr to detach.
    void set_chaos(const FaultPlan* plan) noexcept { chaos_ = plan; }
    [[nodiscard]] const FaultPlan* chaos() const noexcept { return chaos_; }

  private:
    const FailureTimeline* timeline_;
    util::Rng rng_;
    TransportParams params_;
    const FaultPlan* chaos_ = nullptr;
};

}  // namespace concilium::net
