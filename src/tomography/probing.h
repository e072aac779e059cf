// Striped-unicast probe simulation.
//
// "H generates a single probe packet for each routing peer, but it issues
// these packets back to back.  Since these packets will stay close to each
// other as they traverse shared interior routers, they emulate a single
// multicast packet sent to the leaves of a multicast tree." (Section 3.2)
//
// A stripe is therefore modelled as one virtual multicast probe: every tree
// link is sampled once, and a leaf receives the probe iff all links on its
// root path passed.  Leaves acknowledge; misbehaving leaves may suppress
// acknowledgments for received probes or fabricate acknowledgments for lost
// ones (Section 3.3) -- fabricated acks cannot echo the probe's nonce
// because it travelled only inside the lost probe, so the root tells the
// two kinds of ack apart and records them separately.

#pragma once

#include <algorithm>
#include <functional>
#include <span>
#include <vector>

#include "net/topology.h"
#include "tomography/tree.h"
#include "util/rng.h"
#include "util/time.h"

namespace concilium::tomography {

/// Probability that one packet crossing `link` at time t survives.
using PassProbabilityFn =
    std::function<double(net::LinkId, util::SimTime)>;

/// Per-leaf misbehaviour during probing (Section 3.3's faulty leaves).
struct LeafBehavior {
    /// Probability of dropping the acknowledgment for a received probe.
    double suppress_ack_probability = 0.0;
    /// Acknowledge probes that were never received (spurious responses).
    bool fabricate_acks = false;
};

/// What the root sees of one stripe, per leaf slot.
struct ProbeRecord {
    std::vector<bool> acked;       ///< an ack echoing the probe's nonce
    std::vector<bool> fabricated;  ///< an ack without the nonce
};

/// Samples one striped (multicast-emulating) probe of the tree at time t.
/// `behaviors` may be empty (all leaves honest) or one entry per leaf slot.
ProbeRecord sample_striped_probe(const ProbeTree& tree,
                                 const PassProbabilityFn& pass_probability,
                                 util::SimTime t,
                                 std::span<const LeafBehavior> behaviors,
                                 util::Rng& rng);

struct HeavyweightParams {
    int probe_count = 200;              ///< stripes per session
    util::SimTime spacing = 50 * util::kMillisecond;  ///< stripe interval
};

/// A heavyweight probing session: many stripes across a short window.
struct HeavyweightResult {
    std::vector<ProbeRecord> probes;
    util::SimTime started_at = 0;
    util::SimTime finished_at = 0;
};

/// Runs a full heavyweight session starting at t0 (Duffield's full scheme).
HeavyweightResult run_heavyweight_session(
    const ProbeTree& tree, const PassProbabilityFn& pass_probability,
    util::SimTime t0, const HeavyweightParams& params,
    std::span<const LeafBehavior> behaviors, util::Rng& rng);

/// Lightweight probing (Section 3.2): one stripe doubling as the availability
/// probe, plus `retries` follow-up probes to silent leaves to separate
/// offline peers from lossy links.  Returns, per leaf, whether any probe got
/// through.
struct LightweightResult {
    std::vector<bool> responsive;  ///< per leaf slot

    /// Some leaf never answered: the cue for retries and heavyweight probing.
    [[nodiscard]] bool any_silent() const {
        return std::find(responsive.begin(), responsive.end(), false) !=
               responsive.end();
    }
};
LightweightResult run_lightweight_probe(
    const ProbeTree& tree, const PassProbabilityFn& pass_probability,
    util::SimTime t, int retries, std::span<const LeafBehavior> behaviors,
    util::Rng& rng);

}  // namespace concilium::tomography
