// Feedback verification (Section 3.3).
//
// "A faulty or malicious leaf can try to respond to probes that were actually
// lost in the network, or drop acknowledgments for probes that were received.
// The former only affects inferences over the last mile to the misbehaving
// leaf, but the latter can ruin many inferences throughout the tree.
// Fortunately, we can detect both types of misbehavior."
//
// Fabricated acknowledgments are caught deterministically by the probe
// nonce: the nonce travels only inside the probe, so a leaf that never
// received it cannot echo it.  Suppressed acknowledgments are caught
// statistically: when sibling subtrees demonstrate that a probe reached the
// shared parent router, an honest leaf's conditional acknowledgment rate is
// bounded below by its last-mile quality; a leaf whose conditional rate
// collapses is either suppressing feedback or sits behind a dead last mile
// -- in both cases its feedback must be excluded from tree inference, which
// is exactly what ref [3]'s verification achieves.

#pragma once

#include <span>
#include <vector>

#include "tomography/probing.h"
#include "tomography/tree.h"

namespace concilium::tomography {

struct SuppressionTestParams {
    /// Flag a leaf when its ack rate conditioned on sibling evidence falls
    /// below this (honest leaves achieve ~ last-mile pass rate, near 1).
    double min_conditional_ack_rate = 0.5;
    /// Require at least this many evidence probes before judging.
    int min_evidence = 10;
};

/// Feedback verification, one pass over a session's records as the root
/// saw them.  Flags every leaf that fabricated an ack (hard evidence) or
/// whose conditional ack rate -- given that some leaf in a sibling subtree
/// acknowledged the same stripe, proving the stripe reached the shared
/// parent -- is implausibly low.  Then clears the flagged leaves' feedback
/// in place (treated as silent), so inference runs on trustworthy feedback
/// only, and returns the exclusion mask per leaf slot.
std::vector<bool> exclude_unverified_feedback(
    const ProbeTree& tree, std::span<ProbeRecord> probes,
    const SuppressionTestParams& params);

}  // namespace concilium::tomography
