// Ground-truth scoring of a completed message: the one definition of a
// false accusation.
//
// Concilium's promise is to blame a dropped message on the real culprit --
// a forwarder or the IP network -- without accusing an honest node.  Every
// harness that checks that promise (runtime_e2e, the soak sweeps, the
// daemon, `concilium run`) sorts each Cluster::MessageOutcome into one of
// the classes below and builds its own columns and counters from them, so
// the scoring cannot drift between callers.

#pragma once

#include "overlay/network.h"
#include "runtime/cluster.h"

namespace concilium::runtime {

enum class OutcomeClass {
    kDelivered,        ///< the message arrived
    kAbstained,        ///< degraded mode: insufficient evidence, no blame
    kUnscored,         ///< no ground truth: neither a hop nor the IP
                       ///< network is known to have dropped it
    kCorrect,          ///< the dropping hop, or the network for a
                       ///< network drop, is blamed
    kFalseAccusation,  ///< a node other than the dropping hop is blamed
                       ///< (any node, when no hop dropped it)
    kMissed,           ///< ground truth exists, no innocent node is
                       ///< blamed, and the diagnosis is still wrong
};

/// Classifies `outcome` against its simulation ground truth.  When both a
/// hop and the network lost a copy (a retransmission got past the network
/// loss), the hop that finally dropped the message is the culprit.
[[nodiscard]] OutcomeClass classify_outcome(
    const Cluster::MessageOutcome& outcome,
    const overlay::OverlayNetwork& net);

}  // namespace concilium::runtime
