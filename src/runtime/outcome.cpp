#include "runtime/outcome.h"

namespace concilium::runtime {

OutcomeClass classify_outcome(const Cluster::MessageOutcome& outcome,
                              const overlay::OverlayNetwork& net) {
    if (outcome.delivered) return OutcomeClass::kDelivered;
    if (outcome.insufficient_evidence) return OutcomeClass::kAbstained;
    if (outcome.true_drop_hop.has_value()) {
        const util::NodeId& culprit =
            net.member(outcome.route[*outcome.true_drop_hop]).id();
        if (outcome.blamed == culprit) return OutcomeClass::kCorrect;
        return outcome.blamed.has_value() ? OutcomeClass::kFalseAccusation
                                          : OutcomeClass::kMissed;
    }
    if (!outcome.true_network_drop) return OutcomeClass::kUnscored;
    if (outcome.blamed.has_value()) return OutcomeClass::kFalseAccusation;
    return outcome.network_blamed ? OutcomeClass::kCorrect
                                  : OutcomeClass::kMissed;
}

}  // namespace concilium::runtime
