#include "tomography/inference.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/metrics.h"
#include "util/spans.h"

namespace concilium::tomography {

namespace {

constexpr double kEps = 1e-9;

util::metrics::Counter& solver_iterations() {
    static auto& c =
        util::metrics::Registry::global().counter("tomography.solver_iterations");
    return c;
}

/// Solves (1 - gamma_k / A) = prod_j (1 - gamma_j / A) for A in (lo, 1].
/// Returns 1.0 when the data show no shared loss above the branch point.
double solve_branch(double gamma_self, const std::vector<double>& gamma_children) {
    static auto& calls =
        util::metrics::Registry::global().counter("tomography.solver_calls");
    calls.add(1);
    double lo = gamma_self;
    for (const double g : gamma_children) lo = std::max(lo, g);
    lo = std::max(lo, kEps);
    if (lo >= 1.0) return 1.0;

    const auto g_fn = [&](double a) {
        double prod = 1.0;
        for (const double g : gamma_children) prod *= (1.0 - g / a);
        return (1.0 - gamma_self / a) - prod;
    };
    // g(lo+) <= 0 (first term vanishes at gamma_self, or a child factor
    // vanishes); if g(1) < 0 there is no interior root -> no inferable
    // shared loss.
    if (g_fn(1.0) < 0.0) return 1.0;
    double a = lo + kEps;
    double b = 1.0;
    if (g_fn(a) > 0.0) return a;  // degenerate sample; clamp
    for (int iter = 0; iter < 80; ++iter) {
        const double mid = 0.5 * (a + b);
        if (g_fn(mid) <= 0.0) {
            a = mid;
        } else {
            b = mid;
        }
    }
    solver_iterations().add(80);
    return 0.5 * (a + b);
}

}  // namespace

double InferenceResult::loss_of(net::LinkId link) const {
    for (const LinkLossEstimate& e : links) {
        if (e.link == link) return e.loss;
    }
    throw std::out_of_range("InferenceResult::loss_of: unknown link");
}

InferenceResult infer_link_loss(const ProbeTree& tree,
                                std::span<const ProbeRecord> probes) {
    if (probes.empty()) {
        throw std::invalid_argument("infer_link_loss: no probes");
    }
    static auto& runs =
        util::metrics::Registry::global().counter("tomography.inference_runs");
    runs.add(1);
    // Wall-clock MLE-solve span (the tomography compute hot spot); callers
    // with a sim clock add their own sim-side context.
    const util::spans::WallSpan span(
        util::spans::SpanType::kMleSolve, /*causal=*/0,
        static_cast<std::int64_t>(probes.size()));
    const auto& nodes = tree.nodes();
    const std::size_t n = nodes.size();

    // gamma_hat[k]: fraction of probes with a verified ack from some
    // leaf in k's subtree.  One subtree pass per probe.
    std::vector<int> ack_any(n, 0);
    std::vector<char> probe_hit;
    for (const ProbeRecord& rec : probes) {
        tree.mark_subtrees(rec.acked, probe_hit);
        for (std::size_t k = 0; k < n; ++k) ack_any[k] += probe_hit[k];
    }
    std::vector<double> gamma(n);
    for (std::size_t k = 0; k < n; ++k) {
        gamma[k] = static_cast<double>(ack_any[k]) /
                   static_cast<double>(probes.size());
    }

    // Logical skeleton: the root, branch points (>= 2 children), and probed
    // endpoints are identifiable; single-child pass-through routers collapse
    // into the link chain below their nearest identifiable ancestor.
    const auto is_logical = [&](std::size_t k) {
        return k == 0 || nodes[k].children.size() >= 2 ||
               nodes[k].leaf_slot.has_value();
    };

    InferenceResult result;
    result.cumulative_pass.assign(n, 1.0);
    result.links.resize(n - 1);

    // Process logical nodes top-down (index order is parent-before-child).
    for (std::size_t k = 1; k < n; ++k) {
        if (!is_logical(k)) continue;
        // Find the nearest identifiable ancestor and count the chain links.
        std::size_t anc = static_cast<std::size_t>(nodes[k].parent);
        int chain_len = 1;
        while (!is_logical(anc)) {
            anc = static_cast<std::size_t>(nodes[anc].parent);
            ++chain_len;
        }
        const double a_parent = result.cumulative_pass[anc];
        // When no probe ever reached the parent (its whole subtree is
        // silent), deeper links carry no evidence whatsoever.
        const bool parent_reachable = a_parent > 2.0 * kEps;

        double a_k;
        if (gamma[k] <= 0.0) {
            // No ack from this subtree: if probes did reach the parent, the
            // chain itself is demonstrably dead; otherwise it is merely
            // unobservable.
            a_k = kEps;
        } else if (nodes[k].children.empty()) {
            a_k = gamma[k];  // logical leaf: gamma IS the end-to-end pass rate
        } else {
            std::vector<double> child_gammas;
            for (const int c : nodes[k].children) {
                child_gammas.push_back(gamma[static_cast<std::size_t>(c)]);
            }
            if (nodes[k].leaf_slot.has_value()) {
                // A probed interior endpoint: its own acks behave like a
                // zero-loss virtual child.
                const auto slot =
                    static_cast<std::size_t>(*nodes[k].leaf_slot);
                double own = 0.0;
                for (const ProbeRecord& rec : probes) {
                    if (rec.acked[slot]) own += 1.0;
                }
                child_gammas.push_back(own /
                                       static_cast<double>(probes.size()));
            }
            a_k = child_gammas.size() >= 2
                      ? solve_branch(gamma[k], child_gammas)
                      : gamma[k];  // cannot happen for a true branch point
        }
        a_k = std::clamp(a_k, kEps, 1.0);
        const bool observable = parent_reachable;
        const double chain_pass =
            observable ? std::clamp(a_k / a_parent, 0.0, 1.0) : 1.0;
        const double chain_loss = observable ? 1.0 - chain_pass : 0.0;
        if (observable) {
            static auto& loss_hist = util::metrics::Registry::global().histogram(
                "tomography.link_loss_estimate", 0.0, 1.0, 20);
            loss_hist.observe(chain_loss);
        }

        // Record the estimate on every physical link of the chain, and give
        // intermediate chain nodes interpolated cumulative passes.
        result.cumulative_pass[k] = a_k;
        const double per_hop = std::pow(
            std::max(chain_pass, kEps), 1.0 / static_cast<double>(chain_len));
        std::size_t walk = k;
        double cum = a_k;
        for (int hop = 0; hop < chain_len; ++hop) {
            result.links[walk - 1] = LinkLossEstimate{
                nodes[walk].via, chain_loss, chain_len, observable};
            const auto parent = static_cast<std::size_t>(nodes[walk].parent);
            if (hop + 1 < chain_len) {
                cum /= per_hop;
                result.cumulative_pass[parent] = std::min(cum, 1.0);
            }
            walk = parent;
        }
    }
    return result;
}

}  // namespace concilium::tomography
