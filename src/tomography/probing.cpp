#include "tomography/probing.h"

#include <cstdint>
#include <stdexcept>

#include "util/metrics.h"

namespace concilium::tomography {

namespace {

const LeafBehavior kHonest{};

const LeafBehavior& behavior_of(std::span<const LeafBehavior> behaviors,
                                std::size_t leaf) {
    if (behaviors.empty()) return kHonest;
    return behaviors[leaf];
}

/// Probe-outcome totals, flushed to the tomography.* counters once per
/// session instead of once per stripe.
struct StripeTally {
    std::int64_t stripes = 0;
    std::int64_t issued = 0;
    std::int64_t lost = 0;
    std::int64_t acks = 0;
    std::int64_t suppressed = 0;
    std::int64_t fabricated = 0;

    void flush() const {
        using util::metrics::Registry;
        static auto& stripes_c =
            Registry::global().counter("tomography.stripes_sampled");
        static auto& issued_c =
            Registry::global().counter("tomography.probes_issued");
        static auto& lost_c =
            Registry::global().counter("tomography.probes_lost");
        static auto& acks_c =
            Registry::global().counter("tomography.probe_acks");
        static auto& supp_c =
            Registry::global().counter("tomography.acks_suppressed");
        static auto& fab_c =
            Registry::global().counter("tomography.acks_fabricated");
        stripes_c.add(stripes);
        issued_c.add(issued);
        lost_c.add(lost);
        acks_c.add(acks);
        supp_c.add(suppressed);
        fab_c.add(fabricated);
    }
};

void check_behaviors(const ProbeTree& tree,
                     std::span<const LeafBehavior> behaviors) {
    if (!behaviors.empty() && behaviors.size() != tree.leaves().size()) {
        throw std::invalid_argument(
            "sample_striped_probe: behaviors must match leaf count");
    }
}

/// One stripe as a single forward pass over the parent-ordered nodes.
/// Node i >= 1 owns links()[i-1], so drawing each node's link in index
/// order is exactly one Bernoulli draw per link in links() order, and a
/// parent's delivery is settled before any of its children is visited.
/// `reached` is caller-owned scratch, reused across a session's stripes.
void sample_into(const ProbeTree& tree,
                 const PassProbabilityFn& pass_probability, util::SimTime t,
                 std::span<const LeafBehavior> behaviors, util::Rng& rng,
                 std::vector<char>& reached, ProbeRecord& record,
                 StripeTally& tally) {
    // One Bernoulli draw per tree link models the stripe's multicast
    // emulation: packets issued back to back share interior fate.
    const auto& nodes = tree.nodes();
    reached.resize(nodes.size());
    reached[0] = 1;
    for (std::size_t i = 1; i < nodes.size(); ++i) {
        const ProbeTree::Node& node = nodes[i];
        const bool passed = rng.bernoulli(pass_probability(node.via, t));
        reached[i] = static_cast<char>(
            reached[static_cast<std::size_t>(node.parent)] != 0 && passed);
    }

    const std::size_t n = tree.leaves().size();
    record.received.assign(n, false);
    record.acked.assign(n, false);
    record.nonce_valid.assign(n, false);
    const auto& leaf_nodes = tree.leaf_nodes();
    for (std::size_t leaf = 0; leaf < n; ++leaf) {
        const LeafBehavior& b = behavior_of(behaviors, leaf);
        if (reached[static_cast<std::size_t>(leaf_nodes[leaf])] != 0) {
            record.received[leaf] = true;
            const bool suppressed = rng.bernoulli(b.suppress_ack_probability);
            record.acked[leaf] = !suppressed;
            record.nonce_valid[leaf] = !suppressed;
            suppressed ? ++tally.suppressed : ++tally.acks;
        } else {
            ++tally.lost;
            if (b.fabricate_acks) {
                // The nonce travelled inside the lost probe; a fabricated ack
                // cannot echo it (Section 3.3).
                record.acked[leaf] = true;
                record.nonce_valid[leaf] = false;
                ++tally.fabricated;
            }
        }
    }
    ++tally.stripes;
    tally.issued += static_cast<std::int64_t>(n);
}

}  // namespace

ProbeRecord sample_striped_probe(const ProbeTree& tree,
                                 const PassProbabilityFn& pass_probability,
                                 util::SimTime t,
                                 std::span<const LeafBehavior> behaviors,
                                 util::Rng& rng) {
    check_behaviors(tree, behaviors);
    std::vector<char> reached;
    ProbeRecord record;
    StripeTally tally;
    sample_into(tree, pass_probability, t, behaviors, rng, reached, record,
                tally);
    tally.flush();
    return record;
}

HeavyweightResult run_heavyweight_session(
    const ProbeTree& tree, const PassProbabilityFn& pass_probability,
    util::SimTime t0, const HeavyweightParams& params,
    std::span<const LeafBehavior> behaviors, util::Rng& rng) {
    if (params.probe_count < 1) {
        throw std::invalid_argument(
            "run_heavyweight_session: probe_count must be positive");
    }
    check_behaviors(tree, behaviors);
    static auto& sessions = util::metrics::Registry::global().counter(
        "tomography.heavyweight_sessions");
    sessions.add(1);
    HeavyweightResult result;
    result.started_at = t0;
    result.ack_counts.assign(tree.leaves().size(), 0);
    result.probes.resize(static_cast<std::size_t>(params.probe_count));
    std::vector<char> reached;
    StripeTally tally;
    util::SimTime t = t0;
    for (ProbeRecord& rec : result.probes) {
        sample_into(tree, pass_probability, t, behaviors, rng, reached, rec,
                    tally);
        for (std::size_t leaf = 0; leaf < rec.acked.size(); ++leaf) {
            if (rec.acked[leaf] && rec.nonce_valid[leaf]) {
                ++result.ack_counts[leaf];
            }
        }
        t += params.spacing;
    }
    tally.flush();
    result.finished_at = t;
    return result;
}

LightweightResult run_lightweight_probe(
    const ProbeTree& tree, const PassProbabilityFn& pass_probability,
    util::SimTime t, int retries, std::span<const LeafBehavior> behaviors,
    util::Rng& rng) {
    static auto& rounds = util::metrics::Registry::global().counter(
        "tomography.lightweight_rounds");
    rounds.add(1);
    LightweightResult result;
    result.first_stripe =
        sample_striped_probe(tree, pass_probability, t, behaviors, rng);
    // Only nonce-valid acknowledgments count (Section 3.3): a fabricated
    // ack cannot make a leaf look responsive.
    result.responsive.assign(tree.leaves().size(), false);
    for (std::size_t leaf = 0; leaf < result.responsive.size(); ++leaf) {
        result.responsive[leaf] = result.first_stripe.acked[leaf] &&
                                  result.first_stripe.nonce_valid[leaf];
    }
    // "it sends a few more probes to silent peers to determine if they are
    // truly offline or situated along a lossy IP link" (Section 3.2)
    for (int r = 0; r < retries; ++r) {
        bool any_silent = false;
        for (const bool ok : result.responsive) {
            if (!ok) {
                any_silent = true;
                break;
            }
        }
        if (!any_silent) break;
        const ProbeRecord again = sample_striped_probe(
            tree, pass_probability, t + (r + 1) * util::kSecond, behaviors,
            rng);
        for (std::size_t leaf = 0; leaf < result.responsive.size(); ++leaf) {
            if (again.acked[leaf] && again.nonce_valid[leaf]) {
                result.responsive[leaf] = true;
            }
        }
    }
    return result;
}

}  // namespace concilium::tomography
