#include "net/transport.h"

#include <algorithm>

#include "util/metrics.h"

namespace concilium::net {

double Transport::pass_probability(LinkId link, util::SimTime t) const {
    if (!timeline_->is_up(link, t)) return 0.0;
    double loss = params_.healthy_link_loss;
    if (chaos_ != nullptr) {
        if (!chaos_->link_up(link, t)) return 0.0;
        loss = std::max(loss, chaos_->loss_at(link, t));
    }
    return 1.0 - loss;
}

bool Transport::sample_traversal(std::span<const LinkId> links,
                                 util::SimTime t) {
    static auto& sent =
        util::metrics::Registry::global().counter("net.packets_sent");
    static auto& delivered =
        util::metrics::Registry::global().counter("net.packets_delivered");
    static auto& dropped =
        util::metrics::Registry::global().counter("net.packets_dropped");
    sent.add(1);
    util::SimTime cross = t;
    for (const LinkId link : links) {
        if (!rng_.bernoulli(pass_probability(link, cross))) {
            dropped.add(1);
            return false;
        }
        cross += params_.per_hop_latency;
    }
    delivered.add(1);
    return true;
}

bool Transport::sample_traversal(const Path& path, util::SimTime t) {
    return sample_traversal(path.links, t);
}

}  // namespace concilium::net
