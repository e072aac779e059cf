#include "tomography/snapshot.h"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace concilium::tomography {

LossBucket quantize_loss(double loss) {
    if (loss < 0.01) return LossBucket::kClean;
    if (loss < 0.05) return LossBucket::kLow;
    if (loss < 0.20) return LossBucket::kModerate;
    if (loss < 0.80) return LossBucket::kHigh;
    return LossBucket::kDown;
}

double bucket_loss(LossBucket bucket) {
    switch (bucket) {
        case LossBucket::kClean: return 0.0;
        case LossBucket::kLow: return 0.03;
        case LossBucket::kModerate: return 0.12;
        case LossBucket::kHigh: return 0.5;
        case LossBucket::kDown: return 1.0;
    }
    throw std::invalid_argument("bucket_loss: bad bucket");
}

namespace {

/// Every signed field, in order; the wire form appends the signature.
void write_snapshot_body(util::ByteWriter& w, const TomographicSnapshot& s) {
    w.node_id(s.origin);
    w.u64(s.epoch);
    w.i64(s.probed_at);
    w.u32(static_cast<std::uint32_t>(s.paths.size()));
    for (const PathSummary& p : s.paths) {
        w.node_id(p.peer);
        w.u8(static_cast<std::uint8_t>(p.bucket));
    }
    w.u32(static_cast<std::uint32_t>(s.links.size()));
    for (const LinkObservation& l : s.links) {
        w.u32(l.link);
        w.u8(l.up ? 1 : 0);
    }
}

}  // namespace

std::vector<std::uint8_t> TomographicSnapshot::signed_payload() const {
    util::ByteWriter w;
    write_snapshot_body(w, *this);
    return w.data();
}

std::size_t TomographicSnapshot::wire_bytes() const {
    // "Assuming 1 byte for each path summary" (Section 4.4).  Link verdicts
    // are derivable from the path summaries plus the advertised tree, so
    // they ride free; the envelope carries the origin, epoch, timestamp,
    // and signature.
    return paths.size() * 1 + util::NodeId::kBytes + 8 + 8 +
           crypto::Signature::kWireBytes;
}

void write_snapshot_wire(util::ByteWriter& w, const TomographicSnapshot& s) {
    write_snapshot_body(w, s);
    w.bytes(s.signature.bytes());
}

TomographicSnapshot read_snapshot_wire(util::ByteReader& r) {
    TomographicSnapshot s;
    s.origin = r.node_id();
    s.epoch = r.u64();
    s.probed_at = r.i64();
    const std::uint32_t paths = r.count(util::NodeId::kBytes + 1);
    s.paths.reserve(paths);
    for (std::uint32_t i = 0; i < paths; ++i) {
        PathSummary p;
        p.peer = r.node_id();
        p.bucket = static_cast<LossBucket>(r.u8());
        s.paths.push_back(p);
    }
    const std::uint32_t links = r.count(sizeof(std::uint32_t) + 1);
    s.links.reserve(links);
    for (std::uint32_t i = 0; i < links; ++i) {
        LinkObservation l;
        l.link = r.u32();
        l.up = r.u8() != 0;
        s.links.push_back(l);
    }
    const auto raw = r.bytes();
    if (raw.size() != crypto::Signature::kBytes) {
        throw std::out_of_range("read_snapshot_wire: bad signature length");
    }
    std::array<std::uint8_t, crypto::Signature::kBytes> arr{};
    std::copy(raw.begin(), raw.end(), arr.begin());
    s.signature = crypto::Signature(arr);
    return s;
}

TomographicSnapshot make_snapshot(const util::NodeId& origin,
                                  util::SimTime probed_at,
                                  const ProbeTree& tree,
                                  const InferenceResult& inference,
                                  const std::vector<bool>& excluded,
                                  const SnapshotParams& params,
                                  const std::vector<util::NodeId>& leaf_ids) {
    if (leaf_ids.size() != tree.leaves().size()) {
        throw std::invalid_argument("make_snapshot: leaf id count mismatch");
    }
    // An excluded leaf's silenced feedback makes its last mile *look* dead;
    // links only it could vouch for carry no evidence at all.
    std::vector<bool> verified = excluded;
    verified.flip();
    std::vector<char> vouched;
    tree.mark_subtrees(verified, vouched);
    TomographicSnapshot snap{origin, /*epoch=*/0, probed_at, {}, {}, {}};
    const auto& leaf_nodes = tree.leaf_nodes();
    for (std::size_t slot = 0; slot < leaf_ids.size(); ++slot) {
        const double pass = inference.cumulative_pass.at(
            static_cast<std::size_t>(leaf_nodes[slot]));
        snap.paths.push_back(
            PathSummary{leaf_ids[slot], quantize_loss(1.0 - pass)});
    }
    for (std::size_t k = 1; k < vouched.size(); ++k) {
        const LinkLossEstimate& e = inference.links.at(k - 1);
        // Links with no probe evidence (below a dead ancestor, or behind
        // excluded leaves only) are omitted.
        if (!e.observable || vouched[k] == 0) continue;
        snap.links.push_back(
            LinkObservation{e.link, e.loss < params.down_loss_threshold});
    }
    return snap;
}

TomographicSnapshot make_lightweight_snapshot(
    const util::NodeId& origin, util::SimTime probed_at,
    const ProbeTree& tree, const LightweightResult& result,
    const std::vector<util::NodeId>& leaf_ids) {
    if (leaf_ids.size() != tree.leaves().size()) {
        throw std::invalid_argument(
            "make_lightweight_snapshot: leaf id count mismatch");
    }
    // An acknowledged probe traversed every link on its leaf's path.
    std::vector<char> vouched;
    tree.mark_subtrees(result.responsive, vouched);
    TomographicSnapshot snap{origin, /*epoch=*/0, probed_at, {}, {}, {}};
    for (std::size_t slot = 0; slot < leaf_ids.size(); ++slot) {
        snap.paths.push_back(PathSummary{
            leaf_ids[slot], result.responsive[slot] ? LossBucket::kClean
                                                    : LossBucket::kDown});
    }
    for (std::size_t k = 1; k < vouched.size(); ++k) {
        if (vouched[k] != 0) snap.links.push_back({tree.links()[k - 1], true});
    }
    return snap;
}

bool verify_snapshot(const TomographicSnapshot& snapshot,
                     const crypto::PublicKey& origin_key,
                     const crypto::KeyRegistry& registry) {
    return registry.verify(origin_key, snapshot.signed_payload(),
                           snapshot.signature);
}

}  // namespace concilium::tomography
