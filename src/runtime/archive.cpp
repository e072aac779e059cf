#include "runtime/archive.h"

#include <algorithm>
#include <stdexcept>

namespace concilium::runtime {

ArchiveAdd SnapshotArchive::add(tomography::TomographicSnapshot snapshot,
                                util::SimTime now, DigestId digest_id,
                                overlay::MemberIndex origin_member) {
    if (now - snapshot.probed_at > max_transit_) {
        return ArchiveAdd::kRejectedStale;
    }
    std::uint32_t slot = kNoSlot;
    if (origin_member < slot_of_member_.size()) {
        slot = slot_of_member_[origin_member];
    }
    if (slot == kNoSlot) {
        const auto it = slot_of_.find(snapshot.origin);
        if (it != slot_of_.end()) slot = it->second;
    } else if (!(origins_[slot].origin == snapshot.origin)) {
        throw std::invalid_argument(
            "SnapshotArchive::add: origin_member names another origin");
    }
    if (snapshot.epoch != 0 && slot != kNoSlot &&
        snapshot.epoch <= origins_[slot].newest_epoch) {
        return ArchiveAdd::kRejectedEpoch;
    }
    if (slot == kNoSlot) {
        slot = static_cast<std::uint32_t>(origins_.size());
        slot_of_.emplace(snapshot.origin, slot);
        origins_.push_back(OriginTable{snapshot.origin, {}, {}, 0});
    }
    if (origin_member != kNoMember) {
        if (origin_member >= slot_of_member_.size()) {
            slot_of_member_.resize(std::size_t{origin_member} + 1, kNoSlot);
        }
        slot_of_member_[origin_member] = slot;
    }
    OriginTable* table = &origins_[slot];
    if (snapshot.epoch != 0) table->newest_epoch = snapshot.epoch;

    if (digest_id == util::DigestInterner::kInvalidId && interner_ != nullptr) {
        const auto payload = snapshot.signed_payload();
        digest_id = interner_->intern(
            util::digest_bytes({payload.data(), payload.size()}));
    }
    table->meta.push_back(
        Meta{snapshot.epoch, snapshot.probed_at, digest_id});
    table->snaps.push_back(std::move(snapshot));
    ++count_;
    while (table->snaps.size() > max_per_origin_) {
        table->snaps.pop_front();
        table->meta.pop_front();
        --count_;
    }
    // Throttled reclamation: a full prune per insert was a measured hotspot
    // at --full scale, and queries enforce the horizon regardless.
    if (now - last_prune_ >= retention_ / 8) {
        prune(now);
        last_prune_ = now;
    }
    return ArchiveAdd::kArchived;
}

void SnapshotArchive::prune(util::SimTime now) {
    const util::SimTime horizon = now - retention_;
    for (auto& table : origins_) {
        while (!table.meta.empty() && table.meta.front().probed_at < horizon) {
            table.snaps.pop_front();
            table.meta.pop_front();
            --count_;
        }
    }
}

const SnapshotArchive::OriginTable* SnapshotArchive::table_of(
    const util::NodeId& origin) const {
    const auto it = slot_of_.find(origin);
    return it == slot_of_.end() ? nullptr : &origins_[it->second];
}

const SnapshotArchive::OriginTable* SnapshotArchive::table_of(
    overlay::MemberIndex origin) const {
    if (origin >= slot_of_member_.size()) return nullptr;
    const std::uint32_t slot = slot_of_member_[origin];
    return slot == kNoSlot ? nullptr : &origins_[slot];
}

std::ptrdiff_t SnapshotArchive::row_of(const OriginTable* table,
                                       std::uint64_t epoch) {
    if (table == nullptr || epoch == 0 || epoch > table->newest_epoch) {
        return -1;
    }
    // Newest-first over the compact meta rows; recent epochs are the common
    // probe.  Epoch-0 rows are unversioned and never match.
    for (std::size_t i = table->meta.size(); i-- > 0;) {
        const std::uint64_t e = table->meta[i].epoch;
        if (e > epoch) continue;
        if (e == epoch) return static_cast<std::ptrdiff_t>(i);
        if (e != 0) break;  // evicted or pruned
    }
    return -1;
}

const tomography::TomographicSnapshot* SnapshotArchive::find(
    const util::NodeId& origin, std::uint64_t epoch) const {
    const OriginTable* table = table_of(origin);
    const std::ptrdiff_t row = row_of(table, epoch);
    return row < 0 ? nullptr : &table->snaps[static_cast<std::size_t>(row)];
}

const tomography::TomographicSnapshot* SnapshotArchive::find(
    overlay::MemberIndex origin, std::uint64_t epoch) const {
    const OriginTable* table = table_of(origin);
    const std::ptrdiff_t row = row_of(table, epoch);
    return row < 0 ? nullptr : &table->snaps[static_cast<std::size_t>(row)];
}

SnapshotArchive::DigestId SnapshotArchive::digest_of(
    const util::NodeId& origin, std::uint64_t epoch) const {
    const OriginTable* table = table_of(origin);
    const std::ptrdiff_t row = row_of(table, epoch);
    return row < 0 ? util::DigestInterner::kInvalidId
                   : table->meta[static_cast<std::size_t>(row)].digest;
}

SnapshotArchive::DigestId SnapshotArchive::digest_of(
    overlay::MemberIndex origin, std::uint64_t epoch) const {
    const OriginTable* table = table_of(origin);
    const std::ptrdiff_t row = row_of(table, epoch);
    return row < 0 ? util::DigestInterner::kInvalidId
                   : table->meta[static_cast<std::size_t>(row)].digest;
}

util::SimTime SnapshotArchive::query_horizon(util::SimTime t,
                                             util::SimTime delta) const {
    // The window is [t - delta, t + delta], but never reaches further back
    // than the retention promise: a caller passing a huge delta must not
    // resurrect evidence that insert-time pruning merely hasn't visited yet.
    return std::max(t - delta, t - retention_);
}

std::vector<core::ProbeResult> SnapshotArchive::probes_for(
    std::span<const net::LinkId> links, util::SimTime t, util::SimTime delta,
    const util::NodeId& exclude) const {
    const util::SimTime lo = query_horizon(t, delta);
    std::vector<core::ProbeResult> out;
    for (const auto& table : origins_) {
        if (table.origin == exclude) continue;
        for (std::size_t i = 0; i < table.meta.size(); ++i) {
            const util::SimTime at = table.meta[i].probed_at;
            if (at < lo || at > t + delta) continue;
            for (const auto& obs : table.snaps[i].links) {
                if (std::find(links.begin(), links.end(), obs.link) ==
                    links.end()) {
                    continue;
                }
                out.push_back(
                    core::ProbeResult{table.origin, obs.link, obs.up, at});
            }
        }
    }
    return out;
}

std::vector<const tomography::TomographicSnapshot*>
SnapshotArchive::snapshots_from(const util::NodeId& origin) const {
    std::vector<const tomography::TomographicSnapshot*> out;
    const OriginTable* table = table_of(origin);
    if (table == nullptr) return out;
    for (const auto& snap : table->snaps) out.push_back(&snap);
    return out;
}

std::vector<tomography::TomographicSnapshot> SnapshotArchive::evidence_for(
    std::span<const net::LinkId> links, util::SimTime t, util::SimTime delta,
    const util::NodeId& exclude) const {
    const util::SimTime lo = query_horizon(t, delta);
    std::vector<tomography::TomographicSnapshot> out;
    for (const auto& table : origins_) {
        if (table.origin == exclude) continue;
        for (std::size_t i = 0; i < table.meta.size(); ++i) {
            const util::SimTime at = table.meta[i].probed_at;
            if (at < lo || at > t + delta) continue;
            const auto& snap = table.snaps[i];
            const bool touches = std::any_of(
                snap.links.begin(), snap.links.end(),
                [&](const tomography::LinkObservation& obs) {
                    return std::find(links.begin(), links.end(), obs.link) !=
                           links.end();
                });
            if (touches) out.push_back(snap);
        }
    }
    return out;
}

}  // namespace concilium::runtime
