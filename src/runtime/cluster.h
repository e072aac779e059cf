// The Concilium protocol as an event-driven machine.
//
// sim::Scenario evaluates the paper's equations directly under the Section
// 4.3 assumptions (probes classify links with accuracy a).  Cluster instead
// *runs the protocol*: every node schedules lightweight striped probes of
// its tree (Section 3.2), escalates to heavyweight probing and MINC
// inference when leaves go silent or messages go unacknowledged, publishes
// signed snapshots to its routing peers, and archives the snapshots it
// receives.  Application messages travel hop by hop over the simulated IP
// network with forwarding commitments (Section 3.6) and end-to-end
// acknowledgments under recursive stewardship (Section 3.5); timeouts
// trigger blame evaluation, verdict ledgers, upstream revision pushes, and
// formal accusations stored in the DHT (Section 3.4).
//
// Misbehaviour is injected per node through runtime::NodeBehavior (see
// runtime/attack.h): message droppers, probe-report flippers ("misreporting
// the results of its own probes", Section 3.3), ack suppressors/fabricators
// at the probing layer, commitment refusers, nodes that withhold revisions
// "at their own peril", and the evidence-integrity campaign roles --
// equivocators, replayers, slanderers, accusation spammers, and verdict
// colluders -- each paired here with its self-verifying defense.

#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/accusation.h"
#include "core/blame.h"
#include "core/reputation.h"
#include "core/trace.h"
#include "core/validation.h"
#include "core/verdicts.h"
#include "dht/dht.h"
#include "net/chaos.h"
#include "net/event_sim.h"
#include "net/link_state.h"
#include "net/transport.h"
#include "core/equivocation.h"
#include "crypto/verify_cache.h"
#include "overlay/network.h"
#include "runtime/archive.h"
#include "runtime/attack.h"
#include "runtime/journal.h"
#include "runtime/retry.h"
#include "tomography/overlay_trees.h"
#include "tomography/probing.h"
#include "tomography/snapshot.h"
#include "util/rng.h"

namespace concilium::runtime {

struct RuntimeParams {
    /// Routing-state validation applied to the advertisements exchanged at
    /// start() (Section 3.1).
    core::ValidationParams validation;
    /// Lightweight probe inter-arrival: uniform in [0, this] (Section 3.2).
    util::SimTime probe_interval_max = 120 * util::kSecond;
    /// Retries sent to silent leaves before escalating.
    int lightweight_retries = 2;
    /// Heavyweight session shape (Duffield's full scheme).
    tomography::HeavyweightParams heavyweight{
        .probe_count = 100, .spacing = 50 * util::kMillisecond};
    /// Per-node floor between *periodic* heavyweight sessions.
    util::SimTime heavyweight_min_gap = 1 * util::kMinute;
    /// Floor for *reactive* sessions (unacknowledged message): fresh
    /// evidence matters more than probe budget when blame is being decided.
    util::SimTime reactive_heavyweight_min_gap = 10 * util::kSecond;
    core::BlameParams blame;
    core::VerdictParams verdicts;
    tomography::SnapshotParams snapshot;
    /// Steward acknowledgment timeout.
    util::SimTime ack_timeout = 5 * util::kSecond;
    /// Delay between a timeout and the steward's judgment, leaving time for
    /// reactive heavyweight snapshots and downstream revisions to arrive.
    util::SimTime judgment_grace = 8 * util::kSecond;
    /// Control-plane (snapshot / revision) dissemination latency.
    util::SimTime control_latency = 200 * util::kMillisecond;
    int dht_replication = 4;
    /// Per-writer quota on DHT values stored under one key (0 = unlimited);
    /// contains accusation spam without touching honest accusers.
    int dht_per_writer_quota = 8;
    /// Reputation votes needed before a peer is considered poor.
    int reputation_threshold = 3;
    /// No-confidence votes older than this stop counting toward
    /// reputation_threshold (0 = votes never expire).
    util::SimTime reputation_vote_expiry = 30 * util::kMinute;
    /// A snapshot delivered more than this after its probed_at is rejected
    /// by the receiving archive as a replay/stale advertisement.
    util::SimTime snapshot_max_transit = util::kMinute;
    /// Newest-wins cap on archived snapshots per origin.
    std::size_t archive_max_per_origin = 64;
    net::TransportParams transport;
    /// Steward retransmission of an unacknowledged message before judging:
    /// attempts beyond the first re-send over the same IP path with
    /// exponential backoff + jitter.  The default (1) preserves the
    /// paper's judge-on-first-timeout behavior; chaos runs raise it so
    /// transient IP loss does not masquerade as a malicious drop.
    RetryPolicy forward_retry{};
    /// Snapshot-exchange retry, used when a chaos plan makes the control
    /// plane lossy (see set_chaos).  A peer whose delivery exhausts the
    /// budget simply lacks that snapshot -- the judge's evidence degrades
    /// gracefully instead of wedging diagnosis.
    RetryPolicy snapshot_retry{.max_attempts = 3,
                               .base_delay = 300 * util::kMillisecond};
    /// Crash recovery (RECOVERY.md): an in-flight stewardship whose
    /// forward is older than this at restart is abandoned with a signed
    /// handoff instead of resumed (the ack, if any, is long lost and the
    /// upstream judgment has already run its course).
    util::SimTime recovery_resume_horizon = 30 * util::kSecond;
};

class Cluster {
  public:
    Cluster(net::EventSim& sim, const net::FailureTimeline& timeline,
            const overlay::OverlayNetwork& net,
            const tomography::OverlayTrees& trees, RuntimeParams params,
            std::vector<NodeBehavior> behaviors, util::Rng rng);

    /// Schedules every node's first probe round.  Call once, then drive the
    /// EventSim.
    void start();

    /// Attaches a chaos plan (see net/chaos.h).  Link flaps, correlated
    /// outages, and loss spikes fold into every packet via the transport;
    /// the churn schedule drives set_online(); snapshot dissemination
    /// becomes lossy (sampled over the member-to-peer IP path, retried per
    /// snapshot_retry); probe acknowledgments drop at ack_drop_rate; and
    /// forwarded packets may be reordered or duplicated.  Call before
    /// start().  The plan must outlive the cluster; nullptr detaches.
    void set_chaos(const net::FaultPlan* plan) noexcept {
        chaos_ = plan;
        transport_.set_chaos(plan);
    }
    [[nodiscard]] const net::FaultPlan* chaos() const noexcept {
        return chaos_;
    }

    /// Takes a node off the network / brings it back (our extension: the
    /// paper "did not model fluctuating machine availability").  An offline
    /// node answers no probes, forwards no messages, relays no acks, and
    /// publishes no snapshots -- indistinguishable, to the protocol, from a
    /// total message dropper, and blamed accordingly.
    void set_online(overlay::MemberIndex m, bool online);
    [[nodiscard]] bool is_online(overlay::MemberIndex m) const {
        return online_.at(m);
    }

    struct MessageOutcome {
        bool delivered = false;
        bool network_blamed = false;
        /// Degraded mode (RECOVERY.md): the diagnosis closed with no
        /// verdict at all because the evidence covering the judged hop
        /// was hollowed out by a crash or partition.  Nobody is blamed.
        bool insufficient_evidence = false;
        /// Final accused node (after revisions), when a node is blamed.
        std::optional<util::NodeId> blamed;
        /// Route positions, for ground-truth scoring by callers.
        std::vector<overlay::MemberIndex> route;
        /// Simulation-only ground truth (never visible to protocol logic):
        /// which hop actually dropped the message, or whether the IP
        /// network ate the message / its acknowledgment (and on which
        /// route segment).
        std::optional<std::size_t> true_drop_hop;
        bool true_network_drop = false;
        std::optional<std::size_t> true_network_segment;
    };
    using CompletionFn = std::function<void(const MessageOutcome&)>;

    /// Sends an application message from `from` toward the root of
    /// `dest_key`.  The callback fires when the sender either receives the
    /// acknowledgment or completes its diagnosis.
    std::uint64_t send(overlay::MemberIndex from, const util::NodeId& dest_key,
                       CompletionFn on_complete = {});

    /// Every Stats counter, declared once as X(name) in the order the
    /// daemon checkpoint writes them.  Reordering or renaming one changes
    /// the checkpoint text, so checkpoints written before would no longer
    /// resume.
#define CONCILIUM_CLUSTER_STATS(X)                                           \
    X(messages)                                                              \
    X(delivered)                                                             \
    X(dropped_by_forwarder) /* ground truth */                               \
    X(dropped_by_network)   /* ground truth (incl. acks) */                  \
    X(guilty_verdicts)                                                       \
    X(innocent_verdicts)                                                     \
    X(accusations_filed)                                                     \
    X(revisions_pushed)                                                      \
    X(revisions_applied)                                                     \
    X(snapshots_published)                                                   \
    X(snapshots_rejected) /* bad signature on receipt */                     \
    X(lightweight_rounds)                                                    \
    X(heavyweight_sessions)                                                  \
    X(commitments_issued)                                                    \
    X(commitments_refused)                                                   \
    X(reputation_votes)                                                      \
    X(advertisements_accepted)                                               \
    X(advertisements_rejected)                                               \
    X(forward_retransmissions)                                               \
    X(snapshot_retries)                                                      \
    X(snapshot_deliveries_failed) /* retry budget spent */                   \
    X(duplicates_suppressed)                                                 \
    X(churn_leaves)                                                          \
    X(churn_rejoins)                                                         \
    /* crash recovery + partitions (RECOVERY.md) */                          \
    X(crashes)                                                               \
    X(restarts)                                                              \
    X(journal_replays)                                                       \
    X(recovery_announcements)                                                \
    X(recovery_repairs_accepted)                                             \
    X(recovery_repairs_rejected)                                             \
    X(stewardships_resumed)                                                  \
    X(stewardships_abandoned)                                                \
    X(insufficient_verdicts) /* degraded-mode abstentions */                 \
    X(verdicts_retracted)    /* after announcements */                       \
    X(partition_activations)                                                 \
    X(partition_heals)                                                       \
    X(partition_blocked_packets)                                             \
    X(resync_rounds) /* heal-time anti-entropy probes */                     \
    /* attack-campaign activity (what the adversary did) */                  \
    X(equivocations_published) /* per-peer variant rounds */                 \
    X(replays_published)       /* stale re-advertisements */                 \
    X(slanders_filed)          /* forged accusations */                      \
    X(spam_puts)               /* junk DHT insertions */                     \
    X(collusions_pushed)       /* fabricated revisions */                    \
    /* defense outcomes (what the protocol caught) */                        \
    X(snapshots_rejected_stale) /* archive transit check */                  \
    X(snapshots_rejected_epoch) /* archive replay floor */                   \
    X(equivocation_proofs_filed)                                             \
    X(revisions_rejected) /* failed re-verification */                       \
    X(dht_puts_rejected)  /* writer quota exhausted */

    struct Stats {
#define CONCILIUM_STATS_FIELD(name) std::size_t name = 0;
        CONCILIUM_CLUSTER_STATS(CONCILIUM_STATS_FIELD)
#undef CONCILIUM_STATS_FIELD

        /// Calls fn(name, value) for every counter, in declaration order.
        template <typename Fn>
        void for_each(Fn&& fn) const {
#define CONCILIUM_STATS_VISIT(name) fn(#name, name);
            CONCILIUM_CLUSTER_STATS(CONCILIUM_STATS_VISIT)
#undef CONCILIUM_STATS_VISIT
        }
    };
    [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

    [[nodiscard]] const SnapshotArchive& archive(overlay::MemberIndex m) const {
        return nodes_.at(m).archive;
    }
    [[nodiscard]] const dht::Dht& repository() const noexcept { return dht_; }
    [[nodiscard]] const core::ReputationBook& reputation() const noexcept {
        return reputation_;
    }

    /// Peers that rejected m's routing advertisement during the start()
    /// exchange (empty set == everyone accepted it).
    [[nodiscard]] const std::vector<overlay::MemberIndex>&
    advertisement_rejecters(overlay::MemberIndex m) const {
        return ad_rejecters_.at(m);
    }

    /// Fetches and deserializes the accusations stored against a member,
    /// as an arbitrary third party would (Section 3.4's final step).
    /// Malformed values (spam) are skipped, not fatal.
    [[nodiscard]] std::vector<core::FaultAccusation> accusations_against(
        overlay::MemberIndex m) const;

    /// Fetches the self-verifying equivocation proofs filed against a
    /// member's snapshot stream (two valid signatures over conflicting
    /// payloads for the same origin+epoch).  Malformed values are skipped.
    [[nodiscard]] std::vector<core::EquivocationProof>
    equivocation_proofs_against(overlay::MemberIndex m) const;

    /// Independently verifies an accusation against this cluster's key
    /// registry, exactly as a prospective peer would before sanctioning.
    [[nodiscard]] core::AccusationCheck verify(
        const core::FaultAccusation& accusation) const;

    /// Independently verifies an equivocation proof against the accused
    /// member's registered key.
    [[nodiscard]] core::EquivocationCheck verify(
        const core::EquivocationProof& proof,
        overlay::MemberIndex accused) const;

    /// The node's durable journal (its "disk"): written on every epoch
    /// advance, verdict, stewardship transition, and vote; replayed on
    /// restart after a crash.
    [[nodiscard]] const NodeJournal& journal(overlay::MemberIndex m) const {
        return journals_.at(m);
    }

    /// True while m is crashed (offline with amnesia, as opposed to a
    /// graceful churn leave which keeps its volatile state).
    [[nodiscard]] bool is_crashed(overlay::MemberIndex m) const {
        return crashed_.at(m);
    }

    /// Attaches an opt-in diagnosis journal: every message that completes
    /// via diagnosis (i.e. was not acknowledged) appends one record with
    /// its forwarder chain, every judgment's Equation 2-3 blame inputs,
    /// and the final verdict.  Pass nullptr to detach.  The trace must
    /// outlive the cluster (or be detached first).
    void set_trace(core::DiagnosisTrace* trace) noexcept { trace_ = trace; }

  private:
    struct StewardRecord {
        bool forwarded = false;
        bool acked = false;
        /// Message copy seen at this hop (dedupes retransmissions and
        /// chaos-duplicated packets).
        bool received = false;
        std::optional<core::ForwardingCommitment> commitment;  ///< from next
        std::optional<core::BlameEvidence> judgment;  ///< own verdict vs next
        /// The Equation 2-3 terms behind `judgment` (kept for the trace).
        std::optional<core::BlameBreakdown> breakdown;
        util::SimTime judged_at = 0;
        bool judgment_guilty = false;
        /// Revision evidence pushed up from downstream stewards, in chain
        /// order (next hop's judgment first).
        std::vector<core::BlameEvidence> pushed;
        bool judged = false;
        /// Degraded mode: the judgment abstained (insufficient evidence)
        /// instead of convicting.
        bool judgment_insufficient = false;
        /// Signed abandonment received from the next hop after it
        /// restarted: proof the "drop" was a crash.
        std::optional<StewardHandoff> handoff;
    };

    struct MessageContext {
        std::uint64_t id = 0;
        std::vector<overlay::MemberIndex> route;
        util::SimTime sent_at = 0;
        std::vector<StewardRecord> stewards;
        CompletionFn on_complete;
        bool completed = false;
        // Ground truth for stats.
        std::optional<std::size_t> dropped_by_hop;
        bool dropped_by_network = false;
        std::optional<std::size_t> network_drop_segment;
    };

    /// A snapshot sealed for dissemination: the signed payload is serialized
    /// once at publication, its digest interned once, and every per-peer
    /// delivery (and retry) shares this immutable slab by reference instead
    /// of copying the snapshot into each deliver closure.
    struct PublishedSnapshot {
        tomography::TomographicSnapshot snapshot;
        /// Publisher's member index (snapshots are always self-originated);
        /// receivers resolve the origin key through it without a NodeId map
        /// lookup per delivery.
        overlay::MemberIndex origin_m = 0;
        std::vector<std::uint8_t> payload;  ///< signed_payload(), serialized once
        util::Digest digest{};
        util::DigestInterner::Id digest_id = util::DigestInterner::kInvalidId;
    };
    [[nodiscard]] std::shared_ptr<const PublishedSnapshot> seal(
        overlay::MemberIndex m, tomography::TomographicSnapshot snapshot);

    struct NodeState {
        SnapshotArchive archive;
        core::VerdictLedger ledger;
        util::SimTime last_heavyweight = -(1LL << 60);
        /// Next snapshot publication counter (epoch 0 = unversioned).
        std::uint64_t next_epoch = 1;
        /// Replayer state: the first favorable snapshot (sealed),
        /// re-advertised verbatim every later round.
        std::shared_ptr<const PublishedSnapshot> replay_stash{};
        /// Commitments this node collected as a steward, by issuing member
        /// -- a colluder's raw material for fabricated revisions.  Keyed by
        /// dense MemberIndex; NodeIds resolve at the call boundary.
        std::unordered_map<overlay::MemberIndex, core::ForwardingCommitment>
            collected{};
        /// Round-robin victim cursors for slander / spam rounds.
        std::size_t slander_cursor = 0;
        std::size_t spam_cursor = 0;
        /// Verified recovery announcements received, by announcing member:
        /// the basis for verdict retraction and accusation abstention.
        std::unordered_map<overlay::MemberIndex,
                           std::vector<RecoveryAnnouncement>>
            recovery_seen{};
    };
    /// A node's state at first boot and after a crash-stop: empty archive
    /// bound to the shared interner, fresh ledger, epoch 1.
    [[nodiscard]] NodeState fresh_node_state();

    // --- POD event dispatch ------------------------------------------------
    /// Simulation events ride EventSim's POD queue: an op code plus two
    /// integer operands, fanned out by one registered handler.  Snapshot
    /// deliveries carry their sealed slab through a parcel slot (see
    /// park()).  Only the control messages that carry evidence by value --
    /// revisions, steward handoffs, recovery announcements -- stay on the
    /// callback API; they are rare and marked `hot-path-lint: cold`.
    enum class Op : std::uint32_t {
        kProbeRound,       ///< b = member
        kSlanderRound,     ///< b = member
        kSpamRound,        ///< b = member
        kPeerRefresh,      ///< b = member (heavyweight refresh, periodic gap)
        kDeliverToHop,     ///< b = message, c = hop
        kDeliverAck,       ///< b = message, c = hop
        kAckTimeout,       ///< b = message, c = hop
        kJudge,            ///< b = message, c = hop
        kForwardRetry,     ///< b = message, c = hop << 32 | attempt
        kMaybeComplete,    ///< b = message
        kDeliverSnapshot,  ///< b = peer, c = parcel
        kSnapshotRetry,    ///< b = peer, c = attempt << 32 | parcel
        kColludeRevision,  ///< b = message, c = hop
        kChurnLeave,       ///< b = member
        kChurnRejoin,      ///< b = member
        kCrash,            ///< b = member
        kRestart,          ///< b = member
        kPartitionStart,
        kPartitionHeal,
        kResyncRound,      ///< b = member
    };
    static void dispatch_event(void* ctx, std::uint32_t a, std::uint64_t b,
                               std::uint64_t c);
    void post(util::SimTime delay, Op op, std::uint64_t b = 0,
              std::uint64_t c = 0) {
        sim_->post_after(delay, handler_, static_cast<std::uint32_t>(op), b,
                         c);
    }
    void post_at(util::SimTime t, Op op, std::uint64_t b = 0,
                 std::uint64_t c = 0) {
        sim_->post_at(t, handler_, static_cast<std::uint32_t>(op), b, c);
    }
    /// Parks a sealed snapshot for an in-flight delivery; the returned
    /// parcel slot travels in the event's operands.
    std::uint32_t park(std::shared_ptr<const PublishedSnapshot> snapshot);
    /// Takes the snapshot out of its parcel slot and recycles the slot.
    std::shared_ptr<const PublishedSnapshot> unpark(std::uint32_t slot);
    /// Retry-timer body: re-send unless the ack landed in the meantime.
    void forward_retry(std::uint64_t msg_id, std::size_t hop, int attempt);

    // --- routing-state exchange -------------------------------------------
    void exchange_routing_state();
    /// m's signed jump-table advertisement as m publishes it: a suppressor
    /// (advertised_table_fraction < 1) cuts the entries and re-signs.
    [[nodiscard]] overlay::JumpTableAdvertisement own_advertisement(
        overlay::MemberIndex m) const;
    /// `peer`'s full validation of `ad` against its own table's density.
    [[nodiscard]] bool accepts_advertisement(
        overlay::MemberIndex peer,
        const overlay::JumpTableAdvertisement& ad) const;

    // --- periodic rounds ---------------------------------------------------
    /// Arms m's next probe / slander / spam round, uniform in
    /// [0, probe_interval_max].
    void schedule_round(Op op, overlay::MemberIndex m);
    /// Runs the round if m is online, then re-arms it either way.
    void run_round(Op op, overlay::MemberIndex m);

    // --- probing ---------------------------------------------------------
    /// One probe round without rescheduling the next: the periodic round's
    /// body, and the heal-time resync and post-restart refresh path.
    void probe_round_once(overlay::MemberIndex m);
    void run_heavyweight(overlay::MemberIndex m);
    void publish_snapshot(overlay::MemberIndex m,
                          tomography::TomographicSnapshot snapshot);
    /// One delivery attempt of a sealed snapshot from its origin to `peer`.
    void send_snapshot(overlay::MemberIndex peer,
                       std::shared_ptr<const PublishedSnapshot> snapshot,
                       int attempt);
    /// Receipt at `peer`: signature check, archive admission, equivocation
    /// check.
    void deliver_snapshot(overlay::MemberIndex peer,
                          const PublishedSnapshot& published);

    // --- attack campaign + evidence-integrity defenses ---------------------
    /// Equivocator twin of `base`: every link and path flipped, re-signed
    /// over the same origin+epoch.
    [[nodiscard]] tomography::TomographicSnapshot equivocation_variant(
        overlay::MemberIndex m,
        const tomography::TomographicSnapshot& base) const;
    /// Cross-peer digest exchange: after archiving `published` at `holder`,
    /// compare interned digest ids against what the origin's other routing
    /// peers hold for the same epoch; only an id mismatch builds and
    /// verifies a full self-verifying proof for the DHT.
    void detect_equivocation(overlay::MemberIndex holder,
                             const PublishedSnapshot& published);
    void slander_round_once(overlay::MemberIndex m);
    void spam_round_once(overlay::MemberIndex m);
    /// Colluder reaction to its own drop: push a fabricated guilty revision
    /// against the hop it framed, upstream toward the sender.
    void push_fabricated_revision(std::uint64_t msg_id, std::size_t hop);

    // --- chaos -------------------------------------------------------------
    void schedule_churn();
    /// Extra delivery delay when the per-packet chaos effect `rate` fires
    /// (0 when no plan is attached or the draw misses).
    util::SimTime chaos_extra_delay(double net::FaultPlan::*rate,
                                    const char* counter_name);

    // --- crash recovery + partitions (RECOVERY.md) --------------------------
    void schedule_recovery_faults();
    /// Crash-stop: offline plus amnesia -- every volatile structure is
    /// reset; only the journal survives.
    void crash_node(overlay::MemberIndex m);
    /// Journal replay, recovery handshake, stewardship resume/abandon.
    void restart_node(overlay::MemberIndex m);
    void recovery_handshake(overlay::MemberIndex m,
                            const NodeJournal::RecoveredState& recovered);
    void accept_recovery_announcement(overlay::MemberIndex peer,
                                      const RecoveryAnnouncement& announcement);
    void deliver_handoff(std::uint64_t msg_id, std::size_t to_hop,
                         const StewardHandoff& handoff);
    void heal_partition();
    /// True when the active partition separates members a and b right now.
    [[nodiscard]] bool partition_blocks(overlay::MemberIndex a,
                                        overlay::MemberIndex b) const;
    /// True when this run carries crash/partition faults: guilty verdicts
    /// then require post-incident evidence coverage.
    [[nodiscard]] bool degraded_mode() const noexcept {
        return chaos_ != nullptr && chaos_->has_recovery_faults();
    }
    /// Degraded-mode conviction bar: every link of the judged segment
    /// carries an admitted probe observation from on-or-after the message
    /// time by a reporter other than the suspect.
    [[nodiscard]] bool post_incident_coverage(
        const core::BlameEvidence& evidence, util::SimTime message_time) const;
    /// True when any verified announcement from `suspect` (as seen by
    /// `observer`) covers time t.
    [[nodiscard]] bool announced_down(overlay::MemberIndex observer,
                                      overlay::MemberIndex suspect,
                                      util::SimTime t) const;
    /// True when `accused` is a route steward whose own judgment abstained
    /// as insufficient: a blame chain cannot end on an abstainer.
    [[nodiscard]] bool accused_abstained(const MessageContext& ctx,
                                         const util::NodeId& accused) const;

    // --- messaging ---------------------------------------------------------
    void deliver_to_hop(std::uint64_t msg_id, std::size_t hop);
    void forward_from_hop(std::uint64_t msg_id, std::size_t hop);
    /// One physical transmission of the message from `hop` toward hop + 1;
    /// schedules bounded backoff retransmissions while the ack is missing.
    void transmit_to_next(std::uint64_t msg_id, std::size_t hop, int attempt);
    void start_ack_return(std::uint64_t msg_id);
    void deliver_ack_to_hop(std::uint64_t msg_id, std::size_t hop);
    void on_ack_timeout(std::uint64_t msg_id, std::size_t hop);
    void judge_next_hop(std::uint64_t msg_id, std::size_t hop);
    void push_revision_upstream(std::uint64_t msg_id, std::size_t hop);
    void relay_revision(std::uint64_t msg_id,
                        const core::BlameEvidence& evidence,
                        std::size_t to_hop);
    void maybe_complete(std::uint64_t msg_id);
    /// Closes the message as acknowledged end to end.
    void complete_delivered(MessageContext& ctx);
    /// Closes a diagnosed message: records its trace, then reports it.
    void finish_diagnosis(const MessageContext& ctx,
                          const MessageOutcome& outcome);

    /// Evidence with the judge, suspect, message and path filled in for
    /// the judge at route position `judge_hop`.
    [[nodiscard]] core::BlameEvidence evidence_header(
        const MessageContext& ctx, std::size_t judge_hop) const;
    core::BlameEvidence build_evidence(const MessageContext& ctx,
                                       std::size_t judge_hop,
                                       core::BlameBreakdown* breakdown_out =
                                           nullptr) const;
    void record_trace(const MessageContext& ctx,
                      const MessageOutcome& outcome);

    /// The third-party verification context every node shares: this
    /// cluster's key registry, blame/verdict parameters, and link map.
    [[nodiscard]] core::AccusationVerifier make_verifier() const;
    /// Reads every T (accusation or equivocation proof) stored against m,
    /// as an arbitrary third party; malformed values are skipped.
    template <typename T>
    [[nodiscard]] std::vector<T> fetch_against(overlay::MemberIndex m) const;

    /// IP link path for route segment hop -> hop+1, as a span into the
    /// trees' arena (empty when no IP path exists).  Zero-allocation: this
    /// runs once per packet transmission and once per judgment.
    [[nodiscard]] std::span<const net::LinkId> hop_path(
        const MessageContext& ctx, std::size_t hop) const;
    [[nodiscard]] const NodeBehavior& behavior(overlay::MemberIndex m) const;
    [[nodiscard]] std::vector<tomography::LeafBehavior> leaf_behaviors(
        overlay::MemberIndex m) const;
    [[nodiscard]] std::optional<crypto::PublicKey> key_of(
        const util::NodeId& id) const;

    net::EventSim* sim_;
    const net::FailureTimeline* timeline_;
    const overlay::OverlayNetwork* net_;
    const tomography::OverlayTrees* trees_;
    RuntimeParams params_;
    std::vector<NodeBehavior> behaviors_;
    util::Rng rng_;
    net::Transport transport_;
    crypto::KeyRegistry registry_;
    /// Signature-verification memo shared by every node in the cluster (the
    /// cluster is single-threaded; identical (key, digest, sig) checks repeat
    /// once per routing peer on every snapshot dissemination).
    crypto::VerifyCache verify_cache_{registry_};
    /// Snapshot payload digests interned to dense ids, shared across every
    /// node's archive so cross-archive digest comparison is an integer test.
    util::DigestInterner interner_;
    /// NodeId -> member index, resolved once where ids enter from the wire.
    std::unordered_map<util::NodeId, overlay::MemberIndex, util::NodeIdHash>
        member_of_;  // hot-path-lint: boundary
    std::vector<NodeState> nodes_;
    dht::Dht dht_;
    core::ReputationBook reputation_;
    std::unordered_map<std::uint64_t, MessageContext> messages_;
    std::uint64_t next_message_id_ = 1;
    std::vector<bool> online_;
    std::vector<NodeJournal> journals_;
    std::vector<bool> crashed_;
    std::vector<util::SimTime> crashed_at_;
    std::vector<std::vector<overlay::MemberIndex>> ad_rejecters_;
    /// (origin member, epoch) pairs already covered by a filed equivocation
    /// proof, so repeated digest conflicts do not re-file.
    std::set<std::pair<overlay::MemberIndex, std::uint64_t>> proofs_filed_;
    Stats stats_;
    core::DiagnosisTrace* trace_ = nullptr;
    const net::FaultPlan* chaos_ = nullptr;
    net::EventSim::HandlerId handler_ = 0;
    /// Sealed snapshots of in-flight deliveries, by parcel slot, with a
    /// free list (the idiom of EventSim's callback slab).
    std::vector<std::shared_ptr<const PublishedSnapshot>> parcels_;
    std::vector<std::uint32_t> free_parcels_;
};

}  // namespace concilium::runtime
