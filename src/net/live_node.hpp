// A live deployment of the accountable SBC engine: the byte-identical
// consensus stack that the simulator drives (src/consensus) is wired to
// the real TCP transport and real ECDSA signatures instead. One
// LiveNode is one replica process in miniature — its own event loop,
// listener, peer links and key — so a LiveCluster of n nodes on
// loopback exercises the full wire path: serialization, framing,
// partial reads, signature verification and the SBC state machine.
//
// Scope: the ①/② pipeline (a sequence of regular SBC instances) PLUS
// the paper's headline mechanism, live: proofs of fraud accumulate in
// a PofStore, ⌈n/3⌉ proven culprits trigger the exclusion consensus
// (Alg. 1), the decided coalition is cut out of every epoch's live
// committee, the inclusion consensus admits standby replicas from a
// configured pool, the transport tears down the excluded links and
// raises the new ones, admitted standbys activate on t+1 matching
// signed epoch announcements and catch up through the checkpoint
// fetcher, and regular instances resume under epoch e+1. Epoch
// boundaries are journaled so a restart recovers into the right
// membership. Controlled cross-partition delay attacks still need the
// deterministic simulator (src/zlb); the live fault injection here is
// direct equivocation, which real sockets can carry.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "bm/block_manager.hpp"
#include "bm/commit_pipeline.hpp"
#include "common/clock.hpp"
#include "common/mutex.hpp"
#include "chain/mempool.hpp"
#include "consensus/pof.hpp"
#include "consensus/sbc.hpp"
#include "crypto/signer.hpp"
#include "net/client_gateway.hpp"
#include "net/event_loop.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sync/checkpoint.hpp"
#include "sync/fetcher.hpp"

namespace zlb::net {

class MetricsServer;

struct LiveNodeConfig {
  ReplicaId me = 0;
  std::vector<ReplicaId> committee;
  /// Standby replicas eligible for inclusion after an exclusion (Alg. 1
  /// line 41). Their ports come through set_peer_ports like everyone
  /// else's; by convention pool ids sort above committee ids so the
  /// connection-initiation rule makes the standbys dial the committee.
  std::vector<ReplicaId> pool;
  /// Start passive: not a committee member, silent, waiting for t+1
  /// matching epoch announcements before activating as a member.
  bool standby = false;
  /// Fault injection (tests/bench): this node equivocates on its binary
  /// consensus AUX votes — the signed double-vote every honest receiver
  /// turns into a proof of fraud. The attack a live deployment can
  /// actually carry end to end (split-brain delay attacks need the
  /// simulator's clock).
  bool byzantine_equivocate = false;
  /// First regular instance the equivocation hits (earlier instances
  /// run clean, so a harness can settle real state before the attack).
  InstanceId equivocate_from = 0;
  /// Regular SBC instances to run back to back.
  std::uint64_t instances = 1;
  consensus::SbcEngine::Config engine;
  /// Real secp256k1 ECDSA; false = keyed-hash SimScheme (faster CI).
  bool use_ecdsa = true;
  std::uint16_t listen_port = 0;  ///< 0 = ephemeral
  /// Payment mode: proposals are real chain::Blocks drained from the
  /// node's mempool, decided blocks are committed to a BlockManager,
  /// and a client gateway accepts signed transactions over TCP.
  bool real_blocks = false;
  std::uint16_t client_port = 0;  ///< gateway port (0 = ephemeral)
  /// Payment mode: instance pacing. The node opens ONE new instance
  /// every block_interval / pipeline_window, so each block carries about
  /// that long's worth of client transactions, and keeps at most
  /// pipeline_window instances undecided: with the window full, the next
  /// opening waits for a decision. Proposing in an instance a peer
  /// opened counts as an opening and restarts the node's pacer, so the
  /// committee follows whichever pacer fires first instead of opening n
  /// times as many instances. With pipeline_window = 1 the next instance
  /// opens once the previous one decided AND block_interval has passed
  /// since the last opening. Zero = open every instance of the window
  /// immediately (as outside payment mode).
  Duration block_interval = std::chrono::milliseconds(100);
  /// Payment mode: durable block journal path ("" = in-memory only).
  /// Existing records are replayed into the BlockManager at startup;
  /// epoch-boundary records recover the membership history.
  std::string journal_path;
  /// Anti-entropy resync cadence (zero disables). Every interval the
  /// node broadcasts its lowest undecided instance; peers answer by
  /// replaying their recorded wire for the instances it is missing.
  /// TCP connection churn silently loses fully-sent frames, and the
  /// SBC liveness argument assumes reliable delivery — without this
  /// resend path a frame lost in the startup connect/accept race can
  /// stall an instance forever.
  Duration resync_interval = std::chrono::milliseconds(250);
  /// Keep the event loop alive after this node decided everything, so
  /// it can still serve resync to straggling peers. The caller must
  /// then stop() the node (LiveCluster does, once all nodes decided).
  bool linger_after_decided = false;
  /// Fault injection (tests): this long after run() starts, sever all
  /// transport links and discard queued frames — a worst-case burst of
  /// wire loss that only the resync path can recover from. Zero = off.
  Duration inject_drop_after = Duration::zero();
  /// Payment mode: checkpointing (src/sync). With interval > 0 the node
  /// snapshots its ledger every `checkpoint.interval` decided
  /// instances, compacts the journal and serves the image to lagging
  /// peers. An empty checkpoint.path with a journal_path set defaults
  /// to `<journal_path>.ckpt`.
  sync::CheckpointConfig checkpoint;
  /// Payment mode: checkpoint transfer. The node offers its checkpoint
  /// to a stalled peer whose floor is below the watermark, and fetches
  /// one itself when offered a manifest at least `fetcher.min_lag` ahead
  /// of its floor. Roots are cross-validated: fetcher.manifest_quorum
  /// defaults to the committee's t+1 (set it explicitly to override).
  sync::SnapshotFetcher::Config fetcher;
  /// Mempool capacity (0 = unbounded). A full queue rejects further
  /// client transactions (SubmitStatus::kRejected backpressure).
  std::size_t mempool_capacity = 65536;
  /// Per-peer bound on frames queued while the peer's link is down
  /// (see TransportConfig::down_link_buffer_bytes). Dropped history is
  /// recovered through resync / checkpoint transfer, not the socket
  /// buffer.
  std::size_t down_link_buffer_bytes = 1u << 20;
  /// Transactions drained into one proposed block.
  std::size_t max_block_txs = 4096;
  /// Payment mode: the most regular SBC instances kept undecided at
  /// once. The node proposes (and drains the mempool for) instances in
  /// [cursor, cursor + pipeline_window), opened one at a time at the
  /// pace block_interval sets, instead of waiting for each decision
  /// before opening the next — consensus for instance k+1 overlaps the
  /// decode/verify/apply of instance k inside the commit pipeline. 1
  /// restores the strict propose-after-decide cadence.
  InstanceId pipeline_window = 4;
  /// Commit-pipeline verify-stage worker threads (the thread pool the
  /// decoded blocks' ECDSA batch verification fans across). 0 =
  /// verify serially on the pipeline's verifier thread.
  std::size_t commit_workers = 1;
  /// Wall-clock source for resync-status freshness stamps and all
  /// lifecycle-span / duration metrics. Null = the real system clock;
  /// deterministic harnesses inject a ManualClock.
  const common::Clock* clock = nullptr;
  /// Serve Prometheus/JSON metrics over HTTP on this loopback port
  /// (0 = ephemeral; see LiveNode::metrics_port() for the bound one).
  /// nullopt = no metrics listener; the registry still populates and
  /// harnesses read it in-process through LiveNode::metrics().
  std::optional<std::uint16_t> metrics_port;
};

/// One decided instance as seen by a node.
struct LiveDecision {
  InstanceId index = 0;
  std::uint32_t epoch = 0;  ///< membership generation it decided under
  std::vector<std::uint8_t> bitmask;
  std::vector<crypto::Hash32> digests;  ///< decided slots, slot order
  std::uint64_t payload_bytes = 0;
};

// Threading model & lock order
// ----------------------------
// A running LiveNode spans three thread domains:
//
//   1. The loop thread (the caller of run()): owns the event loop, the
//      transport, every engine map, the epoch/membership state and all
//      cursors. Everything not explicitly marked otherwise below is
//      loop-thread-affine and intentionally unlocked.
//   2. The commit pipeline's stage threads (payment mode; see
//      bm::CommitPipeline): a verifier that decodes + batch-verifies
//      decided payloads with NO ledger access, and a committer that
//      applies+journals them under ledger_mutex_ — capturing the
//      checkpoint delta at each grid watermark inside that critical
//      section (capture_checkpoint) — and then runs the flush hook
//      (on_pipeline_flush) with no lock held.
//   3. The checkpoint writer (payment mode; see sync::CheckpointManager):
//      builds, persists and publishes each captured image with no node
//      lock held, then compacts the journal under ledger_mutex_
//      (compact_journal_below). Readers hold a reference-counted image.
//   4. Harness/observer threads (LiveCluster, tests, benches): may only
//      call stop() (atomic), the *_atomic accessors, metrics().find()
//      (one relaxed-atomic counter or gauge; never samples(), whose
//      pull callbacks read loop-thread state), and the accessors
//      annotated EXCLUDES on a mutex, which snapshot under it.
//
// Two locks, strictly ordered (outermost first):
//
//   decisions_mutex_  >  ledger_mutex_  >  leaf locks
//                                          (CommitPipeline::mu_,
//                                           ThreadPool::mu_ + done_mu,
//                                           CheckpointManager::mu_)
//
// decisions_mutex_ guards the loop/observer surface: the decision log,
// the mempool, the fetcher and the committee snapshot. Counters and
// gauges live in the metrics registry (relaxed atomics) and need no
// node lock. It is never held across signature verification, UTXO
// application or journal I/O — those are the pipeline's job.
//
// ledger_mutex_ guards bm_: UTXO state, known-tx set, block store AND
// the journal. The committer thread takes it per flush; the checkpoint
// writer per compaction; loop-thread reads (knows_tx, digests,
// on-demand checkpoint captures, journal_epoch) take it too, nested
// inside decisions_mutex_ where both are needed. It is never held
// across a checkpoint build: a capture under it costs O(churn). A pool task
// must NEVER touch a LiveNode (nothing may capture `this` into
// parallel_for), and nothing may call CommitPipeline::drain() while
// holding a lock the flush hook takes (decisions_mutex_) — the
// committer needs the hook to finish a flush. Helpers that need a
// lock are annotated REQUIRES, helpers that take one are EXCLUDES,
// and the clang -Wthread-safety CI job enforces both.
class LiveNode {
 public:
  explicit LiveNode(LiveNodeConfig config);
  ~LiveNode();  // out-of-line: MetricsServer is forward-declared

  [[nodiscard]] ReplicaId id() const { return config_.me; }
  [[nodiscard]] std::uint16_t port() const { return transport_.local_port(); }
  [[nodiscard]] bool listening() const { return transport_.listening(); }

  /// Must be called before run(); maps every committee AND pool member
  /// to its loopback port (the full universe — reconfiguration raises
  /// links to admitted standbys from this table).
  void set_peer_ports(const std::map<ReplicaId, std::uint16_t>& ports);

  /// Payload this node proposes in instance `k` (defaults to a small
  /// tagged marker when none is queued).
  void queue_payload(Bytes payload);

  /// Drives the node until every instance decided or `deadline`
  /// elapses. Blocking; typically the body of the node's thread.
  void run(Duration deadline) EXCLUDES(decisions_mutex_);

  /// Thread-safe: asks a running node to wind down (e.g. once the
  /// caller observed the state it was waiting for).
  void stop() { loop_.stop(); }

  /// Thread-safe snapshot of decided instances.
  [[nodiscard]] std::vector<LiveDecision> decisions() const
      EXCLUDES(decisions_mutex_);
  [[nodiscard]] bool all_decided() const {
    return decided_count_.load() >= config_.instances;
  }
  [[nodiscard]] std::uint64_t decided_count() const {
    return decided_count_.load();
  }
  /// Thread-safe: a snapshot assembled from the transport's relaxed
  /// atomic counters — valid mid-run, not just post-join.
  [[nodiscard]] TransportStats transport_stats() const {
    return transport_.stats();
  }

  /// The node's metrics registry (counters/gauges/histograms across
  /// every layer; see README "Observability" for the catalogue) — the
  /// one place its counters live. Registration is thread-safe, and any
  /// thread may read one counter or gauge through Registry::find;
  /// pull-callback series that read loop-thread state must only be
  /// *rendered* on the loop thread (the metrics server does) or after
  /// run() returned.
  [[nodiscard]] obs::Registry& metrics() { return metrics_; }
  [[nodiscard]] const obs::Registry& metrics() const { return metrics_; }
  /// Lifecycle spans per (epoch, instance); always recording.
  [[nodiscard]] const obs::InstanceTracer& tracer() const { return *tracer_; }
  /// Bound metrics listener port (0 = no listener configured/bound).
  [[nodiscard]] std::uint16_t metrics_port() const;

  /// Thread-safe: the node's current membership generation.
  [[nodiscard]] std::uint32_t epoch() const { return epoch_atomic_.load(); }
  /// Thread-safe: an activated member (standbys start false).
  [[nodiscard]] bool active() const { return active_atomic_.load(); }
  /// Thread-safe snapshot of the current committee.
  [[nodiscard]] std::vector<ReplicaId> committee_members() const
      EXCLUDES(decisions_mutex_);

  /// Payment mode (real_blocks): the client-facing gateway port.
  [[nodiscard]] std::uint16_t client_port() const {
    return gateway_ ? gateway_->local_port() : 0;
  }
  /// Thread-safe ledger digest (position-independent).
  [[nodiscard]] crypto::Hash32 state_digest() const
      EXCLUDES(ledger_mutex_);
  [[nodiscard]] const sync::CheckpointManager* checkpoints() const {
    return ckpt_ ? ckpt_.get() : nullptr;
  }
  /// Local chain state. Mutate (e.g. mint a genesis) only before run();
  /// once the node runs, go through balance()/owned_coins()/
  /// state_digest() instead — this escape hatch deliberately bypasses
  /// the ledger_mutex_ guard on bm_ for the single-threaded setup
  /// phase.
  [[nodiscard]] bm::BlockManager& block_manager()
      NO_THREAD_SAFETY_ANALYSIS {
    return bm_;
  }
  [[nodiscard]] const bm::BlockManager& block_manager() const
      NO_THREAD_SAFETY_ANALYSIS {
    return bm_;
  }
  /// Thread-safe balance snapshot (reads the ledger under its lock).
  [[nodiscard]] chain::Amount balance(const chain::Address& a) const
      EXCLUDES(ledger_mutex_);
  /// Thread-safe snapshot of an address's spendable coins.
  [[nodiscard]] std::vector<std::pair<chain::OutPoint, chain::TxOut>>
  owned_coins(const chain::Address& a) const EXCLUDES(ledger_mutex_);
  /// Commit-pipeline observability (null when not in payment mode).
  [[nodiscard]] const bm::CommitPipeline* pipeline() const {
    return pipeline_.get();
  }

 private:
  using Engine = consensus::SbcEngine;
  using Key = consensus::InstanceKey;

  /// Proposes in instance `k`; true iff this call made the proposal.
  bool start_instance(InstanceId k) EXCLUDES(decisions_mutex_);
  /// Opens instances of the window [cursor, cursor + pipeline_window)
  /// (window 1 outside payment mode). Unpaced (see block_interval): all
  /// of them now. Paced: the lowest unproposed one once a pacing step
  /// has passed since the last opening, else the pacer is armed for the
  /// rest of the step; a full window waits for the next decision.
  void pace() EXCLUDES(decisions_mutex_);
  /// This node proposed in an instance of its window (its own opening
  /// or following a peer's): restarts the pacer one step from now.
  void note_opening();
  /// (Re)schedules the pacer's tick `delay` from now.
  void arm_pacer(Duration delay);
  /// Paced: the spacing of openings, block_interval / pipeline_window.
  [[nodiscard]] Duration pace_step() const {
    return config_.block_interval / static_cast<std::int64_t>(window());
  }
  [[nodiscard]] bool paced() const {
    return config_.real_blocks && config_.block_interval > Duration::zero();
  }
  [[nodiscard]] InstanceId window() const {
    return config_.real_blocks
               ? std::max<InstanceId>(1, config_.pipeline_window)
               : 1;
  }
  Engine* get_or_create(InstanceId k) EXCLUDES(decisions_mutex_);
  void on_frame(ReplicaId from, BytesView data) EXCLUDES(decisions_mutex_);
  void on_decided(InstanceId k) EXCLUDES(decisions_mutex_);
  /// Lowest instance this node has not decided yet (== instances when
  /// everything decided). Instances below the snapshot-settled floor
  /// count as decided.
  [[nodiscard]] InstanceId decision_floor() const;
  /// 1 + the highest locally decided regular index (>= decision floor).
  [[nodiscard]] InstanceId decision_ceiling() const;
  void resync_tick() EXCLUDES(decisions_mutex_);
  /// Wall clock via the injectable seam (LiveNodeConfig::clock).
  [[nodiscard]] std::int64_t unix_now() const;
  void handle_resync_status(ReplicaId from, std::uint32_t peer_epoch,
                            InstanceId peer_floor)
      EXCLUDES(decisions_mutex_);
  /// `drain_mempool` = false builds an empty proposal: out-of-order
  /// auto-proposals need our slot delivered for quorum liveness, but
  /// must never move ACKed client transactions into an instance the
  /// chain may be a long way from reaching.
  [[nodiscard]] Bytes payload_for(InstanceId k, bool drain_mempool = true)
      EXCLUDES(decisions_mutex_);
  /// Cooldown-gated re-send of our latest epoch announcement.
  void maybe_reannounce(ReplicaId to);
  bool accept_tx(const chain::Transaction& tx)
      EXCLUDES(decisions_mutex_, ledger_mutex_);
  /// Commit-pipeline flush hook. Runs on the PIPELINE'S COMMITTER
  /// thread with no pipeline or ledger lock held; may only touch
  /// cross-thread-safe state (mempool under decisions_mutex_, the
  /// internally-locked tracer, atomic counters).
  void on_pipeline_flush(const bm::CommitPipeline::FlushBatch& flush)
      EXCLUDES(decisions_mutex_, ledger_mutex_);
  /// Checkpoint capture at grid watermark `upto`. Runs on the
  /// PIPELINE'S COMMITTER thread inside the flush's ledger critical
  /// section, after instance upto-1 applied: O(churn), the writer
  /// thread builds the image.
  void capture_checkpoint(InstanceId upto) REQUIRES(ledger_mutex_);
  /// Journal compaction for the checkpoint writer (its thread; takes
  /// ledger_mutex_, which guards the journal).
  std::optional<std::size_t> compact_journal_below(InstanceId keep_from)
      EXCLUDES(ledger_mutex_);
  /// Confirmation phase (§4.1.1 ②, live): assemble the per-slot AUX
  /// certificates of a just-decided instance (from the PofStore's
  /// first-vote log, BEFORE it is pruned), sign the decision summary
  /// and cache the encoded frame for replay to stalled peers.
  void record_decision_msg(InstanceId k, Engine& engine);
  /// A peer's certified decision: verify the summary signature and the
  /// per-slot certificates, then adopt the decided values into the
  /// local engine instead of re-running its binary consensus.
  void handle_decision_msg(ReplicaId from,
                           const consensus::DecisionMsg& msg)
      EXCLUDES(decisions_mutex_);
  /// Offers our latest checkpoint to `to` (signed manifest).
  void send_manifest(ReplicaId to) EXCLUDES(decisions_mutex_);
  void serve_chunks(ReplicaId to, const sync::ChunkRequest& req)
      EXCLUDES(decisions_mutex_);
  /// Assembled+verified image bytes arrived: unless the header's
  /// watermark is stale, restore the ledger from the bytes (all or
  /// nothing) and settle every covered instance.
  void install_snapshot_bytes(const Bytes& bytes)
      EXCLUDES(decisions_mutex_);
  /// Marks instances below `upto` decided-without-engines (snapshot
  /// install or disk restore) and advances the cursors.
  void settle_below(InstanceId upto) EXCLUDES(decisions_mutex_);

  // --- membership change (Alg. 1, live) ------------------------------
  /// Epoch governing regular instance `k`; nullopt when `k` predates
  /// everything this node knows (a standby's pre-join history, settled
  /// only by snapshot).
  [[nodiscard]] std::optional<std::uint32_t> epoch_of(InstanceId k) const;
  [[nodiscard]] consensus::Committee& live_committee() {
    return epoch_live_.at(epoch_);
  }
  /// Epoch gate + routing shared by vote and proposal frames: returns
  /// the engine the frame must reach, or nullptr when it was dropped
  /// (cross-epoch / pre-join history) or stashed (membership traffic
  /// ahead of its engine).
  Engine* route_engine(ReplicaId from, const Key& key, BytesView frame)
      EXCLUDES(decisions_mutex_);
  /// Re-queues the drained-but-never-decided batch of instance `k`
  /// (client-ACKed transactions must survive the engine's teardown).
  void requeue_proposed(InstanceId k) EXCLUDES(decisions_mutex_);
  void observe_vote(const consensus::SignedVote& vote);
  /// Registers pending PoFs, gossips fresh ones, shrinks the exclusion
  /// committee, and triggers the membership change at fd culprits.
  void note_new_pofs() EXCLUDES(decisions_mutex_);
  void maybe_start_membership() EXCLUDES(decisions_mutex_);
  Engine* create_membership_engine(const Key& key);
  void on_exclusion_decided(const Key& key, Engine& engine)
      EXCLUDES(decisions_mutex_);
  void on_inclusion_decided(const Key& key, Engine& engine)
      EXCLUDES(decisions_mutex_);
  void handle_pof_gossip(BytesView body);
  void handle_epoch_announce(ReplicaId from,
                             const consensus::EpochAnnounceMsg& msg);
  /// Adopts a membership change this node did not take part in (a
  /// standby's activation, or a veteran that slept through the change).
  void adopt_epoch(const consensus::EpochAnnounceMsg& msg)
      EXCLUDES(decisions_mutex_);
  void send_epoch_announce(ReplicaId to);
  /// Reconnects the transport to the current committee: tears down
  /// excluded links, raises links to admitted members.
  void retarget_transport();
  void recover_epoch_record(const chain::EpochRecord& rec)
      REQUIRES(decisions_mutex_);
  void stash_membership_frame(ReplicaId from, BytesView data);
  void drain_membership_stash() EXCLUDES(decisions_mutex_);
  /// Sets a membership-change phase gauge (zlb_reconfig_phase_ms) to
  /// the ms since run() the first time the phase is reached.
  void stamp_phase(obs::Gauge* phase) const;

  // --- observability -------------------------------------------------
  /// Registers the node's metric catalogue (transport, mempool, sync,
  /// reconfig, queue depths) and creates the tracer. Constructor tail;
  /// split out for readability only.
  void register_metrics();
  /// Counted transport send: attributes frames/bytes to the message
  /// kind (payload tag byte) before handing off to the transport.
  void send_counted(ReplicaId to, BytesView data);
  /// The injected clock or the system clock (never null).
  [[nodiscard]] const common::Clock& obs_clock() const;

  LiveNodeConfig config_;
  EventLoop loop_;
  TcpTransport transport_;
  std::unique_ptr<crypto::SignatureScheme> scheme_;

  /// Per-node metric registry + instance-lifecycle tracer. Declared
  /// before anything that might record into them; destroyed after.
  obs::Registry metrics_;
  std::unique_ptr<obs::InstanceTracer> tracer_;
  std::unique_ptr<MetricsServer> metrics_server_;
  /// Per-message-kind frame/byte counters, indexed by the payload tag
  /// byte (MsgTag); [0] collects unknown tags. Cached so the hot path
  /// is one relaxed fetch-add, not a registry lookup.
  static constexpr std::size_t kMsgKinds = 16;
  std::array<obs::Counter*, kMsgKinds> rx_frames_{};
  std::array<obs::Counter*, kMsgKinds> rx_bytes_{};
  std::array<obs::Counter*, kMsgKinds> tx_frames_{};
  std::array<obs::Counter*, kMsgKinds> tx_bytes_{};
  obs::Counter* rounds_total_ = nullptr;
  obs::Counter* mempool_rejects_dup_ = nullptr;
  obs::Counter* mempool_rejects_committed_ = nullptr;
  obs::Counter* mempool_rejects_full_ = nullptr;
  /// Transactions evicted from the mempool because a pipeline flush
  /// committed them (one batched eviction pass per flush).
  obs::Counter* mempool_evicted_ = nullptr;
  obs::Histogram* checkpoint_seconds_ = nullptr;
  // Membership change (loop thread writes; any thread reads).
  obs::Counter* excluded_ = nullptr;
  obs::Counter* included_ = nullptr;
  obs::Counter* cross_epoch_dropped_ = nullptr;
  obs::Gauge* pof_culprits_ = nullptr;
  /// zlb_reconfig_phase_ms{phase}, -1 until reached.
  obs::Gauge* detect_ms_ = nullptr;   ///< fd culprits proven
  obs::Gauge* exclude_ms_ = nullptr;  ///< exclusion consensus decided
  obs::Gauge* include_ms_ = nullptr;  ///< inclusion decided, epoch bumped
  obs::Gauge* resume_ms_ = nullptr;   ///< regular pipeline restarted
  // State sync (loop thread writes; any thread reads).
  obs::Counter* manifests_sent_ = nullptr;
  obs::Counter* manifests_rejected_ = nullptr;  ///< epoch gate refused
  obs::Counter* chunks_served_ = nullptr;
  obs::Counter* snapshots_installed_ = nullptr;
  obs::Counter* snapshots_rejected_ = nullptr;  ///< undecodable image
  obs::Gauge* installed_upto_ = nullptr;  ///< highest installed watermark

  // --- epoch state ---------------------------------------------------
  std::uint32_t epoch_ = 0;
  std::atomic<std::uint32_t> epoch_atomic_{0};
  bool active_ = true;  ///< standbys start passive
  std::atomic<bool> active_atomic_{true};
  /// (start_index, epoch), ascending: epoch e governs every regular
  /// instance from its start to the next span's start. Veterans seed
  /// {{0, 0}}; a standby's history begins at its join boundary.
  std::vector<std::pair<InstanceId, std::uint32_t>> epoch_spans_;
  /// Fixed slot membership per epoch (proposer map of its instances).
  std::map<std::uint32_t, std::vector<ReplicaId>> epoch_members_;
  /// Live committee per epoch: exclusions shrink EVERY epoch's live set
  /// (Alg. 1 lines 23-25), so stalled old-epoch instances can still
  /// decide among the honest remainder. Node-stable map: engines hold
  /// pointers into it.
  std::map<std::uint32_t, consensus::Committee> epoch_live_;
  /// Full id -> port universe (committee + pool), for raising links.
  std::map<ReplicaId, std::uint16_t> all_ports_;

  consensus::PofStore pofs_;
  std::vector<consensus::ProofOfFraud> pending_pofs_;
  bool membership_running_ = false;
  consensus::Committee exclusion_live_;  ///< C′, shrinks at runtime
  std::vector<ReplicaId> cons_exclude_;  ///< decided by the exclusion
  std::vector<ReplicaId> excluded_ids_;  ///< everyone excluded so far
  /// First regular index of the epoch being created (max decided
  /// exclusion ceiling): instances below finish under their old epochs,
  /// instances at/above run under the new committee.
  InstanceId pending_boundary_ = 0;
  /// Exclusion/inclusion engines, by full key (one pair per epoch).
  std::map<Key, std::unique_ptr<Engine>> member_engines_;
  /// Next exclusion instance index per epoch: an exclusion that decides
  /// with an empty outcome aborts and the retry runs at index+1 — a
  /// FRESH signing context, because re-voting the same key with
  /// different values would turn honest retries into provable fraud.
  std::map<std::uint32_t, InstanceId> next_excl_index_;
  /// Membership frames that arrived before their engine exists
  /// (bounded); replayed on every membership state transition.
  std::vector<std::pair<ReplicaId, Bytes>> membership_stash_;
  bool draining_stash_ = false;
  /// Standby activation: announce content digest -> distinct signers.
  /// Bounded by the signer population (one standing announce each).
  std::map<crypto::Hash32, std::set<ReplicaId>> announce_votes_;
  std::map<crypto::Hash32, consensus::EpochAnnounceMsg> announce_content_;
  std::map<ReplicaId, crypto::Hash32> announce_by_sender_;
  /// Our own announcement of the latest change (re-sent to laggards).
  std::optional<consensus::EpochAnnounceMsg> last_announce_;
  /// A standby refuses snapshots below its join boundary: it cannot
  /// replay an old-epoch tail it was never a member for.
  InstanceId join_floor_ = 0;
  TimePoint run_start_{};

  std::map<InstanceId, std::unique_ptr<Engine>> engines_;
  InstanceId current_ = 0;
  /// Paced openings (see LiveNodeConfig::block_interval): the pending
  /// pacer tick, if armed, and when this node last opened an instance.
  std::optional<EventLoop::TimerId> pacer_;
  TimePoint last_open_{};
  /// 1 + highest locally decided/settled index (decision_ceiling()'s
  /// O(1) cursor; the engines map must not be scanned per decide).
  InstanceId decided_ceiling_ = 0;
  /// Per-peer anti-entropy state, updated from signed kResyncStatus
  /// reports. `floor` is the last report verbatim — it may regress
  /// when a daemon restarts, and pruning or terminating on a stale
  /// high-water mark would strand it. Drives wire-log pruning, linger
  /// termination, and stall detection (same floor twice in a row =
  /// stalled, gets a wire replay).
  struct PeerResync {
    InstanceId floor = 0;
    std::uint32_t epoch = 0;       ///< peer's last reported epoch
    int report_tick = 0;           ///< staleness write-off
    int replay_tick = -(1 << 20);  ///< replay cooldown
    int offer_tick = -(1 << 20);   ///< snapshot-manifest cooldown
    int announce_tick = -(1 << 20);  ///< epoch re-announce cooldown
    int serve_tick = -1;           ///< chunk-serving budget window
    std::uint32_t served_in_tick = 0;
  };
  std::map<ReplicaId, PeerResync> peer_sync_;
  /// Wire logs below this are already cleared (prune watermark).
  InstanceId pruned_floor_ = 0;
  /// Ticks spent in the everyone-is-done state before winding down.
  int done_grace_ticks_ = 0;
  /// Total resync ticks so far (prune write-off grace).
  int resync_ticks_ = 0;
  std::vector<Bytes> queued_payloads_;
  std::size_t next_payload_ = 0;

  std::unique_ptr<ClientGateway> gateway_;
  chain::Mempool mempool_ GUARDED_BY(decisions_mutex_);
  /// Payment mode: what we proposed per instance, so transactions are
  /// re-queued when our own slot loses its binary consensus. Loop-thread
  /// only (the map itself needs no lock; the transaction VECTORS are
  /// drained/readmitted under decisions_mutex_ where they touch the
  /// mempool).
  std::map<InstanceId, std::vector<chain::Transaction>> proposed_txs_;
  /// Guards bm_ — UTXO state, known-tx set, block store AND journal.
  /// Taken by the pipeline's committer thread per flush and by
  /// loop/observer reads; nests INSIDE decisions_mutex_ (see the
  /// threading-model comment).
  mutable common::Mutex ledger_mutex_;
  bm::BlockManager bm_ GUARDED_BY(ledger_mutex_);
  /// Encoded kDecision frames by instance (confirmation phase): the
  /// certified decisions this node can replay to a stalled peer so a
  /// straggler adopts an old-epoch decision instead of re-running it.
  /// Loop-thread only; pruned with the wire logs.
  std::map<InstanceId, Bytes> decision_log_;

  /// Checkpoint/state-sync (payment mode; see src/sync).
  std::unique_ptr<sync::CheckpointManager> ckpt_;
  std::unique_ptr<sync::SnapshotFetcher> fetcher_
      PT_GUARDED_BY(decisions_mutex_);
  /// Instances below this are settled by an installed snapshot (no
  /// engine ever ran for them on this node).
  InstanceId settled_floor_ = 0;

  /// The outermost lock (decisions_mutex_ > ledger_mutex_); see the
  /// threading-model comment above the class for what it guards.
  mutable common::Mutex decisions_mutex_;
  /// Mutex-guarded copy of the current committee for cross-thread
  /// readers; the epoch maps themselves are loop-thread-only.
  std::vector<ReplicaId> committee_snapshot_ GUARDED_BY(decisions_mutex_);
  std::vector<LiveDecision> decisions_ GUARDED_BY(decisions_mutex_);
  std::atomic<std::uint64_t> decided_count_{0};

  /// Staged decode → batch-verify → apply → journal pipeline (payment
  /// mode). DECLARED LAST: its destructor drains and joins the stage
  /// threads, whose flush hook touches mempool_, tracer_ and metric
  /// counters — everything it references must still be alive.
  std::unique_ptr<bm::CommitPipeline> pipeline_;
};

/// Spawns n LiveNodes on loopback, runs each on its own thread and
/// waits for unanimous decisions. Agreement checks are the caller's.
class LiveCluster {
 public:
  /// `base` is copied per node (me/committee/ports are filled in).
  LiveCluster(std::size_t n, LiveNodeConfig base);

  [[nodiscard]] LiveNode& node(std::size_t i) { return *nodes_.at(i); }
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }

  /// Runs all nodes; returns true iff every node decided every
  /// instance before the deadline.
  bool run(Duration deadline);

 private:
  std::vector<std::unique_ptr<LiveNode>> nodes_;
};

}  // namespace zlb::net
