#include "net/live_node.hpp"

#include <algorithm>

#include "asmr/payload.hpp"
#include "chain/block.hpp"
#include "common/serde.hpp"
#include "consensus/messages.hpp"
#include "net/metrics_server.hpp"
#include "obs/log.hpp"

namespace zlb::net {

using consensus::DecisionMsg;
using consensus::EpochAnnounceMsg;
using consensus::ExclusionClaim;
using consensus::InstanceKind;
using consensus::MsgTag;
using consensus::ProofOfFraud;
using consensus::ProposalMsg;
using consensus::SignedVote;
using consensus::SlotCert;

namespace {
/// Membership-change state transitions log at debug on the `reconfig`
/// subsystem: ZLB_LOG=reconfig=debug (or the legacy alias
/// ZLB_DEBUG_RECONFIG=1) — invaluable when a live cluster wedges.
#define ZLB_RTRACE(...) \
  ZLB_LOG_DEBUG(::zlb::obs::LogSubsys::kReconfig, __VA_ARGS__)

TransportConfig transport_config(const LiveNodeConfig& cfg) {
  TransportConfig t;
  t.me = cfg.me;
  t.listen_port = cfg.listen_port;
  t.down_link_buffer_bytes = cfg.down_link_buffer_bytes;
  return t;
}

std::vector<ReplicaId> sorted_unique(std::vector<ReplicaId> ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

constexpr std::size_t kMembershipStashCap = 8192;
}  // namespace

LiveNode::LiveNode(LiveNodeConfig config)
    : config_(std::move(config)),
      transport_(loop_, transport_config(config_)),
      mempool_(config_.mempool_capacity) {
  // Resync replays recorded wire, so the engines must record it.
  if (config_.resync_interval > Duration::zero()) {
    config_.engine.record_wire = true;
  }
  if (config_.use_ecdsa) {
    scheme_ = std::make_unique<crypto::EcdsaScheme>();
  } else {
    scheme_ = std::make_unique<crypto::SimScheme>();
  }
  const std::vector<ReplicaId> members = sorted_unique(config_.committee);
  epoch_members_[0] = members;
  epoch_live_.emplace(0u, consensus::Committee(members));
  committee_snapshot_ = members;
  active_ = !config_.standby;
  active_atomic_.store(active_);
  if (!config_.standby) {
    epoch_spans_.push_back({0, 0});
  }
  // Cross-validated roots: unless the caller pinned a quorum (an
  // explicit 1 = trust one server is honoured), require the
  // committee's t+1 matching manifests before a root is trusted.
  if (config_.fetcher.manifest_quorum == 0 && !members.empty()) {
    config_.fetcher.manifest_quorum =
        static_cast<std::uint32_t>((members.size() - 1) / 3 + 1);
  }
  transport_.set_handler(
      [this](ReplicaId from, BytesView data) { on_frame(from, data); });
  if (config_.real_blocks) {
    gateway_ = std::make_unique<ClientGateway>(
        loop_, config_.client_port, metrics_,
        [this](const chain::Transaction& tx) { return accept_tx(tx); });
    sync::CheckpointConfig ckpt_cfg = config_.checkpoint;
    if (ckpt_cfg.path.empty() && ckpt_cfg.interval > 0 &&
        !config_.journal_path.empty()) {
      ckpt_cfg.path = config_.journal_path + ".ckpt";
    }
    if (ckpt_cfg.interval > 0 || !ckpt_cfg.path.empty()) {
      ckpt_ = std::make_unique<sync::CheckpointManager>(ckpt_cfg);
    }
    {
      const common::MutexLock ledger(ledger_mutex_);
      // Periodic checkpoints capture O(churn) deltas: the change log
      // must see every mutation from the startup restore on.
      if (ckpt_cfg.interval > 0) bm_.track_changes();
      // The ledger mirrors epoch_spans_ (its first span here, the rest
      // from the epoch records it journals), so the committer thread
      // can label a checkpoint without the loop thread's state.
      if (!config_.standby) bm_.note_epoch(0, 0);
    }
    fetcher_ = std::make_unique<sync::SnapshotFetcher>(
        config_.fetcher, metrics_,
        [this](ReplicaId to, const sync::ChunkRequest& r) {
          const Bytes msg = sync::encode_chunk_request_msg(r);
          send_counted(to, BytesView(msg.data(), msg.size()));
        });
  }
  register_metrics();
  if (config_.real_blocks) {
    // The staged commit pipeline: on_decided hands decided payloads to
    // it; its verifier thread decodes + batch-verifies, its committer
    // applies+journals under ledger_mutex_ and then runs
    // on_pipeline_flush with no lock held.
    bm::CommitPipeline::Config pc;
    pc.workers = config_.commit_workers;
    pc.clock = &obs_clock();
    if (ckpt_ != nullptr) {
      // Checkpoints leave the loop thread: the committer captures at
      // each grid watermark, the manager's writer builds the image.
      pc.watermark_interval = ckpt_->config().interval;
      pc.on_watermark = [this](InstanceId upto) {
        // Runs inside the committer's ledger critical section.
        ledger_mutex_.assert_held();
        capture_checkpoint(upto);
      };
      ckpt_->start_writer(
          [this](InstanceId keep_from) {
            return compact_journal_below(keep_from);
          },
          checkpoint_seconds_, &obs_clock());
    }
    bm::CommitPipeline::StageHists hists;
    hists.decode = &metrics_.histogram(
        "zlb_pipeline_decode_seconds",
        "Pipeline decode stage per decided instance", 1e-9);
    hists.verify = &metrics_.histogram(
        "zlb_pipeline_verify_seconds",
        "Pipeline batch signature verification per decided instance", 1e-9);
    hists.apply = &metrics_.histogram(
        "zlb_pipeline_apply_seconds",
        "Pipeline UTXO application per commit flush", 1e-9);
    hists.journal = &metrics_.histogram(
        "zlb_pipeline_journal_seconds",
        "Pipeline journal append + fsync barrier per commit flush", 1e-9);
    pipeline_ = std::make_unique<bm::CommitPipeline>(
        block_manager(), ledger_mutex_, pc, hists,
        [this](const bm::CommitPipeline::FlushBatch& flush) {
          on_pipeline_flush(flush);
        });
  }
  if (config_.metrics_port.has_value()) {
    metrics_server_ =
        std::make_unique<MetricsServer>(loop_, metrics_, *config_.metrics_port);
  }
}

LiveNode::~LiveNode() = default;

std::uint16_t LiveNode::metrics_port() const {
  return metrics_server_ ? metrics_server_->local_port() : 0;
}

const common::Clock& LiveNode::obs_clock() const {
  return config_.clock != nullptr ? *config_.clock : common::Clock::system();
}

void LiveNode::send_counted(ReplicaId to, BytesView data) {
  const std::size_t kind =
      !data.empty() && data[0] < kMsgKinds ? data[0] : 0;
  tx_frames_[kind]->inc();
  tx_bytes_[kind]->inc(data.size());
  transport_.send(to, data);
}

namespace {
/// Exposition label for a payload tag byte (MsgTag); unknown tags
/// (and the impossible tag 0) collapse into one "other" series.
const char* msg_kind_name(std::size_t tag) {
  switch (static_cast<MsgTag>(tag)) {
    case MsgTag::kVote: return "vote";
    case MsgTag::kProposal: return "proposal";
    case MsgTag::kDecision: return "decision";
    case MsgTag::kEvidence: return "evidence";
    case MsgTag::kPofGossip: return "pof_gossip";
    case MsgTag::kCatchupReq: return "catchup_req";
    case MsgTag::kCatchupResp: return "catchup_resp";
    case MsgTag::kReconcile: return "reconcile";
    case MsgTag::kResyncStatus: return "resync_status";
    case MsgTag::kSnapshotManifest: return "snapshot_manifest";
    case MsgTag::kSnapshotChunkReq: return "snapshot_chunk_req";
    case MsgTag::kSnapshotChunk: return "snapshot_chunk";
    case MsgTag::kEpochAnnounce: return "epoch_announce";
    default: return "other";
  }
}
}  // namespace

void LiveNode::register_metrics() {
  tracer_ = std::make_unique<obs::InstanceTracer>(metrics_, &obs_clock());

  // Per-message-kind wire accounting (both directions). Registration
  // is idempotent, so every unknown tag shares the one "other" series.
  for (std::size_t tag = 0; tag < kMsgKinds; ++tag) {
    const obs::LabelSet rx{{"dir", "rx"}, {"kind", msg_kind_name(tag)}};
    const obs::LabelSet tx{{"dir", "tx"}, {"kind", msg_kind_name(tag)}};
    rx_frames_[tag] = &metrics_.counter(
        "zlb_msgs_total", "Protocol frames by direction and kind", rx);
    rx_bytes_[tag] = &metrics_.counter(
        "zlb_msg_bytes_total", "Protocol frame bytes by direction and kind",
        rx);
    tx_frames_[tag] = &metrics_.counter(
        "zlb_msgs_total", "Protocol frames by direction and kind", tx);
    tx_bytes_[tag] = &metrics_.counter(
        "zlb_msg_bytes_total", "Protocol frame bytes by direction and kind",
        tx);
  }

  // Transport totals: pulled from the relaxed-atomic counters, safe to
  // render from any thread.
  metrics_.counter_fn(
      "zlb_transport_bytes_total", "Raw socket bytes by direction",
      [this] { return transport_.stats().bytes_sent; }, {{"dir", "sent"}});
  metrics_.counter_fn(
      "zlb_transport_bytes_total", "Raw socket bytes by direction",
      [this] { return transport_.stats().bytes_received; },
      {{"dir", "received"}});
  metrics_.counter_fn(
      "zlb_transport_frames_total", "Framed messages by direction",
      [this] { return transport_.stats().frames_sent; }, {{"dir", "sent"}});
  metrics_.counter_fn(
      "zlb_transport_frames_total", "Framed messages by direction",
      [this] { return transport_.stats().frames_received; },
      {{"dir", "received"}});
  metrics_.counter_fn(
      "zlb_transport_connections_dropped_total",
      "Peer links torn down (error/EOF)",
      [this] { return transport_.stats().connections_dropped; });
  metrics_.counter_fn(
      "zlb_transport_handshake_failures_total",
      "Connections dropped during the hello exchange",
      [this] { return transport_.stats().handshake_failures; });
  metrics_.counter_fn(
      "zlb_transport_frames_dropped_total",
      "Frames dropped from a down link's bounded queue",
      [this] { return transport_.stats().frames_dropped; });
  metrics_.counter_fn(
      "zlb_transport_reconnects_total",
      "Outbound connection retries after the initial attempt",
      [this] { return transport_.stats().reconnects; });

  // Queue depths (loop-thread state: rendered by the metrics server on
  // the loop thread, or after run() returned).
  metrics_.gauge_fn("zlb_transport_queued_bytes",
                    "Bytes buffered in per-link send queues", [this] {
                      return static_cast<std::int64_t>(
                          transport_.queued_bytes());
                    });
  metrics_.gauge_fn("zlb_event_loop_watches",
                    "File descriptors registered with the event loop",
                    [this] {
                      return static_cast<std::int64_t>(loop_.watch_count());
                    });
  metrics_.gauge_fn("zlb_event_loop_timers",
                    "Pending timers in the event loop", [this] {
                      return static_cast<std::int64_t>(loop_.timer_count());
                    });
  loop_.set_lag_histogram(&metrics_.histogram(
      "zlb_event_loop_lag_seconds",
      "Lateness of each fired event-loop timer (callback start minus due "
      "time)",
      1e-9));

  // Mempool: occupancy and reject causes.
  metrics_.gauge_fn("zlb_mempool_size", "Transactions queued for proposal",
                    [this]() -> std::int64_t {
                      const common::MutexLock lock(decisions_mutex_);
                      return static_cast<std::int64_t>(mempool_.size());
                    });
  mempool_rejects_dup_ = &metrics_.counter(
      "zlb_mempool_rejected_total", "Client transactions refused, by cause",
      {{"cause", "duplicate"}});
  mempool_rejects_committed_ = &metrics_.counter(
      "zlb_mempool_rejected_total", "Client transactions refused, by cause",
      {{"cause", "committed"}});
  mempool_rejects_full_ = &metrics_.counter(
      "zlb_mempool_rejected_total", "Client transactions refused, by cause",
      {{"cause", "full"}});
  mempool_evicted_ = &metrics_.counter(
      "zlb_mempool_evicted_total",
      "Transactions evicted because a commit flush applied them");

  // Consensus progress.
  metrics_.counter_fn("zlb_instances_decided_total",
                      "Regular SBC instances decided (or settled) locally",
                      [this] { return decided_count_.load(); });
  rounds_total_ = &metrics_.counter(
      "zlb_consensus_rounds_total",
      "Binary-consensus rounds summed over decided slots");
  metrics_.gauge_fn("zlb_epoch", "Current membership generation", [this] {
    return static_cast<std::int64_t>(epoch_atomic_.load());
  });

  {
    const common::MutexLock lock(decisions_mutex_);
    mempool_.set_clock(&obs_clock());
  }
  checkpoint_seconds_ = &metrics_.histogram(
      "zlb_checkpoint_export_seconds",
      "Checkpoint image build + persist per checkpoint (writer thread)",
      1e-9);

  // Commit pipeline: the contiguous committed floor, the decided
  // instances inside the pipeline, and those parked behind a decision
  // gap. All relaxed atomics — safe from any render thread. The sim
  // benches emit the same series names from replica state.
  metrics_.gauge_fn("zlb_commit_floor",
                    "Contiguous instance floor applied to the ledger",
                    [this]() -> std::int64_t {
                      return pipeline_ ? static_cast<std::int64_t>(
                                             pipeline_->committed_floor())
                                       : 0;
                    });
  metrics_.gauge_fn("zlb_pipeline_depth",
                    "Decided instances inside the commit pipeline",
                    [this]() -> std::int64_t {
                      return pipeline_ ? static_cast<std::int64_t>(
                                             pipeline_->depth())
                                       : 0;
                    });
  metrics_.gauge_fn("zlb_pipeline_parked",
                    "Out-of-order decisions parked behind a gap",
                    [this]() -> std::int64_t {
                      return pipeline_ ? static_cast<std::int64_t>(
                                             pipeline_->parked())
                                       : 0;
                    });
  metrics_.counter_fn("zlb_pipeline_blocks_committed_total",
                      "Blocks applied by the commit pipeline", [this] {
                        return pipeline_ ? pipeline_->blocks_committed() : 0;
                      });

  // State sync, written where it happens. The fetcher registers the
  // series of the receiving side (zlb_sync_chunks_received_total, ...).
  manifests_sent_ = &metrics_.counter(
      "zlb_sync_manifests_sent_total",
      "Checkpoint offers made to lagging peers");
  manifests_rejected_ = &metrics_.counter(
      "zlb_sync_manifests_rejected_total",
      "Signed manifests refused by the epoch gate (below the join "
      "boundary or contradicting the epoch map)");
  chunks_served_ = &metrics_.counter(
      "zlb_sync_chunks_served_total",
      "Snapshot chunks served to fetching peers");
  snapshots_installed_ = &metrics_.counter(
      "zlb_sync_snapshots_installed_total",
      "Snapshots installed via network transfer");
  snapshots_rejected_ = &metrics_.counter(
      "zlb_sync_snapshots_rejected_total",
      "Assembled snapshots refused as undecodable after chunk verification");
  installed_upto_ = &metrics_.gauge(
      "zlb_sync_installed_upto",
      "Highest snapshot watermark installed via network transfer");

  // Membership change: cumulative outcomes plus the detect -> exclude
  // -> include -> resume phase stamps (ms since run(), -1 = not
  // reached), each written once on the loop thread.
  excluded_ = &metrics_.counter("zlb_reconfig_excluded_total",
                                "Members excluded across all epochs");
  included_ = &metrics_.counter("zlb_reconfig_included_total",
                                "Standbys admitted across all epochs");
  cross_epoch_dropped_ =
      &metrics_.counter("zlb_reconfig_cross_epoch_dropped_total",
                        "Frames rejected by the epoch gate");
  pof_culprits_ = &metrics_.gauge("zlb_pof_culprits",
                                  "Distinct replicas proven deceitful");
  const auto phase_gauge = [this](const char* phase) {
    obs::Gauge* gauge = &metrics_.gauge(
        "zlb_reconfig_phase_ms",
        "Membership-change phase stamp, ms since run() (-1 = not reached)",
        {{"phase", phase}});
    gauge->set(-1);
    return gauge;
  };
  detect_ms_ = phase_gauge("detect");
  exclude_ms_ = phase_gauge("exclude");
  include_ms_ = phase_gauge("include");
  resume_ms_ = phase_gauge("resume");
}

bool LiveNode::accept_tx(const chain::Transaction& tx) {
  // Runs on the loop thread (the gateway lives on the same loop).
  // Structural validity was checked by the gateway; refuse duplicates,
  // anything already committed, and everything once the (bounded)
  // mempool is full — the gateway answers kRejected and the wallet
  // retries elsewhere.
  {
    const common::MutexLock ledger(ledger_mutex_);
    if (bm_.knows_tx(tx.id())) {
      mempool_rejects_committed_->inc();
      return false;
    }
  }
  // A transaction committing between the ledger check and the add is
  // benign: the next pipeline flush's batched eviction removes it, and
  // apply dedups by txid anyway.
  const common::MutexLock lock(decisions_mutex_);
  switch (mempool_.try_add(tx)) {
    case chain::Mempool::AddResult::kAdded:
      return true;
    case chain::Mempool::AddResult::kDuplicate:
      mempool_rejects_dup_->inc();
      return false;
    case chain::Mempool::AddResult::kFull:
      mempool_rejects_full_->inc();
      return false;
  }
  return false;
}

chain::Amount LiveNode::balance(const chain::Address& a) const {
  const common::MutexLock ledger(ledger_mutex_);
  return bm_.utxos().balance(a);
}

std::vector<std::pair<chain::OutPoint, chain::TxOut>> LiveNode::owned_coins(
    const chain::Address& a) const {
  const common::MutexLock ledger(ledger_mutex_);
  return bm_.utxos().owned_by(a);
}

std::vector<ReplicaId> LiveNode::committee_members() const {
  const common::MutexLock lock(decisions_mutex_);
  return committee_snapshot_;
}

void LiveNode::set_peer_ports(const std::map<ReplicaId, std::uint16_t>& ports) {
  all_ports_ = ports;
  // The transport's table is the whole universe (committee + pool): a
  // standby keeps warm links to the committee it may be asked to join,
  // and a veteran accepts the standby's dial-in. The initiation rule
  // (higher id dials) plus the convention that pool ids sort last makes
  // the standbys do the connecting.
  std::map<ReplicaId, std::uint16_t> peers;
  auto admit = [&](ReplicaId member) {
    if (member == config_.me) return;
    const auto it = ports.find(member);
    if (it != ports.end()) peers.emplace(member, it->second);
  };
  for (ReplicaId member : config_.committee) admit(member);
  for (ReplicaId member : config_.pool) admit(member);
  transport_.set_peers(std::move(peers));
}

void LiveNode::queue_payload(Bytes payload) {
  queued_payloads_.push_back(std::move(payload));
}

void LiveNode::stamp_phase(obs::Gauge* phase) const {
  if (phase->value() >= 0) return;  // first reach only
  phase->set(std::chrono::duration_cast<std::chrono::milliseconds>(
                 Clock::now() - run_start_)
                 .count());
}

std::optional<std::uint32_t> LiveNode::epoch_of(InstanceId k) const {
  for (auto it = epoch_spans_.rbegin(); it != epoch_spans_.rend(); ++it) {
    if (it->first <= k) return it->second;
  }
  return std::nullopt;
}

Bytes LiveNode::payload_for(InstanceId k, bool drain_mempool) {
  if (config_.real_blocks) {
    chain::Block block;
    block.index = k;
    block.proposer = config_.me;
    const auto eo = epoch_of(k);
    const auto members =
        eo ? epoch_members_.find(*eo) : epoch_members_.end();
    if (members != epoch_members_.end()) {
      const consensus::Committee com(members->second);
      block.slot = static_cast<std::uint32_t>(
          std::max(0, com.slot_of(config_.me)));
    }
    if (drain_mempool) {
      const common::MutexLock lock(decisions_mutex_);
      // The oldest queued admission stamp opens the span: the e2e
      // latency of instance k is measured from the longest-waiting
      // transaction its batch carries.
      const std::int64_t admitted = mempool_.oldest_pending_ns();
      block.txs = mempool_.take_batch(config_.max_block_txs);
      if (!block.txs.empty()) {
        proposed_txs_[k] = block.txs;
        if (admitted >= 0) {
          const std::uint32_t e = eo.value_or(epoch_);
          tracer_->mark_at(e, k, obs::Phase::kSubmit, admitted);
          tracer_->mark_at(e, k, obs::Phase::kAdmit, admitted);
        }
      }
    }
    return block.serialize();
  }
  if (drain_mempool && next_payload_ < queued_payloads_.size()) {
    return queued_payloads_[next_payload_++];
  }
  Writer w;
  w.u32(config_.me);
  w.u64(k);
  w.string("zlb-live-batch");
  return w.take();
}

void LiveNode::on_pipeline_flush(const bm::CommitPipeline::FlushBatch& flush) {
  // COMMITTER THREAD. The batch is already applied and journaled; this
  // hook runs with no pipeline or ledger lock held. Anything another
  // proposer just committed must not linger in (and later be
  // re-proposed from) our own queue — one batched eviction pass per
  // flush, not one lock acquisition per block.
  if (!flush.committed_txs.empty()) {
    std::unordered_set<chain::TxId, crypto::Hash32Hasher> committed(
        flush.committed_txs.begin(), flush.committed_txs.end());
    const common::MutexLock lock(decisions_mutex_);
    mempool_evicted_->inc(mempool_.remove_committed(committed));
  }
  // Close each flushed instance's lifecycle span (the tracer is
  // internally locked; first mark per phase wins).
  for (const auto& ci : flush.instances) {
    tracer_->mark(ci.epoch, ci.index, obs::Phase::kApply);
    tracer_->finish(ci.epoch, ci.index);
  }
}

void LiveNode::capture_checkpoint(InstanceId upto) {
  // Today's label rule — epoch_of(upto), falling back to the current
  // epoch — over the spans bm_ learned from the epoch records it
  // journals: decisions_mutex_ ranks above ledger_mutex_, so the loop
  // thread's own span table is out of reach here.
  (void)ckpt_->capture(bm_, upto,
                       bm_.epoch_of(upto).value_or(epoch_atomic_.load()));
}

std::optional<std::size_t> LiveNode::compact_journal_below(
    InstanceId keep_from) {
  const common::MutexLock ledger(ledger_mutex_);
  return bm_.compact_journal(keep_from);
}

LiveNode::Engine* LiveNode::get_or_create(InstanceId k) {
  if (k >= config_.instances) return nullptr;
  // Settled by an installed snapshot: the instance is history, its
  // engine will never run here (late frames for it are ignored).
  if (k < settled_floor_) return nullptr;
  const auto it = engines_.find(k);
  if (it != engines_.end()) return it->second.get();

  // Γ.stop() window (Alg. 1 line 19): while the membership change runs
  // no NEW regular instance may open — a stale old-epoch vote arriving
  // between the exclusion's engine sweep and the epoch bump would
  // otherwise resurrect an old-epoch zombie at an index the NEW epoch
  // must re-run, and with engines keyed by index the new-epoch engine
  // could then never exist: the cluster wedges on that instance.
  if (membership_running_) return nullptr;

  const auto eo = epoch_of(k);
  // A standby has no membership knowledge below its join boundary —
  // that history arrives as a snapshot, never as engines.
  if (!eo) return nullptr;
  const std::uint32_t e = *eo;
  const auto& members = epoch_members_.at(e);

  Key key{e, InstanceKind::kRegular, k};
  Engine::Config ec = config_.engine;
  ec.epoch = e;
  Engine::Hooks hooks;
  hooks.broadcast = [this, k, dests = members](Bytes data, std::uint32_t,
                                               std::uint64_t) {
    for (ReplicaId member : dests) {
      send_counted(member, BytesView(data.data(), data.size()));
    }
    if (config_.byzantine_equivocate && k >= config_.equivocate_from &&
        !data.empty() &&
        data[0] == static_cast<std::uint8_t>(MsgTag::kVote)) {
      // Fault injection: double-vote on AUX — the accountable step
      // whose equivocation every honest receiver turns into a PoF.
      try {
        Reader r(BytesView(data.data() + 1, data.size() - 1));
        SignedVote v = SignedVote::decode(r);
        if (v.body.type == consensus::VoteType::kAux &&
            v.body.value.size() == 1) {
          v.body.value[0] ^= 1;
          const Bytes sb = v.body.signing_bytes();
          v.signature =
              scheme_->sign(config_.me, BytesView(sb.data(), sb.size()));
          const Bytes evil = consensus::encode_vote_msg(v);
          for (ReplicaId member : dests) {
            send_counted(member, BytesView(evil.data(), evil.size()));
          }
        }
      } catch (const DecodeError&) {
      }
    }
  };
  hooks.decided = [this, k]() { on_decided(k); };
  // Purely passive: records the first RBC slot delivery into the
  // instance's lifecycle span (first mark wins).
  hooks.slot_delivered = [this, k, e](std::uint32_t) {
    tracer_->mark(e, k, obs::Phase::kDeliver);
  };
  hooks.observe = [this](const SignedVote& v) { observe_vote(v); };
  auto engine = std::make_unique<Engine>(key, members, &epoch_live_.at(e),
                                         config_.me, *scheme_, ec,
                                         std::move(hooks));
  Engine* raw = engine.get();
  engines_.emplace(k, std::move(engine));
  ZLB_RTRACE("[%u] engine created k=%llu epoch=%u", config_.me,
             static_cast<unsigned long long>(k), e);
  // Liveness across an epoch boundary: a member proposes in every
  // instance its committee is actively working, even when its own
  // contiguous floor lags (an admitted standby mid-catch-up, a veteran
  // behind a join). The zero-phase only fires after a QUORUM of slots
  // deliver — with more than t members waiting for their floor to reach
  // the working instance, fewer than a quorum of slots would ever
  // propose and the instance wedges. Only the pipeline window above
  // the in-order cursor drains the mempool: a remote frame for a
  // far-future index must not be able to strand ACKed client batches
  // in an instance the chain will not reach for ages, so everything
  // past the window proposes empty. The window above the legitimate
  // frontier (the cursor or the newest epoch boundary, whichever is
  // ahead) bounds what one forged vote per index can make every honest
  // node broadcast.
  constexpr InstanceId kProposeAheadWindow = 64;
  const InstanceId frontier =
      std::max(current_, epoch_spans_.empty() ? InstanceId{0}
                                              : epoch_spans_.back().first);
  if (active_ && !membership_running_ && k >= current_ &&
      k < frontier + kProposeAheadWindow) {
    const bool in_window = k < current_ + window();
    raw->propose(payload_for(k, /*drain_mempool=*/in_window),
                 /*extra_wire=*/0, /*tx_count=*/1, /*verify_units=*/1);
    tracer_->mark(e, k, obs::Phase::kPropose);
    // A proposal inside the window is an opening, whether this node's
    // pacer asked for it or a peer's frame did: following a peer
    // restarts the pacer, so n pacers do not open n times the rate.
    if (in_window) note_opening();
  }
  return raw;
}

bool LiveNode::start_instance(InstanceId k) {
  if (!active_ || membership_running_) return false;
  const bool existed = engines_.count(k) != 0;
  Engine* engine = get_or_create(k);  // a new engine proposes on creation
  if (engine == nullptr || engine->has_decided()) return false;
  if (engine->has_proposed()) return !existed;
  ZLB_RTRACE("[%u] start_instance k=%llu epoch=%u", config_.me,
             static_cast<unsigned long long>(k), engine->epoch());
  // payload_for only after the proposed-check: it drains the mempool,
  // and a drain for a proposal that never goes out would strand the
  // drained transactions in proposed_txs_.
  const Bytes payload = payload_for(k);
  engine->propose(payload, /*extra_wire=*/0,
                  /*tx_count=*/1, /*verify_units=*/1);
  tracer_->mark(engine->epoch(), k, obs::Phase::kPropose);
  note_opening();
  return true;
}

void LiveNode::pace() {
  // The concurrent-instances frontier: consensus runs for up to a
  // window of instances while the commit pipeline decodes, verifies and
  // applies the decided ones below. Paced, the openings are staggered
  // one step apart, so every block carries about a step of every
  // node's transactions. Opening the whole window at once would make
  // its instances decide, and reopen, together: the first block of each
  // group would drain the mempool and the rest would go out empty.
  if (!active_ || membership_running_ || current_ >= config_.instances) {
    return;
  }
  if (paced()) {
    if (pacer_) return;  // a tick is already due
    const Duration wait = last_open_ + pace_step() - Clock::now();
    if (wait > Duration::zero()) {
      arm_pacer(wait);
      return;
    }
  }
  // Paced, one opening: start_instance re-arms the pacer through
  // note_opening, and nothing to open means the window is full — the
  // next decision calls pace() again.
  const InstanceId hi =
      std::min<InstanceId>(config_.instances, current_ + window());
  for (InstanceId k = current_; k < hi; ++k) {
    if (start_instance(k) && paced()) return;
  }
}

void LiveNode::note_opening() {
  if (!paced()) return;
  last_open_ = Clock::now();
  arm_pacer(pace_step());
}

void LiveNode::arm_pacer(Duration delay) {
  if (pacer_) loop_.cancel(*pacer_);
  pacer_ = loop_.schedule(delay, [this]() {
    pacer_.reset();
    pace();
  });
}

void LiveNode::on_decided(InstanceId k) {
  Engine* engine = engines_.at(k).get();
  decided_ceiling_ = std::max(decided_ceiling_, k + 1);
  ZLB_RTRACE("[%u] decided k=%llu epoch=%u", config_.me,
             static_cast<unsigned long long>(k), engine->epoch());
  tracer_->mark(engine->epoch(), k, obs::Phase::kDecide);
  rounds_total_->inc(engine->total_rounds());
  // Confirmation phase: assemble and cache the certified decision
  // BEFORE the PofStore prune below discards the AUX first-vote log
  // the certificates are built from.
  record_decision_msg(k, *engine);
  if (config_.real_blocks) {
    tracer_->mark(engine->epoch(), k, obs::Phase::kCommit);
    // Hand the decided payloads to the staged commit pipeline. Commit
    // is strictly in instance order: an out-of-order decision (catch-up
    // races, quorums finishing without us) PARKS inside the pipeline
    // until the gap below it decides, so the applied block sequence is
    // canonical on every node — no re-commit convergence loop. submit
    // is non-blocking; decode, ECDSA batch verification, UTXO apply
    // and the journal fsync all happen on the pipeline's stage
    // threads, off this loop thread and outside decisions_mutex_.
    std::vector<Bytes> payloads;
    for (const auto& entry : engine->outcome()) {
      if (!entry.payload.empty()) payloads.push_back(entry.payload);
    }
    pipeline_->submit(engine->epoch(), k, std::move(payloads));
    // If our own slot lost its binary consensus (the proposal raced the
    // zero-phase), the drained transactions must go back into the
    // mempool for the next block — clients got an ACK for them.
    if (proposed_txs_.count(k) != 0) {
      const consensus::Committee com(epoch_members_.at(engine->epoch()));
      const int my_slot = com.slot_of(config_.me);
      const auto& bitmask = engine->bitmask();
      const bool included = my_slot >= 0 &&
                            static_cast<std::size_t>(my_slot) <
                                bitmask.size() &&
                            bitmask[static_cast<std::size_t>(my_slot)] == 1;
      if (included) {
        proposed_txs_.erase(k);
      } else {
        requeue_proposed(k);
      }
    }
  } else {
    // No commit pipeline: the span ends at the decision. (In payment
    // mode the pipeline's flush hook finishes it after apply.)
    tracer_->finish(engine->epoch(), k);
  }
  // The instance is settled here: its first-vote log is no longer
  // needed for PoF extraction (live equivocation was observed live),
  // and without the prune the store grows O(chain). The floor keeps
  // straggler votes from resurrecting what was just pruned.
  pofs_.prune_instance(engine->key());
  pofs_.set_log_floor(decision_floor());
  LiveDecision d;
  d.index = k;
  d.epoch = engine->epoch();
  d.bitmask = engine->bitmask();
  for (const auto& entry : engine->outcome()) {
    d.digests.push_back(entry.digest);
    d.payload_bytes += entry.payload.size();
  }
  {
    const common::MutexLock lock(decisions_mutex_);
    decisions_.push_back(std::move(d));
  }
  decided_count_.fetch_add(1);

  if (all_decided()) {
    // Lingering nodes stay up to serve resync to straggling peers (the
    // cluster stops them once everyone decided); standalone nodes are
    // done. Lingering's own termination lives in resync_tick, so with
    // resync disabled there would be no stop path at all — fall back
    // to stopping here.
    if (!config_.linger_after_decided ||
        config_.resync_interval <= Duration::zero()) {
      loop_.stop();
    }
    return;
  }
  // Advance past every already-decided index (instances can decide out
  // of order when a quorum finishes without our proposal); the window
  // has room again, so the pacer opens the next instance when its step
  // is up. During a membership change pace() is a no-op: the pipeline
  // resumes after the epoch switch.
  while (current_ < config_.instances) {
    const auto it = engines_.find(current_);
    if (it == engines_.end() || !it->second->has_decided()) break;
    ++current_;
  }
  pace();
}

InstanceId LiveNode::decision_floor() const {
  // current_ is the first-undecided cursor on_decided maintains;
  // starting there keeps this O(1) amortized over a run instead of
  // rescanning every decided instance from zero on each tick.
  // Snapshot-settled instances count as decided.
  InstanceId k = std::max(current_, settled_floor_);
  while (k < config_.instances) {
    const auto it = engines_.find(k);
    if (it == engines_.end() || !it->second->has_decided()) break;
    ++k;
  }
  return k;
}

InstanceId LiveNode::decision_ceiling() const {
  // Cursor-maintained (on_decided / settle_below): the commit hot path
  // and the exclusion validate hook both ask, and a map scan here
  // would cost O(chain) per decide.
  return std::max(decision_floor(), decided_ceiling_);
}

// --- membership change (Alg. 1, live) --------------------------------

LiveNode::Engine* LiveNode::route_engine(ReplicaId from, const Key& key,
                                         BytesView frame) {
  if (key.kind == InstanceKind::kRegular) {
    const auto eo = epoch_of(key.index);
    if (!eo) return nullptr;  // pre-join history: snapshot territory
    if (key.epoch != *eo) {
      // Cross-epoch rejection: a vote keyed to the wrong membership
      // generation never reaches an engine.
      cross_epoch_dropped_->inc();
      return nullptr;
    }
    return get_or_create(key.index);
  }
  if (key.epoch < epoch_) return nullptr;  // settled history
  if (key.epoch > epoch_) {
    // A change we have not caught up to; the announce path heals us,
    // these votes are useless until then.
    cross_epoch_dropped_->inc();
    return nullptr;
  }
  const auto it = member_engines_.find(key);
  if (it != member_engines_.end()) return it->second.get();
  // Exclusion/inclusion traffic ahead of our own threshold or
  // exclusion decision: hold it (Alg. 1 buffers too).
  stash_membership_frame(from, frame);
  return nullptr;
}

void LiveNode::requeue_proposed(InstanceId k) {
  const auto it = proposed_txs_.find(k);
  if (it == proposed_txs_.end()) return;
  {
    const common::MutexLock lock(decisions_mutex_);
    const common::MutexLock ledger(ledger_mutex_);
    for (auto& tx : it->second) {
      // Clients were ACKed at admission; the teardown of an engine
      // whose proposal never decided must not silently drop them.
      if (!bm_.knows_tx(tx.id())) (void)mempool_.readmit(tx);
    }
  }
  proposed_txs_.erase(it);
}

// --- confirmation phase (§4.1.1 ②, live port) ------------------------

void LiveNode::record_decision_msg(InstanceId k, Engine& engine) {
  // Assemble the certified decision while the AUX first-vote log still
  // exists (on_decided prunes it right after). Unlike the simulator —
  // which models certificate bytes on the wire — this builds the REAL
  // per-slot quorum certificates, so a straggler that receives the
  // cached frame adopts every slot's decision instead of re-running
  // binary consensus. Nothing is broadcast here: the frame is replayed
  // only to stalled peers by the resync layer, keeping the steady
  // state at zero extra traffic.
  if (!config_.engine.accountable) return;
  const auto lit = epoch_live_.find(engine.epoch());
  if (lit == epoch_live_.end()) return;
  const std::size_t quorum = lit->second.quorum();
  DecisionMsg msg;
  msg.sender = config_.me;
  msg.key = engine.key();
  msg.bitmask = engine.bitmask();
  for (const auto& entry : engine.outcome()) {
    msg.digests.push_back(entry.digest);
  }
  for (std::uint32_t s = 0; s < engine.slot_count(); ++s) {
    const auto dbg = engine.slot_debug(s);
    // decided_round == 0 means this slot was itself adopted from a
    // certificate — we never logged its deciding round's votes, so we
    // cannot re-certify it. No cached decision then; plain wire resync
    // still covers such peers.
    if (!dbg.decided || dbg.decided_round == 0) return;
    SlotCert cert;
    cert.slot = s;
    cert.round = dbg.decided_round;
    cert.value = dbg.decided_value;
    std::set<ReplicaId> seen;
    for (const auto& vote : pofs_.votes_for(engine.key(), s)) {
      if (vote.body.type != consensus::VoteType::kAux) continue;
      if (vote.body.round != dbg.decided_round) continue;
      if (vote.body.value.size() != 1 ||
          vote.body.value[0] != dbg.decided_value) {
        continue;
      }
      if (!seen.insert(vote.signer).second) continue;
      cert.votes.push_back(vote);
      if (cert.votes.size() >= quorum) break;
    }
    if (cert.votes.size() < quorum) return;  // cannot certify: skip caching
    msg.certs.push_back(std::move(cert));
  }
  const Bytes summary = msg.summary_bytes();
  msg.signature =
      scheme_->sign(config_.me, BytesView(summary.data(), summary.size()));
  decision_log_[k] = consensus::encode_decision_msg(msg);
}

void LiveNode::handle_decision_msg(ReplicaId from,
                                   const consensus::DecisionMsg& msg) {
  // Straggler catch-up: adopt certified slot decisions instead of
  // re-running their binary consensus. Adoption thresholds use OUR
  // live committee — a sender whose committee already shrank further
  // produces certs we may reject, and plain wire resync covers that.
  (void)from;  // summary signature was verified against msg.sender
  if (msg.key.kind != InstanceKind::kRegular) return;
  const InstanceId k = msg.key.index;
  if (k >= config_.instances) return;
  const auto eo = epoch_of(k);
  if (!eo || *eo != msg.key.epoch) return;
  const auto lit = epoch_live_.find(msg.key.epoch);
  if (lit == epoch_live_.end()) return;
  const std::size_t quorum = lit->second.quorum();
  Engine* engine = get_or_create(k);
  if (engine == nullptr || engine->has_decided()) return;
  // Decided-1 slots consume the digest list in slot order (the wire
  // layout the simulator's conflict detection uses too).
  std::map<std::uint32_t, crypto::Hash32> digest_of;
  {
    std::size_t di = 0;
    for (std::uint32_t s = 0; s < msg.bitmask.size(); ++s) {
      if (msg.bitmask[s] == 1 && di < msg.digests.size()) {
        digest_of[s] = msg.digests[di++];
      }
    }
  }
  for (const auto& cert : msg.certs) {
    if (cert.slot >= engine->slot_count()) continue;
    const std::uint8_t summary_value =
        cert.slot < msg.bitmask.size() ? msg.bitmask[cert.slot] : 0;
    if (cert.value != summary_value) continue;  // contradicts the summary
    std::set<ReplicaId> seen;
    std::size_t valid = 0;
    for (const auto& vote : cert.votes) {
      if (!(vote.body.key == msg.key) || vote.body.slot != cert.slot ||
          vote.body.round != cert.round ||
          vote.body.type != consensus::VoteType::kAux ||
          vote.body.value.size() != 1 || vote.body.value[0] != cert.value) {
        continue;
      }
      if (!lit->second.contains(vote.signer)) continue;
      if (!seen.insert(vote.signer).second) continue;
      const Bytes sb = vote.body.signing_bytes();
      if (!scheme_->verify(vote.signer, BytesView(sb.data(), sb.size()),
                           BytesView(vote.signature.data(),
                                     vote.signature.size()))) {
        continue;
      }
      if (++valid >= quorum) break;
    }
    if (valid < quorum) continue;
    const auto dit = digest_of.find(cert.slot);
    // A value-1 adoption without the matching proposal parks inside the
    // engine (check_instance_decided requires delivery); wire replay of
    // the proposal completes it.
    engine->adopt_slot_decision(cert.slot, cert.value,
                                cert.value == 1 && dit != digest_of.end()
                                    ? &dit->second
                                    : nullptr);
  }
}

void LiveNode::observe_vote(const SignedVote& vote) {
  auto pof = pofs_.observe(vote);
  if (pof.has_value()) pending_pofs_.push_back(*pof);
}

void LiveNode::note_new_pofs() {
  if (pending_pofs_.empty()) return;
  std::vector<ProofOfFraud> fresh;
  for (auto& pof : pending_pofs_) {
    if (pofs_.add_pof(pof)) fresh.push_back(pof);
  }
  pending_pofs_.clear();
  pof_culprits_->set(static_cast<std::int64_t>(pofs_.culprit_count()));

  if (!fresh.empty() && active_) {
    // Alg. 1 line 26: rebroadcast the new PoFs — the unblocker that
    // spreads detection past whatever partition of observations each
    // replica happened to make.
    Writer w;
    w.u8(static_cast<std::uint8_t>(MsgTag::kPofGossip));
    w.raw(consensus::encode_pofs(fresh));
    const Bytes msg = w.take();
    for (ReplicaId member : epoch_members_.at(epoch_)) {
      if (member != config_.me) {
        send_counted(member, BytesView(msg.data(), msg.size()));
      }
    }
  }

  if (membership_running_) {
    // Alg. 1 lines 23-27: shrink C′ and re-check thresholds at runtime.
    std::vector<ReplicaId> to_remove;
    for (ReplicaId m : exclusion_live_.members()) {
      if (pofs_.is_culprit(m)) to_remove.push_back(m);
    }
    if (!to_remove.empty()) {
      exclusion_live_.remove(to_remove);
      const auto it =
          member_engines_.find(Key{epoch_, InstanceKind::kExclusion,
                                   next_excl_index_[epoch_]});
      if (it != member_engines_.end()) it->second->recheck();
    }
  }
  maybe_start_membership();
}

void LiveNode::maybe_start_membership() {
  if (!active_ || membership_running_) return;
  // One membership change attempt at a time: the current exclusion
  // index's engine is the tombstone (aborted rounds advance the index,
  // re-arming the trigger under a fresh key).
  const Key excl_key{epoch_, InstanceKind::kExclusion,
                     next_excl_index_[epoch_]};
  if (member_engines_.count(excl_key) != 0) return;
  consensus::Committee& live = live_committee();
  std::size_t in_committee = 0;
  for (ReplicaId id : pofs_.culprits()) {
    if (live.contains(id)) ++in_committee;
  }
  if (in_committee < live.fd()) return;
  stamp_phase(detect_ms_);

  membership_running_ = true;
  ZLB_RTRACE("[%u] membership trigger: %zu culprits, floor=%llu",
             config_.me, in_committee,
             static_cast<unsigned long long>(decision_floor()));
  // Alg. 1 line 19: freeze the pending regular instances — nothing may
  // decide under the old committee while the exclusion runs, so the
  // decided boundary claims stay honest.
  for (auto& [k, engine] : engines_) {
    if (!engine->has_decided()) engine->stop();
  }
  // Alg. 1 lines 20-22: C′ = C \ culprits; start the exclusion
  // consensus with the full epoch membership as the slot map.
  std::vector<ReplicaId> cprime;
  for (ReplicaId m : epoch_members_.at(epoch_)) {
    if (!pofs_.is_culprit(m)) cprime.push_back(m);
  }
  exclusion_live_.reset(std::move(cprime));
  Engine* engine = create_membership_engine(excl_key);
  if (engine != nullptr) {
    ExclusionClaim claim;
    claim.ceiling = decision_ceiling();
    // Only PoFs against CURRENT members go into the claim: the store
    // keeps earlier epochs' culprits forever (they must stay banned
    // from re-inclusion), but validators reject claims naming
    // non-members — a stale PoF would invalidate the whole proposal
    // and wedge every membership change after the first.
    const auto& members = epoch_members_.at(epoch_);
    for (const auto& pof : pofs_.pofs()) {
      if (std::find(members.begin(), members.end(), pof.culprit()) !=
          members.end()) {
        claim.pofs.push_back(pof);
      }
    }
    engine->propose(claim.encode(), 0, 0,
                    1 + 2 * static_cast<std::uint32_t>(claim.pofs.size()));
  }
  drain_membership_stash();
}

LiveNode::Engine* LiveNode::create_membership_engine(const Key& key) {
  const auto it = member_engines_.find(key);
  if (it != member_engines_.end()) return it->second.get();

  std::vector<ReplicaId> slot_members;
  const consensus::Committee* live = nullptr;
  Engine::Hooks hooks;
  if (key.kind == InstanceKind::kExclusion) {
    slot_members = epoch_members_.at(key.epoch);
    live = &exclusion_live_;
    hooks.validate = [this](BytesView payload) {
      try {
        const ExclusionClaim claim = ExclusionClaim::decode(payload);
        if (claim.pofs.empty()) return false;
        // The decided max ceiling becomes the epoch boundary, so an
        // inflated claim defers the new committee's effect. Honest
        // ceilings sit near the validator's own; a proposal claiming
        // far beyond that never collects the honest echoes RBC
        // delivery needs, which caps Byzantine inflation at (some
        // honest ceiling + slack). The slack absorbs legitimate
        // pipeline skew between replicas.
        constexpr InstanceId kCeilingSlack = 64;
        if (claim.ceiling > config_.instances ||
            claim.ceiling > decision_ceiling() + kCeilingSlack) {
          return false;
        }
        const auto& members = epoch_members_.at(epoch_);
        for (const auto& pof : claim.pofs) {
          if (!consensus::verify_pof(pof, *scheme_)) return false;
          if (std::find(members.begin(), members.end(), pof.culprit()) ==
              members.end()) {
            return false;
          }
        }
        // Valid PoFs are proof in themselves: adopt them (Alg. 1 lines
        // 13-16), deferred to the end of frame handling.
        pending_pofs_.insert(pending_pofs_.end(), claim.pofs.begin(),
                             claim.pofs.end());
        return true;
      } catch (const DecodeError&) {
        return false;
      }
    };
  } else {
    // Inclusion: the post-exclusion committee is the slot map; only
    // reachable once our exclusion decided (cons_exclude_ is set).
    slot_members = live_committee().members();
    live = &epoch_live_.at(epoch_);
    hooks.validate = [this](BytesView payload) {
      try {
        const auto ids = asmr::decode_replica_ids(payload);
        for (ReplicaId id : ids) {
          if (std::find(config_.pool.begin(), config_.pool.end(), id) ==
              config_.pool.end()) {
            return false;
          }
          if (live_committee().contains(id)) return false;
          if (std::find(excluded_ids_.begin(), excluded_ids_.end(), id) !=
              excluded_ids_.end()) {
            return false;
          }
        }
        return true;
      } catch (const DecodeError&) {
        return false;
      }
    };
  }

  hooks.broadcast = [this, dests = slot_members](Bytes data, std::uint32_t,
                                                 std::uint64_t) {
    for (ReplicaId member : dests) {
      send_counted(member, BytesView(data.data(), data.size()));
    }
  };
  const Key key_copy = key;
  hooks.decided = [this, key_copy]() {
    const auto eit = member_engines_.find(key_copy);
    if (eit == member_engines_.end()) return;
    if (key_copy.kind == InstanceKind::kExclusion) {
      on_exclusion_decided(key_copy, *eit->second);
    } else {
      on_inclusion_decided(key_copy, *eit->second);
    }
  };
  hooks.observe = [this](const SignedVote& v) { observe_vote(v); };

  Engine::Config ec = config_.engine;
  ec.epoch = key.epoch;
  auto engine = std::make_unique<Engine>(key, slot_members, live, config_.me,
                                         *scheme_, ec, std::move(hooks));
  Engine* raw = engine.get();
  member_engines_.emplace(key, std::move(engine));
  return raw;
}

void LiveNode::on_exclusion_decided(const Key& key, Engine& engine) {
  if (!cons_exclude_.empty()) return;  // already handled
  std::set<ReplicaId> culprits;
  InstanceId boundary = 0;
  for (const auto& entry : engine.outcome()) {
    try {
      const ExclusionClaim claim = ExclusionClaim::decode(
          BytesView(entry.payload.data(), entry.payload.size()));
      boundary = std::max(boundary, claim.ceiling);
      for (const auto& pof : claim.pofs) {
        pofs_.add_pof(pof);
        culprits.insert(pof.culprit());
      }
    } catch (const DecodeError&) {
      continue;
    }
  }
  for (ReplicaId id : epoch_members_.at(epoch_)) {
    if (culprits.count(id) != 0) cons_exclude_.push_back(id);
  }
  if (cons_exclude_.empty()) {
    // Nothing provably in the committee decided out: abort the change
    // and let the frozen instances continue. The decided all-zero
    // engine stays as THIS round's tombstone; the retry runs at the
    // next exclusion index so the trigger re-arms under a fresh
    // signing context (every replica that decided this round computes
    // the same next index, so the retry converges).
    membership_running_ = false;
    next_excl_index_[key.epoch] =
        std::max(next_excl_index_[key.epoch], key.index + 1);
    for (auto& [k2, e] : engines_) {
      if (!e->has_decided()) {
        e->resume();
        e->recheck();
      }
    }
    // The pipeline must restart here too: the start_instance the
    // trigger swallowed (membership_running_ guard) is not coming
    // back, and if every replica froze before proposing the cursor
    // instance, nobody would ever open it again.
    if (current_ < config_.instances) start_instance(current_);
    pace();
    // Still fd proven culprits in the committee? Retry immediately.
    maybe_start_membership();
    return;
  }
  // The boundary only moves forward across changes, and never below an
  // already-settled prefix.
  if (!epoch_spans_.empty()) {
    boundary = std::max(boundary, epoch_spans_.back().first);
  }
  boundary = std::max(boundary, settled_floor_);
  pending_boundary_ = boundary;
  ZLB_RTRACE("[%u] exclusion decided: %zu culprits, boundary=%llu",
             config_.me, cons_exclude_.size(),
             static_cast<unsigned long long>(boundary));
  stamp_phase(exclude_ms_);

  // Alg. 1 line 40 + lines 23-25 retroactively: the coalition leaves
  // EVERY epoch's live committee, so stalled old-epoch instances can
  // decide among the honest remainder.
  for (auto& [e, com] : epoch_live_) com.remove(cons_exclude_);
  exclusion_live_.remove(cons_exclude_);

  // Instances at/above the boundary re-run under the new epoch: their
  // frozen old-epoch engines are tombstones now. Below the boundary the
  // old epochs finish — resume and re-check against the shrunk live
  // committees (quorums are reachable honest-only from here).
  for (auto it = engines_.begin(); it != engines_.end();) {
    if (it->first >= boundary && !it->second->has_decided()) {
      requeue_proposed(it->first);
      tracer_->abandon(it->second->epoch(), it->first);
      it = engines_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto& [k, e] : engines_) {
    if (!e->has_decided()) {
      e->resume();
      e->recheck();
    }
  }

  // Alg. 1 lines 41-42: inclusion consensus among the survivors.
  Engine* inclusion =
      create_membership_engine(Key{epoch_, InstanceKind::kInclusion, 0});
  if (inclusion != nullptr && !inclusion->has_decided()) {
    // pool.take(|cons-exclude|), offset by our slot so proposals differ
    // across replicas and choose() can spread the inclusions evenly.
    std::vector<ReplicaId> candidates;
    for (ReplicaId id : config_.pool) {
      if (!live_committee().contains(id) &&
          std::find(excluded_ids_.begin(), excluded_ids_.end(), id) ==
              excluded_ids_.end()) {
        candidates.push_back(id);
      }
    }
    std::vector<ReplicaId> prop;
    if (!candidates.empty()) {
      const int my_slot = std::max(0, live_committee().slot_of(config_.me));
      const std::size_t want =
          std::min(cons_exclude_.size(), candidates.size());
      const std::size_t start =
          (static_cast<std::size_t>(my_slot) * want) % candidates.size();
      for (std::size_t i = 0; i < want; ++i) {
        prop.push_back(candidates[(start + i) % candidates.size()]);
      }
    }
    inclusion->propose(asmr::encode_replica_ids(prop), 0, 0, 1);
  }
  drain_membership_stash();
}

void LiveNode::on_inclusion_decided(const Key& /*key*/, Engine& engine) {
  if (!membership_running_) return;  // already switched
  std::vector<std::vector<ReplicaId>> proposals;
  for (const auto& entry : engine.outcome()) {
    try {
      proposals.push_back(asmr::decode_replica_ids(
          BytesView(entry.payload.data(), entry.payload.size())));
    } catch (const DecodeError&) {
      continue;
    }
  }
  std::unordered_set<ReplicaId> banned(epoch_members_.at(epoch_).begin(),
                                       epoch_members_.at(epoch_).end());
  banned.insert(excluded_ids_.begin(), excluded_ids_.end());
  const auto chosen =
      asmr::choose_inclusion(cons_exclude_.size(), proposals, banned);

  excluded_ids_.insert(excluded_ids_.end(), cons_exclude_.begin(),
                       cons_exclude_.end());
  std::vector<ReplicaId> members = live_committee().members();
  members.insert(members.end(), chosen.begin(), chosen.end());
  members = sorted_unique(members);

  const std::uint32_t new_epoch = epoch_ + 1;
  epoch_members_[new_epoch] = members;
  epoch_live_.emplace(new_epoch, consensus::Committee(members));
  epoch_ = new_epoch;
  epoch_atomic_.store(new_epoch);
  epoch_spans_.push_back({pending_boundary_, new_epoch});
  membership_running_ = false;
  {
    const common::MutexLock lock(decisions_mutex_);
    committee_snapshot_ = members;
  }
  excluded_->inc(cons_exclude_.size());
  included_->inc(chosen.size());
  stamp_phase(include_ms_);
  {
    // The boundary enters the WAL before any new-epoch block can: blocks
    // of the new epoch only commit after instances past the boundary
    // decide (which happens after this callback), and ledger_mutex_
    // serializes this record against every pipeline journal write. A
    // restart must never replay epoch-e+1 blocks into an epoch-0 view.
    const common::MutexLock ledger(ledger_mutex_);
    (void)bm_.journal_epoch(chain::EpochRecord{
        new_epoch, pending_boundary_, members, sorted_unique(excluded_ids_)});
  }

  // Membership takes effect below the consensus too: excluded links go
  // down for good, admitted standbys get links raised (Alg. 1 45-47).
  retarget_transport();

  // Tell the admitted replicas (they activate on t+1 matching copies);
  // the same message heals veterans that slept through the change.
  EpochAnnounceMsg announce;
  announce.sender = config_.me;
  announce.epoch = new_epoch;
  announce.start_index = pending_boundary_;
  announce.members = members;
  announce.excluded = sorted_unique(excluded_ids_);
  const Bytes sb = announce.signing_bytes();
  announce.signature =
      scheme_->sign(config_.me, BytesView(sb.data(), sb.size()));
  last_announce_ = announce;
  // The whole pool hears the change, not just the admitted: a standby
  // passed over today must still track the committee's evolution, or
  // its trusted signer set fossilizes at epoch 0 and a LATER admission
  // could never gather t+1 signatures it recognizes.
  for (ReplicaId id : config_.pool) {
    if (id == config_.me) continue;
    if (std::find(excluded_ids_.begin(), excluded_ids_.end(), id) !=
        excluded_ids_.end()) {
      continue;
    }
    send_epoch_announce(id);
  }

  cons_exclude_.clear();
  ZLB_RTRACE("[%u] inclusion decided: epoch=%u start=%llu members=%zu",
             config_.me, epoch_,
             static_cast<unsigned long long>(pending_boundary_),
             epoch_members_.at(epoch_).size());
  // Defensive sweep: any undecided old-epoch engine at/above the
  // boundary is a zombie squatting on an index the new epoch must
  // re-run (get_or_create refuses to create them during the change,
  // but the invariant is load-bearing — enforce it here too).
  for (auto it = engines_.lower_bound(pending_boundary_);
       it != engines_.end();) {
    if (!it->second->has_decided() && it->second->epoch() != epoch_) {
      requeue_proposed(it->first);
      tracer_->abandon(it->second->epoch(), it->first);
      it = engines_.erase(it);
    } else {
      ++it;
    }
  }
  // Alg. 1 line 49: resume the regular pipeline — the old-epoch tail
  // first (its engines were resumed at exclusion), then the new epoch
  // from the boundary.
  while (current_ < config_.instances) {
    const auto it = engines_.find(current_);
    if (it == engines_.end() || !it->second->has_decided()) break;
    ++current_;
  }
  if (current_ < config_.instances) start_instance(current_);
  pace();
  stamp_phase(resume_ms_);
  drain_membership_stash();
}

void LiveNode::retarget_transport() {
  // excluded_ids_ covers this change's cons_exclude_ (merged before the
  // call) AND everyone excluded in earlier epochs — the restart path
  // re-runs this after journal recovery, where only excluded_ids_
  // survives, and the "links down for good" invariant must hold there
  // too.
  for (ReplicaId id : excluded_ids_) transport_.remove_peer(id);
  for (ReplicaId id : epoch_members_.at(epoch_)) {
    if (id == config_.me || transport_.knows_peer(id)) continue;
    const auto it = all_ports_.find(id);
    if (it != all_ports_.end()) transport_.add_peer(id, it->second);
  }
}

void LiveNode::maybe_reannounce(ReplicaId to) {
  if (!last_announce_.has_value()) return;
  constexpr int kAnnounceCooldownTicks = 4;
  PeerResync& ps = peer_sync_[to];
  if (resync_ticks_ - ps.announce_tick < kAnnounceCooldownTicks) return;
  ps.announce_tick = resync_ticks_;
  send_epoch_announce(to);
}

void LiveNode::send_epoch_announce(ReplicaId to) {
  if (!last_announce_.has_value()) return;
  const Bytes msg = consensus::encode_epoch_announce_msg(*last_announce_);
  send_counted(to, BytesView(msg.data(), msg.size()));
}

void LiveNode::handle_epoch_announce(ReplicaId from,
                                     const EpochAnnounceMsg& msg) {
  if (msg.sender != from || msg.epoch <= epoch_) return;
  if (msg.members.empty()) return;
  const Bytes sb = msg.signing_bytes();
  if (!scheme_->verify(from, BytesView(sb.data(), sb.size()),
                       BytesView(msg.signature.data(),
                                 msg.signature.size()))) {
    return;
  }
  // Signers are counted against a committee the receiver ALREADY
  // trusts — its own current epoch's membership — never against the
  // announced list. Counting against msg.members would let a single
  // authenticated peer announce a committee of itself (t+1 of 1 = 1)
  // and capture every node. With the threshold anchored to the trusted
  // committee, forging a change still takes t+1 colluding members of
  // it — the bound the whole design already lives with.
  const std::vector<ReplicaId>& trusted = epoch_members_.at(epoch_);
  if (std::find(trusted.begin(), trusted.end(), from) == trusted.end()) {
    return;
  }
  const crypto::Hash32 digest = msg.content_digest();
  // Everything at/below our epoch is dead weight.
  for (auto it = announce_content_.begin(); it != announce_content_.end();) {
    if (it->second.epoch <= epoch_) {
      announce_votes_.erase(it->first);
      it = announce_content_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = announce_by_sender_.begin();
       it != announce_by_sender_.end();) {
    if (announce_content_.count(it->second) == 0) {
      it = announce_by_sender_.erase(it);
    } else {
      ++it;
    }
  }
  // One standing announcement per signer (the fetcher's endorsement
  // rule): a forger churning contents only ever occupies one entry, so
  // the maps stay bounded by the committee population — and a global
  // cap it could fill to crowd out the honest digest is unnecessary.
  const auto prev = announce_by_sender_.find(from);
  if (prev != announce_by_sender_.end() && !(prev->second == digest)) {
    const auto old = announce_votes_.find(prev->second);
    if (old != announce_votes_.end()) {
      old->second.erase(from);
      if (old->second.empty()) {
        announce_votes_.erase(old);
        announce_content_.erase(prev->second);
      }
    }
  }
  announce_by_sender_[from] = digest;
  announce_content_.emplace(digest, msg);
  auto& voters = announce_votes_[digest];
  voters.insert(from);
  const std::size_t t_plus_1 = (trusted.size() - 1) / 3 + 1;
  if (voters.size() < t_plus_1) return;
  adopt_epoch(announce_content_.at(digest));
}

void LiveNode::adopt_epoch(const EpochAnnounceMsg& msg) {
  if (msg.epoch <= epoch_ && active_) return;
  const std::vector<ReplicaId> members = sorted_unique(msg.members);
  epoch_members_[msg.epoch] = members;
  auto [lit, inserted] =
      epoch_live_.emplace(msg.epoch, consensus::Committee(members));
  if (!inserted) lit->second.reset(members);
  epoch_ = msg.epoch;
  epoch_atomic_.store(msg.epoch);
  epoch_spans_.push_back({msg.start_index, msg.epoch});
  excluded_ids_ = sorted_unique(msg.excluded);
  // A change we were not part of finished without us; whatever local
  // membership state was in flight is overtaken.
  membership_running_ = false;
  cons_exclude_.clear();
  {
    const common::MutexLock lock(decisions_mutex_);
    committee_snapshot_ = members;
  }
  stamp_phase(include_ms_);
  {
    const common::MutexLock ledger(ledger_mutex_);
    (void)bm_.journal_epoch(chain::EpochRecord{msg.epoch, msg.start_index,
                                               members, excluded_ids_});
  }
  // Undecided engines keyed to superseded epochs at/after the boundary
  // are tombstones (their instances re-run under the new committee).
  for (auto it = engines_.lower_bound(msg.start_index);
       it != engines_.end();) {
    if (!it->second->has_decided() && it->second->epoch() != msg.epoch) {
      requeue_proposed(it->first);
      tracer_->abandon(it->second->epoch(), it->first);
      it = engines_.erase(it);
    } else {
      ++it;
    }
  }
  // The old-epoch tail below the boundary must still finish — among
  // the honest remainder. Apply the exclusions to every older epoch's
  // live committee and wake whatever our own (possibly never-decided)
  // membership attempt froze: without this a veteran healed by
  // announcement wedges on the instances it stopped at its trigger.
  for (auto& [e, com] : epoch_live_) {
    if (e < msg.epoch) com.remove(excluded_ids_);
  }
  for (auto& [k, engine] : engines_) {
    if (!engine->has_decided()) {
      engine->resume();
      engine->recheck();
    }
  }
  retarget_transport();
  // Make the change re-announceable from here too: the original
  // announcers may be gone by the time a laggard surfaces, and we just
  // verified the content with t+1 signatures — vouch for it under our
  // own key (a verbatim relay would fail the sender==from check).
  {
    EpochAnnounceMsg own = msg;
    own.sender = config_.me;
    const Bytes osb = own.signing_bytes();
    own.signature = scheme_->sign(config_.me, BytesView(osb.data(),
                                                        osb.size()));
    last_announce_ = std::move(own);
  }
  ZLB_RTRACE("[%u] adopt_epoch: epoch=%u start=%llu (was standby=%d)",
             config_.me, msg.epoch,
             static_cast<unsigned long long>(msg.start_index),
             active_ ? 0 : 1);
  // A pool replica adopts every change — tracking the committee's
  // evolution keeps its trusted signer set current for FUTURE
  // announces — but only becomes a member when the inclusion actually
  // named it. History below its join boundary arrives as a snapshot
  // (it was never a member there); refuse anything older.
  if (!active_ &&
      std::find(members.begin(), members.end(), config_.me) !=
          members.end()) {
    active_ = true;
    active_atomic_.store(true);
    join_floor_ = msg.start_index;
  }
  // Participate from wherever our floor stands; the consensus traffic
  // for the new epoch creates engines on demand.
  if (!membership_running_ && current_ < config_.instances) {
    start_instance(std::max(current_, decision_floor()));
    pace();
    stamp_phase(resume_ms_);
  }
  // Stale stashed membership frames of the superseded epochs drain
  // away here (route_engine now drops them); anything for the adopted
  // epoch gets its chance.
  drain_membership_stash();
}

void LiveNode::recover_epoch_record(const chain::EpochRecord& rec) {
  if (rec.epoch == 0 || rec.members.empty()) return;
  const std::vector<ReplicaId> members = sorted_unique(rec.members);
  // The record's cumulative exclusion list is authoritative — it
  // survives gapped histories (epochs slept through or compacted away)
  // where a members-diff against epoch-1 would miss bans. Older
  // epochs' live committees shrink by the same set, so their tail can
  // still decide honest-only.
  excluded_ids_.insert(excluded_ids_.end(), rec.excluded.begin(),
                       rec.excluded.end());
  excluded_ids_ = sorted_unique(excluded_ids_);
  for (auto& [e, com] : epoch_live_) {
    if (e < rec.epoch) com.remove(excluded_ids_);
  }
  epoch_members_[rec.epoch] = members;
  auto [lit, inserted] =
      epoch_live_.emplace(rec.epoch, consensus::Committee(members));
  if (!inserted) lit->second.reset(members);
  epoch_spans_.push_back({rec.start_index, rec.epoch});
  epoch_ = std::max(epoch_, rec.epoch);
  epoch_atomic_.store(epoch_);
  // Called under decisions_mutex_ (the journal-replay block in run()).
  committee_snapshot_ = members;
  // An admitted standby that journaled its activation must come back
  // as a MEMBER: the epoch is already ours, so re-announcements are
  // (correctly) ignored and no other activation path exists.
  if (!active_ &&
      std::find(members.begin(), members.end(), config_.me) !=
          members.end()) {
    active_ = true;
    active_atomic_.store(true);
    join_floor_ = rec.start_index;
  }
}

void LiveNode::stash_membership_frame(ReplicaId from, BytesView data) {
  if (membership_stash_.size() >= kMembershipStashCap) return;
  membership_stash_.emplace_back(from, Bytes(data.begin(), data.end()));
}

void LiveNode::drain_membership_stash() {
  if (draining_stash_ || membership_stash_.empty()) return;
  draining_stash_ = true;
  std::vector<std::pair<ReplicaId, Bytes>> pending;
  pending.swap(membership_stash_);
  for (auto& [from, bytes] : pending) {
    on_frame(from, BytesView(bytes.data(), bytes.size()));
  }
  draining_stash_ = false;
}

void LiveNode::handle_pof_gossip(BytesView body) {
  std::vector<ProofOfFraud> pofs;
  try {
    pofs = consensus::decode_pofs(body);
  } catch (const DecodeError&) {
    return;
  }
  for (const auto& pof : pofs) {
    if (pofs_.is_culprit(pof.culprit())) continue;
    if (!consensus::verify_pof(pof, *scheme_)) continue;
    pending_pofs_.push_back(pof);
  }
}

// ---------------------------------------------------------------------

namespace {
/// Domain-separated signing bytes of a resync status claim. The
/// wall-clock timestamp gives the claim freshness: floors may
/// legitimately regress (daemon restart), so without it a recorded
/// old "I am done" status could be replayed to re-poison the floor
/// the signature protects. Committee machines are assumed loosely
/// clock-synchronized (well within kResyncFreshness). The claimed
/// epoch rides in the signature too: peers act on it (re-announcing a
/// membership change to laggards), so it must not be forgeable.
Bytes resync_signing_bytes(ReplicaId signer, std::uint32_t epoch,
                           InstanceId floor, std::int64_t unix_seconds) {
  Writer sb;
  sb.string("zlb-resync-status");
  sb.u32(signer);
  sb.u32(epoch);
  sb.u64(floor);
  sb.i64(unix_seconds);
  return sb.take();
}

constexpr std::int64_t kResyncFreshness = 120;  // seconds
}  // namespace

std::int64_t LiveNode::unix_now() const {
  const common::Clock* clock = config_.clock;
  return (clock != nullptr ? *clock : common::Clock::system()).unix_seconds();
}

void LiveNode::resync_tick() {
  // Drive any in-flight state transfer: re-requests whatever chunks a
  // dropped connection swallowed (resume-across-churn).
  resync_ticks_ += 1;
  if (fetcher_ != nullptr) {
    const common::MutexLock lock(decisions_mutex_);
    fetcher_->tick();
  }
  if (!active_) {
    // A standby only listens: no status to report, nothing to prune.
    loop_.schedule(config_.resync_interval, [this]() { resync_tick(); });
    return;
  }
  // Heartbeat: tell every peer how far we got. Peers that are ahead
  // answer by replaying their recorded wire for what we are missing —
  // the resend path that recovers frames TCP connection churn lost.
  // Signed: floors steer wire-log pruning and linger termination, so
  // a forged status must not be able to poison them.
  const InstanceId my_floor = decision_floor();
  const std::int64_t now_s = unix_now();
  const Bytes sb = resync_signing_bytes(config_.me, epoch_, my_floor, now_s);
  const Bytes sig = scheme_->sign(config_.me, BytesView(sb.data(), sb.size()));
  Writer w;
  w.u8(static_cast<std::uint8_t>(MsgTag::kResyncStatus));
  w.u32(epoch_);
  w.u64(my_floor);
  w.i64(now_s);
  w.bytes(BytesView(sig.data(), sig.size()));
  const Bytes status = w.take();
  const std::vector<ReplicaId>& members = epoch_members_.at(epoch_);
  for (ReplicaId member : members) {
    if (member == config_.me) continue;
    // Only to live links: a heartbeat is only useful fresh, and
    // queueing one per tick at a dead peer grows the transport buffer
    // without bound (the peer gets a current one next tick anyway).
    if (!transport_.connected(member)) continue;
    send_counted(member, BytesView(status.data(), status.size()));
    // A member that has never reported under the current epoch may have
    // lost the announce burst (a passive standby sends nothing until it
    // activates, so there is no status to react to): keep re-announcing
    // on a cooldown until its reports carry the current epoch.
    const auto ps = peer_sync_.find(member);
    if (ps == peer_sync_.end() || ps->second.epoch < epoch_) {
      maybe_reannounce(member);
    }
  }
  // Drop wire logs every live peer is provably past. A peer that has
  // not reported within the last kPruneGraceTicks — long enough for
  // any startup connect race to heal — is written off, whether it
  // never connected or reported once and died: a silent peer must not
  // pin every instance's wire in memory for the whole run. Within the
  // grace, a not-yet-reported peer holds the floor at zero. A replica
  // returning after its write-off re-reports its true floor (floors
  // are verbatim, restarts included) and anything not yet pruned is
  // replayed; recovering already-pruned history is a state-snapshot
  // concern, not a frame-resend one.
  if (obs::log_enabled(obs::LogSubsys::kReconfig, obs::LogLevel::kDebug) &&
      resync_ticks_ % 40 == 0) {
    const InstanceId f = decision_floor();
    const auto it = engines_.find(f);
    if (it != engines_.end()) {
      for (std::uint32_t slot = 0;
           slot < it->second->slot_count(); ++slot) {
        const auto d = it->second->slot_debug(slot);
        ZLB_RTRACE(
            "[%u] k=%llu e=%u slot=%u payl=%zu ech=%zu rdy=%zu deli=%d "
            "start=%d dec=%d val=%u rnd=%u est0=%zu est1=%zu aux=%zu",
            config_.me, static_cast<unsigned long long>(f),
            it->second->epoch(), slot, d.payloads, d.echoes, d.readies,
            d.delivered ? 1 : 0, d.started ? 1 : 0, d.decided ? 1 : 0,
            d.decided_value, d.round, d.est0, d.est1, d.aux);
      }
    }
  }
  constexpr int kPruneGraceTicks = 240;  // 60 s at the default interval
  InstanceId floor = my_floor;
  bool hold = false;
  for (ReplicaId member : members) {
    if (member == config_.me) continue;
    const auto it = peer_sync_.find(member);
    const int last_tick = it == peer_sync_.end() ? 0 : it->second.report_tick;
    if (resync_ticks_ - last_tick > kPruneGraceTicks) continue;  // written off
    if (it == peer_sync_.end()) {
      hold = true;  // within grace, not yet heard from
      break;
    }
    floor = std::min(floor, it->second.floor);
  }
  if (!hold) {
    // Bound what any single peer can pin: a deceitful member endlessly
    // reporting a signed low floor would otherwise hold every honest
    // node's wire in memory for the whole run. Beyond the cap it gets
    // written-off semantics (snapshot territory) like a silent peer.
    constexpr InstanceId kMaxRetainedInstances = 1024;
    if (my_floor > kMaxRetainedInstances) {
      floor = std::max(floor, my_floor - kMaxRetainedInstances);
    }
    for (auto it = engines_.lower_bound(pruned_floor_);
         it != engines_.end() && it->first < floor; ++it) {
      it->second->clear_wire_log();
    }
    pruned_floor_ = std::max(pruned_floor_, floor);
    // Cached decision frames follow the wire logs: below the prune
    // floor a stalled peer is snapshot territory anyway.
    decision_log_.erase(decision_log_.begin(),
                        decision_log_.lower_bound(pruned_floor_));
  }
  // Distributed termination for lingering nodes without an external
  // coordinator (standalone daemons): wind down once we decided
  // everything AND every peer reported it is done too — until then a
  // straggler may still need our wire replayed.
  if (config_.linger_after_decided && all_decided()) {
    bool peers_done = true;
    for (ReplicaId member : members) {
      if (member == config_.me) continue;
      const auto it = peer_sync_.find(member);
      if (it == peer_sync_.end() || it->second.floor < config_.instances) {
        peers_done = false;
        break;
      }
    }
    if (peers_done) {
      // Not immediately: a peer that exits right after its final
      // status can have that frame torn away by the RST its close
      // raises (unread heartbeats in its receive buffer discard
      // in-flight data), and a peer that missed it would wait
      // forever. A few more ticks of rebroadcasting our floor make
      // the final exchange robust.
      constexpr int kDoneGraceTicks = 4;
      if (++done_grace_ticks_ > kDoneGraceTicks) {
        loop_.stop();
        return;
      }
    } else {
      done_grace_ticks_ = 0;
    }
  }
  loop_.schedule(config_.resync_interval, [this]() { resync_tick(); });
}

void LiveNode::handle_resync_status(ReplicaId from, std::uint32_t peer_epoch,
                                    InstanceId peer_floor) {
  // Verbatim, not a running max: a restarted daemon legitimately
  // reports a lower floor again.
  const auto last = peer_sync_.find(from);
  const bool stalled =
      last != peer_sync_.end() && last->second.floor == peer_floor;
  PeerResync& ps = peer_sync_[from];
  ps.floor = peer_floor;
  ps.epoch = peer_epoch;
  ps.report_tick = resync_ticks_;
  // A peer still living in an old epoch slept through a membership
  // change: re-announce it (cooldown-bounded) so it rejoins under the
  // current committee — without this, a veteran that missed the
  // announce burst would grind against tombstoned epochs forever.
  if (peer_epoch < epoch_) maybe_reannounce(from);
  // A peer deep below our checkpoint watermark gets the checkpoint,
  // not instance-by-instance replay: catching up one engine at a time
  // from genesis is O(chain), and the wire below the watermark may be
  // pruned anyway. "Deep" = at least one checkpoint interval behind —
  // offered on the FIRST report (a brand-new joiner must not have to
  // grind through history while we watch it "progress"). One manifest
  // per cooldown; the peer pulls chunks at its own pace.
  if (ckpt_ != nullptr) {
    const InstanceId my_floor = decision_floor();
    const std::uint64_t interval = ckpt_->config().interval;
    const std::uint64_t deep =
        std::max<std::uint64_t>(interval, config_.fetcher.min_lag);
    // Wire below pruned_floor_ is gone for good; a peer stuck inside
    // the pruned region can only be saved by state transfer. If the
    // standing checkpoint does not reach past the pruned region, cut a
    // fresh one at our floor (covers everything the peer is missing).
    const auto image = ckpt_->image();
    const bool have_image = image != nullptr;
    const InstanceId watermark = have_image ? image->upto : 0;
    const bool wire_gone = peer_floor < pruned_floor_;
    const bool deep_lag = have_image && peer_floor + deep <= watermark;
    const bool stuck_shallow =
        stalled && have_image &&
        peer_floor + config_.fetcher.min_lag <= watermark;
    const bool stuck_pruned =
        stalled && wire_gone &&
        peer_floor + config_.fetcher.min_lag <= my_floor;
    if (deep_lag || stuck_shallow || stuck_pruned) {
      constexpr int kOfferCooldownTicks = 8;
      if (resync_ticks_ - ps.offer_tick >= kOfferCooldownTicks) {
        const bool cut = stuck_pruned && watermark < pruned_floor_;
        if (cut) {
          // Capture at the COMMITTED floor, not the decided one: the
          // pipeline may still be applying decided instances, and a
          // checkpoint labeled past the applied state would ship a
          // watermark its own image does not cover. Read under the
          // ledger lock, the floor matches the state captured. Skipped
          // when not ahead of the newest queued image.
          const common::MutexLock ledger(ledger_mutex_);
          const InstanceId commit_floor =
              pipeline_ ? std::min<InstanceId>(pipeline_->committed_floor(),
                                               my_floor)
                        : my_floor;
          (void)ckpt_->capture(bm_, commit_floor,
                               epoch_of(commit_floor).value_or(epoch_));
        }
        // The offer waits until the cut is published (a later status
        // report from the same peer retries); the cooldown starts with
        // the offer.
        if (!cut || !ckpt_->pending()) {
          ps.offer_tick = resync_ticks_;
          send_manifest(from);
        }
      }
      // No return: a stalled peer still gets the (cooldown-bounded)
      // wire replay below. A peer that cannot consume manifests (no
      // fetcher on its build) must not be left with neither path.
    }
  }
  // Only a *stalled* peer (same floor twice in a row) gets a replay: a
  // progressing peer needs no help, and every duplicate costs each
  // receiver a signature verification before the engine dedups it.
  if (!stalled) return;
  // Cooldown between replays to the same peer: a peer chewing through
  // a backlog keeps reporting the same floor for a few ticks, and
  // resending the window on each heartbeat amplifies exactly the
  // verification load that is slowing it down.
  constexpr int kReplayCooldownTicks = 4;
  if (resync_ticks_ - ps.replay_tick < kReplayCooldownTicks) return;
  ps.replay_tick = resync_ticks_;
  ZLB_RTRACE("[%u] replaying window [%llu,+4) to %u (peer epoch %u)",
             config_.me, static_cast<unsigned long long>(peer_floor), from,
             peer_epoch);
  // Replay our outbound wire for the window the peer is stuck on. The
  // messages are signed and receivers dedup per signer, so resending
  // is idempotent; the window bounds the burst for deep stragglers.
  constexpr InstanceId kResyncWindow = 4;
  const InstanceId hi =
      std::min<InstanceId>(config_.instances, peer_floor + kResyncWindow);
  for (InstanceId k = peer_floor; k < hi; ++k) {
    const auto it = engines_.find(k);
    if (it == engines_.end()) continue;
    for (const Bytes& wire : it->second->wire_log()) {
      send_counted(from, BytesView(wire.data(), wire.size()));
    }
    // Forward held proposals too (signed by their proposers): after an
    // exclusion, the peer may be missing exactly the coalition's
    // payload, which no honest node's own wire log can resend.
    for (const Bytes& wire : it->second->known_proposals()) {
      send_counted(from, BytesView(wire.data(), wire.size()));
    }
    // Confirmation phase: the cached certified decision lets the peer
    // adopt every slot outcome in one hop instead of replaying the
    // whole vote exchange (it still needs the proposals above to
    // deliver value-1 payloads).
    const auto dit = decision_log_.find(k);
    if (dit != decision_log_.end()) {
      send_counted(from, BytesView(dit->second.data(), dit->second.size()));
    }
  }
  // A stalled peer may be stuck on the membership change itself, not a
  // regular instance: replay the exclusion/inclusion wire of the epoch
  // the PEER is living in (a handful of votes; same per-signer dedup
  // idempotence). A peer already past that epoch would just drop the
  // stale votes, so its epoch gates the replay.
  for (const auto& [key, engine] : member_engines_) {
    if (key.epoch != peer_epoch) continue;
    for (const Bytes& wire : engine->wire_log()) {
      send_counted(from, BytesView(wire.data(), wire.size()));
    }
    for (const Bytes& wire : engine->known_proposals()) {
      send_counted(from, BytesView(wire.data(), wire.size()));
    }
  }
}

void LiveNode::send_manifest(ReplicaId to) {
  const std::shared_ptr<const sync::CheckpointImage> img = ckpt_->image();
  if (img == nullptr) return;
  sync::SnapshotManifest m;
  m.server = config_.me;
  m.epoch = img->epoch;
  m.upto = img->upto;
  m.chunk_size = static_cast<std::uint32_t>(img->chunk_size);
  m.chunk_count = img->chunks();
  m.total_bytes = img->bytes.size();
  m.root = img->root();
  const Bytes sb = m.signing_bytes();
  m.signature = scheme_->sign(config_.me, BytesView(sb.data(), sb.size()));
  const Bytes msg = sync::encode_manifest_msg(m);
  send_counted(to, BytesView(msg.data(), msg.size()));
  manifests_sent_->inc();
}

void LiveNode::serve_chunks(ReplicaId to, const sync::ChunkRequest& req) {
  if (ckpt_ == nullptr) return;
  const std::shared_ptr<const sync::CheckpointImage> img = ckpt_->image();
  if (img == nullptr || img->upto != req.upto) return;
  // Rate limit per peer per resync tick: chunk frames are queued into
  // the (unbounded while up) link send buffer, so without a budget a
  // request loop is a free memory/bandwidth amplification against the
  // server. The honest fetcher's window fits one budget easily;
  // anything beyond re-requests on its next stall tick.
  constexpr std::uint32_t kMaxChunksPerTick = 64;
  PeerResync& ps = peer_sync_[to];
  if (ps.serve_tick != resync_ticks_) {
    ps.serve_tick = resync_ticks_;
    ps.served_in_tick = 0;
  }
  if (ps.served_in_tick >= kMaxChunksPerTick) return;
  const std::uint32_t budget = kMaxChunksPerTick - ps.served_in_tick;
  const std::uint32_t n = img->chunks();
  const std::uint32_t first = std::min(req.first, n);
  const std::uint32_t end = std::min(first + std::min(req.count, budget), n);
  ps.served_in_tick += end - first;
  for (std::uint32_t i = first; i < end; ++i) {
    sync::SnapshotChunk chunk;
    chunk.upto = img->upto;
    chunk.index = i;
    // Read from wherever the image lives (its file, with a path); a
    // failed read serves nothing, and the fetcher re-requests or
    // switches source.
    std::optional<Bytes> data = img->chunk(i);
    if (!data) return;
    chunk.data = std::move(*data);
    chunk.proof = img->tree.proof(i);
    const Bytes msg = sync::encode_chunk_msg(chunk);
    send_counted(to, BytesView(msg.data(), msg.size()));
    chunks_served_->inc();
  }
}

void LiveNode::settle_below(InstanceId upto) {
  // The watermark ultimately comes off the wire (a snapshot image); an
  // absurd value must neither spin this loop nor fabricate decisions.
  upto = std::min(upto, config_.instances);
  std::uint64_t newly = 0;
  for (InstanceId k = settled_floor_; k < upto; ++k) {
    const auto it = engines_.find(k);
    if (it != engines_.end()) {
      // Live-decided instances were already counted by on_decided.
      if (!it->second->has_decided()) {
        ++newly;
        // Our drained batch never decided here; if the settled history
        // did not commit it either, it must go back into the queue.
        requeue_proposed(k);
        tracer_->abandon(it->second->epoch(), k);
      }
      engines_.erase(it);
    } else {
      ++newly;
    }
  }
  settled_floor_ = std::max(settled_floor_, upto);
  decided_ceiling_ = std::max(decided_ceiling_, settled_floor_);
  current_ = std::max(current_, settled_floor_);
  pruned_floor_ = std::max(pruned_floor_, settled_floor_);
  decided_count_.fetch_add(newly);
}

void LiveNode::install_snapshot_bytes(const Bytes& bytes) {
  const BytesView image(bytes.data(), bytes.size());
  InstanceId upto = 0;
  try {
    upto = sync::snapshot_watermark(image);
  } catch (const DecodeError&) {
    snapshots_rejected_->inc();
    return;
  }
  // Only worth installing if it moves our *contiguous* floor forward:
  // restoring an image older than what we already executed would
  // rewind the ledger past live-committed blocks. The header says so
  // before anything is decoded.
  if (upto <= decision_floor()) return;
  // Quiesce the commit pipeline before the restore replaces the state
  // it applies onto: after drain() the committer is parked waiting for
  // the (gapped) next instance, and nothing new can be submitted —
  // submissions happen on this loop thread. NOTE: no lock is held here;
  // drain() under decisions_mutex_ would deadlock against the flush
  // hook.
  if (pipeline_ != nullptr) pipeline_->drain();
  try {
    const common::MutexLock ledger(ledger_mutex_);
    (void)bm_.restore(image);
  } catch (const DecodeError&) {
    // The chunks verified against the signed root, so the *servers*
    // committed to garbage — the ledger is as it was; drop the image
    // and wait for another manifest.
    snapshots_rejected_->inc();
    return;
  }
  snapshots_installed_->inc();
  installed_upto_->set(static_cast<std::int64_t>(upto));
  // Adopt the image as our own checkpoint: the disk (when journaled)
  // must represent the installed state across a restart, and we can
  // serve the same transfer to the next joiner.
  if (ckpt_ != nullptr) {
    (void)ckpt_->adopt(upto, bytes, epoch_of(upto).value_or(epoch_));
  }
  ZLB_RTRACE("[%u] snapshot installed upto=%llu", config_.me,
             static_cast<unsigned long long>(upto));
  settle_below(upto);
  // Everything the pipeline already committed is below the watermark
  // (covered by the installed image); decided-but-uncommitted instances
  // beyond it are still parked inside the pipeline and apply later on
  // top of the restored state. Settling the pipeline drops the covered
  // history and re-anchors its commit cursor at the watermark.
  if (pipeline_ != nullptr) pipeline_->settle_to(upto);
  // Participate from the watermark on: the tail either decides with us
  // or arrives by wire replay once our (now much higher) floor stalls.
  if (!all_decided() && current_ < config_.instances) pace();
}

void LiveNode::on_frame(ReplicaId from, BytesView data) {
  if (data.empty()) return;
  if (!draining_stash_) {  // stash replays were counted at arrival
    const std::size_t kind = data[0] < kMsgKinds ? data[0] : 0;
    rx_frames_[kind]->inc();
    rx_bytes_[kind]->inc(data.size());
  }
  try {
    Reader r(data.subspan(1));
    switch (static_cast<MsgTag>(data[0])) {
      case MsgTag::kVote: {
        const SignedVote vote = SignedVote::decode(r);
        const Bytes sb = vote.body.signing_bytes();
        if (!scheme_->verify(vote.signer, BytesView(sb.data(), sb.size()),
                             BytesView(vote.signature.data(),
                                       vote.signature.size()))) {
          return;
        }
        Engine* engine = route_engine(from, vote.body.key, data);
        if (engine != nullptr) engine->handle_vote(vote);
        break;
      }
      case MsgTag::kProposal: {
        const ProposalMsg msg = ProposalMsg::decode(r);
        const Bytes sb = msg.vote.body.signing_bytes();
        if (!scheme_->verify(msg.vote.signer, BytesView(sb.data(), sb.size()),
                             BytesView(msg.vote.signature.data(),
                                       msg.vote.signature.size()))) {
          return;
        }
        Engine* engine = route_engine(from, msg.vote.body.key, data);
        if (engine != nullptr) engine->handle_proposal(msg);
        break;
      }
      case MsgTag::kPofGossip: {
        const Bytes body = r.raw(r.remaining());
        handle_pof_gossip(BytesView(body.data(), body.size()));
        break;
      }
      case MsgTag::kEpochAnnounce: {
        const auto msg = EpochAnnounceMsg::decode(r);
        if (!r.done()) break;
        handle_epoch_announce(from, msg);
        break;
      }
      case MsgTag::kResyncStatus: {
        const std::uint32_t peer_epoch = r.u32();
        const InstanceId peer_floor = r.u64();
        const std::int64_t ts = r.i64();
        const Bytes sig = r.bytes();
        if (!r.done()) break;
        // ts is off the wire and not yet authenticated: compare it
        // against the window instead of subtracting (now - ts overflows
        // for ts near INT64_MIN).
        const std::int64_t now_s = unix_now();
        if (ts < now_s - kResyncFreshness || ts > now_s + kResyncFreshness) {
          break;
        }
        const Bytes sb =
            resync_signing_bytes(from, peer_epoch, peer_floor, ts);
        if (!scheme_->verify(from, BytesView(sb.data(), sb.size()),
                             BytesView(sig.data(), sig.size()))) {
          break;
        }
        handle_resync_status(from, peer_epoch, peer_floor);
        break;
      }
      case MsgTag::kSnapshotManifest: {
        if (fetcher_ == nullptr) break;
        const auto m = sync::SnapshotManifest::decode(r);
        if (!r.done() || m.server != from) break;
        const Bytes sb = m.signing_bytes();
        if (!scheme_->verify(from, BytesView(sb.data(), sb.size()),
                             BytesView(m.signature.data(),
                                       m.signature.size()))) {
          break;
        }
        // Epoch gate: state below our join boundary is useless (a
        // standby cannot replay an old-epoch tail), and a watermark
        // whose claimed epoch contradicts our boundary map is either a
        // relabelling attack or a server on a fork.
        const auto eo = epoch_of(m.upto);
        if (m.upto < join_floor_ || (eo && *eo != m.epoch)) {
          manifests_rejected_->inc();
          break;
        }
        const common::MutexLock lock(decisions_mutex_);
        (void)fetcher_->consider(from, m, decision_floor());
        break;
      }
      case MsgTag::kSnapshotChunkReq: {
        const auto req = sync::ChunkRequest::decode(r);
        if (!r.done()) break;
        serve_chunks(from, req);
        break;
      }
      case MsgTag::kSnapshotChunk: {
        if (fetcher_ == nullptr) break;
        const auto chunk = sync::SnapshotChunk::decode(r);
        if (!r.done()) break;
        std::optional<Bytes> image;
        {
          const common::MutexLock lock(decisions_mutex_);
          image = fetcher_->on_chunk(from, chunk);
        }
        if (image.has_value()) install_snapshot_bytes(*image);
        break;
      }
      case MsgTag::kDecision: {
        const auto msg = consensus::DecisionMsg::decode(r);
        if (!r.done()) break;
        const Bytes sb = msg.summary_bytes();
        if (!scheme_->verify(msg.sender, BytesView(sb.data(), sb.size()),
                             BytesView(msg.signature.data(),
                                       msg.signature.size()))) {
          break;
        }
        handle_decision_msg(from, msg);
        break;
      }
      default:
        break;  // recovery traffic is simulator-only
    }
  } catch (const DecodeError&) {
    // Malformed frame from `from`: ignored (a live deployment would
    // also score the peer).
    (void)from;
  }
  // PoFs harvested anywhere above (engine observation, gossip,
  // exclusion-proposal validation) take effect once the frame is fully
  // handled: gossip fresh ones, shrink C′, trigger the change at fd.
  note_new_pofs();
}

void LiveNode::run(Duration deadline) {
  run_start_ = Clock::now();
  bool need_recovery = false;
  {
    // bm_ is mutex-guarded; even though no other thread can be touching
    // it this early, the pre-recovery probe takes the lock like every
    // other bm_ access so the guard holds uniformly.
    const common::MutexLock ledger(ledger_mutex_);
    need_recovery = config_.real_blocks && !bm_.journaling();
  }
  if (need_recovery) {
    // Recovery order (after the caller had its chance to mint the
    // genesis): newest durable checkpoint first, then the journal —
    // which after compaction only holds the post-checkpoint tail, so
    // restart cost is O(checkpoint interval), not O(chain). Epoch
    // records in the journal rebuild the membership history, so the
    // node rejoins under the committee it last decided with.
    std::optional<InstanceId> restored_upto;
    {
      // Both domains: restore/open_journal mutate the ledger, while the
      // epoch-record replay rebuilds decisions-domain membership state.
      const common::MutexLock lock(decisions_mutex_);
      const common::MutexLock ledger(ledger_mutex_);
      if (ckpt_ != nullptr) restored_upto = ckpt_->restore_disk(bm_);
      if (!config_.journal_path.empty()) {
        (void)bm_.open_journal(
            config_.journal_path, [this](const chain::EpochRecord& rec) {
              // Replay runs synchronously inside the locked scope
              // above; the analysis cannot see a capture-crossing lock,
              // so re-assert it for recover_epoch_record's REQUIRES.
              decisions_mutex_.assert_held();
              recover_epoch_record(rec);
            });
      }
    }
    if (restored_upto) {
      settle_below(*restored_upto);
      // The restored image covers everything below the watermark; the
      // pipeline must not re-apply it.
      if (pipeline_ != nullptr) pipeline_->settle_to(*restored_upto);
    }
    if (epoch_ > 0) retarget_transport();
  }
  transport_.start();
  pace();  // paced: opens the cursor instance only
  if (config_.resync_interval > Duration::zero()) {
    loop_.schedule(config_.resync_interval, [this]() { resync_tick(); });
  }
  if (config_.inject_drop_after > Duration::zero()) {
    loop_.schedule(config_.inject_drop_after, [this]() {
      transport_.sever_all_links(/*discard_queued=*/true);
    });
  }
  loop_.run_until(Clock::now() + deadline);
  if (pipeline_ != nullptr) {
    // Flush the in-flight tail before callers read the ledger: every
    // decision submitted by the loop is applied and journal-synced when
    // run() returns. Parked out-of-order decisions beyond a gap stay
    // parked — committing them would break canonical order.
    pipeline_->drain();
  }
  // Likewise every captured checkpoint is durable and published.
  if (ckpt_ != nullptr) ckpt_->drain();
}

std::vector<LiveDecision> LiveNode::decisions() const {
  const common::MutexLock lock(decisions_mutex_);
  return decisions_;
}

crypto::Hash32 LiveNode::state_digest() const {
  const common::MutexLock ledger(ledger_mutex_);
  return bm_.state_digest();
}

LiveCluster::LiveCluster(std::size_t n, LiveNodeConfig base) {
  // A node that decided everything must keep serving resync: a peer
  // may still be waiting on a replay of this node's frames. run()
  // stops the whole cluster once every node decided.
  base.linger_after_decided = true;
  base.committee.clear();
  for (std::size_t i = 0; i < n; ++i) {
    base.committee.push_back(static_cast<ReplicaId>(i));
  }
  std::map<ReplicaId, std::uint16_t> ports;
  for (std::size_t i = 0; i < n; ++i) {
    LiveNodeConfig cfg = base;
    cfg.me = static_cast<ReplicaId>(i);
    cfg.listen_port = 0;
    nodes_.push_back(std::make_unique<LiveNode>(cfg));
    ports[cfg.me] = nodes_.back()->port();
  }
  for (auto& node : nodes_) node->set_peer_ports(ports);
}

bool LiveCluster::run(Duration deadline) {
  std::atomic<std::size_t> finished{0};
  std::vector<std::thread> threads;
  threads.reserve(nodes_.size());
  for (auto& node : nodes_) {
    threads.emplace_back([&node, &finished, deadline]() {
      node->run(deadline);
      finished.fetch_add(1);
    });
  }
  // Nodes linger after deciding; release the cluster as soon as every
  // node decided everything, every node wound down on its own (e.g.
  // the caller stopped them early), or the deadline hit.
  const TimePoint give_up = Clock::now() + deadline;
  for (;;) {
    if (finished.load() == nodes_.size()) break;
    bool all = true;
    for (const auto& node : nodes_) all = all && node->all_decided();
    if (all || Clock::now() >= give_up) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (auto& node : nodes_) node->stop();
  for (auto& t : threads) t.join();
  for (const auto& node : nodes_) {
    if (!node->all_decided()) return false;
  }
  return true;
}

}  // namespace zlb::net
