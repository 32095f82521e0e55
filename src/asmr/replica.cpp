#include "asmr/replica.hpp"

#include <cmath>

namespace zlb::asmr {

using consensus::DecisionMsg;
using consensus::EvidenceMsg;
using consensus::InstanceKey;
using consensus::InstanceKind;
using consensus::MsgTag;
using consensus::ProofOfFraud;
using consensus::ProposalMsg;
using consensus::SignedVote;

namespace {
constexpr std::size_t kPendingBufferCap = 200000;
}

Replica::Replica(sim::Simulator& sim, sim::Network& net,
                 crypto::SignatureScheme& scheme, ReplicaId id,
                 std::vector<ReplicaId> committee, std::vector<ReplicaId> pool,
                 ReplicaConfig config)
    : sim_(sim),
      net_(net),
      scheme_(scheme),
      me_(id),
      config_(config),
      committee_(std::move(committee)),
      pool_(std::move(pool)),
      mempool_(config.mempool_capacity) {
  epoch_members_ = committee_.members();
  if (!config_.synthetic && config_.checkpoint_interval > 0) {
    // Memory-only (no disk I/O inside the deterministic simulator).
    sync::CheckpointConfig ckpt;
    ckpt.interval = config_.checkpoint_interval;
    checkpoints_ = std::make_unique<sync::CheckpointManager>(ckpt);
  }
  net_.attach(me_, *this);
}

void Replica::start() {
  active_ = true;
  start_instance(0);
}

void Replica::start_standby() {
  active_ = false;
}

void Replica::submit(const chain::Transaction& tx) {
  mempool_.add(tx);
}

const DecisionRecord* Replica::decision(std::uint32_t epoch,
                                        InstanceId index) const {
  const Key key{epoch, InstanceKind::kRegular, index};
  const auto it = records_.find(key);
  return it == records_.end() ? nullptr : &it->second;
}

std::size_t Replica::confirm_threshold() const {
  const double n = static_cast<double>(epoch_members_.size());
  const auto th = static_cast<std::size_t>(
      std::floor((config_.assumed_delta + 1.0 / 3.0) * n) + 1);
  return std::min(th, epoch_members_.size());
}

std::uint32_t Replica::tx_verify_units(std::uint32_t tx_count) const {
  const std::size_t n = std::max<std::size_t>(committee_.size(), 1);
  std::size_t share =
      config_.tx_verify_quorums * committee_.max_faulty() + 1;
  share = std::min(share, n);
  return 1 + static_cast<std::uint32_t>(
                 (static_cast<std::uint64_t>(tx_count) * share + n - 1) / n);
}

std::uint64_t Replica::decision_cert_wire() const {
  if (!config_.accountable) return 0;
  return static_cast<std::uint64_t>(epoch_members_.size()) *
         committee_.quorum() * config_.cert_vote_bytes;
}

void Replica::broadcast_to_members(const std::vector<ReplicaId>& dests,
                                   const Bytes& data, std::uint32_t units,
                                   std::uint64_t extra) {
  net_.broadcast(me_, dests, data, units, extra);
}

Replica::Engine* Replica::find_engine(const Key& key) {
  const auto it = engines_.find(key);
  return it == engines_.end() ? nullptr : it->second.get();
}

Replica::Engine* Replica::get_or_create_engine(const Key& key) {
  if (Engine* existing = find_engine(key)) return existing;
  if (!active_) return nullptr;
  if (key.epoch != epoch_) return nullptr;
  // Never resurrect a pruned instance: a fresh engine would have
  // forgotten what we already signed there and could honestly
  // equivocate, turning us into a provable "fraudster".
  if (tombstones_.count(key) != 0) return nullptr;

  std::vector<ReplicaId> slot_members;
  const consensus::Committee* live = nullptr;
  switch (key.kind) {
    case InstanceKind::kRegular:
      if (key.index >= config_.max_instances) return nullptr;
      slot_members = epoch_members_;
      break;
    case InstanceKind::kExclusion: {
      if (!config_.accountable || !config_.recovery) return nullptr;
      if (key.index != 0) return nullptr;
      // Alg. 1 lines 17-18: a replica only joins the exclusion consensus
      // once it holds fd PoFs itself (messages arriving earlier are
      // buffered; their PoFs are harvested in dispatch()). The sole
      // entry point is maybe_start_membership().
      if (!membership_running_) return nullptr;
      slot_members = epoch_members_;
      live = &exclusion_live_;
      break;
    }
    case InstanceKind::kInclusion:
      if (!config_.accountable || !config_.recovery) return nullptr;
      if (key.index != 0) return nullptr;
      // Only joinable once our own exclusion consensus finished (the
      // slot map is the post-exclusion committee).
      if (cons_exclude_.empty()) return nullptr;
      slot_members = committee_.members();
      break;
  }

  Engine::Config ec;
  ec.epoch = key.epoch;
  ec.accountable = config_.accountable;
  ec.cert_vote_bytes = config_.cert_vote_bytes;
  ec.cert_on_all_votes = config_.cert_on_all_votes;
  ec.cert_unit_divisor = config_.cert_unit_divisor;
  ec.max_rounds = config_.max_rounds;
  ec.mc_quorum_delta = config_.mc_quorum_delta;

  Engine::Hooks hooks;
  hooks.broadcast = [this, dests = slot_members](Bytes data,
                                                 std::uint32_t units,
                                                 std::uint64_t extra) {
    broadcast_to_members(dests, data, units, extra);
  };
  hooks.decided = [this, key]() { on_engine_decided(key); };
  if (config_.accountable && config_.log_slot_cap > 0) {
    hooks.observe = [this](const SignedVote& v) { observe_vote(v); };
  }
  switch (key.kind) {
    case InstanceKind::kRegular:
      // Observability only: first RBC slot delivery closes the
      // propose->deliver phase of the decide-latency breakdown.
      hooks.slot_delivered = [this, key](std::uint32_t) {
        PhaseTimes& pt = phase_times_[key];
        if (pt.deliver_time < 0) pt.deliver_time = sim_.now();
      };
      hooks.validate = [this](BytesView payload) {
        try {
          const BatchPayload p = BatchPayload::decode(payload);
          if (!p.synthetic) {
            Reader r(BytesView(p.block_bytes.data(), p.block_bytes.size()));
            (void)chain::Block::deserialize(r);
          }
          return true;
        } catch (const DecodeError&) {
          return false;
        }
      };
      break;
    case InstanceKind::kExclusion:
      hooks.validate = [this](BytesView payload) {
        try {
          const auto pofs = consensus::decode_pofs(payload);
          if (pofs.empty()) return false;
          for (const auto& pof : pofs) {
            if (!consensus::verify_pof(pof, scheme_)) return false;
            if (committee_.slot_of(pof.culprit()) < 0 &&
                std::find(epoch_members_.begin(), epoch_members_.end(),
                          pof.culprit()) == epoch_members_.end()) {
              return false;
            }
          }
          // Valid PoFs are proof in themselves: adopt them (Alg. 1
          // lines 13-16), deferred to the end of message handling.
          pending_pofs_.insert(pending_pofs_.end(), pofs.begin(), pofs.end());
          return true;
        } catch (const DecodeError&) {
          return false;
        }
      };
      break;
    case InstanceKind::kInclusion:
      hooks.validate = [this](BytesView payload) {
        try {
          const auto ids = decode_replica_ids(payload);
          if (ids.empty()) return false;
          for (ReplicaId id : ids) {
            if (std::find(pool_.begin(), pool_.end(), id) == pool_.end()) {
              return false;
            }
            if (committee_.contains(id)) return false;
          }
          return true;
        } catch (const DecodeError&) {
          return false;
        }
      };
      break;
  }

  auto engine = std::make_unique<Engine>(key, slot_members, live, me_,
                                         scheme_, ec, std::move(hooks));
  Engine* raw = engine.get();
  engines_.emplace(key, std::move(engine));
  wire_and_propose(key, *raw);
  return raw;
}

void Replica::wire_and_propose(const Key& key, Engine& engine) {
  switch (key.kind) {
    case InstanceKind::kRegular: {
      phase_times_[key].propose_time = sim_.now();
      BatchPayload p;
      p.proposer = me_;
      p.index = key.index;
      if (config_.synthetic) {
        p.synthetic = true;
        p.tx_count = config_.batch_tx_count;
        const std::uint64_t extra =
            static_cast<std::uint64_t>(p.tx_count) * config_.avg_tx_bytes;
        engine.propose(p.encode(), extra, p.tx_count,
                       tx_verify_units(p.tx_count));
      } else {
        p.synthetic = false;
        chain::Block block;
        block.index = key.index;
        const int slot = committee_.slot_of(me_);
        block.slot = slot < 0 ? 0 : static_cast<std::uint32_t>(slot);
        block.proposer = me_;
        block.txs = mempool_.take_batch(config_.batch_tx_count);
        p.tx_count = static_cast<std::uint32_t>(block.txs.size());
        p.block_bytes = block.serialize();
        engine.propose(p.encode(), 0, p.tx_count,
                       tx_verify_units(p.tx_count));
      }
      break;
    }
    case InstanceKind::kExclusion: {
      const auto pofs = pofs_.pofs();
      engine.propose(consensus::encode_pofs(pofs), 0, 0,
                     1 + 2 * static_cast<std::uint32_t>(pofs.size()));
      break;
    }
    case InstanceKind::kInclusion: {
      // pool.take(|cons-exclude|), offset by our slot so proposals
      // differ across replicas and choose() can spread the inclusions
      // evenly over all decided proposals.
      std::vector<ReplicaId> candidates;
      for (ReplicaId id : pool_) {
        if (!committee_.contains(id) &&
            std::find(excluded_ids_.begin(), excluded_ids_.end(), id) ==
                excluded_ids_.end()) {
          candidates.push_back(id);
        }
      }
      std::vector<ReplicaId> prop;
      if (!candidates.empty()) {
        const int my_slot = std::max(0, committee_.slot_of(me_));
        const std::size_t want =
            std::min(cons_exclude_.size(), candidates.size());
        const std::size_t start =
            (static_cast<std::size_t>(my_slot) * want) % candidates.size();
        for (std::size_t i = 0; i < want; ++i) {
          prop.push_back(candidates[(start + i) % candidates.size()]);
        }
      }
      engine.propose(encode_replica_ids(prop), 0, 0, 1);
      break;
    }
  }
}

void Replica::start_instance(InstanceId k) {
  if (!active_ || membership_running_) return;
  if (k >= config_.max_instances) {
    instance_running_ = false;
    return;
  }
  next_index_ = k;
  instance_running_ = true;
  // Prune engines older than the previous instance (memory bound; late
  // peers adopt decisions via the confirmation phase instead).
  for (auto it = engines_.begin(); it != engines_.end();) {
    if (it->first.kind == InstanceKind::kRegular &&
        it->first.index + 1 < k) {
      tombstones_.insert(it->first);
      it = engines_.erase(it);
    } else {
      ++it;
    }
  }
  get_or_create_engine(Key{epoch_, InstanceKind::kRegular, k});
}

void Replica::on_engine_decided(Key key) {
  Engine* engine = find_engine(key);
  if (engine == nullptr) return;
  switch (key.kind) {
    case InstanceKind::kRegular:
      on_regular_decided(key, *engine);
      break;
    case InstanceKind::kExclusion:
      on_exclusion_decided(key, *engine);
      break;
    case InstanceKind::kInclusion:
      on_inclusion_decided(key, *engine);
      break;
  }
}

void Replica::on_regular_decided(const Key& key, Engine& engine) {
  DecisionRecord& rec = records_[key];
  if (rec.decided) return;
  rec.decided = true;
  rec.decide_time = sim_.now();
  rec.bitmask = engine.bitmask();
  for (const auto& entry : engine.outcome()) {
    rec.one_slots.push_back(entry.slot);
    rec.digests.push_back(entry.digest);
    rec.tx_count += entry.tx_count;
  }
  metrics_.txs_decided += rec.tx_count;
  metrics_.instances_decided += 1;
  if (metrics_.first_decide_time < 0) metrics_.first_decide_time = sim_.now();
  metrics_.last_decide_time = sim_.now();

  commit_outcome(key, engine);

  // Checkpoint trigger on decide (functional mode): snapshot at the
  // contiguous COMMIT floor, never at an out-of-order decision ahead
  // of a gap — the image must cover exactly the blocks applied to bm_.
  if (checkpoints_ != nullptr) {
    (void)checkpoints_->on_decided(bm_, commit_floor_);
  }

  if (config_.confirmation && config_.accountable) {
    DecisionMsg msg;
    msg.sender = me_;
    msg.key = key;
    msg.bitmask = rec.bitmask;
    msg.digests = rec.digests;
    const Bytes summary = msg.summary_bytes();
    msg.signature = scheme_.sign(me_, BytesView(summary.data(),
                                                summary.size()));
    broadcast_to_members(epoch_members_, encode_decision_msg(msg), 1,
                         decision_cert_wire());
    rec.confirmations.insert(me_);
  }

  // Compare against decisions received before we decided.
  const auto oit = others_.find(key);
  if (oit != others_.end()) {
    const auto stashed = oit->second;
    others_.erase(oit);
    for (const auto& d : stashed) handle_decision_msg(d);
  }

  // ① may start Γ_{k+1} while ② runs concurrently.
  const InstanceId next = key.index + 1;
  sim_.schedule(0, [this, next]() { start_instance(next); });
}

void Replica::commit_outcome(const Key& key, Engine& engine) {
  if (config_.synthetic) return;
  std::vector<chain::Block> blocks;
  for (const auto& entry : engine.outcome()) {
    try {
      const BatchPayload p = BatchPayload::decode(
          BytesView(entry.payload.data(), entry.payload.size()));
      if (p.synthetic) continue;
      Reader r(BytesView(p.block_bytes.data(), p.block_bytes.size()));
      chain::Block block = chain::Block::deserialize(r);
      block.index = key.index;
      blocks.push_back(std::move(block));
    } catch (const DecodeError&) {
      continue;
    }
  }
  // Strict in-order apply: a decision ahead of the contiguous floor
  // parks until the gap below it decides, so the applied block sequence
  // is canonical on every replica (intra-block spend chains included).
  if (key.index != commit_floor_) {
    if (key.index > commit_floor_) {
      parked_commits_[key.index] = std::move(blocks);
    }
    return;
  }
  for (const chain::Block& block : blocks) {
    bm_.commit_block(block, /*verify_sigs=*/false);
  }
  commit_floor_ = key.index + 1;
  for (auto it = parked_commits_.begin();
       it != parked_commits_.end() && it->first == commit_floor_;) {
    for (const chain::Block& block : it->second) {
      bm_.commit_block(block, /*verify_sigs=*/false);
    }
    commit_floor_ = it->first + 1;
    it = parked_commits_.erase(it);
  }
}

void Replica::on_exclusion_decided(const Key& /*key*/, Engine& engine) {
  if (!cons_exclude_.empty()) return;  // already handled
  std::set<ReplicaId> culprits;
  for (const auto& entry : engine.outcome()) {
    try {
      const auto pofs = consensus::decode_pofs(
          BytesView(entry.payload.data(), entry.payload.size()));
      for (const auto& pof : pofs) {
        pofs_.add_pof(pof);
        culprits.insert(pof.culprit());
      }
    } catch (const DecodeError&) {
      continue;
    }
  }
  for (ReplicaId id : epoch_members_) {
    if (culprits.count(id) != 0) cons_exclude_.push_back(id);
  }
  metrics_.exclude_time = sim_.now();
  metrics_.excluded_count = static_cast<std::uint32_t>(cons_exclude_.size());
  // Alg. 1 line 40: C <- C \ cons-exclude (before the inclusion).
  committee_.remove(cons_exclude_);
  // Alg. 1 lines 41-42: inclusion consensus on pool candidates.
  get_or_create_engine(Key{epoch_, InstanceKind::kInclusion, 0});
  replay_pending();
}

void Replica::on_inclusion_decided(const Key& /*key*/, Engine& engine) {
  std::vector<std::vector<ReplicaId>> proposals;
  for (const auto& entry : engine.outcome()) {
    try {
      proposals.push_back(decode_replica_ids(
          BytesView(entry.payload.data(), entry.payload.size())));
    } catch (const DecodeError&) {
      continue;
    }
  }
  std::unordered_set<ReplicaId> banned(epoch_members_.begin(),
                                       epoch_members_.end());
  banned.insert(excluded_ids_.begin(), excluded_ids_.end());
  const auto chosen =
      choose_inclusion(cons_exclude_.size(), proposals, banned);

  committee_.add(chosen);
  excluded_ids_.insert(excluded_ids_.end(), cons_exclude_.begin(),
                       cons_exclude_.end());
  epoch_ += 1;
  epoch_members_ = committee_.members();
  metrics_.include_time = sim_.now();
  metrics_.included_count = static_cast<std::uint32_t>(chosen.size());
  membership_running_ = false;
  cons_exclude_.clear();

  // Alg. 1 lines 45-47: connect and catch the new replicas up.
  for (ReplicaId id : chosen) send_catchup(id);

  // Alg. 1 line 49: restart the stopped instance under the new epoch.
  const InstanceId resume = next_index_;
  sim_.schedule(0, [this, resume]() { start_instance(resume); });
  replay_pending();
}

void Replica::send_catchup(ReplicaId to) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(MsgTag::kCatchupResp));
  w.u32(epoch_);
  w.varint(epoch_members_.size());
  for (ReplicaId id : epoch_members_) w.u32(id);
  w.u64(next_index_);
  w.u32(config_.catchup_blocks);
  // Functional mode: ship a real state snapshot at our decided floor,
  // so the new replica starts from the actual ledger instead of an
  // empty one. The standing checkpoint is reused only when it sits
  // EXACTLY at the floor — a stale one would leave a gap the Alg. 1
  // catch-up has no tail-replay step to close (unlike the live-TCP
  // path, where wire replay covers the tail); otherwise cut fresh.
  // Synthetic mode ships no state — the download stays modelled.
  if (!config_.synthetic) {
    const sync::CheckpointImage* ckpt =
        checkpoints_ != nullptr ? checkpoints_->latest() : nullptr;
    std::optional<Bytes> snap_bytes;
    if (ckpt != nullptr && ckpt->upto == next_index_) {
      snap_bytes = ckpt->bytes.load();  // nullopt if its file fails a read
    }
    if (!snap_bytes) snap_bytes = bm_.snapshot(next_index_).encode();
    w.bytes(BytesView(snap_bytes->data(), snap_bytes->size()));
  }
  // Modelled download: blocks plus their certificates; verification is
  // quorum signatures per block (this is what makes catch-up grow
  // linearly with n, Fig. 5 right).
  const std::uint64_t block_wire =
      static_cast<std::uint64_t>(config_.batch_tx_count) *
          config_.avg_tx_bytes +
      static_cast<std::uint64_t>(committee_.quorum()) *
          config_.cert_vote_bytes;
  const std::uint64_t extra = config_.catchup_blocks * block_wire;
  const std::uint32_t units =
      config_.catchup_blocks * static_cast<std::uint32_t>(committee_.quorum());
  net_.send(me_, to, w.take(), units, extra);
}

void Replica::handle_catchup(ReplicaId from, Reader& r) {
  const std::uint32_t epoch = r.u32();
  const std::uint64_t nm = r.length_prefix(sizeof(ReplicaId), 65536);
  std::vector<ReplicaId> members;
  members.reserve(nm);
  for (std::uint64_t i = 0; i < nm; ++i) members.push_back(r.u32());
  const InstanceId next_index = r.u64();
  (void)r.u32();  // chain height (modelled)
  Bytes snap_bytes;
  if (!r.done()) snap_bytes = r.bytes();  // functional-mode state snapshot

  if (active_) return;  // only standby replicas consume catch-ups
  // Hash (epoch, committee); activate after t+1 matching copies. The
  // chain position is advisory (veterans from different partitions may
  // have stopped at different indices) — adopt the highest seen.
  Writer w;
  w.u32(epoch);
  for (ReplicaId id : members) w.u32(id);
  const crypto::Hash32 digest =
      crypto::sha256(BytesView(w.data().data(), w.data().size()));
  // Keep the freshest decodable snapshot offered for this membership;
  // veterans at different chain positions legitimately ship different
  // watermarks, the deepest one minimizes the tail we must replay.
  // The chain-position vote is coupled to the state that backs it: in
  // functional mode a sender's index only counts as far as its own
  // snapshot reaches (Alg. 1 catch-up has no tail replay, so adopting
  // an index beyond any installed state would leave a silent gap — a
  // deceitful veteran could mint one with garbage snapshot bytes and
  // an inflated index).
  if (!snap_bytes.empty()) {
    try {
      const sync::Snapshot snap =
          sync::Snapshot::decode(BytesView(snap_bytes.data(),
                                           snap_bytes.size()));
      catchup_index_[digest] = std::max(catchup_index_[digest],
                                        std::min(next_index, snap.upto));
      const auto cur = catchup_snapshot_.find(digest);
      if (cur == catchup_snapshot_.end() || snap.upto > cur->second.first) {
        catchup_snapshot_[digest] = {snap.upto, std::move(snap_bytes)};
      }
    } catch (const DecodeError&) {
      // Undecodable snapshot from a (possibly deceitful) veteran:
      // ignore both the state and the index, keep the membership vote.
    }
  } else {
    // Synthetic mode: the position is advisory (downloads are
    // modelled), adopt the highest seen as before.
    catchup_index_[digest] = std::max(catchup_index_[digest], next_index);
  }
  auto& voters = catchup_votes_[digest];
  voters.insert(from);
  const std::size_t t_plus_1 = (members.size() - 1) / 3 + 1;
  if (voters.size() < t_plus_1) return;

  committee_.reset(members);
  epoch_ = epoch;
  epoch_members_ = committee_.members();
  next_index_ = catchup_index_[digest];
  const auto snap_it = catchup_snapshot_.find(digest);
  if (snap_it != catchup_snapshot_.end()) {
    // Decoded once already, when it was offered: it cannot throw here.
    const Bytes& bytes = snap_it->second.second;
    const InstanceId upto = bm_.restore(BytesView(bytes.data(), bytes.size()));
    metrics_.snapshot_installed = true;
    metrics_.snapshot_upto = upto;
    // The image covers every block below its watermark: decisions
    // parked below it must not re-apply onto the restored state, and
    // the commit floor re-anchors at the watermark.
    if (commit_floor_ < upto) commit_floor_ = upto;
    parked_commits_.erase(parked_commits_.begin(),
                          parked_commits_.lower_bound(commit_floor_));
  }
  active_ = true;
  metrics_.activation_time = sim_.now();
  replay_pending();
}

void Replica::observe_vote(const SignedVote& vote) {
  if (vote.body.slot >= config_.log_slot_cap) return;
  auto pof = pofs_.observe(vote);
  if (pof.has_value()) pending_pofs_.push_back(*pof);
}

void Replica::note_new_pofs() {
  if (pending_pofs_.empty()) return;
  std::vector<ProofOfFraud> fresh;
  for (auto& pof : pending_pofs_) {
    if (pofs_.add_pof(pof)) fresh.push_back(pof);
    // (observe() already registered locally detected ones; add_pof is
    // idempotent and returns false for known culprits.)
  }
  // Locally detected PoFs were registered by observe(); pick up any
  // culprit count change either way.
  pending_pofs_.clear();
  metrics_.pof_count = pofs_.culprit_count();
  if (!config_.accountable) return;

  if (!fresh.empty() && config_.recovery) {
    // Alg. 1 line 26: rebroadcast the new PoFs.
    Writer w;
    w.u8(static_cast<std::uint8_t>(MsgTag::kPofGossip));
    w.raw(consensus::encode_pofs(fresh));
    broadcast_to_members(epoch_members_, w.take(),
                         1 + 2 * static_cast<std::uint32_t>(fresh.size()), 0);
  }

  if (membership_running_) {
    // Alg. 1 lines 23-27: shrink C' and re-check thresholds at runtime.
    std::vector<ReplicaId> to_remove;
    for (ReplicaId m : exclusion_live_.members()) {
      if (pofs_.is_culprit(m)) to_remove.push_back(m);
    }
    if (!to_remove.empty()) {
      exclusion_live_.remove(to_remove);
      if (Engine* ex = find_engine(Key{epoch_, InstanceKind::kExclusion, 0})) {
        ex->recheck();
      }
    }
  }
  maybe_start_membership();
}

void Replica::maybe_start_membership() {
  if (!config_.accountable || !active_) return;
  // Count proven culprits still in the committee.
  std::size_t in_committee = 0;
  for (ReplicaId id : pofs_.culprits()) {
    if (committee_.contains(id)) ++in_committee;
  }
  const std::size_t fd = committee_.fd();
  if (in_committee < fd) return;
  if (metrics_.detect_time < 0) metrics_.detect_time = sim_.now();
  if (!config_.recovery || membership_running_) return;

  membership_running_ = true;
  // Alg. 1 line 19: stop the pending ASMR consensus. The injected
  // mc_resume_stale_engines bug skips the freeze — the retired engine
  // then keeps counting stale votes and can commit under the old epoch
  // after the membership change, which the model checker must catch.
  if (Engine* cur =
          find_engine(Key{epoch_, InstanceKind::kRegular, next_index_})) {
    if (!config_.mc_resume_stale_engines) cur->stop();
  }
  instance_running_ = false;
  // Alg. 1 lines 20-22: C' = C \ culprits; start the exclusion consensus.
  std::vector<ReplicaId> cprime;
  for (ReplicaId m : epoch_members_) {
    if (!pofs_.is_culprit(m)) cprime.push_back(m);
  }
  exclusion_live_.reset(std::move(cprime));
  get_or_create_engine(Key{epoch_, InstanceKind::kExclusion, 0});
  replay_pending();
}

void Replica::handle_decision_msg(const DecisionMsg& msg) {
  auto rit = records_.find(msg.key);
  if (rit == records_.end() || !rit->second.decided) {
    auto& stash = others_[msg.key];
    if (stash.size() < 512) stash.push_back(msg);
    return;
  }
  DecisionRecord& rec = rit->second;
  const bool same = msg.bitmask == rec.bitmask && msg.digests == rec.digests;
  if (same) {
    rec.confirmations.insert(msg.sender);
    if (!rec.confirmed && rec.confirmations.size() >= confirm_threshold()) {
      rec.confirmed = true;
      metrics_.txs_confirmed += rec.tx_count;
      if (rec.conflicted_slots.empty()) {
        tombstones_.insert(msg.key);
        // Deferred: this path can run inside the engine's own decided
        // hook (stashed decisions replayed from on_regular_decided),
        // and destroying the engine under its own callback frame is a
        // use-after-free. The tombstone blocks engine re-creation, and
        // freezing the still-live engine stops same-timestep votes
        // from re-populating the PofStore state pruned below.
        if (Engine* zombie = find_engine(msg.key)) zombie->stop();
        sim_.schedule(0, [this, k = msg.key]() { engines_.erase(k); });
        pofs_.prune_instance(msg.key);
      }
    }
    return;
  }

  // ② detected a disagreement: figure out which slots conflict.
  metrics_.conflicts_seen += 1;
  std::map<std::uint32_t, crypto::Hash32> their_digests;
  {
    std::size_t di = 0;
    for (std::uint32_t s = 0; s < msg.bitmask.size(); ++s) {
      if (msg.bitmask[s] == 1 && di < msg.digests.size()) {
        their_digests[s] = msg.digests[di++];
      }
    }
  }
  std::map<std::uint32_t, crypto::Hash32> my_digests;
  for (std::size_t i = 0; i < rec.one_slots.size(); ++i) {
    my_digests[rec.one_slots[i]] = rec.digests[i];
  }
  const std::size_t n_slots =
      std::max(rec.bitmask.size(), msg.bitmask.size());
  std::vector<std::uint32_t> conflicted;
  for (std::uint32_t s = 0; s < n_slots; ++s) {
    const std::uint8_t mine = s < rec.bitmask.size() ? rec.bitmask[s] : 0;
    const std::uint8_t theirs = s < msg.bitmask.size() ? msg.bitmask[s] : 0;
    if (mine != theirs) {
      conflicted.push_back(s);
    } else if (mine == 1 && !(my_digests[s] == their_digests[s])) {
      conflicted.push_back(s);
    }
  }
  bool fresh_conflict = false;
  for (std::uint32_t s : conflicted) {
    if (rec.conflicted_slots.insert(s).second) fresh_conflict = true;
  }

  if (!config_.accountable) return;
  // Push our signed-vote log for newly conflicted (logged) slots so both
  // sides can cross-check and build PoFs.
  for (std::uint32_t s : conflicted) {
    if (s >= config_.log_slot_cap) continue;
    if (rec.evidence_sent.count(s) != 0) continue;
    rec.evidence_sent.insert(s);
    EvidenceMsg ev;
    ev.key = msg.key;
    ev.slot = s;
    ev.votes = pofs_.votes_for(msg.key, s);
    if (ev.votes.empty()) continue;
    broadcast_to_members(
        epoch_members_, encode_evidence_msg(ev),
        static_cast<std::uint32_t>(ev.votes.size()), 0);
  }

  // ⑤ reconciliation (functional mode): push our decided blocks so every
  // replica can merge the branches through the Blockchain Manager.
  if (!config_.synthetic && fresh_conflict && !rec.reconcile_sent) {
    rec.reconcile_sent = true;
    Writer w;
    w.u8(static_cast<std::uint8_t>(MsgTag::kReconcile));
    msg.key.encode(w);
    const auto ids = bm_.store().at_index(msg.key.index);
    w.varint(ids.size());
    std::uint32_t txs = 0;
    for (const auto& bid : ids) {
      const chain::Block* b = bm_.store().get(bid);
      const Bytes ser = b->serialize();
      w.bytes(ser);
      txs += static_cast<std::uint32_t>(b->txs.size());
    }
    broadcast_to_members(epoch_members_, w.take(), 1 + txs, 0);
  }
}

void Replica::handle_evidence(const EvidenceMsg& msg) {
  if (!config_.accountable) return;
  for (const auto& vote : msg.votes) {
    if (!(vote.body.key == msg.key) || vote.body.slot != msg.slot) continue;
    const Bytes sb = vote.body.signing_bytes();
    if (!scheme_.verify(vote.signer, BytesView(sb.data(), sb.size()),
                        BytesView(vote.signature.data(),
                                  vote.signature.size()))) {
      continue;
    }
    observe_vote(vote);
  }
}

void Replica::handle_pof_gossip(BytesView body) {
  if (!config_.accountable) return;
  const auto pofs = consensus::decode_pofs(body);
  for (const auto& pof : pofs) {
    if (pofs_.is_culprit(pof.culprit())) continue;
    if (!consensus::verify_pof(pof, scheme_)) continue;
    pending_pofs_.push_back(pof);
  }
}

void Replica::replay_pending() {
  if (pending_buffer_.empty() || in_replay_) return;
  in_replay_ = true;
  std::vector<std::pair<ReplicaId, Bytes>> buffered;
  buffered.swap(pending_buffer_);
  for (auto& [from, data] : buffered) {
    dispatch(from, BytesView(data.data(), data.size()), /*replaying=*/true);
  }
  in_replay_ = false;
}

void Replica::buffer_msg(ReplicaId from, BytesView data) {
  if (pending_buffer_.size() >= kPendingBufferCap) return;
  pending_buffer_.emplace_back(from, Bytes(data.begin(), data.end()));
}

void Replica::on_message(ReplicaId from, BytesView data) {
  dispatch(from, data, /*replaying=*/false);
  if (!pending_pofs_.empty()) note_new_pofs();
}

void Replica::dispatch(ReplicaId from, BytesView data, bool replaying) {
  if (data.empty()) return;
  try {
    Reader r(data.subspan(1));
    switch (static_cast<MsgTag>(data[0])) {
      case MsgTag::kVote: {
        const SignedVote vote = SignedVote::decode(r);
        const Bytes sb = vote.body.signing_bytes();
        if (!scheme_.verify(vote.signer, BytesView(sb.data(), sb.size()),
                            BytesView(vote.signature.data(),
                                      vote.signature.size()))) {
          return;
        }
        if (!active_ || vote.body.key.epoch > epoch_) {
          if (!replaying) buffer_msg(from, data);
          return;
        }
        Engine* engine = get_or_create_engine(vote.body.key);
        if (engine == nullptr) {
          if (!replaying && vote.body.key.kind != InstanceKind::kRegular) {
            buffer_msg(from, data);
          }
          return;
        }
        engine->handle_vote(vote);
        break;
      }
      case MsgTag::kProposal: {
        const ProposalMsg msg = ProposalMsg::decode(r);
        const Bytes sb = msg.vote.body.signing_bytes();
        if (!scheme_.verify(msg.vote.signer,
                            BytesView(sb.data(), sb.size()),
                            BytesView(msg.vote.signature.data(),
                                      msg.vote.signature.size()))) {
          return;
        }
        if (!active_ || msg.vote.body.key.epoch > epoch_) {
          if (!replaying) buffer_msg(from, data);
          return;
        }
        Engine* engine = get_or_create_engine(msg.vote.body.key);
        if (engine == nullptr) {
          if (!replaying &&
              msg.vote.body.key.kind != InstanceKind::kRegular) {
            // Exclusion proposals are self-certifying: harvest their
            // PoFs even before we can join the instance (Alg. 1 lines
            // 13-16), then replay the message once we do.
            if (msg.vote.body.key.kind == InstanceKind::kExclusion &&
                config_.accountable) {
              try {
                for (const auto& pof : consensus::decode_pofs(BytesView(
                         msg.payload.data(), msg.payload.size()))) {
                  if (!pofs_.is_culprit(pof.culprit()) &&
                      consensus::verify_pof(pof, scheme_)) {
                    pending_pofs_.push_back(pof);
                  }
                }
              } catch (const DecodeError&) {
              }
            }
            buffer_msg(from, data);
          }
          return;
        }
        engine->handle_proposal(msg);
        break;
      }
      case MsgTag::kDecision: {
        const DecisionMsg msg = DecisionMsg::decode(r);
        const Bytes summary = msg.summary_bytes();
        if (!scheme_.verify(msg.sender,
                            BytesView(summary.data(), summary.size()),
                            BytesView(msg.signature.data(),
                                      msg.signature.size()))) {
          return;
        }
        if (!active_) {
          if (!replaying) buffer_msg(from, data);
          return;
        }
        handle_decision_msg(msg);
        break;
      }
      case MsgTag::kEvidence: {
        const EvidenceMsg msg = EvidenceMsg::decode(r);
        if (!active_) return;
        handle_evidence(msg);
        break;
      }
      case MsgTag::kPofGossip: {
        if (!active_) {
          if (!replaying) buffer_msg(from, data);
          return;
        }
        const Bytes body = r.raw(r.remaining());
        handle_pof_gossip(BytesView(body.data(), body.size()));
        break;
      }
      case MsgTag::kCatchupResp: {
        handle_catchup(from, r);
        break;
      }
      case MsgTag::kReconcile: {
        if (config_.synthetic || !active_) return;
        const InstanceKey key = InstanceKey::decode(r);
        (void)key;
        const std::uint64_t nb = r.varint();
        if (nb > 1024) throw DecodeError("reconcile: too many blocks");
        for (std::uint64_t i = 0; i < nb; ++i) {
          const Bytes ser = r.bytes();
          Reader br(BytesView(ser.data(), ser.size()));
          const chain::Block block = chain::Block::deserialize(br);
          if (bm_.store().contains(block.id())) continue;
          if (bm_.store().branches_at(block.index) > 0) {
            bm_.merge_block(block);
          } else {
            bm_.commit_block(block, /*verify_sigs=*/false);
          }
        }
        break;
      }
      default:
        return;  // unknown tag (e.g. adversary backchannel): ignore
    }
  } catch (const DecodeError&) {
    return;  // malformed: drop
  } catch (const std::invalid_argument&) {
    return;
  }
}

void Replica::fingerprint(Writer& w) const {
  // Everything that can influence a future transition is serialized
  // canonically (every container here is ordered). Metrics and sim
  // timestamps are deliberately excluded: they never feed back into
  // protocol decisions, and including schedule-dependent clock values
  // would make equivalent states fingerprint differently.
  w.u32(me_);
  w.boolean(active_);
  w.u32(epoch_);
  w.boolean(in_replay_);
  w.u64(next_index_);
  w.boolean(instance_running_);
  w.boolean(membership_running_);
  w.u64(commit_floor_);
  w.varint(parked_commits_.size());
  for (const auto& [index, blocks] : parked_commits_) {
    w.u64(index);
    w.varint(blocks.size());
  }

  const auto ids = [&w](const std::vector<ReplicaId>& v) {
    w.varint(v.size());
    for (ReplicaId id : v) w.u32(id);
  };
  ids(committee_.members());
  ids(epoch_members_);
  ids(pool_);
  ids(excluded_ids_);
  ids(exclusion_live_.members());
  ids(cons_exclude_);

  w.varint(engines_.size());
  for (const auto& [key, engine] : engines_) engine->fingerprint(w);
  w.varint(tombstones_.size());
  for (const Key& key : tombstones_) key.encode(w);

  w.varint(records_.size());
  for (const auto& [key, rec] : records_) {
    key.encode(w);
    w.boolean(rec.decided);
    w.bytes(BytesView(rec.bitmask.data(), rec.bitmask.size()));
    w.varint(rec.digests.size());
    for (const auto& d : rec.digests) w.raw(BytesView(d.data(), d.size()));
    w.varint(rec.one_slots.size());
    for (std::uint32_t s : rec.one_slots) w.u32(s);
    w.u64(rec.tx_count);
    w.boolean(rec.confirmed);
    w.boolean(rec.reconcile_sent);
    w.varint(rec.confirmations.size());
    for (ReplicaId id : rec.confirmations) w.u32(id);
    w.varint(rec.conflicted_slots.size());
    for (std::uint32_t s : rec.conflicted_slots) w.u32(s);
    w.varint(rec.evidence_sent.size());
    for (std::uint32_t s : rec.evidence_sent) w.u32(s);
  }

  w.varint(others_.size());
  for (const auto& [key, msgs] : others_) {
    key.encode(w);
    w.varint(msgs.size());
    for (const auto& msg : msgs) {
      w.u32(msg.sender);
      w.bytes(BytesView(msg.bitmask.data(), msg.bitmask.size()));
      w.varint(msg.digests.size());
      for (const auto& d : msg.digests) w.raw(BytesView(d.data(), d.size()));
    }
  }

  w.varint(pending_buffer_.size());
  for (const auto& [from, data] : pending_buffer_) {
    w.u32(from);
    w.bytes(BytesView(data.data(), data.size()));
  }

  pofs_.fingerprint(w);
  w.varint(pending_pofs_.size());
  for (const auto& pof : pending_pofs_) pof.encode(w);

  w.varint(catchup_votes_.size());
  for (const auto& [digest, voters] : catchup_votes_) {
    w.raw(BytesView(digest.data(), digest.size()));
    w.varint(voters.size());
    for (ReplicaId id : voters) w.u32(id);
  }
  w.varint(catchup_index_.size());
  for (const auto& [digest, index] : catchup_index_) {
    w.raw(BytesView(digest.data(), digest.size()));
    w.u64(index);
  }
  w.varint(catchup_snapshot_.size());
  for (const auto& [digest, snap] : catchup_snapshot_) {
    w.raw(BytesView(digest.data(), digest.size()));
    w.u64(snap.first);
    w.varint(snap.second.size());
  }

  w.varint(mempool_.size());
  const crypto::Hash32 ledger = bm_.state_digest();
  w.raw(BytesView(ledger.data(), ledger.size()));
  w.u64(bm_.store().size());
}

}  // namespace zlb::asmr
