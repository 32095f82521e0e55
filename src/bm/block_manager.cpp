#include "bm/block_manager.hpp"

#include <algorithm>
#include <utility>

#include "crypto/batch_verify.hpp"

namespace zlb::bm {

namespace {

/// BlockManager::restore's sink: a whole ledger in fresh containers,
/// each live output's value held once (in `utxos.live`).
struct LedgerImage final : sync::SnapshotSink {
  InstanceId upto = 0;
  chain::Amount deposit = 0;
  chain::UtxoSet::Contents utxos;
  std::unordered_set<chain::TxId, crypto::Hash32Hasher> txs;
  std::map<chain::OutPoint, chain::Amount> inputs_deposit;
  std::unordered_set<chain::Address, chain::AddressHasher> punished_set;

  void header(InstanceId watermark, std::uint64_t mint_counter,
              chain::Amount deposit_value) override {
    upto = watermark;
    utxos.mint_counter = mint_counter;
    deposit = deposit_value;
  }
  void section(Section section, std::size_t count) override {
    switch (section) {
      case Section::kUtxos:
        utxos.live.reserve(count);
        break;
      case Section::kArchive:
        // The walker rejects an archive missing a live output.
        utxos.spent.reserve(count - std::min(count, utxos.live.size()));
        break;
      case Section::kKnownTxs:
        txs.reserve(count);
        break;
      case Section::kInputsDeposit:
      case Section::kPunished:
        break;
    }
  }
  void utxo(const chain::OutPoint& op, const chain::TxOut& out) override {
    utxos.live.emplace(op, out);
  }
  void archived(const chain::OutPoint& op, chain::Amount value,
                bool live) override {
    if (!live) utxos.spent.emplace(op, value);
  }
  void known_tx(const chain::TxId& id) override { txs.insert(id); }
  void input_deposit(const chain::OutPoint& op, chain::Amount value) override {
    inputs_deposit.emplace_hint(inputs_deposit.end(), op, value);
  }
  void punished(const chain::Address& account) override {
    punished_set.insert(account);
  }
};

}  // namespace

std::vector<std::uint8_t> BlockManager::batch_verify_block(
    const chain::Block& block) {
  // Fan the block's input signatures across the thread pool in one
  // batch, then reduce to one ok/fail flag per transaction. Signature
  // validity depends only on the transaction bytes — not on UTXO state
  // — so checking before sequential application is exactly equivalent
  // to checking inside it, and a transaction is applied iff the serial
  // path would have applied it (bit-identical state).
  //
  // The serial path reaches a signature only after the cheap checks
  // (known tx, input exists, owner and value match), so the batch path
  // repeats them here before spending crypto. An input is verified iff
  // it could still matter at apply time: when its outpoint is doomed
  // (absent from both the pre-block set and every earlier block tx's
  // outputs), or its owner/value cannot match, the transaction is
  // rejected with or without a signature result, and the job degrades
  // to add_invalid(), costing nothing.
  crypto::BatchVerifier verifier;
  // Keys attributable to an existing UTXO's owner go through the
  // shared per-set memo — the same admission rule as the serial path,
  // so attacker-chosen garbage keys cannot grow it. Keys only
  // attributable to outputs of earlier transactions in this block use
  // a block-local memo that dies with this call.
  crypto::PubkeyCache block_cache;
  std::unordered_set<chain::OutPoint, chain::OutPointHasher> earlier_outputs;
  std::vector<std::size_t> first_job(block.txs.size(), 0);
  std::size_t jobs = 0;
  for (std::size_t t = 0; t < block.txs.size(); ++t) {
    const chain::Transaction& tx = block.txs[t];
    first_job[t] = jobs;
    const chain::TxId id = tx.id();
    // Known transactions are skipped by commit_block before their flag
    // is consulted; malformed ones fail apply() before signatures.
    if (txs_.count(id) != 0 || !tx.well_formed()) continue;
    const crypto::Hash32 digest = tx.body_digest();
    for (const auto& in : tx.inputs) {
      ++jobs;
      const auto sig =
          crypto::Signature::from_bytes(BytesView(in.sig.data(), 64));
      if (!sig) {
        verifier.add_invalid();
        continue;
      }
      const crypto::AffinePoint* q = nullptr;
      if (const auto prev = utxos_.get(in.prev)) {
        if (!(chain::Address::of(in.pubkey) == prev->to) ||
            in.value != prev->value) {
          verifier.add_invalid();  // doomed: kWrongOwner/kValueMismatch
          continue;
        }
        q = utxos_.pubkey_cache().get(in.pubkey);
      } else if (earlier_outputs.count(in.prev) != 0) {
        // Intra-block chain: the outpoint may exist by the time this
        // transaction applies, so its signature must be checked.
        q = block_cache.get(in.pubkey);
      } else {
        verifier.add_invalid();  // doomed: kMissingInput
        continue;
      }
      if (q == nullptr) {
        verifier.add_invalid();
      } else {
        verifier.add(*q, digest, *sig);
      }
    }
    for (std::uint32_t i = 0; i < tx.outputs.size(); ++i) {
      earlier_outputs.insert(chain::OutPoint{id, i});
    }
  }
  const std::vector<std::uint8_t> per_input = verifier.verify_all();
  std::vector<std::uint8_t> per_tx(block.txs.size(), 1);
  for (std::size_t t = 0; t < block.txs.size(); ++t) {
    const std::size_t end = t + 1 < block.txs.size() ? first_job[t + 1]
                                                     : per_input.size();
    for (std::size_t j = first_job[t]; j < end; ++j) {
      if (per_input[j] == 0) {
        per_tx[t] = 0;
        break;
      }
    }
  }
  return per_tx;
}

std::vector<std::uint8_t> BlockManager::verify_block_signatures(
    const chain::Block& block, common::ThreadPool* pool) {
  // Pipelined-commit verify stage: stateless, so it needs no ledger
  // lock. Every input is checked against its own pubkey field — the
  // same key the stateful path verifies once the owner check passes
  // (Address::of(in.pubkey) must equal the UTXO owner, re-checked by
  // apply_verified). Without UTXO access there are no doomed-input
  // short-cuts; a transaction the state checks reject anyway just
  // wastes its verifies, which the pool absorbs.
  crypto::BatchVerifier verifier(pool);
  crypto::PubkeyCache block_cache;
  std::vector<std::size_t> first_job(block.txs.size(), 0);
  std::size_t jobs = 0;
  for (std::size_t t = 0; t < block.txs.size(); ++t) {
    const chain::Transaction& tx = block.txs[t];
    first_job[t] = jobs;
    // Malformed transactions fail apply() before signatures; queuing
    // nothing leaves their flag at 1, same as batch_verify_block.
    if (!tx.well_formed()) continue;
    const crypto::Hash32 digest = tx.body_digest();
    for (const auto& in : tx.inputs) {
      ++jobs;
      const auto sig =
          crypto::Signature::from_bytes(BytesView(in.sig.data(), 64));
      const crypto::AffinePoint* q =
          sig ? block_cache.get(in.pubkey) : nullptr;
      if (q == nullptr) {
        verifier.add_invalid();
      } else {
        verifier.add(*q, digest, *sig);
      }
    }
  }
  const std::vector<std::uint8_t> per_input = verifier.verify_all();
  std::vector<std::uint8_t> per_tx(block.txs.size(), 1);
  for (std::size_t t = 0; t < block.txs.size(); ++t) {
    const std::size_t end =
        t + 1 < block.txs.size() ? first_job[t + 1] : per_input.size();
    for (std::size_t j = first_job[t]; j < end; ++j) {
      if (per_input[j] == 0) {
        per_tx[t] = 0;
        break;
      }
    }
  }
  return per_tx;
}

BlockManager::ApplyResult BlockManager::apply_verified(
    const chain::Block& block, const std::vector<std::uint8_t>& sig_ok,
    std::vector<chain::TxId>* applied_ids) {
  ApplyResult res;
  for (std::size_t t = 0; t < block.txs.size(); ++t) {
    const chain::Transaction& tx = block.txs[t];
    const chain::TxId id = tx.id();
    if (txs_.count(id) != 0) continue;
    // A failed signature skips the transaction exactly as the serial
    // kBadSignature path would; all other checks still run in order
    // inside apply().
    if (!sig_ok.empty() && sig_ok[t] == 0) continue;
    if (utxos_.apply(tx, /*verify_sigs=*/false) == chain::TxCheck::kOk) {
      add_tx(id);
      ++res.applied;
      if (applied_ids != nullptr) applied_ids->push_back(id);
    }
  }
  res.was_new = store_.put(block);
  commit_order_.push_back(block.index);
  return res;
}

std::size_t BlockManager::commit_block(const chain::Block& block,
                                       bool verify_sigs) {
  std::vector<std::uint8_t> sig_ok;
  if (verify_sigs) sig_ok = batch_verify_block(block);
  const ApplyResult res = apply_verified(block, sig_ok);
  journal_append(block, res.was_new);
  return res.applied;
}

void BlockManager::merge_block(const chain::Block& block) {
  // Alg. 2 lines 8-16.
  for (const auto& tx : block.txs) {
    if (txs_.count(tx.id()) != 0) continue;  // line 10: already known
    commit_tx_merge(tx);                     // line 11
    for (const auto& out : tx.outputs) {     // lines 12-14
      if (is_punished(out.to)) punish_account(out.to);
    }
  }
  refund_inputs();                           // line 15
  journal_append(block, store_.put(block));  // line 16
  ++stats_.merged_blocks;
}

bool BlockManager::journal_append(const chain::Block& block, bool was_new,
                                  bool sync_now) {
  if (journal_ && was_new) return journal_->append(block, sync_now);
  return true;
}

bool BlockManager::journal_sync() {
  return journal_ ? journal_->sync() : true;
}

std::optional<chain::Journal::ReplayStats> BlockManager::open_journal(
    const std::string& path,
    const std::function<void(const chain::EpochRecord&)>& epoch_sink) {
  chain::Journal::ReplayStats stats;
  auto journal = chain::Journal::open(
      path, [this](const chain::Block& block) { merge_block(block); },
      &stats, [this, &epoch_sink](const chain::EpochRecord& record) {
        note_epoch_record(record);
        if (epoch_sink) epoch_sink(record);
      });
  if (!journal) return std::nullopt;
  journal_ = std::move(*journal);
  return stats;
}

void BlockManager::note_epoch_record(const chain::EpochRecord& record) {
  // Same filter as the node's own recovery of epoch records.
  if (record.epoch == 0 || record.members.empty()) return;
  note_epoch(record.start_index, record.epoch);
}

std::optional<std::uint32_t> BlockManager::epoch_of(InstanceId k) const {
  for (auto it = epoch_spans_.rbegin(); it != epoch_spans_.rend(); ++it) {
    if (it->first <= k) return it->second;
  }
  return std::nullopt;
}

bool BlockManager::journal_epoch(const chain::EpochRecord& record) {
  note_epoch_record(record);
  if (!journaling()) return true;  // in-memory deployments have no WAL
  return journal_->append_epoch(record);
}

std::optional<std::size_t> BlockManager::compact_journal(
    InstanceId keep_from) {
  if (!journaling()) return 0;
  return journal_->compact(keep_from);
}

sync::Snapshot BlockManager::snapshot(InstanceId upto) const {
  sync::Snapshot s;
  s.upto = upto;
  s.mint_counter = utxos_.mint_counter();
  s.deposit = deposit_;
  s.utxos = utxos_.entries();
  s.ever_values = utxos_.ever_entries();
  s.known_txs.assign(txs_.begin(), txs_.end());
  std::sort(s.known_txs.begin(), s.known_txs.end());
  s.inputs_deposit.assign(inputs_deposit_.begin(), inputs_deposit_.end());
  s.punished.assign(punished_.begin(), punished_.end());
  std::sort(s.punished.begin(), s.punished.end());
  return s;
}

void BlockManager::track_changes() {
  utxos_.track_changes();
  new_txs_.clear();
  change_base_.reset();
}

void BlockManager::reset_changes(InstanceId base) {
  (void)utxos_.take_touched();
  new_txs_.clear();
  change_base_ = base;
}

void BlockManager::add_tx(const chain::TxId& id) {
  txs_.insert(id);
  if (utxos_.tracking_changes()) new_txs_.push_back(id);
}

sync::SnapshotDelta BlockManager::take_delta(InstanceId upto) {
  sync::SnapshotDelta d;
  d.upto = upto;
  d.mint_counter = utxos_.mint_counter();
  d.deposit = deposit_;
  std::vector<chain::OutPoint> touched = utxos_.take_touched();
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  d.utxos.reserve(touched.size());
  for (const chain::OutPoint& op : touched) {
    d.utxos.emplace_back(op, utxos_.get(op));
    // The archive never forgets, so only a value can be new here.
    if (const auto value = utxos_.value_of(op)) {
      d.ever_values.emplace_back(op, *value);
    }
  }
  d.known_txs = std::exchange(new_txs_, {});
  std::sort(d.known_txs.begin(), d.known_txs.end());
  d.known_txs.erase(std::unique(d.known_txs.begin(), d.known_txs.end()),
                    d.known_txs.end());
  d.inputs_deposit.assign(inputs_deposit_.begin(), inputs_deposit_.end());
  d.punished.assign(punished_.begin(), punished_.end());
  std::sort(d.punished.begin(), d.punished.end());
  d.counts.utxos = utxos_.size();
  d.counts.ever_values = utxos_.size() + utxos_.spent_size();
  d.counts.known_txs = txs_.size();
  change_base_ = upto;
  return d;
}

InstanceId BlockManager::restore(BytesView image) {
  LedgerImage fresh;
  sync::walk_snapshot(image, fresh);  // throws before anything changed
  utxos_.restore(std::move(fresh.utxos));
  new_txs_.clear();
  change_base_ = fresh.upto;
  deposit_ = fresh.deposit;
  txs_ = std::move(fresh.txs);
  inputs_deposit_ = std::move(fresh.inputs_deposit);
  punished_ = std::move(fresh.punished_set);
  return fresh.upto;
}

void BlockManager::restore(const sync::Snapshot& snap) {
  const Bytes image = snap.encode();
  (void)restore(BytesView(image.data(), image.size()));
}

void BlockManager::commit_tx_merge(const chain::Transaction& tx) {
  // Alg. 2 lines 17-23.
  for (const auto& in : tx.inputs) {
    if (!utxos_.contains(in.prev)) {
      // Not spendable: fund from the deposit (lines 20-22). The value
      // comes from the referenced output when known, else from the
      // signed declared input value.
      const auto value = output_value(in.prev);
      const chain::Amount v = value.value_or(in.value);
      inputs_deposit_.emplace(in.prev, v);
      deposit_ -= v;
      stats_.deposit_spent += v;
      ++stats_.conflicting_inputs;
    } else {
      utxos_.consume(in.prev);  // line 23: spendable, normal case
    }
  }
  utxos_.insert_outputs(tx);
  add_tx(tx.id());
  ++stats_.merged_txs;
}

void BlockManager::refund_inputs() {
  // Alg. 2 lines 24-28.
  for (auto it = inputs_deposit_.begin(); it != inputs_deposit_.end();) {
    if (utxos_.contains(it->first)) {
      utxos_.consume(it->first);
      deposit_ += it->second;
      stats_.deposit_refunded += it->second;
      it = inputs_deposit_.erase(it);
    } else {
      ++it;
    }
  }
}

std::optional<chain::Amount> BlockManager::output_value(
    const chain::OutPoint& op) const {
  return utxos_.value_of(op);
}

}  // namespace zlb::bm
