// Blockchain Manager (§4.2): maintains the blockchain record Ω and,
// when the ASMR reports a fork, *merges* the conflicting blocks instead
// of discarding them (Alg. 2). Conflicting transaction inputs that are
// no longer spendable are funded from the deposit of the deceitful
// replicas (CommitTxMerge, line 17), and the deposit is refilled when
// an input later becomes spendable again (RefundInputs, line 24).
// Outputs reaching punished accounts stay punished.
#pragma once

#include <unordered_set>

#include "chain/journal.hpp"
#include "chain/store.hpp"
#include "chain/utxo.hpp"
#include "sync/snapshot.hpp"

namespace zlb::common {
class ThreadPool;
}  // namespace zlb::common

namespace zlb::bm {

struct MergeStats {
  std::uint64_t merged_blocks = 0;
  std::uint64_t merged_txs = 0;
  std::uint64_t conflicting_inputs = 0;   ///< inputs funded from deposit
  chain::Amount deposit_spent = 0;        ///< cumulative deposit outflow
  chain::Amount deposit_refunded = 0;     ///< cumulative deposit refill
};

class BlockManager {
 public:
  /// Ω.deposit — coins staked by the consensus replicas (§B).
  void fund_deposit(chain::Amount amount) { deposit_ += amount; }
  [[nodiscard]] chain::Amount deposit() const { return deposit_; }

  [[nodiscard]] chain::UtxoSet& utxos() { return utxos_; }
  [[nodiscard]] const chain::UtxoSet& utxos() const { return utxos_; }
  [[nodiscard]] chain::BlockStore& store() { return store_; }
  [[nodiscard]] const chain::BlockStore& store() const { return store_; }

  /// Marks an account as used by a deceitful replica (Alg. 2 line 13).
  void punish_account(const chain::Address& a) { punished_.insert(a); }
  [[nodiscard]] bool is_punished(const chain::Address& a) const {
    return punished_.count(a) != 0;
  }

  /// Normal (agreed) commit path: batch-verifies every transaction
  /// signature across the thread pool, then validates and applies each
  /// transaction in order (invalid ones are skipped). The resulting
  /// state is bit-identical to checking signatures inline. Returns the
  /// number applied.
  std::size_t commit_block(const chain::Block& block, bool verify_sigs = true);

  /// Verify stage of the pipelined commit path: one ok/fail flag per
  /// transaction, 1 iff every input signature verifies against that
  /// input's OWN `pubkey` field — which is exactly the key the stateful
  /// path verifies against once the owner check passes. Reads NO ledger
  /// state (keys memoize in a block-local cache), so it runs on a
  /// pipeline thread without any BlockManager lock; apply_verified()
  /// re-runs the cheap stateful checks, making the applied set
  /// bit-identical to commit_block(block, true). A transaction the
  /// state checks would reject anyway merely wastes its verifies.
  [[nodiscard]] static std::vector<std::uint8_t> verify_block_signatures(
      const chain::Block& block, common::ThreadPool* pool = nullptr);

  struct ApplyResult {
    std::size_t applied = 0;  ///< transactions newly applied
    bool was_new = false;     ///< block newly entered the store
  };
  /// Apply stage: validates and applies each transaction in order
  /// (under the caller's ledger lock), gated by the per-tx `sig_ok`
  /// flags from verify_block_signatures — empty means signatures are
  /// already trusted — and stores the block WITHOUT journaling it; the
  /// pipeline batches journal_append() calls and one journal_sync()
  /// barrier per flush instead. Applied tx ids are appended to
  /// `applied_ids` when non-null (batched mempool eviction).
  ApplyResult apply_verified(const chain::Block& block,
                             const std::vector<std::uint8_t>& sig_ok,
                             std::vector<chain::TxId>* applied_ids = nullptr);

  /// Journals a block apply_verified reported new; with `sync_now`
  /// false the record is buffered until the next journal_sync(). True
  /// when journaling is off or the block was not new.
  bool journal_append(const chain::Block& block, bool was_new,
                      bool sync_now = true);
  /// Durability barrier closing a batch of journal_append(…, false)
  /// calls. True when journaling is off.
  bool journal_sync();

  /// Alg. 2: merge a conflicting block into Ω. Every not-yet-known
  /// transaction is committed; inputs that are no longer spendable are
  /// funded from the deposit; afterwards the deposit is refilled from
  /// any inputs-deposit entries that became spendable, and the block is
  /// stored.
  void merge_block(const chain::Block& block);

  /// Durability: opens (creating if absent) the journal at `path`,
  /// replays every intact record into this manager through the MERGE
  /// path — so recovered fork branches rebuild their deposit accounting
  /// too — and keeps the journal attached: every block that newly
  /// enters the store from then on is appended. Returns the replay
  /// stats (blocks delivered, torn tail removed), or nullopt on I/O
  /// failure.
  [[nodiscard]] std::optional<chain::Journal::ReplayStats> open_journal(
      const std::string& path,
      const std::function<void(const chain::EpochRecord&)>& epoch_sink =
          nullptr);
  /// Appends an epoch-boundary record to the attached journal (true
  /// when journaling is off — there is nothing to make durable then).
  bool journal_epoch(const chain::EpochRecord& record);
  /// Drops journal records below `keep_from` (checkpoint compaction).
  /// No-op without an attached journal. Returns records dropped.
  [[nodiscard]] std::optional<std::size_t> compact_journal(
      InstanceId keep_from);
  [[nodiscard]] bool journaling() const {
    return journal_.has_value() && journal_->is_open();
  }
  [[nodiscard]] const chain::Journal* journal() const {
    return journal_ ? &*journal_ : nullptr;
  }

  [[nodiscard]] bool knows_tx(const chain::TxId& id) const {
    return txs_.count(id) != 0;
  }
  [[nodiscard]] const MergeStats& stats() const { return stats_; }
  /// Indices of blocks committed through the agreed path (commit_block
  /// / apply_verified), in commit order. merge_block is excluded — fork
  /// merges reconcile blocks out of order by design. The model
  /// checker's in-order-commit invariant asserts this sequence is
  /// nondecreasing on every replica (multi-slot instances legitimately
  /// commit several blocks at the same index).
  [[nodiscard]] const std::vector<InstanceId>& commit_order() const {
    return commit_order_;
  }
  /// Ω.inputs-deposit accounting. The model checker's no-double-spend
  /// invariant reads it directly: every outpoint consumed by more than
  /// one applied transaction must appear here (conflicts are funded
  /// from the deposit, Alg. 2), or safety is broken.
  [[nodiscard]] const std::map<chain::OutPoint, chain::Amount>&
  inputs_deposit() const {
    return inputs_deposit_;
  }

  /// Looks up the value of any output ever committed (needed to price a
  /// conflicting input whose UTXO was already consumed).
  [[nodiscard]] std::optional<chain::Amount> output_value(
      const chain::OutPoint& op) const;

  /// Checkpoint export: the full ledger state with watermark `upto`
  /// (every section in canonical sorted order).
  [[nodiscard]] sync::Snapshot snapshot(InstanceId upto) const;
  /// Installs an encoded snapshot (Snapshot::encode() bytes) wholesale,
  /// replacing the ledger state (UTXO set, known txs, deposit
  /// accounting, punished set) and returning its watermark. One pass:
  /// sync::walk_snapshot() decodes the records straight into fresh
  /// containers, which replace the ledger's only once the whole image
  /// decoded — a malformed image throws DecodeError and leaves the
  /// ledger, its change log and change_base() as they were. The block
  /// store and any attached journal are untouched: blocks below the
  /// watermark are represented by the snapshot, the post-watermark
  /// tail replays on top (re-application dedups by txid). Resets the
  /// change log to the snapshot's watermark.
  InstanceId restore(BytesView image);
  /// The same for a decoded snapshot (through its encoding, so through
  /// the same decoder: a snapshot Snapshot::decode would reject throws).
  void restore(const sync::Snapshot& snap);

  /// Starts the change log for incremental checkpoints: the UTXO set
  /// logs every outpoint it inserts or erases and this manager logs
  /// every transaction id it newly commits, so take_delta() costs
  /// O(churn) instead of O(ledger). The log is not ledger state:
  /// snapshot(), state_digest() and every fingerprint ignore it.
  void track_changes();
  [[nodiscard]] bool tracking_changes() const {
    return utxos_.tracking_changes();
  }
  /// The watermark the change log is relative to: that of the last
  /// restore(), take_delta() or reset_changes(); nullopt before any.
  [[nodiscard]] std::optional<InstanceId> change_base() const {
    return change_base_;
  }
  /// Empties the change log, now relative to the state at `base`.
  void reset_changes(InstanceId base);
  /// Sorted current values of everything the log touched (spent
  /// outpoints as tombstones), plus the small sections whole and the
  /// merged section counts, labelled `upto`; then resets the log with
  /// `upto` as its new base.
  [[nodiscard]] sync::SnapshotDelta take_delta(InstanceId upto);

  /// Membership spans (start_index, epoch) in the order they were
  /// learned. epoch_of() applies LiveNode's rule over them, so a
  /// checkpoint cut on the commit thread can label its watermark
  /// without the loop thread's state. journal_epoch() and journal
  /// replay record every boundary; note_epoch() seeds the first span.
  void note_epoch(InstanceId start_index, std::uint32_t epoch) {
    epoch_spans_.emplace_back(start_index, epoch);
  }
  [[nodiscard]] std::optional<std::uint32_t> epoch_of(InstanceId k) const;
  /// Digest of the ledger state (position-independent; two replicas
  /// with identical ledgers compare equal regardless of chain height).
  [[nodiscard]] crypto::Hash32 state_digest() const {
    return snapshot(0).state_digest();
  }

 private:
  /// One ok/fail flag per transaction: 1 iff every input signature of
  /// that transaction verifies (parallel batch).
  [[nodiscard]] std::vector<std::uint8_t> batch_verify_block(
      const chain::Block& block);
  void commit_tx_merge(const chain::Transaction& tx);
  void refund_inputs();
  /// Records a newly committed transaction id (and logs it).
  void add_tx(const chain::TxId& id);
  void note_epoch_record(const chain::EpochRecord& record);

  std::optional<chain::Journal> journal_;
  chain::UtxoSet utxos_;
  chain::BlockStore store_;
  chain::Amount deposit_ = 0;
  // Ω.inputs-deposit: inputs funded from the deposit, with their value.
  std::map<chain::OutPoint, chain::Amount> inputs_deposit_;
  std::unordered_set<chain::Address, chain::AddressHasher> punished_;
  std::unordered_set<chain::TxId, crypto::Hash32Hasher> txs_;
  std::vector<InstanceId> commit_order_;
  std::vector<chain::TxId> new_txs_;  ///< change log: committed ids
  std::optional<InstanceId> change_base_;
  std::vector<std::pair<InstanceId, std::uint32_t>> epoch_spans_;
  MergeStats stats_;
};

}  // namespace zlb::bm
