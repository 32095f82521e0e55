// In-memory UTXO table (§4.2.2): the balance of every account lives in
// unspent outputs; applying a transaction consumes its inputs and
// produces its outputs. Kept deliberately compact for in-memory
// execution, as the paper describes.
#pragma once

#include <unordered_map>
#include <utility>

#include "chain/tx.hpp"

namespace zlb::chain {

enum class TxCheck {
  kOk,
  kMalformed,
  kMissingInput,   ///< input not in the UTXO set (spent or never existed)
  kWrongOwner,     ///< pubkey does not hash to the output's address
  kBadSignature,
  kOverspend,      ///< outputs exceed inputs
  kValueMismatch,  ///< declared input value differs from the UTXO
};

[[nodiscard]] const char* to_string(TxCheck c);

class UtxoSet {
 public:
  /// Mints a genesis output directly (no signature).
  OutPoint mint(const Address& to, Amount value);

  [[nodiscard]] bool contains(const OutPoint& op) const {
    return table_.count(op) != 0;
  }
  [[nodiscard]] std::optional<TxOut> get(const OutPoint& op) const;

  /// Full validation against the current table; `verify_sigs` can be
  /// disabled when signatures were already checked upstream. Although
  /// const, signature checks populate the decompressed-pubkey memo, so
  /// concurrent check() calls on one set are NOT safe — parallelism
  /// belongs in crypto::BatchVerifier, not here.
  [[nodiscard]] TxCheck check(const Transaction& tx,
                              bool verify_sigs = true) const;

  /// check() then consume inputs / insert outputs. Returns the result of
  /// check(); the set is untouched unless kOk.
  TxCheck apply(const Transaction& tx, bool verify_sigs = true);

  /// Consumes one outpoint unconditionally (merge path, Alg. 2 line 23).
  void consume(const OutPoint& op) { spend(op); }
  /// Inserts outputs of `tx` unconditionally (merge path).
  void insert_outputs(const Transaction& tx);

  [[nodiscard]] Amount balance(const Address& a) const;
  [[nodiscard]] std::size_t size() const { return table_.size(); }
  /// Outputs spent so far (with size(): every output ever created).
  [[nodiscard]] std::size_t spent_size() const {
    return spent_values_.size();
  }

  /// Outpoints owned by `a` (sorted for determinism).
  [[nodiscard]] std::vector<std::pair<OutPoint, TxOut>> owned_by(
      const Address& a) const;

  /// Value of any output ever created (live or spent): the live table
  /// first, then the archive of spent values. Needed by the Blockchain
  /// Manager to price conflicting inputs (Alg. 2 line 22).
  [[nodiscard]] std::optional<Amount> value_of(const OutPoint& op) const;

  /// Deterministic export for the checkpoint/state-sync subsystem: the
  /// live table, and the value of every output ever created (live and
  /// spent), sorted by outpoint.
  [[nodiscard]] std::vector<std::pair<OutPoint, TxOut>> entries() const;
  [[nodiscard]] std::vector<std::pair<OutPoint, Amount>> ever_entries() const;
  [[nodiscard]] std::uint64_t mint_counter() const { return mint_counter_; }

  /// A whole set's state, built apart from any set and installed by
  /// restore(). `live` and `spent` must not share an outpoint.
  struct Contents {
    std::unordered_map<OutPoint, TxOut, OutPointHasher> live;
    std::unordered_map<OutPoint, Amount, OutPointHasher> spent;
    std::uint64_t mint_counter = 0;
  };
  /// Replaces the whole set with `contents`. The pubkey memo is kept —
  /// it caches pure decompression results, valid across states. Clears
  /// the change log: the restored contents are the new base.
  void restore(Contents contents);

  /// Starts the change log for incremental checkpoints: from now on,
  /// every outpoint that is created or spent is appended (unsorted,
  /// possibly repeated). Not state: it stays out of every export,
  /// digest and fingerprint.
  void track_changes() {
    tracking_ = true;
    touched_.clear();
  }
  [[nodiscard]] bool tracking_changes() const { return tracking_; }
  /// Hands over the log and starts a fresh one.
  [[nodiscard]] std::vector<OutPoint> take_touched() {
    return std::exchange(touched_, {});
  }

  /// Decompressed-pubkey memo shared by every signature check against
  /// this set: an account's key is decompressed once, not per input per
  /// verify. Exposed so the Blockchain Manager's batch path reuses the
  /// same memo. Bounded by the number of distinct keys ever seen.
  [[nodiscard]] crypto::PubkeyCache& pubkey_cache() const {
    return pk_cache_;
  }

 private:
  /// Live outputs.
  std::unordered_map<OutPoint, TxOut, OutPointHasher> table_;
  /// Values of spent outputs: with table_, the value of every output
  /// ever created, each held once (no outpoint is in both).
  std::unordered_map<OutPoint, Amount, OutPointHasher> spent_values_;
  std::uint64_t mint_counter_ = 0;
  mutable crypto::PubkeyCache pk_cache_;
  bool tracking_ = false;
  std::vector<OutPoint> touched_;

  void note(const OutPoint& op) {
    if (tracking_) touched_.push_back(op);
  }
  /// Makes `op` a live output.
  void create(const OutPoint& op, const TxOut& out);
  /// Erases `op` from the live table, archiving its value.
  void spend(const OutPoint& op);
};

}  // namespace zlb::chain
