// Deterministic, merkleizable snapshot of chain state: the UTXO set and
// the Blockchain-Manager ledger bookkeeping (known transactions,
// deposit, inputs-deposit, punished accounts) up to a consensus-instance
// watermark. The canonical codec sorts every section and the decoder
// rejects anything unsorted, so one state has exactly one byte string —
// which is what makes the state digest and the chunk merkle root
// meaningful across replicas. A joiner that installs a snapshot and
// replays the post-watermark block tail converges to the same state as
// a replica that executed the whole chain (transaction application is
// deduplicated by txid, so tail overlap is harmless).
#pragma once

#include <optional>

#include "chain/tx.hpp"
#include "common/types.hpp"
#include "crypto/merkle.hpp"

namespace zlb::sync {

struct Snapshot {
  static constexpr std::uint32_t kVersion = 1;

  /// Watermark: every block decided at an instance below this is
  /// reflected in the state sections.
  InstanceId upto = 0;

  std::uint64_t mint_counter = 0;
  chain::Amount deposit = 0;
  /// Live unspent outputs, sorted by outpoint.
  std::vector<std::pair<chain::OutPoint, chain::TxOut>> utxos;
  /// Value of every output ever created (live or spent), sorted by
  /// outpoint — the Blockchain Manager prices conflicting inputs from
  /// this archive (Alg. 2 line 22). Every live output appears here with
  /// its value; an image where one does not is malformed.
  std::vector<std::pair<chain::OutPoint, chain::Amount>> ever_values;
  /// Ids of every committed transaction, sorted.
  std::vector<chain::TxId> known_txs;
  /// Ω.inputs-deposit: inputs funded from the deposit, sorted.
  std::vector<std::pair<chain::OutPoint, chain::Amount>> inputs_deposit;
  /// Punished accounts, sorted.
  std::vector<chain::Address> punished;

  /// Canonical encoding (header + sorted sections). The producer must
  /// hand over sorted sections; encode() does not re-sort.
  [[nodiscard]] Bytes encode() const;
  /// Strict decode (walk_snapshot() into these vectors): throws
  /// DecodeError on truncation, trailing bytes, unsorted or duplicate
  /// entries, absurd section counts, or an archive that does not repeat
  /// every live output with its value.
  [[nodiscard]] static Snapshot decode(BytesView data);

  /// Digest over the state sections only (everything except `upto`), so
  /// replicas at different chain positions with identical ledgers
  /// compare equal.
  [[nodiscard]] crypto::Hash32 state_digest() const;

  friend bool operator==(const Snapshot& a, const Snapshot& b) {
    return a.upto == b.upto && a.mint_counter == b.mint_counter &&
           a.deposit == b.deposit && a.utxos == b.utxos &&
           a.ever_values == b.ever_values && a.known_txs == b.known_txs &&
           a.inputs_deposit == b.inputs_deposit && a.punished == b.punished;
  }
};

/// The base image of a streaming delta merge, read front to back.
class MergeSource {
 public:
  virtual ~MergeSource() = default;
  /// The next block of the image, valid until the next call; empty once
  /// the image is exhausted. Throws DecodeError when a block cannot be
  /// read or fails the source's own check.
  virtual BytesView next() = 0;
};

/// Where a streaming delta merge writes the merged image, in order.
class MergeSink {
 public:
  virtual ~MergeSink() = default;
  virtual void write(BytesView data) = 0;
};

/// The ledger change between two checkpoints, valued at the later one:
/// what BlockManager captures (in O(churn), under its ledger lock) so
/// the O(ledger) encode can run elsewhere. Every section is sorted and
/// duplicate-free like the Snapshot section it patches.
struct SnapshotDelta {
  InstanceId upto = 0;
  std::uint64_t mint_counter = 0;
  chain::Amount deposit = 0;
  /// Touched outpoints: the live output, or nullopt once it is spent.
  std::vector<std::pair<chain::OutPoint, std::optional<chain::TxOut>>> utxos;
  /// Archive values created since the base (the archive only grows).
  std::vector<std::pair<chain::OutPoint, chain::Amount>> ever_values;
  /// Transactions committed since the base (the set only grows).
  std::vector<chain::TxId> known_txs;
  /// The small sections travel whole.
  std::vector<std::pair<chain::OutPoint, chain::Amount>> inputs_deposit;
  std::vector<chain::Address> punished;

  /// Record counts of the three patched sections once merged: the
  /// ledger's container sizes at the capture. They fix every section
  /// count, and the image length, before the merge reads the base.
  struct Counts {
    std::size_t utxos = 0;
    std::size_t ever_values = 0;
    std::size_t known_txs = 0;
  };
  Counts counts;

  /// Length of the merged image.
  [[nodiscard]] std::uint64_t image_size() const;
  /// Streams `base` (an encoded Snapshot) through this delta into
  /// `out`: one linear merge per section, with the sorted delta, into
  /// the bytes Snapshot::encode() gives for the state the delta was
  /// captured from. Throws DecodeError when `base` is not a well-formed
  /// encoding, when the source throws, or when a merged section's
  /// count differs from `counts` (`out` then holds garbage).
  void merge(MergeSource& base, MergeSink& out) const;
  /// merge() into memory.
  [[nodiscard]] Bytes apply_to(MergeSource& base) const;
  [[nodiscard]] Bytes apply_to(BytesView base) const;
};

/// Receives the records of an encoded snapshot from walk_snapshot(), in
/// encoding order: the header, then per section its record count and
/// its records. A sink owns what it builds until walk_snapshot()
/// returns; when the walk throws, the sink's contents are garbage.
class SnapshotSink {
 public:
  enum class Section { kUtxos, kArchive, kKnownTxs, kInputsDeposit, kPunished };

  virtual ~SnapshotSink() = default;
  virtual void header(InstanceId upto, std::uint64_t mint_counter,
                      chain::Amount deposit) = 0;
  /// `count` records of `section` follow (bounded by the input size).
  virtual void section(Section section, std::size_t count) = 0;
  virtual void utxo(const chain::OutPoint& op, const chain::TxOut& out) = 0;
  /// An archive value; `live` when the same outpoint is a live output
  /// (the walker has checked that the two values agree).
  virtual void archived(const chain::OutPoint& op, chain::Amount value,
                        bool live) = 0;
  virtual void known_tx(const chain::TxId& id) = 0;
  virtual void input_deposit(const chain::OutPoint& op,
                             chain::Amount value) = 0;
  virtual void punished(const chain::Address& account) = 0;
};

/// The one strict snapshot decoder: checks `data` in a single pass and
/// hands every record to `sink` (Snapshot::decode and
/// BlockManager::restore are its two sinks). Throws DecodeError as
/// Snapshot::decode documents.
void walk_snapshot(BytesView data, SnapshotSink& sink);

/// The watermark in an encoded snapshot's header, read without looking
/// at the sections. Throws DecodeError on a bad or short header.
[[nodiscard]] InstanceId snapshot_watermark(BytesView data);

/// Fixed-size chunking of an encoded snapshot. Every snapshot has at
/// least one chunk (an empty byte string still transfers one empty
/// chunk), so the merkle tree is never empty.
[[nodiscard]] std::uint32_t chunk_count(std::size_t total_bytes,
                                        std::size_t chunk_size);
[[nodiscard]] BytesView chunk_view(BytesView bytes, std::uint32_t index,
                                   std::size_t chunk_size);
/// merkle_leaf() of every chunk, in order.
[[nodiscard]] std::vector<crypto::Hash32> chunk_leaves(BytesView bytes,
                                                       std::size_t chunk_size);

}  // namespace zlb::sync
