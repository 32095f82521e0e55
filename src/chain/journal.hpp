// Durable block journal: an append-only file of CRC-guarded records so
// a replica can restart and rebuild its blockchain record Ω without the
// network. Each record is
//
//   [u32 magic][u32 payload_len][u32 crc32(payload)][payload]
//
// where the magic selects the payload kind: a serialized chain::Block
// ("ZLBJ") or an epoch-boundary EpochRecord ("ZLBE") marking where a
// membership change took effect, so a restart recovers into the right
// epoch. replay() stops at the first torn or corrupt record (a crash
// mid-append leaves a partial tail; everything before it is intact),
// truncates the damage away and re-positions for appending — the
// standard write-ahead-log contract.
#pragma once

#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "chain/block.hpp"

namespace zlb::chain {

/// CRC-32 (IEEE 802.3, reflected), the classic WAL checksum.
[[nodiscard]] std::uint32_t crc32(BytesView data);

/// Durability barrier for a file written through stdio: flushes the
/// user-space buffer, then fdatasync (fsync where that is missing).
/// False on failure.
bool sync_data(std::FILE* file);
/// The same barrier for a file written through its descriptor.
bool sync_fd(int fd);

/// fsyncs the directory holding `path`, making a file's creation or
/// rename durable (data fdatasync'd into a file whose directory entry
/// never reached the device is lost with the entry on power loss).
void sync_parent_dir(const std::string& path);

/// Epoch-boundary journal record: epoch `epoch` governs every regular
/// instance from `start_index` on, decided by committee `members`;
/// `excluded` is the CUMULATIVE exclusion list as of this epoch, so a
/// restart that replays a gapped history (epochs pruned or slept
/// through) still recovers the full permanent-ban set. Appended when a
/// membership change (exclusion + inclusion) completes; replayed so a
/// restarted replica rejoins under the correct committee instead of
/// silently resuming epoch 0.
struct EpochRecord {
  std::uint32_t epoch = 0;
  InstanceId start_index = 0;
  std::vector<ReplicaId> members;
  std::vector<ReplicaId> excluded;

  [[nodiscard]] Bytes serialize() const;
  [[nodiscard]] static EpochRecord deserialize(Reader& r);
  friend bool operator==(const EpochRecord& a, const EpochRecord& b) {
    return a.epoch == b.epoch && a.start_index == b.start_index &&
           a.members == b.members && a.excluded == b.excluded;
  }
};

class Journal {
 public:
  struct ReplayStats {
    std::size_t blocks = 0;          ///< intact block records delivered
    std::size_t epochs = 0;          ///< epoch-boundary records delivered
    std::size_t truncated_bytes = 0; ///< torn/corrupt tail removed
  };

  Journal() = default;
  ~Journal() { close(); }
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;
  Journal(Journal&& o) noexcept;
  Journal& operator=(Journal&& o) noexcept;

  /// Opens (creating if absent) the journal at `path`, replays every
  /// intact record — blocks into `sink`, epoch boundaries into
  /// `epoch_sink` (when non-null), in their original append order —
  /// truncates any torn tail and leaves the journal positioned for
  /// appending. nullopt on I/O failure.
  [[nodiscard]] static std::optional<Journal> open(
      const std::string& path,
      const std::function<void(const Block&)>& sink,
      ReplayStats* stats = nullptr,
      const std::function<void(const EpochRecord&)>& epoch_sink = nullptr);

  /// Appends one block; with `sync_now` (the default) the record is
  /// durable on return. A batched commit path passes false per record
  /// and issues one sync() barrier per flush instead — one fdatasync
  /// amortized over the whole batch. False on I/O failure.
  bool append(const Block& block, bool sync_now = true);
  /// Appends one epoch-boundary record and syncs it. False on failure.
  bool append_epoch(const EpochRecord& record);

  /// Checkpoint compaction: rewrites the journal keeping only records
  /// whose block index is >= `keep_from` (in their original order),
  /// then repositions for appending. Epoch-boundary records are always
  /// kept — they are a handful of bytes per membership change and a
  /// restart needs the full boundary history regardless of how far the
  /// checkpoint reaches. Atomic (write-temp + rename): a crash
  /// mid-compaction leaves either the old or the new file. Returns the
  /// number of records dropped, or nullopt on I/O failure (the journal
  /// stays open on the old file in that case).
  [[nodiscard]] std::optional<std::size_t> compact(InstanceId keep_from);

  /// Durability barrier: flushes user-space buffers AND issues
  /// fdatasync, so an append that returned true survives power loss —
  /// the write-ahead guarantee the commit path relies on.
  bool sync();

  void close();
  [[nodiscard]] bool is_open() const { return file_ != nullptr; }
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::size_t appended() const { return appended_; }

 private:
  std::FILE* file_ = nullptr;
  std::string path_;
  std::size_t appended_ = 0;
};

}  // namespace zlb::chain
