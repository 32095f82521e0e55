// Checkpointing: every K decided instances the replica snapshots its
// Blockchain-Manager state, chunks the canonical bytes, merkleizes the
// chunks, optionally persists the image beside the journal, and
// compacts the journal so restart cost is O(K) instead of O(chain).
//
// A checkpoint is two steps. The CAPTURE runs under the caller's ledger
// lock at the exact watermark and costs O(churn): with change tracking
// on, BlockManager::take_delta() hands over the sorted changes since
// the previous image (a manager with no previous image takes one full
// export instead). The BUILD streams the previous image through one
// linear merge with the delta — into <path>.tmp when a path is set,
// checking each base chunk against the base's tree as it reads it and
// hashing each output chunk as it writes it — persists the image,
// publishes it and compacts the journal. Builds run in FIFO order: on
// the manager's own writer thread after start_writer(), else on the
// thread that calls drain() or take() (the simulator, tools and tests)
// — the same bytes either way. capture() itself never builds or does
// I/O.
//
// An image's bytes live in one place (ImageBytes): its file once the
// durable write succeeded or a restore verified it, memory otherwise
// (no path, or a failed write). So a node with a path holds no
// image-sized buffer once set-up ends.
//
// Durability layout (when `path` is set):
//   <path>       latest checkpoint: temp file, fdatasync, rename,
//                directory fsync
//   <path>.prev  the one before it
// The journal is only compacted once the latest image is durable, and
// only up to the PREVIOUS checkpoint's watermark: if the latest file is
// torn or corrupt, <path>.prev plus the journal tail still covers the
// whole chain — one interval of extra replay buys tolerance to a crash
// mid-checkpoint.
//
// File format v3: magic, version, upto, epoch, chunk size, merkle root,
// varint length, image. Loading rebuilds the chunk tree and compares
// roots; v1/v2 files (a CRC-32 where v3 has the root) still load.
//
// Threads & locks: mu_ guards the published image, the build queue and
// the stats. It is a leaf, held only around queue and pointer updates —
// never across a build, file I/O or the compaction callback (a replaced
// image is released after mu_: its last reference may close a file).
// capture() runs under the caller's ledger lock, so ledger lock > mu_.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <variant>

#include "bm/block_manager.hpp"
#include "common/clock.hpp"
#include "common/mutex.hpp"
#include "obs/metrics.hpp"
#include "sync/snapshot.hpp"

namespace zlb::sync {

struct CheckpointConfig {
  /// On-disk image path ("" = memory-only: still serves state transfer,
  /// but restart replays the whole journal and nothing is compacted).
  std::string path;
  /// Decided instances between checkpoints (0 disables the trigger;
  /// take() still works for on-demand snapshots). While non-zero, the
  /// ledgers this manager captures keep a change log.
  std::uint64_t interval = 0;
  /// Transfer/merkle chunk granularity.
  std::size_t chunk_size = 64 * 1024;
};

/// An image's bytes, held in exactly one place: memory, or the
/// checkpoint file they were written to or verified from. A file-backed
/// image keeps its descriptor open, so its bytes stay readable after
/// later checkpoints rotate the file to .prev and unlink it; the last
/// copy closes it. Reads are positional (pread), so threads reading one
/// image share no file offset and need no lock. Not mmap: a page fault
/// would be blocking I/O no analyzer sees, a file truncated underneath
/// raises SIGBUS, and every page touched would count as resident.
class ImageBytes {
 public:
  ImageBytes() = default;
  explicit ImageBytes(Bytes bytes)
      : memory_(std::move(bytes)), size_(memory_.size()) {}
  /// `size` bytes at `offset` of the open file `fd`, which it takes
  /// over (and closes with its last copy).
  [[nodiscard]] static ImageBytes in_file(int fd, std::uint64_t offset,
                                          std::size_t size);

  [[nodiscard]] std::size_t size() const { return size_; }
  /// The bytes when they are in memory, else null.
  [[nodiscard]] const Bytes* memory() const {
    return file_ == nullptr ? &memory_ : nullptr;
  }
  /// Copies the `out.size()` bytes at `offset` into `out`. False on a
  /// short read, an I/O error or a range past the end.
  [[nodiscard]] bool read(std::uint64_t offset,
                          std::span<std::uint8_t> out) const;
  /// A copy of all the bytes; nullopt on a short read or an I/O error.
  [[nodiscard]] std::optional<Bytes> load() const;

  friend bool operator==(const ImageBytes& a, const Bytes& b);

 private:
  class File;

  Bytes memory_;
  std::shared_ptr<const File> file_;
  std::uint64_t offset_ = 0;
  std::size_t size_ = 0;
};

/// A materialized checkpoint: canonical snapshot bytes plus the chunk
/// merkle tree a joiner verifies transfers against. `epoch` records the
/// membership generation the watermark was decided under, so a served
/// manifest claims — and a restart recovers — state for the right
/// committee.
struct CheckpointImage {
  InstanceId upto = 0;
  std::uint32_t epoch = 0;
  std::size_t chunk_size = 0;
  ImageBytes bytes;
  crypto::MerkleTree tree;

  [[nodiscard]] std::uint32_t chunks() const {
    return chunk_count(bytes.size(), chunk_size);
  }
  /// A copy of chunk `index`, read from wherever the bytes live; nullopt
  /// on a short read or an I/O error.
  [[nodiscard]] std::optional<Bytes> chunk(std::uint32_t index) const;
  [[nodiscard]] const crypto::Hash32& root() const { return tree.root(); }

  /// An in-memory image of `bytes`.
  [[nodiscard]] static CheckpointImage from_bytes(InstanceId upto,
                                                  Bytes bytes,
                                                  std::size_t chunk_size,
                                                  std::uint32_t epoch = 0);
};

struct CheckpointStats {
  std::uint64_t taken = 0;            ///< checkpoints published
  std::uint64_t incremental = 0;      ///< of those, patched from a delta
  std::uint64_t journal_dropped = 0;  ///< journal records compacted away
  std::uint64_t disk_failures = 0;    ///< failed writes (kept serving)
};

class CheckpointManager {
 public:
  /// Drops the caller's journal records below a watermark, taking the
  /// caller's ledger lock itself. Returns the records dropped, nullopt
  /// on I/O failure.
  using CompactFn = std::function<std::optional<std::size_t>(InstanceId)>;

  explicit CheckpointManager(CheckpointConfig config)
      : config_(std::move(config)) {}
  /// Lets the writer build whatever is queued, then stops it. (Without
  /// a writer, captures nobody drained are dropped.)
  ~CheckpointManager();

  CheckpointManager(const CheckpointManager&) = delete;
  CheckpointManager& operator=(const CheckpointManager&) = delete;

  /// Moves builds onto a dedicated writer thread. `compact` does the
  /// journal compaction after each durable image; `build_seconds` (may
  /// be null) records build + persist per image in `clock` nanoseconds.
  void start_writer(CompactFn compact, obs::Histogram* build_seconds,
                    const common::Clock* clock) EXCLUDES(mu_);

  /// Interval trigger: takes a checkpoint when `floor` (the contiguous
  /// decided-instance watermark) advanced at least `interval` past the
  /// last one. `epoch_of` (optional) labels the membership generation
  /// of the watermark ACTUALLY taken — the manager grid-snaps the
  /// floor, so the caller cannot pre-compute the label without
  /// duplicating the snap.
  bool on_decided(
      bm::BlockManager& bm, InstanceId floor,
      const std::function<std::uint32_t(InstanceId)>& epoch_of = nullptr)
      EXCLUDES(mu_);

  /// Unconditional checkpoint at `floor`, published before it returns.
  /// False when skipped (not ahead of the newest image) or when the
  /// disk write failed.
  bool take(bm::BlockManager& bm, InstanceId floor, std::uint32_t epoch = 0)
      EXCLUDES(mu_);

  /// Captures `bm` as the image for watermark `upto`; the caller holds
  /// the lock guarding `bm`, and `bm` must reflect exactly the
  /// instances below `upto`. O(churn) when bm's change log is relative
  /// to the newest image queued or published, else a full export.
  /// Only queues the build (see drain()). False (nothing captured)
  /// unless `upto` is ahead of that newest image.
  bool capture(bm::BlockManager& bm, InstanceId upto, std::uint32_t epoch)
      EXCLUDES(mu_);

  /// Adopts an externally obtained image (a snapshot installed from a
  /// peer transfer, already restored into the ledger) as the next
  /// checkpoint, persisting it when a path is configured — without
  /// this, a journaled joiner's disk would hold only the post-watermark
  /// tail and a restart would silently rebuild the wrong state. No
  /// journal compaction (there is nothing below the watermark to drop).
  /// Queued like capture(); skipped (false) if not ahead.
  bool adopt(InstanceId upto, Bytes bytes, std::uint32_t epoch = 0)
      EXCLUDES(mu_);

  /// Returns once every queued image is published: waits for the
  /// writer, or builds the queue on this thread when none runs.
  void drain() EXCLUDES(mu_);

  /// Startup: loads and verifies the on-disk image (falling back to
  /// <path>.prev when the latest is damaged), publishes it served from
  /// that file and returns the decoded snapshot for
  /// BlockManager::restore().
  [[nodiscard]] std::optional<Snapshot> load_disk() EXCLUDES(mu_);
  /// Startup with no Snapshot in between: restores the verified image
  /// bytes straight into `ledger` (BlockManager::restore(BytesView)),
  /// falling back to <path>.prev when the latest file fails its merkle
  /// root check or its decode, and publishes the image as load_disk()
  /// does. Returns its watermark; nullopt, with `ledger` untouched,
  /// when no file holds an intact image.
  [[nodiscard]] std::optional<InstanceId> restore_disk(
      bm::BlockManager& ledger) EXCLUDES(mu_);

  /// The published image, alive for as long as the caller holds it.
  [[nodiscard]] std::shared_ptr<const CheckpointImage> image() const
      EXCLUDES(mu_);
  /// The published image, valid until the next publish: for
  /// single-threaded owners, or after drain().
  [[nodiscard]] const CheckpointImage* latest() const EXCLUDES(mu_);
  [[nodiscard]] InstanceId watermark() const EXCLUDES(mu_);
  [[nodiscard]] std::uint32_t watermark_epoch() const EXCLUDES(mu_);
  /// True while a captured or adopted image is not yet published.
  [[nodiscard]] bool pending() const EXCLUDES(mu_);
  [[nodiscard]] const CheckpointConfig& config() const { return config_; }
  [[nodiscard]] CheckpointStats stats() const EXCLUDES(mu_);

 private:
  struct Job {
    InstanceId upto = 0;
    std::uint32_t epoch = 0;
    /// A delta patches the image at watermark `base`; a Snapshot is a
    /// full export; Bytes are an adopted image.
    std::variant<SnapshotDelta, Snapshot, Bytes> body;
    InstanceId base = 0;
    /// The captured ledger: a build off the writer thread compacts its
    /// journal directly (the writer uses compact_ instead).
    bm::BlockManager* ledger = nullptr;
  };

  /// A checkpoint file whose image verified.
  struct DiskImage {
    CheckpointImage image;  ///< served from the open file
    Bytes bytes;            ///< the same image, read for the restore
  };

  void enqueue(Job job) EXCLUDES(mu_);
  /// Build, persist, publish, compact.
  void build(Job& job, bool on_writer) EXCLUDES(mu_);
  void writer_loop() EXCLUDES(mu_);
  /// The image of the first file (<path>, then <path>.prev) that
  /// verifies and that `install` accepts (DecodeError rejects it),
  /// published backed by that file; its watermark.
  [[nodiscard]] std::optional<InstanceId> load_verified(
      const std::function<void(BytesView)>& install) EXCLUDES(mu_);
  /// A file's image once its merkle root (CRC before v3) verified.
  [[nodiscard]] static std::optional<DiskImage> read_file(
      const std::string& path, std::size_t chunk_size);

  const CheckpointConfig config_;
  /// Set once by start_writer(), before the writer thread exists.
  CompactFn compact_;
  obs::Histogram* build_seconds_ = nullptr;
  const common::Clock* clock_ = nullptr;

  mutable common::Mutex mu_;
  common::CondVar work_cv_;  ///< queue -> writer
  common::CondVar idle_cv_;  ///< publish -> drain()
  std::shared_ptr<const CheckpointImage> published_ GUARDED_BY(mu_);
  std::deque<Job> queue_ GUARDED_BY(mu_);
  bool building_ GUARDED_BY(mu_) = false;
  bool writer_running_ GUARDED_BY(mu_) = false;
  bool stop_ GUARDED_BY(mu_) = false;
  /// Watermark of the newest image queued or published.
  std::optional<InstanceId> tail_ GUARDED_BY(mu_);
  /// A build failed, so the next capture must be a full export.
  bool rebase_ GUARDED_BY(mu_) = false;
  /// Watermark of the intact image at <path> (nullopt: none known).
  std::optional<InstanceId> disk_upto_ GUARDED_BY(mu_);
  CheckpointStats stats_ GUARDED_BY(mu_);
  std::thread writer_;
};

}  // namespace zlb::sync
