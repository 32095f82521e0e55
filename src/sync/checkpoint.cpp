#include "sync/checkpoint.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "chain/journal.hpp"
#include "common/serde.hpp"

namespace zlb::sync {

namespace {

constexpr std::uint32_t kCheckpointMagic = 0x5a4c424b;  // "ZLBK"
// v2 added the watermark's epoch (v1 files read an implicit epoch 0);
// v3 replaces the image CRC with the chunk size and merkle root.
constexpr std::uint32_t kCheckpointVersion = 3;
// A checkpoint holds one serialized state snapshot; anything bigger
// than this is a corrupt length prefix, not a plausible ledger.
constexpr std::uint64_t kMaxImageBytes = 1u << 30;
// Longest possible file header (v3 with a 10-byte varint length).
constexpr std::size_t kMaxHeaderBytes = 4 + 4 + 8 + 4 + 4 + 32 + 10;
// Where a v3 header holds the root: after magic, version, upto, epoch
// and chunk size.
constexpr std::size_t kRootOffset = 4 + 4 + 8 + 4 + 4;

/// All of `out` from `fd` at `offset`; false on an I/O error or EOF.
bool pread_all(int fd, std::span<std::uint8_t> out, std::uint64_t offset) {
  while (!out.empty()) {
    const ssize_t n =
        ::pread(fd, out.data(), out.size(), static_cast<off_t>(offset));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    out = out.subspan(static_cast<std::size_t>(n));
    offset += static_cast<std::uint64_t>(n);
  }
  return true;
}

/// All of `data` to `fd` at `offset`; false on an I/O error.
bool pwrite_all(int fd, BytesView data, std::uint64_t offset) {
  while (!data.empty()) {
    const ssize_t n =
        ::pwrite(fd, data.data(), data.size(), static_cast<off_t>(offset));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data = data.subspan(static_cast<std::size_t>(n));
    offset += static_cast<std::uint64_t>(n);
  }
  return true;
}

/// A checkpoint file being written at <path>.tmp: the v3 header with
/// the root left zero, then the image through a chunk-sized buffer
/// whose merkle leaves are hashed as it fills. An I/O error marks the
/// file failed and drops later writes, so a merge streaming into it
/// still reads (and checks) its whole base. Removed unless committed.
class TempImageFile final : public MergeSink {
 public:
  TempImageFile(const CheckpointConfig& config, InstanceId upto,
                std::uint32_t epoch, std::uint64_t size)
      : config_(config),
        tmp_(config.path + ".tmp"),
        upto_(upto),
        epoch_(epoch),
        size_(size) {
    fd_ = ::open(tmp_.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd_ < 0) return;
    Writer w;
    w.u32(kCheckpointMagic);
    w.u32(kCheckpointVersion);
    w.u64(upto);
    w.u32(epoch);
    w.u32(static_cast<std::uint32_t>(config.chunk_size));
    const crypto::Hash32 root{};  // written by commit()
    w.raw(BytesView(root.data(), root.size()));
    w.varint(size);
    header_ = w.data().size();
    ok_ = config.chunk_size > 0 && size <= kMaxImageBytes &&
          pwrite_all(fd_, w.data(), 0);
    block_.reserve(config.chunk_size);
  }
  ~TempImageFile() override {
    if (fd_ < 0) return;
    ::close(fd_);
    std::remove(tmp_.c_str());
  }
  TempImageFile(const TempImageFile&) = delete;
  TempImageFile& operator=(const TempImageFile&) = delete;

  [[nodiscard]] bool ok() const { return ok_; }

  void write(BytesView data) override {
    while (ok_ && !data.empty()) {
      const std::size_t n =
          std::min(config_.chunk_size - block_.size(), data.size());
      block_.insert(block_.end(), data.begin(),
                    data.begin() + static_cast<std::ptrdiff_t>(n));
      data = data.subspan(n);
      if (block_.size() == config_.chunk_size) flush_block();
    }
  }

  /// The image, durable at <path> and served from this file: the root
  /// into the header, then the data on the device, then the renames
  /// (<path> to .prev, the temp file to <path>), then the directory
  /// entry. nullopt when any write failed.
  [[nodiscard]] std::optional<CheckpointImage> commit() {
    if (!ok_) return std::nullopt;
    // An empty image still has one (empty) chunk.
    if (!block_.empty() || leaves_.empty()) flush_block();
    if (!ok_ || written_ != size_) return std::nullopt;
    CheckpointImage image;
    image.upto = upto_;
    image.epoch = epoch_;
    image.chunk_size = config_.chunk_size;
    image.tree = crypto::MerkleTree::build(std::move(leaves_));
    const crypto::Hash32& root = image.root();
    if (!pwrite_all(fd_, BytesView(root.data(), root.size()), kRootOffset) ||
        !chain::sync_fd(fd_)) {
      return std::nullopt;
    }
    // A failed rotate of the old file is tolerable (we lose the
    // fallback, not the checkpoint).
    (void)std::rename(config_.path.c_str(), (config_.path + ".prev").c_str());
    if (std::rename(tmp_.c_str(), config_.path.c_str()) != 0) {
      return std::nullopt;
    }
    chain::sync_parent_dir(config_.path);
    image.bytes = ImageBytes::in_file(std::exchange(fd_, -1), header_,
                                      static_cast<std::size_t>(size_));
    return image;
  }

 private:
  void flush_block() {
    leaves_.push_back(crypto::merkle_leaf(block_));
    ok_ = ok_ && pwrite_all(fd_, block_, header_ + written_);
    written_ += block_.size();
    block_.clear();
  }

  const CheckpointConfig& config_;
  const std::string tmp_;
  const InstanceId upto_;
  const std::uint32_t epoch_;
  const std::uint64_t size_;
  int fd_ = -1;
  bool ok_ = false;
  std::size_t header_ = 0;
  std::uint64_t written_ = 0;  ///< image bytes, past the header
  Bytes block_;
  std::vector<crypto::Hash32> leaves_;
};

/// A published image read front to back as the base of a delta merge:
/// in memory, one block; from its file, one chunk per block, each
/// checked against the image's tree, so a base altered on disk throws
/// before anything built from it is published.
class BaseSource final : public MergeSource {
 public:
  explicit BaseSource(const CheckpointImage& image) : image_(image) {}

  BytesView next() override {
    const std::uint32_t i = next_++;
    if (const Bytes* memory = image_.bytes.memory()) {
      return i == 0 ? BytesView(memory->data(), memory->size()) : BytesView();
    }
    std::optional<Bytes> chunk = image_.chunk(i);  // empty past the end
    if (!chunk) throw DecodeError("checkpoint: base image short read");
    if (chunk->empty()) return {};
    if (i >= image_.tree.leaf_count() ||
        crypto::merkle_leaf(*chunk) != image_.tree.leaf(i)) {
      throw DecodeError("checkpoint: base chunk differs from its tree");
    }
    block_ = std::move(*chunk);
    return BytesView(block_.data(), block_.size());
  }

 private:
  const CheckpointImage& image_;
  std::uint32_t next_ = 0;
  Bytes block_;
};

/// The delta build: `base` streamed through `delta` into a checkpoint
/// file, served from it once durable; in memory without a path or when
/// the write fails. Throws when the base does not merge (unreadable,
/// altered on disk, or not what the capture counted).
CheckpointImage patch(const CheckpointImage& base, const SnapshotDelta& delta,
                      InstanceId upto, std::uint32_t epoch,
                      const CheckpointConfig& config) {
  if (!config.path.empty()) {
    TempImageFile file(config, upto, epoch, delta.image_size());
    if (file.ok()) {
      BaseSource source(base);
      delta.merge(source, file);
      if (auto image = file.commit()) return std::move(*image);
    }
  }
  BaseSource source(base);
  return CheckpointImage::from_bytes(upto, delta.apply_to(source),
                                     config.chunk_size, epoch);
}

/// An image of `bytes` (a full export or an adopted image), the same
/// way: written and served from its file, else in memory.
CheckpointImage persist(Bytes bytes, InstanceId upto, std::uint32_t epoch,
                        const CheckpointConfig& config) {
  if (!config.path.empty()) {
    TempImageFile file(config, upto, epoch, bytes.size());
    file.write(BytesView(bytes.data(), bytes.size()));
    if (auto image = file.commit()) return std::move(*image);
  }
  return CheckpointImage::from_bytes(upto, std::move(bytes), config.chunk_size,
                                     epoch);
}

}  // namespace

class ImageBytes::File {
 public:
  explicit File(int fd) : fd(fd) {}
  ~File() { ::close(fd); }
  File(const File&) = delete;
  File& operator=(const File&) = delete;

  const int fd;
};

ImageBytes ImageBytes::in_file(int fd, std::uint64_t offset,
                               std::size_t size) {
  ImageBytes b;
  b.file_ = std::make_shared<const File>(fd);
  b.offset_ = offset;
  b.size_ = size;
  return b;
}

bool ImageBytes::read(std::uint64_t offset,
                      std::span<std::uint8_t> out) const {
  if (offset > size_ || out.size() > size_ - offset) return false;
  if (file_ == nullptr) {
    std::copy_n(memory_.begin() + static_cast<std::ptrdiff_t>(offset),
                out.size(), out.begin());
    return true;
  }
  return pread_all(file_->fd, out, offset_ + offset);
}

std::optional<Bytes> ImageBytes::load() const {
  if (file_ == nullptr) return memory_;
  Bytes out(size_);
  if (!read(0, out)) return std::nullopt;
  return out;
}

bool operator==(const ImageBytes& a, const Bytes& b) {
  if (a.size() != b.size()) return false;
  if (const Bytes* memory = a.memory()) return *memory == b;
  const std::optional<Bytes> bytes = a.load();
  return bytes.has_value() && *bytes == b;
}

std::optional<Bytes> CheckpointImage::chunk(std::uint32_t index) const {
  const std::uint64_t begin = static_cast<std::uint64_t>(index) * chunk_size;
  if (begin >= bytes.size()) return Bytes{};
  Bytes out(static_cast<std::size_t>(
      std::min<std::uint64_t>(chunk_size, bytes.size() - begin)));
  if (!bytes.read(begin, out)) return std::nullopt;
  return out;
}

CheckpointImage CheckpointImage::from_bytes(InstanceId upto, Bytes bytes,
                                            std::size_t chunk_size,
                                            std::uint32_t epoch) {
  CheckpointImage img;
  img.upto = upto;
  img.epoch = epoch;
  img.chunk_size = chunk_size;
  img.tree = crypto::MerkleTree::build(
      chunk_leaves(BytesView(bytes.data(), bytes.size()), chunk_size));
  img.bytes = ImageBytes(std::move(bytes));
  return img;
}

CheckpointManager::~CheckpointManager() {
  {
    const MutexLock lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  // The writer empties the queue before it exits.
  if (writer_.joinable()) writer_.join();
}

void CheckpointManager::start_writer(CompactFn compact,
                                     obs::Histogram* build_seconds,
                                     const common::Clock* clock) {
  {
    const MutexLock lock(mu_);
    if (writer_running_) return;
    writer_running_ = true;
  }
  compact_ = std::move(compact);
  build_seconds_ = build_seconds;
  clock_ = clock;
  writer_ = std::thread([this] { writer_loop(); });
}

bool CheckpointManager::on_decided(
    bm::BlockManager& bm, InstanceId floor,
    const std::function<std::uint32_t(InstanceId)>& epoch_of) {
  if (config_.interval == 0) return false;
  InstanceId newest = 0;
  {
    const MutexLock lock(mu_);
    newest = tail_.value_or(0);
  }
  if (floor < newest + config_.interval) return false;
  // Snap to the interval grid so every replica checkpoints the same
  // watermarks regardless of how floors happened to be observed.
  const InstanceId target = floor - floor % config_.interval;
  if (target <= newest) return false;
  return take(bm, target, epoch_of ? epoch_of(target) : 0);
}

bool CheckpointManager::take(bm::BlockManager& bm, InstanceId floor,
                             std::uint32_t epoch) {
  std::uint64_t failures = 0;
  {
    const MutexLock lock(mu_);
    failures = stats_.disk_failures;
  }
  if (!capture(bm, floor, epoch)) return false;
  drain();
  const MutexLock lock(mu_);
  return published_ != nullptr && published_->upto == floor &&
         stats_.disk_failures == failures;
}

bool CheckpointManager::capture(bm::BlockManager& bm, InstanceId upto,
                                std::uint32_t epoch) {
  Job job;
  job.upto = upto;
  job.epoch = epoch;
  bool delta = false;
  {
    const MutexLock lock(mu_);
    if (tail_ && upto <= *tail_) return false;
    // The change log only pays off for periodic checkpoints; it starts
    // with this capture's full export as its base.
    if (config_.interval > 0 && !bm.tracking_changes()) {
      bm.track_changes();
    }
    delta = bm.tracking_changes() && !rebase_ && tail_ &&
            bm.change_base() == tail_;
    if (delta) {
      job.base = *tail_;
    } else {
      rebase_ = false;
    }
    tail_ = upto;
  }
  if (delta) {
    job.body = bm.take_delta(upto);
  } else {
    job.body = bm.snapshot(upto);
    if (bm.tracking_changes()) bm.reset_changes(upto);
  }
  job.ledger = &bm;
  enqueue(std::move(job));
  return true;
}

bool CheckpointManager::adopt(InstanceId upto, Bytes bytes,
                              std::uint32_t epoch) {
  Job job;
  job.upto = upto;
  job.epoch = epoch;
  job.body = std::move(bytes);
  {
    const MutexLock lock(mu_);
    if (tail_ && upto <= *tail_) return false;
    tail_ = upto;
  }
  enqueue(std::move(job));
  return true;
}

void CheckpointManager::enqueue(Job job) {
  {
    const MutexLock lock(mu_);
    queue_.push_back(std::move(job));
  }
  work_cv_.notify_all();
}

void CheckpointManager::drain() {
  bool writer = false;
  {
    const MutexLock lock(mu_);
    writer = writer_running_;
    while (writer && (!queue_.empty() || building_)) idle_cv_.wait(mu_);
  }
  if (writer) return;
  // No writer: build the queue here, on the caller's thread (and under
  // whatever lock it holds).
  for (;;) {
    Job job;
    {
      const MutexLock lock(mu_);
      if (queue_.empty()) return;
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    build(job, /*on_writer=*/false);
  }
}

void CheckpointManager::writer_loop() {
  for (;;) {
    Job job;
    {
      const MutexLock lock(mu_);
      while (queue_.empty() && !stop_) work_cv_.wait(mu_);
      if (queue_.empty()) return;
      job = std::move(queue_.front());
      queue_.pop_front();
      building_ = true;
    }
    try {
      build(job, /*on_writer=*/true);
    } catch (const std::exception&) {
      // Out of memory mid-build: nothing was published, so the next
      // capture must not patch an image that never appeared.
      const MutexLock lock(mu_);
      rebase_ = true;
    }
    {
      const MutexLock lock(mu_);
      building_ = false;
    }
    idle_cv_.notify_all();
  }
}

void CheckpointManager::build(Job& job, bool on_writer) {
  const std::int64_t t0 = clock_ != nullptr ? clock_->nanos() : 0;
  const bool adopted = std::holds_alternative<Bytes>(job.body);
  const bool incremental = std::holds_alternative<SnapshotDelta>(job.body);
  std::optional<CheckpointImage> image;
  if (incremental) {
    // Jobs build in capture order and every build publishes, so the
    // image this delta patches is the one published right now — unless
    // a build in between failed.
    std::shared_ptr<const CheckpointImage> base;
    {
      const MutexLock lock(mu_);
      base = published_;
    }
    if (base != nullptr && base->upto == job.base) {
      try {
        image = patch(*base, std::get<SnapshotDelta>(job.body), job.upto,
                      job.epoch, config_);
      } catch (const std::exception&) {
        image.reset();  // unpatchable: the next capture exports in full
      }
    }
    if (!image) {
      const MutexLock lock(mu_);
      rebase_ = true;
      return;
    }
  } else {
    Bytes bytes = adopted ? std::move(std::get<Bytes>(job.body))
                          : std::get<Snapshot>(job.body).encode();
    job.body = Bytes{};  // release the capture before the image is written
    image = persist(std::move(bytes), job.upto, job.epoch, config_);
  }
  const bool durable = image->bytes.memory() == nullptr;

  auto published = std::make_shared<const CheckpointImage>(std::move(*image));
  std::shared_ptr<const CheckpointImage> replaced;
  std::optional<InstanceId> prev_disk;
  {
    // A failed write still publishes: the next delta patches this
    // image, and the in-memory copy keeps serving state transfer.
    const MutexLock lock(mu_);
    prev_disk = disk_upto_;
    if (durable) disk_upto_ = job.upto;
    if (!config_.path.empty() && !durable) ++stats_.disk_failures;
    replaced = std::exchange(published_, std::move(published));
    ++stats_.taken;
    if (incremental) ++stats_.incremental;
  }
  // The replaced image's last reference may close a file that a rotate
  // already unlinked, which frees its blocks: not under mu_.
  replaced.reset();
  if (build_seconds_ != nullptr && clock_ != nullptr) {
    build_seconds_->observe(clock_->nanos() - t0);
  }
  // The journal shrinks only once the checkpoint covering the dropped
  // records is durable — and only to the watermark <path>.prev now
  // holds, so .prev plus the tail always covers the chain (see header).
  if (durable && !adopted && prev_disk) {
    std::optional<std::size_t> dropped;
    if (on_writer) {
      if (compact_) dropped = compact_(*prev_disk);
    } else if (job.ledger != nullptr) {
      dropped = job.ledger->compact_journal(*prev_disk);
    }
    if (dropped) {
      const MutexLock lock(mu_);
      stats_.journal_dropped += *dropped;
    }
  }
}

std::optional<CheckpointManager::DiskImage> CheckpointManager::read_file(
    const std::string& path, std::size_t chunk_size) {
  // Header first, then the image straight into its own buffer: no
  // second full-size copy, and no decode before the image verified.
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  struct stat st {};
  std::uint8_t head[kMaxHeaderBytes];
  std::size_t got = 0;
  if (::fstat(fd, &st) == 0 && st.st_size > 0) {
    got = std::min<std::size_t>(static_cast<std::size_t>(st.st_size),
                                sizeof head);
    if (!pread_all(fd, std::span<std::uint8_t>(head, got), 0)) got = 0;
  }
  std::uint32_t version = 0;
  InstanceId upto = 0;
  std::uint32_t epoch = 0;
  std::uint32_t crc = 0;
  std::uint32_t file_chunk = 0;
  crypto::Hash32 root{};
  std::uint64_t len = 0;
  std::size_t header_len = 0;
  try {
    Reader r(BytesView(head, got));
    if (r.u32() != kCheckpointMagic) throw DecodeError("checkpoint: magic");
    version = r.u32();
    if (version == 0 || version > kCheckpointVersion) {
      throw DecodeError("checkpoint: version");
    }
    upto = r.u64();
    epoch = version >= 2 ? r.u32() : 0;
    if (version >= 3) {
      file_chunk = r.u32();
      const BytesView stored = r.view(root.size());
      std::copy(stored.begin(), stored.end(), root.begin());
      if (file_chunk == 0) throw DecodeError("checkpoint: chunk size");
    } else {
      crc = r.u32();
    }
    len = r.varint();
    header_len = got - r.remaining();
    // The image fills the rest of the file exactly.
    if (len > kMaxImageBytes ||
        header_len + len != static_cast<std::uint64_t>(st.st_size)) {
      throw DecodeError("checkpoint: length");
    }
  } catch (const DecodeError&) {
    ::close(fd);
    return std::nullopt;
  }
  DiskImage disk;
  disk.image.upto = upto;
  disk.image.epoch = epoch;
  disk.image.chunk_size = chunk_size;
  disk.image.bytes =
      ImageBytes::in_file(fd, header_len, static_cast<std::size_t>(len));
  std::optional<Bytes> bytes = disk.image.bytes.load();
  if (!bytes) return std::nullopt;
  disk.bytes = std::move(*bytes);

  const BytesView view(disk.bytes.data(), disk.bytes.size());
  if (version >= 3) {
    // The tree is needed anyway; rebuilding it verifies the image.
    crypto::MerkleTree stored =
        crypto::MerkleTree::build(chunk_leaves(view, file_chunk));
    if (stored.root() != root) return std::nullopt;
    if (file_chunk == chunk_size) {
      disk.image.tree = std::move(stored);
      return disk;
    }
  } else if (chain::crc32(view) != crc) {
    return std::nullopt;
  }
  disk.image.tree = crypto::MerkleTree::build(chunk_leaves(view, chunk_size));
  return disk;
}

std::optional<InstanceId> CheckpointManager::load_verified(
    const std::function<void(BytesView)>& install) {
  if (config_.path.empty()) return std::nullopt;
  std::optional<DiskImage> disk;
  bool latest_intact = false;
  for (const std::string& path : {config_.path, config_.path + ".prev"}) {
    disk = read_file(path, config_.chunk_size);
    if (!disk) continue;
    try {
      install(BytesView(disk->bytes.data(), disk->bytes.size()));
    } catch (const DecodeError&) {
      disk.reset();
      continue;
    }
    latest_intact = path == config_.path;
    break;
  }
  if (!disk) return std::nullopt;
  const InstanceId upto = disk->image.upto;
  // Installed: from here on the image is served from its file, and the
  // buffer the restore read goes.
  auto image = std::make_shared<const CheckpointImage>(std::move(disk->image));
  disk.reset();
  std::shared_ptr<const CheckpointImage> replaced;
  {
    const MutexLock lock(mu_);
    // A damaged <path> rotates into .prev on the next write, so nothing
    // may be compacted against it.
    disk_upto_ =
        latest_intact ? std::optional<InstanceId>(upto) : std::nullopt;
    replaced = std::exchange(published_, std::move(image));
    tail_ = upto;
  }
  return upto;
}

std::optional<Snapshot> CheckpointManager::load_disk() {
  std::optional<Snapshot> snap;
  (void)load_verified(
      [&snap](BytesView bytes) { snap = Snapshot::decode(bytes); });
  return snap;
}

std::optional<InstanceId> CheckpointManager::restore_disk(
    bm::BlockManager& ledger) {
  return load_verified(
      [&ledger](BytesView bytes) { (void)ledger.restore(bytes); });
}

std::shared_ptr<const CheckpointImage> CheckpointManager::image() const {
  const MutexLock lock(mu_);
  return published_;
}

const CheckpointImage* CheckpointManager::latest() const {
  const MutexLock lock(mu_);
  return published_.get();
}

InstanceId CheckpointManager::watermark() const {
  const MutexLock lock(mu_);
  return published_ ? published_->upto : 0;
}

std::uint32_t CheckpointManager::watermark_epoch() const {
  const MutexLock lock(mu_);
  return published_ ? published_->epoch : 0;
}

bool CheckpointManager::pending() const {
  const MutexLock lock(mu_);
  return !queue_.empty() || building_;
}

CheckpointStats CheckpointManager::stats() const {
  const MutexLock lock(mu_);
  return stats_;
}

}  // namespace zlb::sync
