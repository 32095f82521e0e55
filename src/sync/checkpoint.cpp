#include "sync/checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

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

}  // namespace

CheckpointImage CheckpointImage::from_bytes(InstanceId upto, Bytes bytes,
                                            std::size_t chunk_size,
                                            std::uint32_t epoch) {
  CheckpointImage img;
  img.upto = upto;
  img.epoch = epoch;
  img.chunk_size = chunk_size;
  img.bytes = std::move(bytes);
  img.tree = crypto::MerkleTree::build(
      chunk_leaves(BytesView(img.bytes.data(), img.bytes.size()), chunk_size));
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
  Bytes bytes;
  if (auto* delta = std::get_if<SnapshotDelta>(&job.body)) {
    // Jobs build in capture order and every build publishes, so the
    // image this delta patches is the one published right now — unless
    // a build in between failed.
    std::shared_ptr<const CheckpointImage> base;
    {
      const MutexLock lock(mu_);
      base = published_;
    }
    std::optional<Bytes> patched;
    if (base != nullptr && base->upto == job.base) {
      try {
        patched =
            delta->apply_to(BytesView(base->bytes.data(), base->bytes.size()));
      } catch (const std::exception&) {
        patched.reset();  // unpatchable: the next capture exports in full
      }
    }
    if (!patched) {
      const MutexLock lock(mu_);
      rebase_ = true;
      return;
    }
    bytes = std::move(*patched);
  } else if (auto* snap = std::get_if<Snapshot>(&job.body)) {
    bytes = snap->encode();
  } else {
    bytes = std::move(std::get<Bytes>(job.body));
  }
  const bool adopted = std::holds_alternative<Bytes>(job.body);
  const bool incremental = std::holds_alternative<SnapshotDelta>(job.body);
  job.body = Bytes{};  // release the capture before the image grows

  auto image = std::make_shared<const CheckpointImage>(
      CheckpointImage::from_bytes(job.upto, std::move(bytes),
                                  config_.chunk_size, job.epoch));
  const bool durable = !config_.path.empty() && write_disk(*image);
  std::optional<InstanceId> prev_disk;
  {
    // A failed write still publishes: the next delta patches this
    // image, and the in-memory copy keeps serving state transfer.
    const MutexLock lock(mu_);
    prev_disk = disk_upto_;
    if (durable) disk_upto_ = job.upto;
    if (!config_.path.empty() && !durable) ++stats_.disk_failures;
    published_ = std::move(image);
    ++stats_.taken;
    if (incremental) ++stats_.incremental;
  }
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

bool CheckpointManager::write_disk(const CheckpointImage& image) const {
  Writer w;
  w.u32(kCheckpointMagic);
  w.u32(kCheckpointVersion);
  w.u64(image.upto);
  w.u32(image.epoch);
  w.u32(static_cast<std::uint32_t>(image.chunk_size));
  w.raw(BytesView(image.root().data(), image.root().size()));
  w.varint(image.bytes.size());
  const Bytes header = w.take();

  // Durability order: image data on the device, then the rename that
  // publishes it, then the directory entry (see header).
  const std::string tmp = config_.path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  bool written =
      std::fwrite(header.data(), 1, header.size(), f) == header.size() &&
      std::fwrite(image.bytes.data(), 1, image.bytes.size(), f) ==
          image.bytes.size() &&
      chain::sync_data(f);
  written = std::fclose(f) == 0 && written;
  if (!written) {
    std::remove(tmp.c_str());
    return false;
  }
  // Rotate: latest -> .prev, tmp -> latest. A failed rotate of the old
  // file is tolerable (we lose the fallback, not the checkpoint).
  (void)std::rename(config_.path.c_str(), (config_.path + ".prev").c_str());
  if (std::rename(tmp.c_str(), config_.path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  chain::sync_parent_dir(config_.path);
  return true;
}

std::optional<CheckpointImage> CheckpointManager::read_file(
    const std::string& path, std::size_t chunk_size) {
  // Header first, then the image straight into its own buffer: no
  // second full-size copy, and no decode before the image verified.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  long size = -1;  // of the whole file
  if (std::fseek(f, 0, SEEK_END) == 0) size = std::ftell(f);
  std::uint8_t head[kMaxHeaderBytes];
  std::size_t got = 0;
  if (size > 0 && std::fseek(f, 0, SEEK_SET) == 0) {
    got = std::fread(head, 1, sizeof head, f);
  }
  std::uint32_t version = 0;
  InstanceId upto = 0;
  std::uint32_t epoch = 0;
  std::uint32_t crc = 0;
  std::uint32_t file_chunk = 0;
  crypto::Hash32 root{};
  Bytes bytes;
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
    const std::uint64_t len = r.varint();
    const std::size_t header_len = got - r.remaining();
    // The image fills the rest of the file exactly.
    if (len > kMaxImageBytes ||
        header_len + len != static_cast<std::uint64_t>(size)) {
      throw DecodeError("checkpoint: length");
    }
    bytes.resize(static_cast<std::size_t>(len));
    if (std::fseek(f, static_cast<long>(header_len), SEEK_SET) != 0 ||
        std::fread(bytes.data(), 1, bytes.size(), f) != bytes.size()) {
      throw DecodeError("checkpoint: short read");
    }
  } catch (const DecodeError&) {
    std::fclose(f);
    return std::nullopt;
  }
  std::fclose(f);

  const BytesView view(bytes.data(), bytes.size());
  std::optional<crypto::MerkleTree> tree;
  if (version >= 3) {
    // The tree is needed anyway; rebuilding it verifies the image.
    crypto::MerkleTree stored =
        crypto::MerkleTree::build(chunk_leaves(view, file_chunk));
    if (stored.root() != root) return std::nullopt;
    if (file_chunk == chunk_size) tree = std::move(stored);
  } else if (chain::crc32(view) != crc) {
    return std::nullopt;
  }
  if (!tree) {
    return CheckpointImage::from_bytes(upto, std::move(bytes), chunk_size,
                                       epoch);
  }
  CheckpointImage image;
  image.upto = upto;
  image.epoch = epoch;
  image.chunk_size = chunk_size;
  image.bytes = std::move(bytes);
  image.tree = std::move(*tree);
  return image;
}

std::optional<InstanceId> CheckpointManager::load_verified(
    const std::function<void(BytesView)>& install) {
  if (config_.path.empty()) return std::nullopt;
  std::optional<CheckpointImage> image;
  bool latest_intact = false;
  for (const std::string& path : {config_.path, config_.path + ".prev"}) {
    image = read_file(path, config_.chunk_size);
    if (!image) continue;
    try {
      install(BytesView(image->bytes.data(), image->bytes.size()));
    } catch (const DecodeError&) {
      image.reset();
      continue;
    }
    latest_intact = path == config_.path;
    break;
  }
  if (!image) return std::nullopt;
  const InstanceId upto = image->upto;
  const MutexLock lock(mu_);
  // A damaged <path> rotates into .prev on the next write, so nothing
  // may be compacted against it.
  disk_upto_ = latest_intact ? std::optional<InstanceId>(upto) : std::nullopt;
  published_ = std::make_shared<const CheckpointImage>(std::move(*image));
  tail_ = upto;
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
