#include "sync/fetcher.hpp"

#include <algorithm>

#include "crypto/sha256.hpp"

namespace zlb::sync {

namespace {
/// Everything two honest servers at the same watermark must agree on —
/// the signed claim minus the server identity and signature.
crypto::Hash32 manifest_content_digest(const SnapshotManifest& m) {
  Writer w;
  w.u32(m.epoch);
  w.u64(m.upto);
  w.u32(m.chunk_size);
  w.u32(m.chunk_count);
  w.u64(m.total_bytes);
  w.raw(BytesView(m.root.data(), m.root.size()));
  return crypto::sha256(BytesView(w.data().data(), w.data().size()));
}
}  // namespace

SnapshotFetcher::SnapshotFetcher(Config config, obs::Registry& metrics,
                                 RequestFn request)
    : config_(config),
      request_(std::move(request)),
      manifests_endorsed_(metrics.counter(
          "zlb_sync_manifests_endorsed_total",
          "Manifest offers counted toward the cross-validation quorum")),
      manifests_adopted_(
          metrics.counter("zlb_sync_manifests_adopted_total",
                          "Manifests adopted as the transfer target")),
      chunks_received_(
          metrics.counter("zlb_sync_chunks_received_total",
                          "Snapshot chunks fetched, verified and new")),
      chunks_rejected_(metrics.counter(
          "zlb_sync_chunks_rejected_total",
          "Snapshot chunks refused (bad merkle proof, index or size)")),
      retries_total_(
          metrics.counter("zlb_sync_fetch_retry_rounds_total",
                          "Stall-triggered chunk re-request rounds")) {}

bool SnapshotFetcher::endorse(ReplicaId from, const SnapshotManifest& m,
                              InstanceId my_floor) {
  if (config_.manifest_quorum <= 1) return true;
  // Drop endorsement sets the floor has overtaken — they can never be
  // adopted and a server churning watermarks must not grow this map.
  for (auto it = endorsements_.begin(); it != endorsements_.end();) {
    if (it->second.first < my_floor + config_.min_lag) {
      it = endorsements_.erase(it);
    } else {
      ++it;
    }
  }
  const crypto::Hash32 digest = manifest_content_digest(m);
  // One standing endorsement per server: an honest server only ever
  // re-offers the same or a fresher image, so moving its vote costs
  // nothing — and a deceitful server fabricating a different root per
  // frame then occupies exactly one entry instead of growing the map
  // by one per frame until OOM.
  const auto prev = last_endorsed_.find(from);
  if (prev != last_endorsed_.end() && !(prev->second == digest)) {
    const auto old = endorsements_.find(prev->second);
    if (old != endorsements_.end()) {
      old->second.second.erase(from);
      if (old->second.second.empty()) endorsements_.erase(old);
    }
  }
  last_endorsed_[from] = digest;
  auto& entry = endorsements_[digest];
  entry.first = m.upto;
  if (entry.second.insert(from).second) manifests_endorsed_.inc();
  return entry.second.size() >= config_.manifest_quorum;
}

bool SnapshotFetcher::consider(ReplicaId from, const SnapshotManifest& m,
                               InstanceId my_floor) {
  if (!m.plausible()) return false;
  if (m.upto < my_floor + config_.min_lag) return false;
  // The root must be cross-validated before it is worth anything: a
  // lone server's claim (however fresh) neither starts nor retargets a
  // transfer until manifest_quorum distinct servers signed the same
  // content.
  if (!endorse(from, m, my_floor)) return false;
  if (active_) {
    const bool fresher = m.upto > manifest_.upto;
    const bool given_up = retry_rounds_ >= config_.max_retry_rounds;
    // Same image from the same source: nothing to change. A fresher
    // image is always worth restarting for; the same (or an older-but-
    // acceptable) image from elsewhere only once this source stalled
    // out — chunks verify against the root, so switching is safe.
    if (!fresher && !(given_up && from != source_)) return false;
  }
  active_ = true;
  source_ = from;
  manifest_ = m;
  buffer_.assign(static_cast<std::size_t>(m.total_bytes), 0);
  have_.assign(m.chunk_count, 0);
  requested_.assign(m.chunk_count, 0);
  have_count_ = 0;
  outstanding_ = 0;
  ticks_since_progress_ = 0;
  retry_rounds_ = 0;
  manifests_adopted_.inc();
  fill_window();
  return true;
}

void SnapshotFetcher::fill_window() {
  // Lowest-index chunks that are neither received nor in flight,
  // coalesced into contiguous ranges, until `window` are outstanding.
  std::uint32_t budget =
      config_.window > outstanding_ ? config_.window - outstanding_ : 0;
  std::uint32_t i = 0;
  while (i < manifest_.chunk_count && budget > 0) {
    if (have_[i] != 0 || requested_[i] != 0) {
      ++i;
      continue;
    }
    std::uint32_t end = i;
    while (end < manifest_.chunk_count && have_[end] == 0 &&
           requested_[end] == 0 && end - i < budget) {
      requested_[end] = 1;
      ++end;
    }
    ChunkRequest req;
    req.upto = manifest_.upto;
    req.first = i;
    req.count = end - i;
    request_(source_, req);
    outstanding_ += req.count;
    budget -= req.count;
    i = end;
  }
}

std::optional<Bytes> SnapshotFetcher::on_chunk(ReplicaId /*from*/,
                                               const SnapshotChunk& chunk) {
  // Chunks are validated against the adopted manifest, not the sender:
  // any peer holding the same image may serve it.
  if (!active_ || chunk.upto != manifest_.upto) return std::nullopt;
  if (chunk.index >= manifest_.chunk_count) {
    chunks_rejected_.inc();
    return std::nullopt;
  }
  const std::size_t begin =
      static_cast<std::size_t>(chunk.index) * manifest_.chunk_size;
  const std::size_t expect =
      std::min<std::size_t>(manifest_.chunk_size, buffer_.size() - begin);
  if (chunk.data.size() != expect) {
    chunks_rejected_.inc();
    return std::nullopt;
  }
  const crypto::Hash32 leaf =
      crypto::merkle_leaf(BytesView(chunk.data.data(), chunk.data.size()));
  if (!crypto::MerkleTree::verify(manifest_.root, chunk.index,
                                  manifest_.chunk_count, leaf, chunk.proof)) {
    chunks_rejected_.inc();
    return std::nullopt;
  }
  if (have_[chunk.index] != 0) return std::nullopt;  // duplicate
  std::copy(chunk.data.begin(), chunk.data.end(), buffer_.begin() + begin);
  have_[chunk.index] = 1;
  ++have_count_;
  if (requested_[chunk.index] != 0 && outstanding_ > 0) --outstanding_;
  chunks_received_.inc();
  ticks_since_progress_ = 0;
  retry_rounds_ = 0;
  if (have_count_ < manifest_.chunk_count) {
    fill_window();
    return std::nullopt;
  }
  active_ = false;
  return std::move(buffer_);
}

void SnapshotFetcher::tick() {
  if (!active_) return;
  if (++ticks_since_progress_ < config_.stall_ticks) return;
  ticks_since_progress_ = 0;
  ++retry_rounds_;
  retries_total_.inc();
  // Everything in flight is presumed lost with the stalled connection:
  // forget the requested marks and ask again from the lowest gap.
  std::fill(requested_.begin(), requested_.end(), std::uint8_t{0});
  outstanding_ = 0;
  fill_window();
}

void SnapshotFetcher::abandon() {
  active_ = false;
  buffer_.clear();
  have_.clear();
  requested_.clear();
  have_count_ = 0;
  outstanding_ = 0;
}

}  // namespace zlb::sync
