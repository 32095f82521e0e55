// Client side of the chunked state transfer: a transport-agnostic
// state machine that adopts a (signature-verified) manifest, pulls the
// image with a bounded window of outstanding chunk requests, verifies
// every chunk's merkle audit path against the manifest root, survives
// connection churn by re-requesting whatever is still missing on the
// caller's resync cadence, and can retarget to a fresher manifest or
// switch sources when the current one stalls. The caller owns signature
// verification (the fetcher never sees the scheme) and the install step
// (BlockManager::restore of the assembled bytes).
//
// Cross-validated roots: with manifest_quorum > 1, a root is only
// trusted — and a transfer only starts — once that many DISTINCT
// servers have offered byte-identical manifests for the same watermark.
// Chunks merkle-verify against the root either way, but the root
// itself is one server's claim; requiring t+1 matching claims mirrors
// the t+1 rule the simulator's catch-up applies to membership, so a
// single deceitful server cannot feed a joiner a fabricated ledger.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <set>

#include "obs/metrics.hpp"
#include "sync/frames.hpp"

namespace zlb::sync {

class SnapshotFetcher {
 public:
  struct Config {
    /// Outstanding chunk-request window.
    std::uint32_t window = 16;
    /// tick() calls without progress before the window is re-requested
    /// (resume-after-churn).
    int stall_ticks = 4;
    /// Give up on the current source after this many stalled retry
    /// rounds; the next acceptable manifest (any source) is adopted.
    int max_retry_rounds = 8;
    /// Only fetch when the manifest is at least this far ahead of the
    /// caller's decision floor — below that, wire replay of the tail is
    /// cheaper than a state transfer.
    std::uint64_t min_lag = 2;
    /// Distinct servers that must offer byte-identical manifests (same
    /// watermark, root, epoch and chunk geometry) before the root is
    /// trusted and a transfer starts. 0 = deployment default (the live
    /// node raises it to its committee's t+1); an explicit 1 keeps the
    /// trust-one-server behaviour for harnesses that only have one.
    std::uint32_t manifest_quorum = 0;
  };

  /// Sends one ChunkRequest to `to` (the adopted manifest's server).
  using RequestFn = std::function<void(ReplicaId to, const ChunkRequest&)>;

  /// Counts manifests, chunks and retry rounds into `metrics`
  /// (zlb_sync_* series; see README "Observability"), which must
  /// outlive the fetcher.
  SnapshotFetcher(Config config, obs::Registry& metrics, RequestFn request);

  /// Offers a verified manifest. Adopts it (and starts requesting) when
  /// it is worth a transfer; returns true iff adopted.
  bool consider(ReplicaId from, const SnapshotManifest& manifest,
                InstanceId my_floor);

  /// Feeds one received chunk. Returns the fully assembled, merkle-
  /// verified image bytes when this chunk completes the transfer (the
  /// fetcher then goes idle); nullopt otherwise.
  [[nodiscard]] std::optional<Bytes> on_chunk(ReplicaId from,
                                              const SnapshotChunk& chunk);

  /// Drives retries; call on the owner's resync cadence.
  void tick();

  void abandon();
  [[nodiscard]] bool active() const { return active_; }
  [[nodiscard]] InstanceId target() const { return manifest_.upto; }
  [[nodiscard]] ReplicaId source() const { return source_; }
  [[nodiscard]] std::uint32_t have() const { return have_count_; }

 private:
  /// Requests not-yet-requested missing chunks until `window` are
  /// outstanding. Loss is healed by the stall path in tick(), which
  /// clears the requested marks first — so a chunk is asked for once
  /// per round, not once per sibling arrival.
  void fill_window();
  /// Records `from`'s endorsement of `m`; true once manifest_quorum
  /// distinct servers endorsed identical content.
  bool endorse(ReplicaId from, const SnapshotManifest& m,
               InstanceId my_floor);

  Config config_;
  RequestFn request_;
  bool active_ = false;
  ReplicaId source_ = 0;
  SnapshotManifest manifest_;
  /// Content digest -> distinct endorsing servers (plus the watermark,
  /// for pruning offers the floor has overtaken). Bounded by the
  /// server population: each server holds at most one endorsement.
  std::map<crypto::Hash32, std::pair<InstanceId, std::set<ReplicaId>>>
      endorsements_;
  std::map<ReplicaId, crypto::Hash32> last_endorsed_;
  Bytes buffer_;
  std::vector<std::uint8_t> have_;
  std::vector<std::uint8_t> requested_;
  std::uint32_t have_count_ = 0;
  std::uint32_t outstanding_ = 0;
  int ticks_since_progress_ = 0;
  int retry_rounds_ = 0;
  obs::Counter& manifests_endorsed_;  ///< offers counted toward quorum
  obs::Counter& manifests_adopted_;
  obs::Counter& chunks_received_;     ///< verified and new
  obs::Counter& chunks_rejected_;     ///< bad proof / geometry
  obs::Counter& retries_total_;       ///< stall-triggered re-requests
};

}  // namespace zlb::sync
