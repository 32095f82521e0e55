// State-sync microbenchmarks: what a checkpoint costs the serving
// replica (snapshot export + canonical encode + chunk merkleization,
// and the periodic delta build nodes run: the previous image streamed
// file to file through the merge with ~1% of outpoints changed) and
// what a transfer costs the joiner (per-chunk proof verification, then
// the one-pass bytes restore that nodes run), as a function of ledger
// size. A plain main() program printing one JSON object per line so CI
// can archive the numbers and future PRs get a perf trajectory.
//
//   ZLB_BENCH_FULL=1  larger ledger grid
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bm/block_manager.hpp"
#include "chain/wallet.hpp"
#include "sync/checkpoint.hpp"
#include "sync/fetcher.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// A ledger with `utxo_target` live outputs built from committed blocks.
zlb::bm::BlockManager build_ledger(std::size_t utxo_target) {
  zlb::bm::BlockManager bm;
  zlb::chain::Wallet alice(zlb::to_bytes("bench-alice"));
  zlb::chain::Wallet bob(zlb::to_bytes("bench-bob"));
  // Mint in bulk, then one committed block of real (signed) payments so
  // known-txs / ever-values sections carry weight too.
  for (std::size_t i = 0; i < utxo_target; ++i) {
    bm.utxos().mint(alice.address(), 1000);
  }
  zlb::chain::Block b;
  b.index = 0;
  for (int i = 0; i < 64; ++i) {
    const auto tx = alice.pay(bm.utxos(), bob.address(), 10);
    if (tx) b.txs.push_back(*tx);
  }
  bm.commit_block(b, /*verify_sigs=*/false);
  return bm;
}

/// Changes about 1% of `bm`'s outpoints: spends every 200th live
/// output and mints as many new ones.
void churn(zlb::bm::BlockManager& bm) {
  const auto live = bm.utxos().entries();
  const zlb::chain::Wallet carol(zlb::to_bytes("bench-carol"));
  for (std::size_t i = 0; i < live.size(); i += 200) {
    bm.utxos().consume(live[i].first);
    (void)bm.utxos().mint(carol.address(), 7);
  }
}

/// Times one delta checkpoint built from a file-backed base (the
/// previous image, written at watermark 1) into a new file. Returns
/// false unless the build was incremental and its image equals a full
/// export.
bool delta_build(zlb::bm::BlockManager& bm, double& ms) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("zlb-bench-state-sync-" + std::to_string(::getpid()) + ".ckpt"))
          .string();
  bool ok = false;
  {
    zlb::sync::CheckpointManager mgr(
        zlb::sync::CheckpointConfig{path, /*interval=*/1});
    if (mgr.take(bm, 1)) {
      churn(bm);
      const auto t0 = Clock::now();
      const bool taken = mgr.take(bm, 2);
      ms = ms_since(t0);
      const zlb::sync::CheckpointImage* image = mgr.latest();
      ok = taken && mgr.stats().incremental == 1 &&
           image->bytes.memory() == nullptr &&
           image->bytes == bm.snapshot(2).encode();
    }
  }
  for (const char* suffix : {"", ".prev", ".tmp"}) {
    std::filesystem::remove(path + suffix);
  }
  return ok;
}

}  // namespace

int main() {
  const bool full = []() {
    const char* env = std::getenv("ZLB_BENCH_FULL");
    return env != nullptr && env[0] == '1';
  }();
  std::vector<std::size_t> sizes = {1000, 10000};
  if (full) sizes = {1000, 10000, 100000, 500000};
  constexpr std::size_t kChunk = 64 * 1024;

  for (const std::size_t n : sizes) {
    zlb::bm::BlockManager bm = build_ledger(n);

    auto t0 = Clock::now();
    const zlb::sync::Snapshot snap = bm.snapshot(1);
    const double snapshot_ms = ms_since(t0);

    t0 = Clock::now();
    zlb::Bytes bytes = snap.encode();
    const double encode_ms = ms_since(t0);
    const std::size_t image_bytes = bytes.size();

    t0 = Clock::now();
    const auto image = zlb::sync::CheckpointImage::from_bytes(
        1, std::move(bytes), kChunk);
    const double merkle_ms = ms_since(t0);

    // Joiner side: verify every chunk's audit path (what the fetcher
    // does per received chunk), then restore from the bytes.
    t0 = Clock::now();
    std::size_t verified = 0;
    for (std::uint32_t i = 0; i < image.chunks(); ++i) {
      const auto proof = image.tree.proof(i);
      const auto chunk = image.chunk(i).value();
      const auto leaf = zlb::crypto::merkle_leaf(chunk);
      if (zlb::crypto::MerkleTree::verify(image.root(), i, image.chunks(),
                                          leaf, proof)) {
        ++verified;
      }
    }
    const double verify_ms = ms_since(t0);

    t0 = Clock::now();
    zlb::bm::BlockManager joiner;
    (void)joiner.restore(*image.bytes.memory());
    const double restore_ms = ms_since(t0);

    const bool restored = verified == image.chunks() &&
                          joiner.state_digest() == bm.state_digest();
    double delta_ms = 0;
    const bool ok = delta_build(bm, delta_ms) && restored;
    std::printf(
        "{\"bench\":\"state_sync\",\"utxos\":%zu,\"image_bytes\":%zu,"
        "\"chunks\":%u,\"snapshot_ms\":%.3f,\"encode_ms\":%.3f,"
        "\"merkle_ms\":%.3f,\"verify_all_chunks_ms\":%.3f,"
        "\"decode_restore_ms\":%.3f,\"delta_build_ms\":%.3f,"
        "\"ok\":%s}\n",
        n, image_bytes, image.chunks(), snapshot_ms, encode_ms, merkle_ms,
        verify_ms, restore_ms, delta_ms, ok ? "true" : "false");
    if (!ok) return 1;
  }
  return 0;
}
