// Staged in-order commit pipeline: decide → decode → batch-verify →
// apply → journal as an assembly line over consecutive consensus
// instances.
//
// The consensus layer decides instances out of order; the ledger must
// apply them in order, identically on every node, or block order (and
// with it intra-block spend chains) diverges. This pipeline makes
// in-order commit the load-bearing structure instead of a re-commit
// loop: submit() accepts any decided instance at or above the
// contiguous commit floor, out-of-order decisions PARK inside the
// pipeline, and the committer applies strictly at the floor — so the
// applied block sequence is canonical by construction.
//
// In-order apply is also what makes the path pipelineable. The
// expensive stage — decode + ECDSA batch verification — is stateless
// (BlockManager::verify_block_signatures), so a dedicated verifier
// thread fans it across an owned ThreadPool while the committer thread
// applies earlier instances under the ledger lock, with the consensus
// loop thread already deciding later ones: three instances in flight
// at three different stages. Journal records are appended unsynced per
// block and fenced with ONE fdatasync barrier per flush batch.
//
// Threads & locks (see also LiveNode's threading-model comment):
//   submit()/drain()/settle_to() — any single producer thread (the
//     consensus loop). submit is non-blocking and never applies
//     in-line, so it is safe to call while holding locks that the
//     flush hook also takes.
//   verifier thread — decode + signature verify only; touches no
//     ledger state, holds only mu_ (never across the crypto).
//   committer thread — takes ledger_mu (guarding the BlockManager and
//     its journal) for the apply+journal stage, runs the watermark
//     hook inside it at each checkpoint grid point, releases it, then
//     runs the flush hook with NO pipeline or ledger lock held. The
//     flush hook may take the caller's own locks (mempool, decision
//     log).
// Lock order: caller locks > ledger_mu > mu_; mu_ is a leaf taken
// around queue state only, never across apply, I/O, or the hook.
//
// Callers must NOT hold any lock the flush hook takes while calling
// drain() — the committer needs the hook to finish a flush.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "chain/block.hpp"
#include "common/clock.hpp"
#include "common/mutex.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"

namespace zlb::bm {

class BlockManager;

/// Per-stage duration histograms in nanoseconds (register with scale
/// 1e-9); any pointer may be null. decode/verify are observed per
/// instance by the verifier thread, apply/journal per flush batch by
/// the committer thread (histograms are atomic). Namespace-scope (not
/// nested) so it is a complete aggregate where the constructor's `= {}`
/// default argument needs it.
struct CommitStageHists {
  obs::Histogram* decode = nullptr;
  obs::Histogram* verify = nullptr;
  obs::Histogram* apply = nullptr;
  obs::Histogram* journal = nullptr;
};

class CommitPipeline {
 public:
  struct Config {
    /// Verify-stage pool threads. 0 = verify serially on the verifier
    /// thread (still off the consensus loop thread).
    std::size_t workers = 1;
    /// Stage-timing clock (injectable seam). Null disables timing.
    const common::Clock* clock = nullptr;
    /// Checkpoint grid: with an interval, `on_watermark(g)` runs on the
    /// committer under ledger_mu for every grid point g > 0 the floor
    /// crosses — after instance g-1 applied and before g, so the
    /// ledger it sees is exactly the instances below g, on every node
    /// and under any decision order. It must not block: capture, don't
    /// serialize.
    std::uint64_t watermark_interval = 0;
    std::function<void(InstanceId)> on_watermark;
  };

  using StageHists = CommitStageHists;

  /// One committed instance within a flush, in commit (= index) order.
  struct Committed {
    std::uint32_t epoch = 0;
    InstanceId index = 0;
    std::size_t blocks = 0;   ///< decoded blocks applied to the ledger
    std::size_t applied = 0;  ///< transactions newly applied
  };
  /// Everything one committer flush applied, handed to the flush hook
  /// after the ledger lock is released.
  struct FlushBatch {
    InstanceId floor = 0;  ///< contiguous commit floor after this flush
    std::vector<Committed> instances;
    /// Transaction ids newly applied across the whole batch (one
    /// mempool eviction pass per flush, not per block).
    std::vector<chain::TxId> committed_txs;
  };
  using FlushHook = std::function<void(const FlushBatch&)>;

  /// `ledger_mu` is the caller's lock guarding `bm` — ledger state AND
  /// journal. The committer acquires it for each flush's apply+journal
  /// stage; everything the caller does to `bm` outside this pipeline
  /// must hold the same lock.
  CommitPipeline(BlockManager& bm, common::Mutex& ledger_mu, Config config,
                 StageHists hists = {}, FlushHook hook = nullptr);
  /// Drains applicable work, then stops and joins both stage threads.
  ~CommitPipeline();

  CommitPipeline(const CommitPipeline&) = delete;
  CommitPipeline& operator=(const CommitPipeline&) = delete;

  /// Non-blocking: hands the decided payloads of instance `k` (each a
  /// serialized chain::Block; undecodable entries are skipped) to the
  /// pipeline. Out-of-order submissions park until the gap below them
  /// decides; duplicates and instances below the floor are dropped; an
  /// empty payload list still advances the floor (a decided instance
  /// with no blocks). Never applies in-line and never blocks on
  /// pipeline depth — backpressure belongs at proposal admission.
  void submit(std::uint32_t epoch, InstanceId k, std::vector<Bytes> payloads)
      EXCLUDES(mu_);

  /// Blocks until no contiguously-applicable work remains: everything
  /// submitted at the floor has been verified, applied, journaled and
  /// flushed. Instances parked beyond a decision gap do NOT hold
  /// drain() up — they cannot commit until the gap decides.
  void drain() EXCLUDES(mu_);

  /// Snapshot-install path: discards every parked instance below
  /// `upto` and advances the floor to at least `upto` (the installed
  /// image already covers that history). Call drain() first so no
  /// flush is mid-flight.
  void settle_to(InstanceId upto) EXCLUDES(mu_);

  /// Contiguous commit floor: every instance below it is applied and
  /// journaled. Updated inside the committer's ledger critical section,
  /// so a reader holding ledger_mu sees a floor consistent with state.
  [[nodiscard]] InstanceId committed_floor() const {
    return floor_.load(std::memory_order_acquire);
  }
  /// Decided instances inside the pipeline (parked + staged + the
  /// flush in flight).
  [[nodiscard]] std::size_t depth() const {
    return depth_.load(std::memory_order_relaxed);
  }
  /// Decided instances parked behind a decision gap.
  [[nodiscard]] std::size_t parked() const {
    return parked_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t blocks_committed() const {
    return blocks_committed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t workers() const { return pool_.workers(); }

 private:
  struct Job {
    std::uint32_t epoch = 0;
    InstanceId index = 0;
    std::vector<Bytes> payloads;
    std::vector<chain::Block> blocks;               // decoded
    std::vector<std::vector<std::uint8_t>> sig_ok;  // per block, per tx
    bool verified = false;
    bool verifying = false;
  };

  void verifier_loop() EXCLUDES(mu_);
  void committer_loop() EXCLUDES(mu_);
  /// Jobs parked behind a gap (map size minus the contiguous run at
  /// next_commit_); gauges refresh on every queue transition.
  void refresh_gauges() REQUIRES(mu_);
  [[nodiscard]] std::int64_t now_ns() const {
    return config_.clock != nullptr ? config_.clock->nanos() : 0;
  }

  BlockManager& bm_;
  common::Mutex& ledger_mu_;
  const Config config_;
  const StageHists hists_;
  const FlushHook hook_;
  /// Pipeline-owned verify pool: sized by config, not shared, so bench
  /// worker sweeps measure exactly the requested parallelism.
  common::ThreadPool pool_;

  mutable common::Mutex mu_;
  common::CondVar work_cv_;  ///< submit/verify progress -> stage threads
  common::CondVar idle_cv_;  ///< commit/flush progress -> drain()
  /// Decided-but-not-committed instances by index. Ordered map: the
  /// committer walks the contiguous run from next_commit_, and protocol
  /// paths must not iterate unordered containers (lint: deterministic
  /// iteration).
  std::map<InstanceId, std::shared_ptr<Job>> jobs_ GUARDED_BY(mu_);
  InstanceId next_commit_ GUARDED_BY(mu_) = 0;
  /// Instances the committer pulled out of jobs_ for the flush it is
  /// currently applying (0 = committer idle).
  std::size_t in_flight_ GUARDED_BY(mu_) = 0;
  bool stop_ GUARDED_BY(mu_) = false;

  std::atomic<InstanceId> floor_{0};
  std::atomic<std::size_t> depth_{0};
  std::atomic<std::size_t> parked_{0};
  std::atomic<std::uint64_t> blocks_committed_{0};

  std::thread verifier_;
  std::thread committer_;
};

}  // namespace zlb::bm
