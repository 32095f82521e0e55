#include "bm/commit_pipeline.hpp"

#include "bm/block_manager.hpp"
#include "common/serde.hpp"

namespace zlb::bm {

CommitPipeline::CommitPipeline(BlockManager& bm, common::Mutex& ledger_mu,
                               Config config, StageHists hists,
                               FlushHook hook)
    : bm_(bm),
      ledger_mu_(ledger_mu),
      config_(config),
      hists_(hists),
      hook_(std::move(hook)),
      pool_(config.workers),
      verifier_([this] { verifier_loop(); }),
      committer_([this] { committer_loop(); }) {}

CommitPipeline::~CommitPipeline() {
  drain();
  {
    const MutexLock lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  idle_cv_.notify_all();
  verifier_.join();
  committer_.join();
}

void CommitPipeline::refresh_gauges() {
  // The contiguous run at next_commit_ is committable; everything
  // beyond a hole is parked behind an undecided instance.
  std::size_t run = 0;
  InstanceId expect = next_commit_;
  for (auto it = jobs_.begin(); it != jobs_.end(); ++it) {
    if (it->first != expect) break;
    ++run;
    ++expect;
  }
  depth_.store(jobs_.size() + in_flight_, std::memory_order_relaxed);
  parked_.store(jobs_.size() - run, std::memory_order_relaxed);
}

void CommitPipeline::submit(std::uint32_t epoch, InstanceId k,
                            std::vector<Bytes> payloads) {
  {
    const MutexLock lock(mu_);
    // Below the floor (settled by snapshot or already committed) or a
    // duplicate decision replay: nothing to do.
    if (k < next_commit_ || jobs_.count(k) != 0) return;
    auto job = std::make_shared<Job>();
    job->epoch = epoch;
    job->index = k;
    job->payloads = std::move(payloads);
    // A decided instance with no payloads has nothing to decode or
    // verify: committable as-is (it only advances the floor).
    job->verified = job->payloads.empty();
    jobs_.emplace(k, std::move(job));
    refresh_gauges();
  }
  work_cv_.notify_all();
}

void CommitPipeline::drain() {
  const MutexLock lock(mu_);
  while (jobs_.count(next_commit_) != 0 || in_flight_ != 0) {
    idle_cv_.wait(mu_);
  }
}

void CommitPipeline::settle_to(InstanceId upto) {
  {
    const MutexLock lock(mu_);
    // Parked history below the watermark is covered by the installed
    // snapshot; a verifier mid-job keeps its shared_ptr alive and the
    // result is simply never committed.
    for (auto it = jobs_.begin(); it != jobs_.end() && it->first < upto;) {
      it = jobs_.erase(it);
    }
    if (next_commit_ < upto) next_commit_ = upto;
    if (floor_.load(std::memory_order_acquire) < upto) {
      floor_.store(upto, std::memory_order_release);
    }
    refresh_gauges();
  }
  work_cv_.notify_all();
  idle_cv_.notify_all();
}

void CommitPipeline::verifier_loop() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      const MutexLock lock(mu_);
      for (;;) {
        if (stop_) return;
        // Lowest unclaimed job first: the committer is waiting on the
        // floor, and parked instances beyond a gap can still pre-verify
        // while the gap decides.
        for (auto it = jobs_.begin(); it != jobs_.end(); ++it) {
          if (!it->second->verified && !it->second->verifying) {
            job = it->second;
            break;
          }
        }
        if (job != nullptr) break;
        work_cv_.wait(mu_);
      }
      job->verifying = true;
    }
    // Decode + batch-verify outside every lock: this is the expensive
    // stage, and it reads no ledger state at all.
    const std::int64_t t0 = now_ns();
    job->blocks.reserve(job->payloads.size());
    for (const Bytes& payload : job->payloads) {
      try {
        Reader r(BytesView(payload.data(), payload.size()));
        chain::Block block = chain::Block::deserialize(r);
        block.index = job->index;
        job->blocks.push_back(std::move(block));
      } catch (const DecodeError&) {
        // A proposer shipped garbage instead of a block: the consensus
        // already fixed the bytes, the application rejects them.
      }
    }
    job->payloads.clear();
    const std::int64_t t_decoded = now_ns();
    job->sig_ok.reserve(job->blocks.size());
    for (const chain::Block& block : job->blocks) {
      job->sig_ok.push_back(
          BlockManager::verify_block_signatures(block, &pool_));
    }
    const std::int64_t t_verified = now_ns();
    if (hists_.decode != nullptr) hists_.decode->observe(t_decoded - t0);
    if (hists_.verify != nullptr) {
      hists_.verify->observe(t_verified - t_decoded);
    }
    {
      const MutexLock lock(mu_);
      job->verifying = false;
      job->verified = true;
    }
    work_cv_.notify_all();
  }
}

void CommitPipeline::committer_loop() {
  for (;;) {
    std::vector<std::shared_ptr<Job>> batch;
    InstanceId new_floor = 0;
    {
      const MutexLock lock(mu_);
      for (;;) {
        if (stop_) return;
        auto it = jobs_.find(next_commit_);
        while (it != jobs_.end() && it->first == next_commit_ &&
               it->second->verified) {
          batch.push_back(std::move(it->second));
          it = jobs_.erase(it);
          ++next_commit_;
        }
        if (!batch.empty()) break;
        work_cv_.wait(mu_);
      }
      in_flight_ = batch.size();
      new_floor = next_commit_;
      refresh_gauges();
    }

    FlushBatch flush;
    flush.floor = new_floor;
    flush.instances.reserve(batch.size());
    const std::int64_t t0 = now_ns();
    std::int64_t t_applied = t0;
    {
      // The whole apply+journal stage runs under the ledger lock — and
      // ONLY the ledger lock: the consensus loop keeps deciding, and
      // the verifier keeps verifying, while this flush applies.
      const MutexLock ledger(ledger_mu_);
      for (const auto& job : batch) {
        Committed ci;
        ci.epoch = job->epoch;
        ci.index = job->index;
        ci.blocks = job->blocks.size();
        for (std::size_t b = 0; b < job->blocks.size(); ++b) {
          const BlockManager::ApplyResult res = bm_.apply_verified(
              job->blocks[b], job->sig_ok[b], &flush.committed_txs);
          ci.applied += res.applied;
          // Unsynced per record; one durability barrier per flush.
          (void)bm_.journal_append(job->blocks[b], res.was_new,
                                   /*sync_now=*/false);
          blocks_committed_.fetch_add(1, std::memory_order_relaxed);
        }
        flush.instances.push_back(std::move(ci));
        const InstanceId next = job->index + 1;
        if (config_.watermark_interval > 0 && config_.on_watermark &&
            next % config_.watermark_interval == 0) {
          config_.on_watermark(next);
        }
      }
      t_applied = now_ns();
      (void)bm_.journal_sync();
      // Published inside the ledger critical section, so a reader
      // holding ledger_mu sees a floor consistent with the state it
      // guards. max-guarded: settle_to may have leapt ahead.
      if (floor_.load(std::memory_order_acquire) < new_floor) {
        floor_.store(new_floor, std::memory_order_release);
      }
    }
    const std::int64_t t_synced = now_ns();
    if (hists_.apply != nullptr) hists_.apply->observe(t_applied - t0);
    if (hists_.journal != nullptr) {
      hists_.journal->observe(t_synced - t_applied);
    }
    // The flush hook runs with NO pipeline or ledger lock held: it may
    // take the caller's own locks (mempool eviction, decision log).
    if (hook_) hook_(flush);
    {
      const MutexLock lock(mu_);
      in_flight_ = 0;
      refresh_gauges();
    }
    idle_cv_.notify_all();
  }
}

}  // namespace zlb::bm
