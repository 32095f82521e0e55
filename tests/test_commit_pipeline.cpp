// Commit pipeline: in-order apply under shuffled decision order, worker
// count invariance, flush batching, floor semantics, and signature
// parity with the inline commit path.
//
// The workload is deliberately order-sensitive: block k spends an
// output created by block k-1, so any apply order other than 0..N-1
// skips the unfunded spends and lands on a DIFFERENT state digest.
// Digest equality with the in-order reference therefore proves the
// pipeline's contiguous-floor commit is load-bearing, not decorative.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <optional>
#include <random>
#include <unordered_set>

#include "bm/block_manager.hpp"
#include "bm/commit_pipeline.hpp"
#include "chain/mempool.hpp"
#include "chain/wallet.hpp"
#include "common/serde.hpp"
#include "sync/checkpoint.hpp"

namespace zlb::bm {
namespace {

/// Chained workload: wallet k pays wallet k+1 the whole coin, so block
/// k's only transaction spends block k-1's only output.
struct ChainedWorkload {
  std::vector<Bytes> payloads;          ///< payloads[k] = serialized block k
  std::vector<chain::Transaction> txs;  ///< txs[k] = the payment in block k
  chain::OutPoint genesis;

  explicit ChainedWorkload(std::size_t n) {
    std::vector<chain::Wallet> wallets;
    wallets.reserve(n + 1);
    for (std::size_t i = 0; i <= n; ++i) {
      wallets.emplace_back(to_bytes("pipeline-w" + std::to_string(i)));
    }
    chain::UtxoSet scratch;
    genesis = scratch.mint(wallets[0].address(), 100);
    std::pair<chain::OutPoint, chain::TxOut> coin = {
        genesis, chain::TxOut{100, wallets[0].address()}};
    for (std::size_t k = 0; k < n; ++k) {
      chain::Transaction tx =
          wallets[k].pay_from({coin}, wallets[k + 1].address(), 100);
      coin = {chain::OutPoint{tx.id(), 0}, tx.outputs[0]};
      chain::Block block;
      block.index = k;
      block.proposer = 0;
      block.txs.push_back(tx);
      payloads.push_back(block.serialize());
      txs.push_back(std::move(tx));
    }
  }

  /// Fresh ledger with only the genesis coin minted (same outpoint as
  /// the one the workload was built against: first mint of a fresh set).
  [[nodiscard]] BlockManager fresh_bm() const {
    BlockManager bm;
    chain::Wallet w0(to_bytes("pipeline-w0"));
    const auto op = bm.utxos().mint(w0.address(), 100);
    EXPECT_EQ(op, genesis);
    return bm;
  }

  /// Reference digest: the inline pre-pipeline path, in decide order.
  [[nodiscard]] crypto::Hash32 serial_digest() const {
    BlockManager bm = fresh_bm();
    for (std::size_t k = 0; k < payloads.size(); ++k) {
      Reader r(BytesView(payloads[k].data(), payloads[k].size()));
      chain::Block block = chain::Block::deserialize(r);
      block.index = k;
      EXPECT_EQ(bm.commit_block(block, /*verify_sigs=*/true), 1u);
    }
    return bm.state_digest();
  }
};

/// Checkpoint images captured by the pipeline's watermark hook, by
/// watermark. The hook runs on the committer under the ledger lock;
/// read `images` under the same lock.
class GridImages {
 public:
  static constexpr std::uint64_t kInterval = 2;

  void attach(CommitPipeline::Config& cfg, BlockManager& bm) {
    cfg.watermark_interval = kInterval;
    cfg.on_watermark = [this, &bm](InstanceId upto) {
      EXPECT_TRUE(mgr_.capture(bm, upto, 0));
      mgr_.drain();  // no writer: builds here
      images[upto] = mgr_.image()->bytes.load().value();
    };
  }

  std::map<InstanceId, Bytes> images;

 private:
  sync::CheckpointManager mgr_{sync::CheckpointConfig{"", kInterval, 64}};
};

void expect_nondecreasing(const BlockManager& bm) {
  const auto& order = bm.commit_order();
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_LE(order[i - 1], order[i]) << "commit order regressed at " << i;
  }
}

TEST(CommitPipeline, ShuffledSubmissionOrderIsCanonical) {
  const std::size_t n = 8;
  const ChainedWorkload w(n);
  const crypto::Hash32 expected = w.serial_digest();

  std::vector<std::vector<std::size_t>> orders;
  std::vector<std::size_t> in_order(n);
  std::iota(in_order.begin(), in_order.end(), 0u);
  orders.push_back(in_order);
  orders.push_back({in_order.rbegin(), in_order.rend()});
  std::mt19937 rng(7);
  for (int round = 0; round < 3; ++round) {
    auto shuffled = in_order;
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    orders.push_back(shuffled);
  }

  // Reference images: the serial path's ledger at each grid watermark.
  std::map<InstanceId, Bytes> expected_images;
  {
    BlockManager bm = w.fresh_bm();
    for (std::size_t k = 0; k < n; ++k) {
      Reader r(BytesView(w.payloads[k].data(), w.payloads[k].size()));
      chain::Block block = chain::Block::deserialize(r);
      block.index = k;
      (void)bm.commit_block(block, /*verify_sigs=*/false);
      if ((k + 1) % GridImages::kInterval == 0) {
        expected_images[k + 1] = bm.snapshot(k + 1).encode();
      }
    }
  }

  for (const auto& order : orders) {
    BlockManager bm = w.fresh_bm();
    common::Mutex ledger_mu;
    CommitPipeline::Config cfg;
    cfg.workers = 2;
    GridImages grid;
    grid.attach(cfg, bm);
    CommitPipeline pipe(bm, ledger_mu, cfg);
    for (const std::size_t k : order) {
      pipe.submit(/*epoch=*/0, k, {w.payloads[k]});
    }
    pipe.drain();
    EXPECT_EQ(pipe.committed_floor(), n);
    EXPECT_EQ(pipe.blocks_committed(), n);
    const common::MutexLock lock(ledger_mu);
    EXPECT_EQ(bm.state_digest(), expected)
        << "state diverged under shuffled decision order";
    EXPECT_EQ(bm.commit_order().size(), n);
    expect_nondecreasing(bm);
    // A checkpoint at every grid watermark, each exactly the ledger of
    // the instances below it, whatever order the decisions came in.
    EXPECT_EQ(grid.images, expected_images)
        << "checkpoint images diverged under shuffled decision order";
  }
}

TEST(CommitPipeline, WorkerCountDoesNotChangeState) {
  const ChainedWorkload w(5);
  const crypto::Hash32 expected = w.serial_digest();
  std::optional<std::map<InstanceId, Bytes>> first_images;
  for (const std::size_t workers : {0u, 1u, 3u}) {
    BlockManager bm = w.fresh_bm();
    common::Mutex ledger_mu;
    CommitPipeline::Config cfg;
    cfg.workers = workers;
    GridImages grid;
    grid.attach(cfg, bm);
    CommitPipeline pipe(bm, ledger_mu, cfg);
    for (std::size_t k = w.payloads.size(); k-- > 0;) {
      pipe.submit(0, k, {w.payloads[k]});
    }
    pipe.drain();
    const common::MutexLock lock(ledger_mu);
    EXPECT_EQ(bm.state_digest(), expected) << "workers=" << workers;
    EXPECT_EQ(grid.images.size(), 2u);  // watermarks 2 and 4
    if (!first_images) {
      first_images = grid.images;
    } else {
      EXPECT_EQ(grid.images, *first_images) << "workers=" << workers;
    }
  }
}

TEST(CommitPipeline, OutOfOrderSubmissionParksUntilGapFills) {
  const ChainedWorkload w(2);
  BlockManager bm = w.fresh_bm();
  common::Mutex ledger_mu;
  CommitPipeline pipe(bm, ledger_mu, {});
  pipe.submit(0, 1, {w.payloads[1]});
  // drain() has nothing applicable: instance 0 is missing, so 1 parks.
  pipe.drain();
  EXPECT_EQ(pipe.committed_floor(), 0u);
  EXPECT_EQ(pipe.blocks_committed(), 0u);
  EXPECT_EQ(pipe.parked(), 1u);
  pipe.submit(0, 0, {w.payloads[0]});
  pipe.drain();
  EXPECT_EQ(pipe.committed_floor(), 2u);
  EXPECT_EQ(pipe.blocks_committed(), 2u);
  EXPECT_EQ(pipe.parked(), 0u);
  const common::MutexLock lock(ledger_mu);
  EXPECT_EQ(bm.state_digest(), w.serial_digest());
}

TEST(CommitPipeline, EmptyInstanceAdvancesFloorWithoutBlocks) {
  const ChainedWorkload w(1);
  BlockManager bm = w.fresh_bm();
  common::Mutex ledger_mu;
  CommitPipeline pipe(bm, ledger_mu, {});
  pipe.submit(0, 0, {});  // decided instance with no payload
  pipe.drain();
  EXPECT_EQ(pipe.committed_floor(), 1u);
  EXPECT_EQ(pipe.blocks_committed(), 0u);
  pipe.submit(0, 1, {w.payloads[0]});
  pipe.drain();
  EXPECT_EQ(pipe.committed_floor(), 2u);
  EXPECT_EQ(pipe.blocks_committed(), 1u);
}

TEST(CommitPipeline, DuplicateAndBelowFloorSubmissionsAreDropped) {
  const ChainedWorkload w(2);
  BlockManager bm = w.fresh_bm();
  common::Mutex ledger_mu;
  CommitPipeline pipe(bm, ledger_mu, {});
  pipe.submit(0, 0, {w.payloads[0]});
  pipe.drain();
  EXPECT_EQ(pipe.blocks_committed(), 1u);
  // Same instance again (duplicate while at the floor boundary) and a
  // below-floor replay: both must be ignored.
  pipe.submit(0, 0, {w.payloads[0]});
  pipe.drain();
  EXPECT_EQ(pipe.committed_floor(), 1u);
  EXPECT_EQ(pipe.blocks_committed(), 1u);
  pipe.submit(0, 1, {w.payloads[1]});
  pipe.submit(0, 1, {w.payloads[1]});  // duplicate of a live job
  pipe.drain();
  EXPECT_EQ(pipe.committed_floor(), 2u);
  EXPECT_EQ(pipe.blocks_committed(), 2u);
}

TEST(CommitPipeline, SettleToSkipsInstancesBelowRestoredFloor) {
  const ChainedWorkload w(1);
  BlockManager bm = w.fresh_bm();
  common::Mutex ledger_mu;
  CommitPipeline pipe(bm, ledger_mu, {});
  pipe.submit(0, 4, {});  // parks behind the gap
  pipe.drain();
  EXPECT_EQ(pipe.parked(), 1u);
  // Snapshot restore up to 3: parked instance 4 survives, anything
  // below the restored floor is dropped.
  pipe.settle_to(3);
  EXPECT_EQ(pipe.committed_floor(), 3u);
  pipe.submit(0, 2, {w.payloads[0]});  // below restored floor: dropped
  pipe.submit(0, 3, {});
  pipe.drain();
  EXPECT_EQ(pipe.committed_floor(), 5u);
  EXPECT_EQ(pipe.blocks_committed(), 0u);
}

TEST(CommitPipeline, FlushBatchesCoverEveryCommittedTransaction) {
  const std::size_t n = 6;
  const ChainedWorkload w(n);
  BlockManager bm = w.fresh_bm();
  // A mempool holding every workload transaction: the flush hook's
  // batched eviction (one remove_committed per flush, not per block)
  // must drain it completely.
  chain::Mempool mempool;
  for (const auto& tx : w.txs) ASSERT_TRUE(mempool.add(tx));
  ASSERT_EQ(mempool.size(), n);

  std::vector<InstanceId> floors;
  std::size_t evicted = 0;
  common::Mutex ledger_mu;
  CommitPipeline::Config cfg;
  cfg.workers = 2;
  CommitPipeline pipe(
      bm, ledger_mu, cfg, {},
      [&](const CommitPipeline::FlushBatch& batch) {
        floors.push_back(batch.floor);
        std::unordered_set<chain::TxId, crypto::Hash32Hasher> ids(
            batch.committed_txs.begin(), batch.committed_txs.end());
        evicted += mempool.remove_committed(ids);
      });
  for (std::size_t k = n; k-- > 0;) pipe.submit(0, k, {w.payloads[k]});
  pipe.drain();
  EXPECT_EQ(pipe.committed_floor(), n);
  ASSERT_FALSE(floors.empty());
  for (std::size_t i = 1; i < floors.size(); ++i) {
    EXPECT_LT(floors[i - 1], floors[i]) << "flush floors must advance";
  }
  EXPECT_EQ(floors.back(), n);
  EXPECT_EQ(evicted, n) << "batched eviction missed committed txs";
  EXPECT_EQ(mempool.size(), 0u);
}

TEST(CommitPipeline, BadSignatureParityWithInlineCommit) {
  // One tampered signature inside an otherwise valid block: the
  // pipeline must apply exactly the set the inline verified path does.
  chain::Wallet alice(to_bytes("pipeline-bad-alice"));
  chain::Wallet bob(to_bytes("pipeline-bad-bob"));
  const auto build = []() { return BlockManager(); };
  BlockManager inline_bm = build();
  BlockManager piped_bm = build();
  std::vector<std::pair<chain::OutPoint, chain::TxOut>> coins;
  for (int i = 0; i < 3; ++i) {
    const auto op = inline_bm.utxos().mint(alice.address(), 100);
    (void)piped_bm.utxos().mint(alice.address(), 100);
    coins.push_back({op, chain::TxOut{100, alice.address()}});
  }
  chain::Block block;
  block.index = 0;
  block.txs.push_back(alice.pay_from({coins[0]}, bob.address(), 100));
  chain::Transaction tampered =
      alice.pay_from({coins[1]}, bob.address(), 100);
  tampered.inputs[0].sig[10] ^= 0x40;
  block.txs.push_back(tampered);
  block.txs.push_back(alice.pay_from({coins[2]}, bob.address(), 100));

  const std::size_t inline_applied =
      inline_bm.commit_block(block, /*verify_sigs=*/true);
  EXPECT_EQ(inline_applied, 2u);

  std::size_t piped_applied = 0;
  common::Mutex ledger_mu;
  CommitPipeline pipe(
      piped_bm, ledger_mu, {}, {},
      [&](const CommitPipeline::FlushBatch& batch) {
        for (const auto& inst : batch.instances) piped_applied += inst.applied;
      });
  pipe.submit(0, 0, {block.serialize()});
  pipe.drain();
  EXPECT_EQ(piped_applied, inline_applied);
  const common::MutexLock lock(ledger_mu);
  EXPECT_EQ(piped_bm.state_digest(), inline_bm.state_digest());
}

}  // namespace
}  // namespace zlb::bm
