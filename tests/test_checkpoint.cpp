// CheckpointManager: interval-grid triggering, atomic on-disk images
// with the .prev fallback, journal compaction lagging one checkpoint,
// and the crash-recovery contract — restart from snapshot + journal
// tail is bit-identical to an uninterrupted replica and replays only
// the post-checkpoint tail (asserted via ReplayStats). Incremental
// images (a captured delta merged into the previous image) must equal
// a full export byte for byte, inline and on the background writer.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <random>

#include "chain/journal.hpp"
#include "chain/wallet.hpp"
#include "common/serde.hpp"
#include "sync/checkpoint.hpp"

namespace zlb::sync {
namespace {

/// Flips one bit of the byte in the middle of `path`, in place (so an
/// open descriptor of the file sees it too).
void flip_middle_byte(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, size / 2, SEEK_SET);
  const int c = std::fgetc(f);
  std::fseek(f, size / 2, SEEK_SET);
  std::fputc(c ^ 0x20, f);
  std::fclose(f);
}

/// A checkpoint path in the temp directory, with its .prev and .tmp
/// siblings removed before and after use.
class ScratchPath {
 public:
  explicit ScratchPath(const std::string& name)
      : path_((std::filesystem::temp_directory_path() /
               ("zlb-ckpt-" + std::to_string(::getpid()) + "-" + name))
                  .string()) {
    clear();
  }
  ~ScratchPath() { clear(); }
  ScratchPath(const ScratchPath&) = delete;
  ScratchPath& operator=(const ScratchPath&) = delete;

  [[nodiscard]] const std::string& str() const { return path_; }

 private:
  void clear() {
    for (const auto& p : {path_, path_ + ".prev", path_ + ".tmp"}) {
      std::filesystem::remove_all(p);
    }
  }

  std::string path_;
};

class CheckpointFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = (std::filesystem::temp_directory_path() /
             ("zlb-ckpt-" + std::to_string(::getpid()) + "-" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name()))
                .string();
    journal_ = base_ + ".wal";
    ckpt_ = base_ + ".ckpt";
    for (const auto& p :
         {journal_, ckpt_, ckpt_ + ".prev", ckpt_ + ".tmp"}) {
      std::remove(p.c_str());
    }
  }
  void TearDown() override {
    for (const auto& p :
         {journal_, ckpt_, ckpt_ + ".prev", ckpt_ + ".tmp"}) {
      std::remove(p.c_str());
    }
  }

  /// One block per instance: alice pays bob 1 coin from a fresh mint
  /// (every block is valid against the running UTXO set).
  chain::Block make_block(bm::BlockManager& bm, InstanceId index) {
    chain::Block b;
    b.index = index;
    const auto tx = alice_.pay(bm.utxos(), bob_.address(), 1);
    if (tx) b.txs.push_back(*tx);
    return b;
  }

  std::string base_, journal_, ckpt_;
  chain::Wallet alice_{to_bytes("alice")};
  chain::Wallet bob_{to_bytes("bob")};
};

TEST_F(CheckpointFixture, IntervalSnapsToGrid) {
  bm::BlockManager bm;
  bm.utxos().mint(alice_.address(), 1000);
  CheckpointManager mgr(CheckpointConfig{"", 10, 64});
  EXPECT_FALSE(mgr.on_decided(bm, 9));
  EXPECT_TRUE(mgr.on_decided(bm, 10));
  EXPECT_EQ(mgr.watermark(), 10u);
  EXPECT_FALSE(mgr.on_decided(bm, 19));
  // A floor that jumped several intervals lands on the grid, not on
  // the raw floor.
  EXPECT_TRUE(mgr.on_decided(bm, 37));
  EXPECT_EQ(mgr.watermark(), 30u);
  EXPECT_EQ(mgr.stats().taken, 2u);
  ASSERT_NE(mgr.latest(), nullptr);
  EXPECT_GT(mgr.latest()->chunks(), 0u);
}

TEST_F(CheckpointFixture, DiskRoundtripAndJournalCompaction) {
  crypto::Hash32 digest_before{};
  {
    bm::BlockManager bm;
    bm.utxos().mint(alice_.address(), 1000);
    ASSERT_TRUE(bm.open_journal(journal_).has_value());
    CheckpointManager mgr(CheckpointConfig{ckpt_, 10, 128});
    for (InstanceId k = 0; k < 25; ++k) {
      bm.commit_block(make_block(bm, k));
      (void)mgr.on_decided(bm, k + 1);
    }
    EXPECT_EQ(mgr.watermark(), 20u);
    // Compaction lags one checkpoint: at the wm=20 checkpoint the
    // journal dropped records below wm=10 (the .prev watermark).
    EXPECT_GT(mgr.stats().journal_dropped, 0u);
    digest_before = bm.state_digest();
  }

  // Second life: checkpoint restore + tail replay.
  bm::BlockManager bm;
  CheckpointManager mgr(CheckpointConfig{ckpt_, 10, 128});
  const auto snap = mgr.load_disk();
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->upto, 20u);
  bm.restore(*snap);
  const auto stats = bm.open_journal(journal_);
  ASSERT_TRUE(stats.has_value());
  // Only the tail: blocks 10..24 (compaction floor was the .prev
  // watermark 10), far fewer than the 25 of a full replay.
  EXPECT_EQ(stats->blocks, 15u);
  EXPECT_EQ(bm.state_digest(), digest_before);
  EXPECT_EQ(bm.utxos().balance(bob_.address()), 25);
}

TEST_F(CheckpointFixture, CrashMidAppendRecoversBitIdentical) {
  // Reference replica: never crashes, commits blocks 0..19 (the 20th
  // block is the one the crash tears — it never counts anywhere).
  bm::BlockManager reference;
  reference.utxos().mint(alice_.address(), 1000);
  bm::BlockManager bm;
  bm.utxos().mint(alice_.address(), 1000);
  ASSERT_TRUE(bm.open_journal(journal_).has_value());
  CheckpointManager mgr(CheckpointConfig{ckpt_, 8, 64});
  for (InstanceId k = 0; k < 20; ++k) {
    const chain::Block b = make_block(bm, k);
    bm.commit_block(b);
    reference.commit_block(b);
    (void)mgr.on_decided(bm, k + 1);
  }
  ASSERT_EQ(mgr.watermark(), 16u);
  // "Kill the node mid-append": a 21st block whose journal record is
  // torn — chop bytes off the tail, exactly what a crash leaves.
  bm.commit_block(make_block(bm, 20));
  {
    const auto size = std::filesystem::file_size(journal_);
    std::filesystem::resize_file(journal_, size - 9);
  }

  // Restart: snapshot first, then the surviving journal tail.
  bm::BlockManager reborn;
  CheckpointManager mgr2(CheckpointConfig{ckpt_, 8, 64});
  const auto snap = mgr2.load_disk();
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->upto, 16u);
  reborn.restore(*snap);
  const auto stats = reborn.open_journal(journal_);
  ASSERT_TRUE(stats.has_value());
  EXPECT_GT(stats->truncated_bytes, 0u) << "torn record must be dropped";
  // Post-checkpoint tail only: blocks 8..19 (compaction floor = .prev
  // watermark 8), not the 20 a genesis replay would deliver.
  EXPECT_EQ(stats->blocks, 12u);
  EXPECT_EQ(reborn.state_digest(), reference.state_digest())
      << "snapshot + tail must equal the uninterrupted replica";
}

TEST_F(CheckpointFixture, CorruptLatestFallsBackToPrev) {
  bm::BlockManager bm;
  bm.utxos().mint(alice_.address(), 1000);
  ASSERT_TRUE(bm.open_journal(journal_).has_value());
  CheckpointManager mgr(CheckpointConfig{ckpt_, 5, 64});
  for (InstanceId k = 0; k < 12; ++k) {
    bm.commit_block(make_block(bm, k));
    (void)mgr.on_decided(bm, k + 1);
  }
  ASSERT_EQ(mgr.watermark(), 10u);
  // Flip a byte inside the latest image's payload.
  flip_middle_byte(ckpt_);
  bm::BlockManager reborn;
  CheckpointManager mgr2(CheckpointConfig{ckpt_, 5, 64});
  const auto snap = mgr2.load_disk();
  ASSERT_TRUE(snap.has_value()) << "must fall back to .prev";
  EXPECT_EQ(snap->upto, 5u);
  reborn.restore(*snap);
  const auto stats = reborn.open_journal(journal_);
  ASSERT_TRUE(stats.has_value());
  // The journal floor is the .prev watermark, so .prev + tail covers
  // everything even with the latest image gone.
  EXPECT_EQ(reborn.state_digest(), bm.state_digest());
}

TEST_F(CheckpointFixture, RestoreDiskSkipsAnUndecodableLatestForPrev) {
  // A latest file whose merkle root verifies over bytes no decoder
  // accepts (an adopted image whose servers committed to garbage): both
  // loaders fall back to .prev, and the restore keeps nothing of it.
  bm::BlockManager bm;
  bm.utxos().mint(alice_.address(), 1000);
  for (InstanceId k = 0; k < 10; ++k) bm.commit_block(make_block(bm, k));
  Bytes garbage = bm.snapshot(20).encode();
  garbage.push_back(0);
  {
    CheckpointManager mgr(CheckpointConfig{ckpt_, 0, 64});
    ASSERT_TRUE(mgr.take(bm, 10));
    ASSERT_TRUE(mgr.adopt(20, garbage));
    mgr.drain();
    ASSERT_EQ(mgr.watermark(), 20u);
  }
  CheckpointManager mgr(CheckpointConfig{ckpt_, 0, 64});
  bm::BlockManager reborn;
  EXPECT_EQ(mgr.restore_disk(reborn), std::optional<InstanceId>(10));
  EXPECT_EQ(reborn.state_digest(), bm.state_digest());
  EXPECT_EQ(reborn.change_base(), std::optional<InstanceId>(10));
  EXPECT_EQ(mgr.watermark(), 10u);
  ASSERT_NE(mgr.latest(), nullptr);
  EXPECT_EQ(mgr.latest()->bytes, bm.snapshot(10).encode());
  CheckpointManager reference(CheckpointConfig{ckpt_, 0, 64});
  const auto snap = reference.load_disk();
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->upto, 10u);

  // Neither file intact: nothing restored or published, the ledger
  // untouched.
  ASSERT_EQ(std::remove((ckpt_ + ".prev").c_str()), 0);
  CheckpointManager none(CheckpointConfig{ckpt_, 0, 64});
  (void)reborn.utxos().mint(bob_.address(), 5);
  const crypto::Hash32 before = reborn.state_digest();
  EXPECT_FALSE(none.restore_disk(reborn).has_value());
  EXPECT_EQ(reborn.state_digest(), before);
  EXPECT_EQ(none.latest(), nullptr);
}

TEST_F(CheckpointFixture, MemoryModeNeverTouchesDiskOrJournal) {
  bm::BlockManager bm;
  bm.utxos().mint(alice_.address(), 1000);
  ASSERT_TRUE(bm.open_journal(journal_).has_value());
  CheckpointManager mgr(CheckpointConfig{"", 4, 64});
  for (InstanceId k = 0; k < 10; ++k) {
    bm.commit_block(make_block(bm, k));
    (void)mgr.on_decided(bm, k + 1);
  }
  EXPECT_EQ(mgr.watermark(), 8u);
  EXPECT_EQ(mgr.stats().journal_dropped, 0u)
      << "a volatile checkpoint must never shrink the durable journal";
  EXPECT_FALSE(std::filesystem::exists(ckpt_));
  // Full replay still possible.
  bm::BlockManager reborn;
  const auto stats = reborn.open_journal(journal_);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->blocks, 10u);
}

TEST_F(CheckpointFixture, LegacyV2FileStillLoads) {
  bm::BlockManager bm;
  bm.utxos().mint(alice_.address(), 1000);
  bm.commit_block(make_block(bm, 0));
  const Bytes image = bm.snapshot(7).encode();
  // A v2 file: magic, version, upto, epoch, CRC-32 of the image,
  // varint length, image.
  Writer w;
  w.u32(0x5a4c424b);
  w.u32(2);
  w.u64(7);
  w.u32(3);
  w.u32(chain::crc32(BytesView(image.data(), image.size())));
  w.varint(image.size());
  w.raw(BytesView(image.data(), image.size()));
  const Bytes file = w.take();
  {
    std::FILE* f = std::fopen(ckpt_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(file.data(), 1, file.size(), f), file.size());
    std::fclose(f);
  }
  CheckpointManager mgr(CheckpointConfig{ckpt_, 0, 64});
  const auto snap = mgr.load_disk();
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->upto, 7u);
  EXPECT_EQ(mgr.watermark_epoch(), 3u);
  ASSERT_NE(mgr.latest(), nullptr);
  EXPECT_EQ(mgr.latest()->bytes, image);
  EXPECT_EQ(snap->state_digest(), bm.state_digest());
}

TEST_F(CheckpointFixture, ChunkSizeChangeStillLoads) {
  bm::BlockManager bm;
  bm.utxos().mint(alice_.address(), 1000);
  {
    CheckpointManager mgr(CheckpointConfig{ckpt_, 0, 64});
    ASSERT_TRUE(mgr.take(bm, 3));
  }
  // The file's root is over 64-byte chunks; a loader configured for
  // another geometry verifies at 64 and serves its own.
  CheckpointManager mgr(CheckpointConfig{ckpt_, 0, 32});
  ASSERT_TRUE(mgr.load_disk().has_value());
  ASSERT_NE(mgr.latest(), nullptr);
  EXPECT_EQ(mgr.latest()->chunk_size, 32u);
  EXPECT_EQ(mgr.latest()->root(),
            CheckpointImage::from_bytes(3, bm.snapshot(3).encode(), 32).root());
}

/// Random ledger histories for the incremental-image property: agreed
/// blocks with intra-block spend chains, fork merges with conflicting
/// and not-yet-spendable inputs (moving the deposit, inputs-deposit
/// and, through refunds, the UTXO set), punishments, mints, deposit
/// top-ups, and restores mid-history.
class History {
 public:
  explicit History(std::uint64_t seed) : rng_(seed) {
    for (int i = 0; i < 6; ++i) {
      wallets_.emplace_back(to_bytes("hist-" + std::to_string(i)));
    }
  }

  void seed(bm::BlockManager& bm) {
    for (int i = 0; i < 24; ++i) mint(bm);
    bm.fund_deposit(1000);
  }

  /// One decided instance's worth of random mutations.
  void step(bm::BlockManager& bm, InstanceId index) {
    const int ops = 1 + static_cast<int>(rng_() % 3);
    for (int i = 0; i < ops; ++i) {
      switch (rng_() % 8) {
        case 0:
        case 1:
        case 2:
          agreed_chain(bm, index);
          break;
        case 3:
        case 4:
          conflicting_merge(bm, index);
          break;
        case 5:
          bm.punish_account(wallet().address());
          break;
        case 6:
          mint(bm);
          break;
        default:
          bm.fund_deposit(static_cast<chain::Amount>(rng_() % 50));
          break;
      }
    }
  }

 private:
  chain::Wallet& wallet() { return wallets_[rng_() % wallets_.size()]; }

  void mint(bm::BlockManager& bm) {
    (void)bm.utxos().mint(wallet().address(),
                          10 + static_cast<chain::Amount>(rng_() % 90));
  }

  /// A coin of `w`, if it owns one.
  std::optional<std::pair<chain::OutPoint, chain::TxOut>> coin_of(
      const bm::BlockManager& bm, const chain::Wallet& w) {
    const auto coins = bm.utxos().owned_by(w.address());
    if (coins.empty()) return std::nullopt;
    return coins[rng_() % coins.size()];
  }

  /// Agreed block: A pays B, then B re-spends that fresh output in the
  /// same block (and sometimes C again).
  void agreed_chain(bm::BlockManager& bm, InstanceId index) {
    chain::Wallet& a = wallet();
    const auto coin = coin_of(bm, a);
    if (!coin) return;
    chain::Block block;
    block.index = index;
    std::pair<chain::OutPoint, chain::TxOut> carry = *coin;
    chain::Wallet* payer = &a;
    const int hops = 1 + static_cast<int>(rng_() % 3);
    for (int h = 0; h < hops; ++h) {
      chain::Wallet& payee = wallet();
      const chain::Amount value =
          1 + static_cast<chain::Amount>(rng_() %
                                         static_cast<std::uint64_t>(
                                             carry.second.value));
      chain::Transaction tx = payer->pay_from({carry}, payee.address(), value);
      carry = {chain::OutPoint{tx.id(), 0}, tx.outputs[0]};
      spent_.push_back(tx.inputs[0].prev);
      block.txs.push_back(std::move(tx));
      payer = &payee;
    }
    (void)bm.apply_verified(block, {});
  }

  /// Fork merge: one transaction double-spends an already-spent coin
  /// (funded from the deposit); another spends the output of a
  /// transaction the ledger has not seen yet, which the parent's later
  /// arrival makes spendable (refunding the deposit).
  void conflicting_merge(bm::BlockManager& bm, InstanceId index) {
    chain::Block block;
    block.index = index;
    if (!spent_.empty()) {
      chain::Transaction tx;
      chain::TxIn in;
      in.prev = spent_[rng_() % spent_.size()];
      in.value = 5;
      tx.inputs.push_back(in);
      tx.outputs.push_back(chain::TxOut{4, wallet().address()});
      tx.seq = rng_();
      block.txs.push_back(tx);
    }
    if (pending_parent_) {
      block.txs.push_back(*pending_parent_);  // arrives after its child
      pending_parent_.reset();
    } else if (const auto coin = coin_of(bm, wallets_[0])) {
      chain::Transaction parent =
          wallets_[0].pay_from({*coin}, wallets_[1].address(), 1);
      chain::Transaction child;
      chain::TxIn in;
      in.prev = chain::OutPoint{parent.id(), 0};
      in.value = 1;
      child.inputs.push_back(in);
      child.outputs.push_back(chain::TxOut{1, wallet().address()});
      child.seq = rng_();
      block.txs.push_back(child);
      pending_parent_ = parent;
    }
    bm.merge_block(block);
  }

  std::mt19937_64 rng_;
  std::vector<chain::Wallet> wallets_;
  std::vector<chain::OutPoint> spent_;
  std::optional<chain::Transaction> pending_parent_;
};

/// Counts of what one randomized incremental history exercised.
struct HistoryRun {
  std::size_t restores = 0;
  std::size_t file_images = 0;  ///< images published from their file
  std::size_t restarts = 0;     ///< managers replaced by a disk restore
  std::size_t prev_restarts = 0;  ///< of those, from <path>.prev
  std::size_t failed_writes = 0;
};

/// The incremental-image property over one random history: every
/// published image equals a full export of the state it was captured
/// from. With a `path`, images are merged file to file, and the history
/// also restarts the manager from disk (sometimes from .prev, with the
/// latest file damaged) and fails writes (a directory squatting on
/// <path>.tmp), so merges also run from a .prev-backed base and from
/// the memory base a failed write leaves.
HistoryRun incremental_history(std::uint64_t seed, const std::string& path) {
  HistoryRun run;
  History history(seed);
  bm::BlockManager bm;
  history.seed(bm);
  const CheckpointConfig config{path, 3, 256};
  auto mgr = std::make_unique<CheckpointManager>(config);
  std::mt19937_64 rng(seed * 977);
  std::optional<Snapshot> saved;
  std::size_t checked = 0;
  std::size_t incremental = 0;
  std::size_t durable = 0;
  for (InstanceId k = 0; k < 60; ++k) {
    history.step(bm, k);
    if (rng() % 17 == 0 && saved.has_value()) {
      ++run.restores;
      // Restore mid-history: an older state, relabelled at the
      // current floor. Adopted, it is the base the next delta
      // patches; restored but NOT adopted, the next capture must
      // notice the log no longer matches and export in full.
      Snapshot s = *saved;
      s.upto = k + 1;
      bm.restore(s);
      if (rng() % 2 == 0) {
        EXPECT_TRUE(mgr->adopt(s.upto, s.encode()));
      }
    }
    if (!path.empty() && durable >= 2 && rng() % 13 == 0) {
      // Restart from disk; a damaged latest file falls back to .prev.
      const bool damage = rng() % 2 == 0;
      if (damage) flip_middle_byte(path);
      incremental += mgr->stats().incremental;
      mgr = std::make_unique<CheckpointManager>(config);
      const auto upto = mgr->restore_disk(bm);
      EXPECT_TRUE(upto.has_value()) << "seed " << seed;
      if (!upto) return run;
      EXPECT_EQ(mgr->latest()->bytes.memory(), nullptr);
      EXPECT_EQ(mgr->latest()->bytes, bm.snapshot(*upto).encode());
      ++run.restarts;
      if (damage) ++run.prev_restarts;
      durable = 0;  // the damaged file rotates to .prev on the next write
    }
    const bool fail_write = !path.empty() && rng() % 9 == 0;
    if (fail_write) std::filesystem::create_directory(path + ".tmp");
    const std::uint64_t failures = mgr->stats().disk_failures;
    if (mgr->on_decided(bm, k + 1)) {
      // The grid snaps the label (an off-grid adopt shifts it); the
      // image holds the state as of now either way.
      const InstanceId wm = mgr->watermark();
      const CheckpointImage* image = mgr->latest();
      EXPECT_NE(image, nullptr);
      if (image == nullptr) return run;
      EXPECT_EQ(image->bytes, bm.snapshot(wm).encode())
          << "seed " << seed << " watermark " << wm;
      EXPECT_EQ(image->root(),
                CheckpointImage::from_bytes(wm, bm.snapshot(wm).encode(),
                                            config.chunk_size)
                    .root());
      // On disk exactly when the write succeeded.
      const bool in_file = image->bytes.memory() == nullptr;
      EXPECT_EQ(in_file, !path.empty() && !fail_write);
      run.file_images += in_file ? 1 : 0;
      durable += in_file ? 1 : 0;
      ++checked;
      if (rng() % 3 == 0) saved = bm.snapshot(wm);
    }
    if (fail_write) {
      // A write only fails when a build ran (a capture that was due).
      run.failed_writes += mgr->stats().disk_failures - failures;
      std::filesystem::remove(path + ".tmp");
    }
  }
  incremental += mgr->stats().incremental;
  EXPECT_GE(checked, 15u) << "seed " << seed;
  EXPECT_GT(incremental, checked / 2)
      << "the delta path must carry most captures (seed " << seed << ")";
  // The history reached every kind of change it is meant to cover.
  EXPECT_GT(bm.stats().conflicting_inputs, 0u) << "seed " << seed;
  EXPECT_GT(bm.stats().deposit_refunded, 0) << "seed " << seed;
  return run;
}

TEST(CheckpointDelta, IncrementalImagesMatchFullExport) {
  HistoryRun memory;
  HistoryRun disk;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const HistoryRun m = incremental_history(seed, "");
    memory.restores += m.restores;
    EXPECT_EQ(m.file_images, 0u);
    const ScratchPath path("history-" + std::to_string(seed));
    const HistoryRun d = incremental_history(seed, path.str());
    disk.restores += d.restores;
    disk.file_images += d.file_images;
    disk.restarts += d.restarts;
    disk.prev_restarts += d.prev_restarts;
    disk.failed_writes += d.failed_writes;
  }
  EXPECT_GT(memory.restores, 0u);
  EXPECT_GT(disk.restores, 0u);
  EXPECT_GT(disk.file_images, 60u);
  EXPECT_GT(disk.restarts - disk.prev_restarts, 0u);
  EXPECT_GT(disk.prev_restarts, 0u);
  EXPECT_GT(disk.failed_writes, 0u);
}

TEST(CheckpointDelta, BytesRestoreMatchesTheDecodedSnapshot) {
  // BlockManager::restore walks the image once, straight into the
  // ledger's containers; Snapshot::decode is the reference. Over random
  // histories, with mid-history restores through the bytes path, both
  // must rebuild the ledger the image was taken from.
  std::size_t compared = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    History history(seed);
    bm::BlockManager bm;
    history.seed(bm);
    std::mt19937_64 rng(seed * 131);
    std::optional<Bytes> saved;
    std::size_t restores = 0;
    for (InstanceId k = 0; k < 60; ++k) {
      history.step(bm, k);
      if (saved && rng() % 7 == 0) {
        (void)bm.restore(BytesView(saved->data(), saved->size()));
        ++restores;
      }
      if (k % 4 != 3) continue;
      SCOPED_TRACE("seed " + std::to_string(seed) + " instance " +
                   std::to_string(k));
      const Bytes image = bm.snapshot(k + 1).encode();
      const BytesView view(image.data(), image.size());
      const Snapshot decoded = Snapshot::decode(view);
      bm::BlockManager from_bytes;
      EXPECT_EQ(from_bytes.restore(view), k + 1);
      bm::BlockManager from_snapshot;
      from_snapshot.restore(decoded);
      EXPECT_EQ(from_bytes.state_digest(), bm.state_digest());
      EXPECT_EQ(from_snapshot.state_digest(), bm.state_digest());
      EXPECT_EQ(from_bytes.snapshot(k + 1).encode(), image);

      // Every outpoint the history created (the archive), and the
      // deposit-funded inputs, some of which never existed.
      std::vector<chain::OutPoint> ops;
      for (const auto& [op, value] : decoded.ever_values) ops.push_back(op);
      for (const auto& [op, value] : decoded.inputs_deposit) {
        ops.push_back(op);
      }
      const chain::UtxoSet& got = from_bytes.utxos();
      const chain::UtxoSet& ref = from_snapshot.utxos();
      for (const chain::OutPoint& op : ops) {
        EXPECT_EQ(got.get(op), ref.get(op));
        EXPECT_EQ(got.contains(op), ref.contains(op));
        EXPECT_EQ(got.value_of(op), ref.value_of(op));
        EXPECT_EQ(got.value_of(op), bm.utxos().value_of(op));
      }
      for (const auto& [op, out] : decoded.utxos) {
        EXPECT_EQ(got.get(op), std::optional<chain::TxOut>(out));
      }
      for (const auto& [op, value] : decoded.ever_values) {
        EXPECT_EQ(got.value_of(op), std::optional<chain::Amount>(value));
      }
      ++compared;
      if (rng() % 3 == 0) saved = image;
    }
    EXPECT_GT(bm.stats().conflicting_inputs, 0u) << "seed " << seed;
    EXPECT_GT(bm.stats().deposit_refunded, 0) << "seed " << seed;
    EXPECT_GT(restores, 0u) << "seed " << seed;
  }
  EXPECT_EQ(compared, 6u * 15u);
}

TEST(CheckpointDelta, WriterThreadBuildsTheSameImages) {
  // Same history four times: inline builds vs the background writer,
  // in memory vs merged file to file. All must publish byte-identical
  // images at the same watermarks.
  const ScratchPath path("writer");
  const auto run = [&path](bool writer, bool on_disk) {
    History history(42);
    bm::BlockManager bm;
    history.seed(bm);
    CheckpointManager mgr(
        CheckpointConfig{on_disk ? path.str() : std::string(), 4, 128});
    if (writer) mgr.start_writer(nullptr, nullptr, nullptr);
    std::vector<Bytes> images;
    for (InstanceId k = 0; k < 40; ++k) {
      history.step(bm, k);
      if ((k + 1) % 4 == 0) {
        EXPECT_TRUE(mgr.capture(bm, k + 1, 0));
        mgr.drain();
        const auto image = mgr.image();
        EXPECT_EQ(image->bytes.memory() == nullptr, on_disk);
        images.push_back(image->bytes.load().value());
        EXPECT_EQ(images.back(), bm.snapshot(k + 1).encode());
      }
    }
    EXPECT_EQ(mgr.stats().incremental, images.size() - 1);
    EXPECT_EQ(mgr.stats().disk_failures, 0u);
    return images;
  };
  const std::vector<Bytes> reference = run(false, false);
  EXPECT_EQ(run(true, false), reference);
  EXPECT_EQ(run(false, true), reference);
  EXPECT_EQ(run(true, true), reference);
}

TEST_F(CheckpointFixture, WriterPersistsThenCompacts) {
  // Background writer with a journal: images reach the disk in capture
  // order, and compaction trails one durable image behind.
  bm::BlockManager bm;
  bm.utxos().mint(alice_.address(), 1000);
  ASSERT_TRUE(bm.open_journal(journal_).has_value());
  CheckpointManager mgr(CheckpointConfig{ckpt_, 5, 64});
  std::vector<InstanceId> compacted;
  mgr.start_writer(
      [&](InstanceId keep_from) -> std::optional<std::size_t> {
        compacted.push_back(keep_from);
        return bm.compact_journal(keep_from);
      },
      nullptr, nullptr);
  for (InstanceId k = 0; k < 16; ++k) {
    bm.commit_block(make_block(bm, k));
    if ((k + 1) % 5 == 0) {
      ASSERT_TRUE(mgr.capture(bm, k + 1, 0));
      mgr.drain();  // the test's journal has no lock of its own
    }
  }
  EXPECT_EQ(mgr.watermark(), 15u);
  EXPECT_EQ(compacted, (std::vector<InstanceId>{5, 10}));
  EXPECT_EQ(mgr.stats().disk_failures, 0u);

  bm::BlockManager reborn;
  CheckpointManager mgr2(CheckpointConfig{ckpt_, 5, 64});
  const auto snap = mgr2.load_disk();
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->upto, 15u);
  reborn.restore(*snap);
  const auto stats = reborn.open_journal(journal_);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->blocks, 6u);  // blocks 10..15
  EXPECT_EQ(reborn.state_digest(), bm.state_digest());
}

TEST_F(CheckpointFixture, FailedWriteStillAdvancesTheImage) {
  // An unwritable path: every write fails, but the image still
  // advances in memory — the next delta patches it.
  const std::string bad = base_ + "-missing-dir/ckpt";
  bm::BlockManager bm;
  bm.utxos().mint(alice_.address(), 1000);
  CheckpointManager mgr(CheckpointConfig{bad, 2, 64});
  for (InstanceId k = 0; k < 6; ++k) {
    bm.commit_block(make_block(bm, k));
    (void)mgr.on_decided(bm, k + 1);
  }
  EXPECT_EQ(mgr.watermark(), 6u);
  EXPECT_EQ(mgr.stats().disk_failures, 3u);
  EXPECT_EQ(mgr.latest()->bytes, bm.snapshot(6).encode());
}

TEST_F(CheckpointFixture, FileBackedImageOutlivesItsRotatedFile) {
  // A reader holding a file-backed image keeps serving it after two
  // later checkpoints rotated its file to .prev and then unlinked it:
  // the image keeps its descriptor open.
  bm::BlockManager bm;
  bm.utxos().mint(alice_.address(), 1000);
  CheckpointManager mgr(CheckpointConfig{ckpt_, 2, 64});
  for (InstanceId k = 0; k < 2; ++k) {
    bm.commit_block(make_block(bm, k));
    (void)mgr.on_decided(bm, k + 1);
  }
  const std::shared_ptr<const CheckpointImage> held = mgr.image();
  ASSERT_NE(held, nullptr);
  ASSERT_EQ(held->upto, 2u);
  ASSERT_EQ(held->bytes.memory(), nullptr) << "served from its file";
  const Bytes expected = bm.snapshot(2).encode();
  for (InstanceId k = 2; k < 6; ++k) {
    bm.commit_block(make_block(bm, k));
    (void)mgr.on_decided(bm, k + 1);
  }
  ASSERT_EQ(mgr.watermark(), 6u);
  // Neither file holds the held image any more.
  CheckpointManager latest(CheckpointConfig{ckpt_, 0, 64});
  EXPECT_EQ(latest.load_disk()->upto, 6u);
  CheckpointManager prev(CheckpointConfig{ckpt_ + ".prev", 0, 64});
  EXPECT_EQ(prev.load_disk()->upto, 4u);

  ASSERT_GT(held->chunks(), 2u);
  EXPECT_EQ(held->root(),
            CheckpointImage::from_bytes(2, expected, 64).root());
  for (std::uint32_t i = 0; i < held->chunks(); ++i) {
    const std::optional<Bytes> chunk = held->chunk(i);
    ASSERT_TRUE(chunk.has_value()) << "chunk " << i;
    const BytesView want =
        chunk_view(BytesView(expected.data(), expected.size()), i, 64);
    EXPECT_EQ(*chunk, Bytes(want.begin(), want.end())) << "chunk " << i;
    const crypto::Hash32 leaf =
        crypto::merkle_leaf(BytesView(chunk->data(), chunk->size()));
    EXPECT_EQ(leaf, held->tree.leaf(i));
    EXPECT_TRUE(crypto::MerkleTree::verify(held->root(), i, held->chunks(),
                                           leaf, held->tree.proof(i)));
  }
  EXPECT_EQ(held->bytes, expected);
}

TEST_F(CheckpointFixture, AlteredBaseFileIsNeverPatched) {
  // One byte of the published image's file flipped in place: the next
  // delta build reads it back, finds a chunk that no longer matches the
  // tree, and publishes nothing; the capture after it exports in full.
  bm::BlockManager bm;
  bm.utxos().mint(alice_.address(), 1000);
  CheckpointManager mgr(CheckpointConfig{ckpt_, 2, 64});
  for (InstanceId k = 0; k < 4; ++k) {
    bm.commit_block(make_block(bm, k));
    (void)mgr.on_decided(bm, k + 1);
  }
  ASSERT_EQ(mgr.watermark(), 4u);
  ASSERT_EQ(mgr.stats().incremental, 1u);
  ASSERT_EQ(mgr.latest()->bytes.memory(), nullptr);
  flip_middle_byte(ckpt_);

  bm.commit_block(make_block(bm, 4));
  bm.commit_block(make_block(bm, 5));
  EXPECT_FALSE(mgr.on_decided(bm, 6)) << "built from an altered base";
  EXPECT_EQ(mgr.watermark(), 4u);
  EXPECT_EQ(mgr.stats().taken, 2u);
  EXPECT_EQ(mgr.stats().incremental, 1u);
  EXPECT_EQ(mgr.stats().disk_failures, 0u);
  EXPECT_FALSE(std::filesystem::exists(ckpt_ + ".tmp"));

  bm.commit_block(make_block(bm, 6));
  bm.commit_block(make_block(bm, 7));
  EXPECT_TRUE(mgr.on_decided(bm, 8));
  EXPECT_EQ(mgr.stats().taken, 3u);
  EXPECT_EQ(mgr.stats().incremental, 1u) << "a full export, not a patch";
  EXPECT_EQ(mgr.latest()->bytes, bm.snapshot(8).encode());
  CheckpointManager reborn(CheckpointConfig{ckpt_, 0, 64});
  const auto snap = reborn.load_disk();
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->encode(), bm.snapshot(8).encode());
}

}  // namespace
}  // namespace zlb::sync
