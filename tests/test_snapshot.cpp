// The state-sync primitives: RFC-6962-style merkle tree (roots, audit
// paths, adversarial proofs), the canonical snapshot codec (roundtrip,
// canonicality enforcement, state digest semantics, the two decoders
// rejecting the same malformed images) and the chunking helpers the
// transfer protocol is built on.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "bm/block_manager.hpp"
#include "chain/wallet.hpp"
#include "common/rng.hpp"
#include "crypto/merkle.hpp"
#include "sync/snapshot.hpp"

namespace zlb::sync {
namespace {

std::vector<crypto::Hash32> make_leaves(std::size_t n, std::uint64_t seed) {
  std::vector<crypto::Hash32> leaves;
  leaves.reserve(n);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    Bytes data(16);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
    leaves.push_back(crypto::merkle_leaf(BytesView(data.data(), data.size())));
  }
  return leaves;
}

TEST(Merkle, SingleLeafRootIsTheLeaf) {
  const auto leaves = make_leaves(1, 7);
  const auto tree = crypto::MerkleTree::build(leaves);
  EXPECT_EQ(tree.root(), leaves[0]);
  EXPECT_TRUE(tree.proof(0).empty());
  EXPECT_TRUE(crypto::MerkleTree::verify(tree.root(), 0, 1, leaves[0], {}));
}

TEST(Merkle, DomainSeparationLeafVsNode) {
  // A leaf whose bytes happen to equal (left||right) of an interior
  // node must not hash to that node: the 0x00/0x01 prefixes differ.
  const auto leaves = make_leaves(2, 9);
  const crypto::Hash32 node = crypto::merkle_node(leaves[0], leaves[1]);
  Bytes concat_bytes;
  append(concat_bytes, BytesView(leaves[0].data(), 32));
  append(concat_bytes, BytesView(leaves[1].data(), 32));
  EXPECT_NE(crypto::merkle_leaf(BytesView(concat_bytes.data(),
                                          concat_bytes.size())),
            node);
}

TEST(Merkle, EveryIndexVerifiesEveryShape) {
  for (std::size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 13u, 16u, 33u, 100u}) {
    const auto leaves = make_leaves(n, 1000 + n);
    const auto tree = crypto::MerkleTree::build(leaves);
    for (std::size_t i = 0; i < n; ++i) {
      const auto proof = tree.proof(i);
      EXPECT_TRUE(crypto::MerkleTree::verify(tree.root(), i, n, leaves[i],
                                             proof))
          << "n=" << n << " i=" << i;
      // Wrong index / wrong leaf / truncated proof all fail.
      EXPECT_FALSE(crypto::MerkleTree::verify(tree.root(), (i + 1) % n, n,
                                              leaves[i], proof) &&
                   n > 1)
          << "n=" << n << " i=" << i;
      if (!proof.empty()) {
        auto shorter = proof;
        shorter.pop_back();
        EXPECT_FALSE(crypto::MerkleTree::verify(tree.root(), i, n, leaves[i],
                                                shorter));
      }
      auto wrong_leaf = leaves[i];
      wrong_leaf[0] ^= 0x01;
      EXPECT_FALSE(
          crypto::MerkleTree::verify(tree.root(), i, n, wrong_leaf, proof));
    }
  }
}

TEST(Merkle, MutatedProofHashFails) {
  const auto leaves = make_leaves(29, 42);
  const auto tree = crypto::MerkleTree::build(leaves);
  for (std::size_t i : {0u, 13u, 28u}) {
    auto proof = tree.proof(i);
    ASSERT_FALSE(proof.empty());
    proof[proof.size() / 2][7] ^= 0x80;
    EXPECT_FALSE(
        crypto::MerkleTree::verify(tree.root(), i, 29, leaves[i], proof));
  }
}

TEST(Merkle, OutOfRangeAndEmpty) {
  const auto leaves = make_leaves(4, 3);
  const auto tree = crypto::MerkleTree::build(leaves);
  EXPECT_FALSE(crypto::MerkleTree::verify(tree.root(), 4, 4, leaves[0],
                                          tree.proof(0)));
  EXPECT_FALSE(crypto::MerkleTree::verify(tree.root(), 0, 0, leaves[0], {}));
  EXPECT_TRUE(crypto::MerkleTree::build({}).empty());
}

// ---------------------------------------------------------------------

/// A BlockManager with a little history: genesis mints, a few payments,
/// one merged fork branch (deposit accounting), a punished account.
bm::BlockManager populated_bm() {
  bm::BlockManager bm;
  chain::Wallet alice(to_bytes("alice"));
  chain::Wallet bob(to_bytes("bob"));
  chain::Wallet mallory(to_bytes("mallory"));
  bm.utxos().mint(alice.address(), 1000);
  bm.utxos().mint(mallory.address(), 500);
  bm.fund_deposit(10000);

  chain::Block b1;
  b1.index = 0;
  auto tx = alice.pay(bm.utxos(), bob.address(), 400);
  b1.txs.push_back(*tx);
  bm.commit_block(b1);

  // Fork branch: mallory double-spends; the second branch arrives via
  // the merge path and dips into the deposit.
  chain::UtxoSet mallory_view;
  mallory_view.mint(mallory.address(), 500);
  const auto coins = mallory_view.owned_by(mallory.address());
  chain::Block b2a;
  b2a.index = 1;
  b2a.slot = 0;
  b2a.txs.push_back(mallory.pay_from(coins, alice.address(), 500));
  chain::Block b2b;
  b2b.index = 1;
  b2b.slot = 1;
  b2b.txs.push_back(mallory.pay_from(coins, bob.address(), 500));
  bm.merge_block(b2a);
  bm.merge_block(b2b);
  bm.punish_account(mallory.address());
  return bm;
}

TEST(SnapshotCodec, RoundtripsPopulatedState) {
  const bm::BlockManager bm = populated_bm();
  const Snapshot snap = bm.snapshot(17);
  const Bytes bytes = snap.encode();
  const Snapshot back = Snapshot::decode(BytesView(bytes.data(),
                                                   bytes.size()));
  EXPECT_EQ(back, snap);
  EXPECT_EQ(back.upto, 17u);
  EXPECT_EQ(back.state_digest(), snap.state_digest());
  EXPECT_FALSE(snap.utxos.empty());
  EXPECT_FALSE(snap.known_txs.empty());
  EXPECT_FALSE(snap.inputs_deposit.empty());
  EXPECT_EQ(snap.punished.size(), 1u);
}

TEST(SnapshotCodec, RestoreRebuildsIdenticalLedger) {
  const bm::BlockManager bm = populated_bm();
  const Snapshot snap = bm.snapshot(5);

  bm::BlockManager fresh;
  fresh.restore(snap);
  EXPECT_EQ(fresh.state_digest(), bm.state_digest());
  chain::Wallet bob(to_bytes("bob"));
  chain::Wallet mallory(to_bytes("mallory"));
  EXPECT_EQ(fresh.utxos().balance(bob.address()),
            bm.utxos().balance(bob.address()));
  EXPECT_EQ(fresh.deposit(), bm.deposit());
  EXPECT_TRUE(fresh.is_punished(mallory.address()));
  // The ever-archive transferred: conflict pricing still works.
  for (const auto& [op, v] : snap.ever_values) {
    EXPECT_EQ(fresh.output_value(op), v);
  }
  // Known-tx dedup transferred: re-committing a snapshotted block is a
  // no-op.
  for (const auto& id : snap.known_txs) EXPECT_TRUE(fresh.knows_tx(id));
}

TEST(SnapshotCodec, ImageAndDigestStayPinned) {
  // Restores and the value archive changed how a ledger holds its
  // state, not what it exports: the image and the state digest of this
  // fixed history are the ones the codec has always produced, and a
  // restore from the image reproduces both.
  const bm::BlockManager bm = populated_bm();
  const Bytes image = bm.snapshot(3).encode();
  constexpr const char* kImageSha256 =
      "2b974550f50269d6d81d0a87f3092b0779f675a97cdc361d618eb987a1f22134";
  constexpr const char* kStateDigest =
      "f34cb3791ffd2a5e0ed4151073ce3f158042a077d6d018d0089f22351dc12654";
  EXPECT_EQ(image.size(), 781u);
  EXPECT_EQ(crypto::hash_hex(
                crypto::sha256(BytesView(image.data(), image.size()))),
            kImageSha256);
  EXPECT_EQ(crypto::hash_hex(bm.state_digest()), kStateDigest);
  bm::BlockManager restored;
  (void)restored.restore(BytesView(image.data(), image.size()));
  EXPECT_EQ(restored.snapshot(3).encode(), image);
  EXPECT_EQ(crypto::hash_hex(restored.state_digest()), kStateDigest);
}

TEST(SnapshotCodec, StateDigestIgnoresWatermark) {
  const bm::BlockManager bm = populated_bm();
  EXPECT_EQ(bm.snapshot(1).state_digest(), bm.snapshot(99).state_digest());
  EXPECT_NE(bm.snapshot(1).encode(), bm.snapshot(99).encode());
}

TEST(SnapshotCodec, RejectsNonCanonicalOrder) {
  const bm::BlockManager bm = populated_bm();
  Snapshot snap = bm.snapshot(3);
  ASSERT_GE(snap.utxos.size(), 2u);
  std::swap(snap.utxos[0], snap.utxos[1]);
  const Bytes bytes = snap.encode();
  EXPECT_THROW((void)Snapshot::decode(BytesView(bytes.data(), bytes.size())),
               DecodeError);
}

TEST(SnapshotCodec, RejectsTruncationAndTrailingBytes) {
  const bm::BlockManager bm = populated_bm();
  const Bytes bytes = bm.snapshot(3).encode();
  for (std::size_t cut : {1u, 7u, 20u, 50u}) {
    if (cut >= bytes.size()) continue;
    EXPECT_THROW((void)Snapshot::decode(
                     BytesView(bytes.data(), bytes.size() - cut)),
                 DecodeError);
  }
  Bytes padded = bytes;
  padded.push_back(0);
  EXPECT_THROW((void)Snapshot::decode(BytesView(padded.data(),
                                                padded.size())),
               DecodeError);
}

/// Both decoders reject `bytes`, and the rejected restore leaves the
/// ledger, its change log and change_base() as they were.
void expect_both_reject(const Bytes& bytes, const std::string& what) {
  SCOPED_TRACE(what);
  const BytesView image(bytes.data(), bytes.size());
  EXPECT_THROW((void)Snapshot::decode(image), DecodeError);
  bm::BlockManager ledger = populated_bm();
  ledger.track_changes();
  ledger.reset_changes(4);
  const chain::OutPoint minted = ledger.utxos().mint(chain::Address{}, 7);
  const crypto::Hash32 digest = ledger.state_digest();
  EXPECT_THROW((void)ledger.restore(image), DecodeError);
  EXPECT_EQ(ledger.state_digest(), digest);
  EXPECT_EQ(ledger.change_base(), std::optional<InstanceId>(4));
  const SnapshotDelta delta = ledger.take_delta(5);
  ASSERT_EQ(delta.utxos.size(), 1u) << "the change log lost the mint";
  EXPECT_EQ(delta.utxos[0].first, minted);
}

/// `bytes` with the varint at `at` (one byte long) replaced by a count
/// no input of this size can hold.
Bytes with_absurd_count(Bytes bytes, std::size_t at) {
  Writer w;
  w.varint(0xffffffffu);
  bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(at));
  bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at),
               w.data().begin(), w.data().end());
  return bytes;
}

TEST(SnapshotCodec, BothDecodersRejectEveryMalformedImage) {
  const Snapshot good = populated_bm().snapshot(3);
  ASSERT_GE(good.utxos.size(), 2u);
  ASSERT_GE(good.known_txs.size(), 1u);
  ASSERT_GE(good.inputs_deposit.size(), 1u);
  ASSERT_EQ(good.punished.size(), 1u);
  const Bytes bytes = good.encode();
  const auto mutated = [&good](const auto& mutate) {
    Snapshot s = good;
    mutate(s);
    return s.encode();
  };
  const auto archived = [](Snapshot& s, const chain::OutPoint& op) {
    return std::find_if(s.ever_values.begin(), s.ever_values.end(),
                        [&op](const auto& e) { return e.first == op; });
  };

  expect_both_reject(
      mutated([](Snapshot& s) { std::swap(s.utxos[0], s.utxos[1]); }),
      "unsorted utxos");
  expect_both_reject(mutated([](Snapshot& s) {
                       std::swap(s.ever_values[0], s.ever_values[1]);
                     }),
                     "unsorted archive");
  expect_both_reject(mutated([](Snapshot& s) {
                       s.utxos.insert(s.utxos.begin() + 1, s.utxos[0]);
                       s.ever_values.insert(s.ever_values.begin() + 1,
                                            s.ever_values[0]);
                     }),
                     "duplicate live output");
  expect_both_reject(mutated([](Snapshot& s) {
                       s.known_txs.push_back(s.known_txs.back());
                     }),
                     "duplicate known tx");
  expect_both_reject(mutated([](Snapshot& s) {
                       s.inputs_deposit.push_back(s.inputs_deposit.back());
                     }),
                     "duplicate deposit input");
  expect_both_reject(mutated([](Snapshot& s) {
                       s.punished.push_back(s.punished.back());
                     }),
                     "duplicate punished account");
  expect_both_reject(mutated([&archived](Snapshot& s) {
                       s.ever_values.erase(archived(s, s.utxos[1].first));
                     }),
                     "archive lacks a live output");
  expect_both_reject(mutated([&archived](Snapshot& s) {
                       archived(s, s.utxos[1].first)->second += 1;
                     }),
                     "archive misprices a live output");

  for (std::size_t cut : {1u, 7u, 20u, 50u}) {
    expect_both_reject(Bytes(bytes.begin(), bytes.end() - cut),
                       "truncated by " + std::to_string(cut));
  }
  Bytes padded = bytes;
  padded.push_back(0);
  expect_both_reject(padded, "trailing byte");
  Bytes bad_magic = bytes;
  bad_magic[0] ^= 1;
  expect_both_reject(bad_magic, "bad magic");
  Bytes bad_version = bytes;
  bad_version[4] ^= 1;
  expect_both_reject(bad_version, "bad version");
  // The utxo count follows the 32-byte header; the punished count is
  // the last varint when that section is empty.
  expect_both_reject(with_absurd_count(bytes, 32), "absurd utxo count");
  const Bytes no_punished =
      mutated([](Snapshot& s) { s.punished.clear(); });
  expect_both_reject(with_absurd_count(no_punished, no_punished.size() - 1),
                     "absurd punished count");
}

TEST(SnapshotCodec, BytesRestoreReadsTheWatermarkAndRoundtrips) {
  const bm::BlockManager bm = populated_bm();
  const Bytes bytes = bm.snapshot(11).encode();
  const BytesView image(bytes.data(), bytes.size());
  EXPECT_EQ(snapshot_watermark(image), 11u);
  bm::BlockManager fresh;
  EXPECT_EQ(fresh.restore(image), 11u);
  EXPECT_EQ(fresh.change_base(), std::optional<InstanceId>(11));
  EXPECT_EQ(fresh.snapshot(11).encode(), bytes);
  EXPECT_EQ(fresh.state_digest(), bm.state_digest());
  EXPECT_THROW((void)snapshot_watermark(image.first(15)), DecodeError);
}

/// A base handed out in blocks of `block` bytes, so records straddle
/// block boundaries.
class BlockSource final : public MergeSource {
 public:
  BlockSource(const Bytes& bytes, std::size_t block)
      : rest_(bytes.data(), bytes.size()), block_(block) {}
  BytesView next() override {
    const BytesView out = rest_.first(std::min(block_, rest_.size()));
    rest_ = rest_.subspan(out.size());
    return out;
  }

 private:
  BytesView rest_;
  std::size_t block_;
};

TEST(SnapshotDelta, StreamingMergeMatchesEncodeAndMeetsItsCounts) {
  bm::BlockManager bm = populated_bm();
  bm.track_changes();
  bm.reset_changes(3);
  const Bytes base = bm.snapshot(3).encode();
  // Spend and create outputs, commit a transaction, mint.
  chain::Wallet alice(to_bytes("alice"));
  chain::Wallet bob(to_bytes("bob"));
  chain::Block block;
  block.index = 3;
  block.txs.push_back(*alice.pay(bm.utxos(), bob.address(), 100));
  bm.commit_block(block);
  (void)bm.utxos().mint(bob.address(), 5);
  const SnapshotDelta delta = bm.take_delta(4);
  const Bytes want = bm.snapshot(4).encode();
  EXPECT_EQ(delta.image_size(), want.size());
  for (const std::size_t size : {1u, 7u, 64u, 1u << 20}) {
    BlockSource source(base, size);
    EXPECT_EQ(delta.apply_to(source), want) << "block " << size;
  }

  // A capture's counts the merge cannot meet, a short base, a base
  // with trailing bytes: no image.
  const auto rejects = [](const SnapshotDelta& d, const Bytes& b) {
    EXPECT_THROW((void)d.apply_to(BytesView(b.data(), b.size())),
                 DecodeError);
  };
  SnapshotDelta bad = delta;
  ++bad.counts.utxos;
  rejects(bad, base);
  bad = delta;
  --bad.counts.ever_values;
  rejects(bad, base);
  bad = delta;
  ++bad.counts.known_txs;
  rejects(bad, base);
  rejects(delta, Bytes(base.begin(), base.end() - 1));
  Bytes padded = base;
  padded.push_back(0);
  rejects(delta, padded);
}

TEST(Chunking, ViewsReassembleAndCountMatches) {
  Bytes data(1000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i);
  }
  for (std::size_t cs : {1u, 7u, 256u, 999u, 1000u, 4096u}) {
    const std::uint32_t n = chunk_count(data.size(), cs);
    EXPECT_EQ(n, (data.size() + cs - 1) / cs);
    Bytes joined;
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto v = chunk_view(BytesView(data.data(), data.size()), i, cs);
      append(joined, v);
    }
    EXPECT_EQ(joined, data) << "chunk size " << cs;
    EXPECT_EQ(chunk_leaves(BytesView(data.data(), data.size()), cs).size(),
              n);
  }
  EXPECT_EQ(chunk_count(0, 64), 1u) << "empty image still has one chunk";
}

}  // namespace
}  // namespace zlb::sync
