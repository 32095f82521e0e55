// Length-prefix amplification regressions: a decoder must reject a
// count the remaining bytes cannot possibly satisfy BEFORE allocating
// for it. Each test hand-crafts a tiny frame whose count field claims a
// huge sequence — pre-fix, these reserve()d gigabytes off a few wire
// bytes; post-fix Reader::length_prefix throws first. Truncation sweeps
// check the same property at every prefix of a valid encoding.
#include <gtest/gtest.h>

#include <functional>

#include "asmr/payload.hpp"
#include "bm/block_manager.hpp"
#include "chain/block.hpp"
#include "chain/journal.hpp"
#include "chain/tx.hpp"
#include "common/serde.hpp"
#include "consensus/messages.hpp"
#include "consensus/pof.hpp"
#include "sync/frames.hpp"
#include "sync/snapshot.hpp"

namespace zlb {
namespace {

Bytes with_huge_count(const std::function<void(Writer&)>& prefix) {
  Writer w;
  prefix(w);
  w.varint(0xffffffffu);  // claims ~4e9 elements with no bytes behind it
  return w.take();
}

TEST(DecodeBounds, LengthPrefixRejectsUnsatisfiableCount) {
  Writer w;
  w.varint(1000);
  w.u32(7);  // only 4 bytes of payload for a claimed 1000 entries
  Reader r(BytesView(w.data().data(), w.data().size()));
  EXPECT_THROW((void)r.length_prefix(4, 1u << 20), DecodeError);
}

TEST(DecodeBounds, LengthPrefixRejectsOverLimitCount) {
  Writer w;
  w.varint(50);
  for (int i = 0; i < 50; ++i) w.u32(static_cast<std::uint32_t>(i));
  Reader r(BytesView(w.data().data(), w.data().size()));
  EXPECT_THROW((void)r.length_prefix(4, 10), DecodeError);
}

TEST(DecodeBounds, LengthPrefixAcceptsSatisfiableCount) {
  Writer w;
  w.varint(3);
  for (int i = 0; i < 3; ++i) w.u32(static_cast<std::uint32_t>(i));
  Reader r(BytesView(w.data().data(), w.data().size()));
  EXPECT_EQ(r.length_prefix(4, 1u << 20), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(r.u32(), static_cast<std::uint32_t>(i));
  }
}

TEST(DecodeBounds, ReplicaIdsRejectHugeCount) {
  const Bytes data = with_huge_count([](Writer&) {});
  EXPECT_THROW((void)asmr::decode_replica_ids(
                   BytesView(data.data(), data.size())),
               DecodeError);
}

TEST(DecodeBounds, BlockRejectsHugeTxCount) {
  const Bytes data = with_huge_count([](Writer& w) {
    w.u64(1);   // index
    w.u32(0);   // slot
    w.u32(0);   // proposer
  });
  Reader r(BytesView(data.data(), data.size()));
  EXPECT_THROW((void)chain::Block::deserialize(r), DecodeError);
}

TEST(DecodeBounds, TransactionRejectsHugeInputCount) {
  const Bytes data = with_huge_count([](Writer& w) {
    w.u64(0);  // seq
  });
  Reader r(BytesView(data.data(), data.size()));
  EXPECT_THROW((void)chain::Transaction::deserialize(r), DecodeError);
}

TEST(DecodeBounds, EpochRecordRejectsHugeMemberCount) {
  const Bytes data = with_huge_count([](Writer& w) {
    w.u32(1);  // epoch
    w.u64(0);  // start_index
  });
  Reader r(BytesView(data.data(), data.size()));
  EXPECT_THROW((void)chain::EpochRecord::deserialize(r), DecodeError);
}

TEST(DecodeBounds, SlotCertRejectsHugeVoteCount) {
  const Bytes data = with_huge_count([](Writer& w) {
    w.u32(0);  // slot
    w.u32(0);  // round
    w.u8(1);   // value
  });
  Reader r(BytesView(data.data(), data.size()));
  EXPECT_THROW((void)consensus::SlotCert::decode(r), DecodeError);
}

TEST(DecodeBounds, EvidenceRejectsHugeVoteCount) {
  const Bytes data = with_huge_count([](Writer& w) {
    consensus::InstanceKey{}.encode(w);
    w.u32(0);  // slot
  });
  Reader r(BytesView(data.data(), data.size()));
  EXPECT_THROW((void)consensus::EvidenceMsg::decode(r), DecodeError);
}

TEST(DecodeBounds, PofsRejectHugeCount) {
  const Bytes data = with_huge_count([](Writer&) {});
  EXPECT_THROW((void)consensus::decode_pofs(
                   BytesView(data.data(), data.size())),
               DecodeError);
}

TEST(DecodeBounds, ExclusionClaimRejectsHugeCount) {
  const Bytes data = with_huge_count([](Writer& w) {
    w.u64(42);  // ceiling
  });
  EXPECT_THROW((void)consensus::ExclusionClaim::decode(
                   BytesView(data.data(), data.size())),
               DecodeError);
}

TEST(DecodeBounds, EpochAnnounceRejectsHugeMemberCount) {
  const Bytes data = with_huge_count([](Writer& w) {
    w.u32(0);  // sender
    w.u32(2);  // epoch
    w.u64(9);  // start_index
  });
  Reader r(BytesView(data.data(), data.size()));
  EXPECT_THROW((void)consensus::EpochAnnounceMsg::decode(r), DecodeError);
}

// Every strict prefix of a valid encoding must throw DecodeError, and
// with the count guards no prefix may allocate past the buffer first.
template <typename DecodeFn>
void truncation_sweep(const Bytes& full, DecodeFn&& decode) {
  for (std::size_t len = 0; len < full.size(); ++len) {
    Reader r(BytesView(full.data(), len));
    bool threw = false;
    try {
      decode(r);
      // Some prefixes decode (e.g. optional trailing sections); the
      // decoder itself must then report trailing state via done().
    } catch (const DecodeError&) {
      threw = true;
    }
    if (!threw) {
      // A successful parse of a strict prefix must have consumed it
      // fully — partial consumption means a lost length check.
      EXPECT_TRUE(r.done()) << "prefix " << len << " of " << full.size();
    }
  }
}

TEST(DecodeBounds, TruncatedEpochAnnounceAlwaysThrows) {
  consensus::EpochAnnounceMsg m;
  m.sender = 3;
  m.epoch = 7;
  m.start_index = 100;
  m.members = {1, 2, 3, 4};
  m.excluded = {9};
  m.signature = Bytes{0xde, 0xad, 0xbe, 0xef};
  Writer w;
  m.encode(w);
  const Bytes full = w.take();
  truncation_sweep(full, [](Reader& r) {
    (void)consensus::EpochAnnounceMsg::decode(r);
  });
}

TEST(DecodeBounds, TruncatedBlockAlwaysThrows) {
  chain::Block b;
  b.index = 5;
  b.slot = 2;
  b.proposer = 1;
  b.txs.emplace_back();
  const Bytes full = b.serialize();
  truncation_sweep(full, [](Reader& r) {
    (void)chain::Block::deserialize(r);
  });
}

TEST(DecodeBounds, TruncatedSnapshotChunkAlwaysThrows) {
  sync::SnapshotChunk c;
  c.upto = 11;
  c.index = 0;
  c.data = Bytes{1, 2, 3, 4, 5};
  c.proof.push_back(crypto::Hash32{});
  Writer w;
  c.encode(w);
  const Bytes full = w.take();
  truncation_sweep(full, [](Reader& r) {
    (void)sync::SnapshotChunk::decode(r);
  });
}

/// Both snapshot decoders (Snapshot::decode and the ledger restore)
/// reject `data`, and the rejected restore leaves the ledger as it was.
void expect_snapshot_rejected(const Bytes& data) {
  const BytesView view(data.data(), data.size());
  EXPECT_THROW((void)sync::Snapshot::decode(view), DecodeError);
  bm::BlockManager ledger;
  (void)ledger.utxos().mint(chain::Address{}, 1);
  ledger.reset_changes(1);
  const crypto::Hash32 before = ledger.state_digest();
  EXPECT_THROW((void)ledger.restore(view), DecodeError);
  EXPECT_EQ(ledger.state_digest(), before);
  EXPECT_EQ(ledger.change_base(), std::optional<InstanceId>(1));
}

/// A snapshot header (magic, version, upto, mint counter, deposit).
void snapshot_header(Writer& w) {
  w.u32(0x5a4c4253);
  w.u32(sync::Snapshot::kVersion);
  w.u64(9);
  w.u64(0);
  w.i64(0);
}

TEST(DecodeBounds, SnapshotRejectsHugeSectionCount) {
  // A huge count in each of the five sections, every earlier one empty.
  for (int section = 0; section < 5; ++section) {
    expect_snapshot_rejected(with_huge_count([section](Writer& w) {
      snapshot_header(w);
      for (int i = 0; i < section; ++i) w.varint(0);
    }));
  }
}

TEST(DecodeBounds, TruncatedSnapshotAlwaysThrows) {
  sync::Snapshot s;
  s.upto = 4;
  chain::OutPoint op;
  op.txid[0] = 1;
  s.utxos.emplace_back(op, chain::TxOut{5, chain::Address{}});
  s.ever_values.emplace_back(op, 5);
  s.known_txs.push_back(crypto::Hash32{});
  s.inputs_deposit.emplace_back(op, 3);
  s.punished.push_back(chain::Address{});
  const Bytes full = s.encode();
  ASSERT_EQ(sync::Snapshot::decode(BytesView(full.data(), full.size())), s);
  for (std::size_t len = 0; len < full.size(); ++len) {
    expect_snapshot_rejected(Bytes(full.begin(), full.begin() + len));
  }
}

}  // namespace
}  // namespace zlb
