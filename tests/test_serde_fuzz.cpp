// Robustness property sweep: every wire decoder must reject arbitrary
// byte garbage with DecodeError (never crash, never loop) — replicas
// feed network input straight into these.
#include <gtest/gtest.h>

#include "asmr/payload.hpp"
#include "bm/block_manager.hpp"
#include "chain/block.hpp"
#include "chain/journal.hpp"
#include "chain/wallet.hpp"
#include "consensus/messages.hpp"
#include "consensus/pof.hpp"
#include "sync/frames.hpp"
#include "sync/snapshot.hpp"

namespace zlb {
namespace {

class DecoderFuzz : public ::testing::TestWithParam<std::uint64_t> {};

Bytes random_bytes(Rng& rng, std::size_t max_len) {
  Bytes out(rng.next_below(max_len + 1));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

template <typename Fn>
void expect_no_crash(Fn&& decode, const Bytes& data) {
  try {
    decode(BytesView(data.data(), data.size()));
  } catch (const DecodeError&) {
  } catch (const std::invalid_argument&) {
  }
  // Any other exception type (or a crash) fails the test.
}

TEST_P(DecoderFuzz, AllDecodersRejectGarbageGracefully) {
  Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    const Bytes data = random_bytes(rng, 300);
    expect_no_crash(
        [](BytesView d) {
          Reader r(d);
          (void)consensus::SignedVote::decode(r);
        },
        data);
    expect_no_crash(
        [](BytesView d) {
          Reader r(d);
          (void)consensus::ProposalMsg::decode(r);
        },
        data);
    expect_no_crash(
        [](BytesView d) {
          Reader r(d);
          (void)consensus::DecisionMsg::decode(r);
        },
        data);
    expect_no_crash(
        [](BytesView d) {
          Reader r(d);
          (void)consensus::EvidenceMsg::decode(r);
        },
        data);
    expect_no_crash([](BytesView d) { (void)consensus::decode_pofs(d); },
                    data);
    expect_no_crash([](BytesView d) { (void)asmr::BatchPayload::decode(d); },
                    data);
    expect_no_crash(
        [](BytesView d) { (void)asmr::decode_replica_ids(d); }, data);
    expect_no_crash(
        [](BytesView d) {
          Reader r(d);
          (void)chain::Transaction::deserialize(r);
        },
        data);
    expect_no_crash(
        [](BytesView d) {
          Reader r(d);
          (void)chain::Block::deserialize(r);
        },
        data);
    // State-sync codecs (snapshot images and transfer frames) take
    // network input on the catch-up path.
    expect_no_crash([](BytesView d) { (void)sync::Snapshot::decode(d); },
                    data);
    expect_no_crash(
        [](BytesView d) {
          bm::BlockManager ledger;
          (void)ledger.restore(d);
        },
        data);
    expect_no_crash(
        [](BytesView d) {
          Reader r(d);
          (void)sync::SnapshotManifest::decode(r);
        },
        data);
    expect_no_crash(
        [](BytesView d) {
          Reader r(d);
          (void)sync::ChunkRequest::decode(r);
        },
        data);
    expect_no_crash(
        [](BytesView d) {
          Reader r(d);
          (void)sync::SnapshotChunk::decode(r);
        },
        data);
    // Epoch-tagged reconfiguration codecs (announcements, exclusion
    // claims, journal boundary records) take network/disk input too.
    expect_no_crash(
        [](BytesView d) {
          Reader r(d);
          (void)consensus::EpochAnnounceMsg::decode(r);
        },
        data);
    expect_no_crash(
        [](BytesView d) { (void)consensus::ExclusionClaim::decode(d); },
        data);
    expect_no_crash(
        [](BytesView d) {
          Reader r(d);
          (void)chain::EpochRecord::deserialize(r);
        },
        data);
  }
}

TEST_P(DecoderFuzz, EpochTaggedFramesRoundtripAndRejectTruncation) {
  Rng rng(GetParam() * 40503 + 17);
  crypto::SimScheme scheme(64);

  // EpochAnnounceMsg: roundtrip at random shapes, truncation at every
  // cut either throws or yields a prefix that re-encodes differently —
  // and an epoch flip always breaks the signature (the epoch is in the
  // signing bytes, not just the envelope).
  for (int i = 0; i < 200; ++i) {
    consensus::EpochAnnounceMsg m;
    m.sender = static_cast<ReplicaId>(rng.next_below(64));
    m.epoch = static_cast<std::uint32_t>(1 + rng.next_below(8));
    m.start_index = rng.next_below(1000);
    const std::size_t nm = 1 + rng.next_below(12);
    for (std::size_t j = 0; j < nm; ++j) {
      m.members.push_back(static_cast<ReplicaId>(rng.next_below(64)));
    }
    for (std::size_t j = 0; j < rng.next_below(4); ++j) {
      m.excluded.push_back(static_cast<ReplicaId>(rng.next_below(64)));
    }
    const Bytes sb = m.signing_bytes();
    m.signature = scheme.sign(m.sender, BytesView(sb.data(), sb.size()));
    Writer w;
    m.encode(w);
    const Bytes wire = w.take();

    Reader r(BytesView(wire.data(), wire.size()));
    const auto back = consensus::EpochAnnounceMsg::decode(r);
    r.expect_done();
    EXPECT_EQ(back.epoch, m.epoch);
    EXPECT_EQ(back.start_index, m.start_index);
    EXPECT_EQ(back.members, m.members);
    EXPECT_EQ(back.excluded, m.excluded);
    EXPECT_EQ(back.content_digest(), m.content_digest());

    // Epoch mismatch rejection: relabelling the announced epoch (or its
    // boundary) invalidates the signature.
    for (auto mutate : {0, 1}) {
      auto forged = back;
      if (mutate == 0) {
        forged.epoch += 1;
      } else {
        forged.start_index += 1;
      }
      const Bytes fb = forged.signing_bytes();
      EXPECT_FALSE(scheme.verify(
          forged.sender, BytesView(fb.data(), fb.size()),
          BytesView(forged.signature.data(), forged.signature.size())));
    }

    const std::size_t cut = 1 + rng.next_below(wire.size() - 1);
    expect_no_crash(
        [](BytesView d) {
          Reader rr(d);
          (void)consensus::EpochAnnounceMsg::decode(rr);
        },
        Bytes(wire.begin(), wire.begin() + static_cast<long>(cut)));
  }

  // SnapshotManifest: the epoch rides in the signing bytes, so a
  // cross-epoch relabelling of an otherwise valid manifest must fail
  // signature verification.
  {
    sync::SnapshotManifest m;
    m.server = 4;
    m.epoch = 2;
    m.upto = 320;
    m.chunk_size = 64;
    m.chunk_count = 3;
    m.total_bytes = 130;
    m.root = crypto::sha256(to_bytes("epoch-root"));
    const Bytes sb = m.signing_bytes();
    m.signature = scheme.sign(m.server, BytesView(sb.data(), sb.size()));
    Writer w;
    m.encode(w);
    Reader r(BytesView(w.data().data(), w.data().size()));
    const auto back = sync::SnapshotManifest::decode(r);
    EXPECT_EQ(back.epoch, 2u);
    const Bytes vb = back.signing_bytes();
    EXPECT_TRUE(scheme.verify(back.server, BytesView(vb.data(), vb.size()),
                              BytesView(back.signature.data(),
                                        back.signature.size())));
    auto forged = back;
    forged.epoch = 0;  // claim the same state belongs to epoch 0
    const Bytes fb = forged.signing_bytes();
    EXPECT_FALSE(scheme.verify(forged.server, BytesView(fb.data(), fb.size()),
                               BytesView(forged.signature.data(),
                                         forged.signature.size())));
  }

  // ExclusionClaim + EpochRecord: strict roundtrips; truncations throw.
  for (int i = 0; i < 100; ++i) {
    consensus::ExclusionClaim claim;
    claim.ceiling = rng.next_below(5000);
    const Bytes claim_wire = claim.encode();
    EXPECT_EQ(consensus::ExclusionClaim::decode(
                  BytesView(claim_wire.data(), claim_wire.size()))
                  .ceiling,
              claim.ceiling);

    chain::EpochRecord rec;
    rec.epoch = static_cast<std::uint32_t>(rng.next_below(16));
    rec.start_index = rng.next_below(4096);
    const std::size_t nm = 1 + rng.next_below(20);
    for (std::size_t j = 0; j < nm; ++j) {
      rec.members.push_back(static_cast<ReplicaId>(rng.next_below(256)));
    }
    const Bytes rec_wire = rec.serialize();
    Reader rr(BytesView(rec_wire.data(), rec_wire.size()));
    EXPECT_EQ(chain::EpochRecord::deserialize(rr), rec);
    const std::size_t cut = rng.next_below(rec_wire.size());
    expect_no_crash(
        [](BytesView d) {
          Reader r2(d);
          (void)chain::EpochRecord::deserialize(r2);
        },
        Bytes(rec_wire.begin(), rec_wire.begin() + static_cast<long>(cut)));
  }
}

TEST_P(DecoderFuzz, MutatedSnapshotNeverCrashesAndNeverLies) {
  // Start from a VALID snapshot encoding and abuse it: truncation at
  // every boundary class, bit flips, and length-prefix inflation must
  // either decode to exactly the same canonical bytes or throw — no
  // crash, no over-read, no silently different state.
  Rng rng(GetParam() * 8191 + 3);
  bm::BlockManager bm;
  chain::Wallet alice(to_bytes("fuzz-alice"));
  chain::Wallet bob(to_bytes("fuzz-bob"));
  for (int i = 0; i < 8; ++i) {
    bm.utxos().mint(alice.address(), 100 + i);
  }
  chain::Block b;
  b.index = 0;
  const auto tx = alice.pay(bm.utxos(), bob.address(), 50);
  ASSERT_TRUE(tx.has_value());
  b.txs.push_back(*tx);
  bm.commit_block(b);
  const Bytes wire = bm.snapshot(7).encode();

  for (int i = 0; i < 1500; ++i) {
    Bytes mutated = wire;
    switch (rng.next_below(3)) {
      case 0:  // truncate
        mutated.resize(rng.next_below(mutated.size()));
        break;
      case 1: {  // bit flips
        const std::size_t flips = 1 + rng.next_below(4);
        for (std::size_t f = 0; f < flips; ++f) {
          mutated[rng.next_below(mutated.size())] ^=
              static_cast<std::uint8_t>(1u << rng.next_below(8));
        }
        break;
      }
      default:  // garbage tail (trailing bytes must be rejected)
        for (std::size_t n = rng.next_below(16) + 1; n > 0; --n) {
          mutated.push_back(static_cast<std::uint8_t>(rng.next()));
        }
        break;
    }
    // The ledger restore decodes through the same walker: it accepts
    // exactly what Snapshot::decode accepts, and a rejection leaves the
    // ledger as it was.
    const BytesView view(mutated.data(), mutated.size());
    bool decoded = false;
    try {
      const auto snap = sync::Snapshot::decode(view);
      EXPECT_EQ(snap.encode(), mutated)
          << "accepted a non-canonical mutation";
      decoded = true;
    } catch (const DecodeError&) {
      // expected for nearly every mutation
    }
    bm::BlockManager ledger;
    ledger.utxos().mint(bob.address(), 1);
    const crypto::Hash32 before = ledger.state_digest();
    try {
      const InstanceId upto = ledger.restore(view);
      EXPECT_TRUE(decoded) << "only the ledger restore accepted it";
      EXPECT_EQ(ledger.snapshot(upto).encode(), mutated);
    } catch (const DecodeError&) {
      EXPECT_FALSE(decoded) << "only Snapshot::decode accepted it";
      EXPECT_EQ(ledger.state_digest(), before);
    }
  }
}

TEST_P(DecoderFuzz, MutatedSyncFramesDontCrash) {
  Rng rng(GetParam() * 524287 + 11);
  sync::SnapshotManifest m;
  m.server = 2;
  m.upto = 99;
  m.chunk_size = 64;
  m.chunk_count = 3;
  m.total_bytes = 130;
  m.root = crypto::sha256(to_bytes("root"));
  m.signature = to_bytes("sig-bytes-of-some-length");
  Writer mw;
  m.encode(mw);
  const Bytes manifest_wire = mw.take();

  sync::SnapshotChunk c;
  c.upto = 99;
  c.index = 1;
  c.data = to_bytes("chunk-payload-bytes");
  c.proof = {crypto::sha256(to_bytes("p0")), crypto::sha256(to_bytes("p1"))};
  Writer cw;
  c.encode(cw);
  const Bytes chunk_wire = cw.take();

  for (int i = 0; i < 2000; ++i) {
    for (const Bytes* wire : {&manifest_wire, &chunk_wire}) {
      Bytes mutated = *wire;
      const std::size_t flips = 1 + rng.next_below(5);
      for (std::size_t f = 0; f < flips; ++f) {
        mutated[rng.next_below(mutated.size())] ^=
            static_cast<std::uint8_t>(1u << rng.next_below(8));
      }
      if (rng.next_below(4) == 0) {
        mutated.resize(rng.next_below(mutated.size() + 1));
      }
      try {
        Reader r(BytesView(mutated.data(), mutated.size()));
        if (wire == &manifest_wire) {
          (void)sync::SnapshotManifest::decode(r);
        } else {
          (void)sync::SnapshotChunk::decode(r);
        }
      } catch (const DecodeError&) {
      }
    }
  }
}

TEST_P(DecoderFuzz, BitflippedValidMessagesDontCrash) {
  Rng rng(GetParam() * 131 + 7);
  crypto::SimScheme scheme(64);
  consensus::SignedVote vote;
  vote.signer = 3;
  vote.body = consensus::VoteBody{consensus::InstanceKey{1,
                                  consensus::InstanceKind::kExclusion, 5},
                                  2, 1, consensus::VoteType::kAux, Bytes{1}};
  const Bytes sb = vote.body.signing_bytes();
  vote.signature = scheme.sign(3, BytesView(sb.data(), sb.size()));
  const Bytes wire = consensus::encode_vote_msg(vote);
  for (int i = 0; i < 2000; ++i) {
    Bytes mutated = wire;
    const std::size_t flips = 1 + rng.next_below(4);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.next_below(mutated.size())] ^=
          static_cast<std::uint8_t>(1u << rng.next_below(8));
    }
    expect_no_crash(
        [](BytesView d) {
          if (d.empty()) return;
          Reader r(d.subspan(1));
          (void)consensus::SignedVote::decode(r);
        },
        mutated);
  }
}

TEST_P(DecoderFuzz, RoundtripSurvivesReencoding) {
  // Decode(encode(x)) == x for randomly generated valid votes.
  Rng rng(GetParam() * 977 + 13);
  crypto::SimScheme scheme(64);
  for (int i = 0; i < 500; ++i) {
    consensus::SignedVote v;
    v.signer = static_cast<ReplicaId>(rng.next_below(1000));
    v.body.key = consensus::InstanceKey{
        static_cast<std::uint32_t>(rng.next_below(5)),
        static_cast<consensus::InstanceKind>(rng.next_below(3)),
        rng.next_below(100)};
    v.body.slot = static_cast<std::uint32_t>(rng.next_below(128));
    v.body.round = static_cast<std::uint32_t>(rng.next_below(8));
    v.body.type = static_cast<consensus::VoteType>(rng.next_below(5));
    v.body.value = random_bytes(rng, 32);
    const Bytes sb = v.body.signing_bytes();
    v.signature = scheme.sign(v.signer, BytesView(sb.data(), sb.size()));
    Writer w;
    v.encode(w);
    Reader r(BytesView(w.data().data(), w.data().size()));
    const auto back = consensus::SignedVote::decode(r);
    r.expect_done();
    EXPECT_EQ(back, v);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecoderFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace zlb
