// secp256k1 curve algebra and ECDSA behaviour: known generator
// multiples, group laws, sign/verify, tampering, compression.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/signer.hpp"

namespace zlb::crypto {
namespace {

TEST(Secp256k1, GeneratorIsOnCurve) {
  EXPECT_TRUE(on_curve(AffinePoint{curve().gx, curve().gy, false}));
}

TEST(Secp256k1, KnownDoubleOfG) {
  const AffinePoint two_g = to_affine(scalar_mul_base(U256(2)));
  EXPECT_EQ(two_g.x.to_hex(),
            "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5");
  EXPECT_EQ(two_g.y.to_hex(),
            "1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a");
}

TEST(Secp256k1, OrderTimesGIsIdentity) {
  EXPECT_TRUE(scalar_mul_base(curve().n.m).is_identity());
}

TEST(Secp256k1, NMinusOneGIsMinusG) {
  U256 n_minus_1;
  sub_borrow(n_minus_1, curve().n.m, U256(1));
  const AffinePoint p = to_affine(scalar_mul_base(n_minus_1));
  EXPECT_EQ(p.x, curve().gx);
  EXPECT_EQ(p.y, sub_mod(U256(), curve().gy, curve().p));
}

TEST(Secp256k1, ScalarDistributes) {
  // (a+b)G == aG + bG for random scalars.
  Rng rng(3);
  for (int i = 0; i < 10; ++i) {
    const U256 a = normalize(U256{rng.next(), rng.next(), rng.next(), rng.next()},
                             curve().n);
    const U256 b = normalize(U256{rng.next(), rng.next(), rng.next(), rng.next()},
                             curve().n);
    const U256 sum = add_mod(a, b, curve().n);
    const AffinePoint lhs = to_affine(scalar_mul_base(sum));
    const AffinePoint rhs =
        to_affine(jacobian_add(scalar_mul_base(a), scalar_mul_base(b)));
    EXPECT_EQ(lhs, rhs);
  }
}

TEST(Secp256k1, CompressionRoundtrip) {
  Rng rng(9);
  for (int i = 0; i < 10; ++i) {
    const U256 k = normalize(U256{rng.next(), rng.next(), rng.next(), rng.next()},
                             curve().n);
    if (k.is_zero()) continue;
    const AffinePoint p = to_affine(scalar_mul_base(k));
    const auto compressed = compress(p);
    const auto decoded = decompress(BytesView(compressed.data(), 33));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, p);
  }
}

TEST(Secp256k1, DecompressRejectsNonResidue) {
  // x = 5, 7, 9 are in-range but x³ + 7 is a quadratic non-residue mod
  // p: no curve point has these x coordinates.
  for (const std::uint64_t x : {5ull, 7ull, 9ull}) {
    std::array<std::uint8_t, 33> enc{};
    enc[0] = 0x02;
    const auto xb = U256(x).to_bytes();
    std::copy(xb.begin(), xb.end(), enc.begin() + 1);
    EXPECT_FALSE(decompress(BytesView(enc.data(), 33)).has_value())
        << "x=" << x;
  }
}

TEST(Secp256k1, DoubleScalarMulMatchesNaive) {
  // The interleaved Shamir ladder must agree with the two-multiplies
  // baseline for random scalars and points, including zero scalars.
  Rng rng(17);
  for (int i = 0; i < 8; ++i) {
    const U256 u1 = normalize(
        U256{rng.next(), rng.next(), rng.next(), rng.next()}, curve().n);
    const U256 u2 = normalize(
        U256{rng.next(), rng.next(), rng.next(), rng.next()}, curve().n);
    const U256 kq = normalize(
        U256{rng.next(), rng.next(), rng.next(), rng.next()}, curve().n);
    const JacobianPoint q = scalar_mul_base(kq);
    const AffinePoint fast = to_affine(double_scalar_mul(u1, u2, q));
    const AffinePoint naive =
        to_affine(jacobian_add(scalar_mul_base(u1), scalar_mul(u2, q)));
    EXPECT_EQ(fast, naive);
  }
  const JacobianPoint q = scalar_mul_base(U256(77));
  EXPECT_EQ(to_affine(double_scalar_mul(U256(), U256(5), q)),
            to_affine(scalar_mul(U256(5), q)));
  EXPECT_EQ(to_affine(double_scalar_mul(U256(5), U256(), q)),
            to_affine(scalar_mul_base(U256(5))));
  EXPECT_TRUE(
      double_scalar_mul(U256(), U256(), JacobianPoint::identity())
          .is_identity());
}

TEST(Secp256k1, MixedAdditionMatchesFull) {
  Rng rng(23);
  for (int i = 0; i < 8; ++i) {
    const U256 a = normalize(
        U256{rng.next(), rng.next(), rng.next(), rng.next()}, curve().n);
    const U256 b = normalize(
        U256{rng.next(), rng.next(), rng.next(), rng.next()}, curve().n);
    const JacobianPoint pa = scalar_mul_base(a);
    const AffinePoint pb = to_affine(scalar_mul_base(b));
    EXPECT_EQ(to_affine(jacobian_add_mixed(pa, pb)),
              to_affine(jacobian_add(pa, JacobianPoint::from_affine(pb))));
  }
  // Doubling and cancellation branches.
  const JacobianPoint g = scalar_mul_base(U256(1));
  const AffinePoint ga = to_affine(g);
  EXPECT_EQ(to_affine(jacobian_add_mixed(g, ga)),
            to_affine(jacobian_double(g)));
  const AffinePoint neg_g{ga.x, sub_mod(U256(), ga.y, curve().p), false};
  EXPECT_TRUE(jacobian_add_mixed(g, neg_g).is_identity());
}

TEST(Secp256k1, DecompressRejectsGarbage) {
  std::array<std::uint8_t, 33> junk{};
  junk[0] = 0x02;
  // x = p (not < p) must be rejected.
  const auto pb = curve().p.m.to_bytes();
  std::copy(pb.begin(), pb.end(), junk.begin() + 1);
  EXPECT_FALSE(decompress(BytesView(junk.data(), 33)).has_value());
  junk[0] = 0x07;  // bad prefix
  EXPECT_FALSE(decompress(BytesView(junk.data(), 33)).has_value());
}

TEST(Ecdsa, SignVerifyRoundtrip) {
  const auto key = PrivateKey::from_seed(to_bytes("alice"));
  const Bytes msg = to_bytes("pay bob 5 coins");
  const Signature sig = key.sign(BytesView(msg.data(), msg.size()));
  EXPECT_TRUE(verify(key.public_key(), BytesView(msg.data(), msg.size()), sig));
}

TEST(Ecdsa, DeterministicSignatures) {
  const auto key = PrivateKey::from_seed(to_bytes("alice"));
  const Bytes msg = to_bytes("hello");
  const auto s1 = key.sign(BytesView(msg.data(), msg.size()));
  const auto s2 = key.sign(BytesView(msg.data(), msg.size()));
  EXPECT_EQ(s1, s2);
}

TEST(Ecdsa, DifferentMessagesDifferentSignatures) {
  const auto key = PrivateKey::from_seed(to_bytes("alice"));
  const Bytes m1 = to_bytes("a"), m2 = to_bytes("b");
  EXPECT_NE(key.sign(BytesView(m1.data(), m1.size())).r,
            key.sign(BytesView(m2.data(), m2.size())).r);
}

TEST(Ecdsa, TamperedMessageFails) {
  const auto key = PrivateKey::from_seed(to_bytes("alice"));
  const Bytes msg = to_bytes("pay bob 5 coins");
  const Signature sig = key.sign(BytesView(msg.data(), msg.size()));
  const Bytes bad = to_bytes("pay bob 6 coins");
  EXPECT_FALSE(verify(key.public_key(), BytesView(bad.data(), bad.size()), sig));
}

TEST(Ecdsa, WrongKeyFails) {
  const auto alice = PrivateKey::from_seed(to_bytes("alice"));
  const auto bob = PrivateKey::from_seed(to_bytes("bob"));
  const Bytes msg = to_bytes("msg");
  const Signature sig = alice.sign(BytesView(msg.data(), msg.size()));
  EXPECT_FALSE(verify(bob.public_key(), BytesView(msg.data(), msg.size()), sig));
}

TEST(Ecdsa, ZeroSignatureRejected) {
  const auto key = PrivateKey::from_seed(to_bytes("alice"));
  const Bytes msg = to_bytes("msg");
  EXPECT_FALSE(verify(key.public_key(), BytesView(msg.data(), msg.size()),
                      Signature{U256(), U256()}));
}

TEST(Ecdsa, LowS) {
  // BIP-62 normalization: s <= n/2 always.
  U256 half = curve().n.m;
  std::uint64_t carry = 0;
  for (int i = 3; i >= 0; --i) {
    const std::uint64_t cur = half.w[static_cast<std::size_t>(i)];
    half.w[static_cast<std::size_t>(i)] = (cur >> 1) | (carry << 63);
    carry = cur & 1;
  }
  const auto key = PrivateKey::from_seed(to_bytes("carol"));
  for (int i = 0; i < 8; ++i) {
    Bytes msg = to_bytes("m");
    msg.push_back(static_cast<std::uint8_t>(i));
    const auto sig = key.sign(BytesView(msg.data(), msg.size()));
    EXPECT_LE(cmp(sig.s, half), 0);
  }
}

TEST(Ecdsa, KnownAnswerVectors) {
  // Pinned against the pre-fast-path implementation: deterministic
  // nonces mean seed + message fully determine (r, s). Any change to
  // signing behaviour (nonce schedule, low-s rule, scalar mul) that
  // alters emitted bytes breaks these.
  struct Vector {
    const char* seed;
    const char* msg;
    const char* pub;
    const char* r;
    const char* s;
  };
  const Vector vectors[] = {
      {"zlb-kat-0", "zlb-kat-msg-0",
       "03c38c01c9b22a91cfaf25e1a6097096b0e9e967961536a92ca6c2faea999e82da",
       "4f2902a3df1a85b875e8f86c3e0e292ba372f15c1c537c5d7dfb4b0063a10218",
       "31e145e98a413293a50d5751f9ed95c74571317f11e50d0fbc387e676e84f294"},
      {"zlb-kat-1", "zlb-kat-msg-1",
       "02d99ec9b2314761e1ceccce8ce0d046f72731ff2d1bfc3c6d5128fdd88c859fa1",
       "f076681019b89d1d450d32e342d7912346bf175c90b3b2c077356c80929a9288",
       "6eb3d7433322602403f862d01809a3acb0ed7553c06fb2120399783b355324c0"},
      {"zlb-kat-2", "zlb-kat-msg-2",
       "03c729869e9af9eb55aeb51ba894cc008beb344fb68dc508985064c29690902bc7",
       "c94207d68f0b1e7689000658113f4828590a654a416c76fafb33cb5659513a42",
       "5dec4c1fc76028ad386ed5271abd61e8172aa0431e87175c84f67aea9f449fd7"},
      {"zlb-kat-3", "zlb-kat-msg-3",
       "02d45ecb9cef89c588d1ee17d45aa472fc7230e6fc554f8ba3f4d85a7e76adf095",
       "281d569a598d7af6ee1957b0fba0bb56096be4d832278d55f40b3006cda5a049",
       "2f22202c937bae6857732ee8e816e2719780cf7f379f8f1431af7dcae897cd4b"},
  };
  for (const Vector& v : vectors) {
    const auto key = PrivateKey::from_seed(to_bytes(v.seed));
    const auto pub = key.public_key();
    EXPECT_EQ(pub.hex(), v.pub);
    const Bytes msg = to_bytes(v.msg);
    const Signature sig = key.sign(BytesView(msg.data(), msg.size()));
    EXPECT_EQ(sig.r.to_hex(), v.r);
    EXPECT_EQ(sig.s.to_hex(), v.s);
    EXPECT_TRUE(verify(pub, BytesView(msg.data(), msg.size()), sig));
  }
}

TEST(Ecdsa, HighSMutationRejected) {
  // Malleability regression: (r, s) → (r, n−s) satisfies the raw ECDSA
  // equation with distinct bytes. The verifier must accept only the
  // canonical low-s form the signer emits.
  const auto key = PrivateKey::from_seed(to_bytes("malleate"));
  const auto pub = key.public_key();
  const Hash32 digest = sha256(to_bytes("spend outpoint 7"));
  const Signature sig = key.sign_digest(digest);
  ASSERT_TRUE(verify_digest(pub, digest, sig));
  const Signature high{sig.r, sub_mod(U256(), sig.s, curve().n)};
  ASSERT_NE(high.to_bytes(), sig.to_bytes());
  EXPECT_GT(cmp(high.s, curve().n_half), 0);
  EXPECT_FALSE(verify_digest(pub, digest, high));
  // Same through the pre-decompressed fast path.
  const auto q = decompress(BytesView(pub.data.data(), 33));
  ASSERT_TRUE(q.has_value());
  EXPECT_TRUE(verify_digest(*q, digest, sig));
  EXPECT_FALSE(verify_digest(*q, digest, high));
}

TEST(Ecdsa, SignVerifyRoundtrip100Digests) {
  const auto key = PrivateKey::from_seed(to_bytes("roundtrip"));
  const auto pub = key.public_key();
  Rng rng(41);
  for (int i = 0; i < 100; ++i) {
    Hash32 digest{};
    for (std::size_t b = 0; b < digest.size(); b += 8) {
      const std::uint64_t v = rng.next();
      for (std::size_t j = 0; j < 8; ++j) {
        digest[b + j] = static_cast<std::uint8_t>(v >> (8 * j));
      }
    }
    const Signature sig = key.sign_digest(digest);
    EXPECT_LE(cmp(sig.s, curve().n_half), 0);
    EXPECT_TRUE(verify_digest(pub, digest, sig));
    Hash32 flipped = digest;
    flipped[i % 32] ^= 1;
    EXPECT_FALSE(verify_digest(pub, flipped, sig));
  }
}

TEST(Ecdsa, PredecompressedOverloadMatchesAndRejectsInfinity) {
  const auto key = PrivateKey::from_seed(to_bytes("overload"));
  const auto pub = key.public_key();
  const Hash32 digest = sha256(to_bytes("msg"));
  const Signature sig = key.sign_digest(digest);
  const auto q = decompress(BytesView(pub.data.data(), 33));
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(verify_digest(*q, digest, sig), verify_digest(pub, digest, sig));
  // The identity is never a valid public key, even though scalar
  // arithmetic would happily absorb it.
  EXPECT_FALSE(verify_digest(AffinePoint{U256(), U256(), true}, digest, sig));
  // Off-curve coordinates are rejected before any scalar arithmetic
  // (invalid-curve attack guard).
  EXPECT_FALSE(
      verify_digest(AffinePoint{q->x, add_mod(q->y, U256(1), curve().p),
                                false},
                    digest, sig));
}

TEST(Ecdsa, PubkeyCacheMemoizes) {
  PubkeyCache cache;
  const auto key = PrivateKey::from_seed(to_bytes("cache"));
  const auto pub = key.public_key();
  const AffinePoint* first = cache.get(pub);
  ASSERT_NE(first, nullptr);
  EXPECT_TRUE(on_curve(*first));
  EXPECT_EQ(cache.get(pub), first);  // same node, no re-decompression
  EXPECT_EQ(cache.size(), 1u);
  PublicKey junk;
  junk.data[0] = 0x02;
  junk.data[32] = 5;  // x = 5: x³+7 is a non-residue mod p
  EXPECT_EQ(cache.get(junk), nullptr);
  EXPECT_EQ(cache.get(junk), nullptr);  // memoized failure
  EXPECT_EQ(cache.size(), 2u);
}

TEST(SignatureScheme, EcdsaSchemeRoundtrip) {
  EcdsaScheme scheme;
  const Bytes msg = to_bytes("protocol message");
  const Bytes sig = scheme.sign(7, BytesView(msg.data(), msg.size()));
  EXPECT_EQ(sig.size(), scheme.signature_size());
  EXPECT_TRUE(scheme.verify(7, BytesView(msg.data(), msg.size()),
                            BytesView(sig.data(), sig.size())));
  EXPECT_FALSE(scheme.verify(8, BytesView(msg.data(), msg.size()),
                             BytesView(sig.data(), sig.size())));
  // Signers 7 and 8 now have cached keys: the cached path must give the
  // same verdicts and keep rejecting tampering and high-s copies.
  EXPECT_TRUE(scheme.verify(7, BytesView(msg.data(), msg.size()),
                            BytesView(sig.data(), sig.size())));
  EXPECT_FALSE(scheme.verify(8, BytesView(msg.data(), msg.size()),
                             BytesView(sig.data(), sig.size())));
  const Bytes tampered = to_bytes("protocol messagf");
  EXPECT_FALSE(scheme.verify(7, BytesView(tampered.data(), tampered.size()),
                             BytesView(sig.data(), sig.size())));
  const auto parsed = Signature::from_bytes(BytesView(sig.data(), sig.size()));
  ASSERT_TRUE(parsed.has_value());
  const Signature high{parsed->r, sub_mod(U256(), parsed->s, curve().n)};
  const auto high_raw = high.to_bytes();
  EXPECT_FALSE(scheme.verify(7, BytesView(msg.data(), msg.size()),
                             BytesView(high_raw.data(), high_raw.size())));
  EXPECT_TRUE(scheme.verify(7, BytesView(msg.data(), msg.size()),
                            BytesView(sig.data(), sig.size())));
}

TEST(SignatureScheme, SimSchemeBehavesLikeSignatures) {
  SimScheme scheme(64);
  const Bytes msg = to_bytes("protocol message");
  const Bytes sig = scheme.sign(3, BytesView(msg.data(), msg.size()));
  EXPECT_EQ(sig.size(), 64u);
  EXPECT_TRUE(scheme.verify(3, BytesView(msg.data(), msg.size()),
                            BytesView(sig.data(), sig.size())));
  // Different signer or message must not verify.
  EXPECT_FALSE(scheme.verify(4, BytesView(msg.data(), msg.size()),
                             BytesView(sig.data(), sig.size())));
  const Bytes other = to_bytes("other message");
  EXPECT_FALSE(scheme.verify(3, BytesView(other.data(), other.size()),
                             BytesView(sig.data(), sig.size())));
}

TEST(SignatureScheme, SimSchemeConfigurableSize) {
  SimScheme rsa_like(256);
  const Bytes msg = to_bytes("m");
  EXPECT_EQ(rsa_like.sign(0, BytesView(msg.data(), msg.size())).size(), 256u);
}

}  // namespace
}  // namespace zlb::crypto
