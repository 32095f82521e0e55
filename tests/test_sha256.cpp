// SHA-256 / HMAC-SHA256 against FIPS-180-4 and RFC-4231 test vectors,
// run once per compress implementation this CPU supports, plus a
// randomized cross-check of SHA-NI against the portable reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>

#include "crypto/sha256.hpp"

namespace zlb::crypto {
namespace {

Bytes str(const char* s) { return to_bytes(s); }

/// Pins one implementation for the test's duration (contexts pick it
/// up at construction, so every helper below runs on it).
class PinnedImpl {
 public:
  explicit PinnedImpl(Sha256Impl impl) : saved_(sha256_impl()) {
    ok_ = set_sha256_impl(impl);
  }
  ~PinnedImpl() { (void)set_sha256_impl(saved_); }
  PinnedImpl(const PinnedImpl&) = delete;
  PinnedImpl& operator=(const PinnedImpl&) = delete;
  [[nodiscard]] bool ok() const { return ok_; }

 private:
  Sha256Impl saved_;
  bool ok_ = false;
};

class Sha256 : public ::testing::TestWithParam<Sha256Impl> {
 protected:
  void SetUp() override {
    pin_ = std::make_unique<PinnedImpl>(GetParam());
    if (!pin_->ok()) GTEST_SKIP() << "implementation not supported here";
  }
  void TearDown() override { pin_.reset(); }

 private:
  std::unique_ptr<PinnedImpl> pin_;
};
using HmacSha256 = Sha256;

std::string impl_name(const ::testing::TestParamInfo<Sha256Impl>& info) {
  return info.param == Sha256Impl::kShaNi ? "ShaNi" : "Portable";
}

INSTANTIATE_TEST_SUITE_P(Impl, Sha256,
                         ::testing::Values(Sha256Impl::kPortable,
                                           Sha256Impl::kShaNi),
                         impl_name);
INSTANTIATE_TEST_SUITE_P(Impl, HmacSha256,
                         ::testing::Values(Sha256Impl::kPortable,
                                           Sha256Impl::kShaNi),
                         impl_name);

TEST_P(Sha256, EmptyString) {
  EXPECT_EQ(hash_hex(sha256(str(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST_P(Sha256, Abc) {
  EXPECT_EQ(hash_hex(sha256(str("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST_P(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hash_hex(sha256(str(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST_P(Sha256, MillionA) {
  crypto::Sha256 ctx;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    ctx.update(BytesView(chunk.data(), chunk.size()));
  }
  EXPECT_EQ(hash_hex(ctx.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST_P(Sha256, IncrementalMatchesOneShot) {
  const Bytes msg = str("the quick brown fox jumps over the lazy dog etc.");
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    crypto::Sha256 ctx;
    ctx.update(BytesView(msg.data(), split));
    ctx.update(BytesView(msg.data() + split, msg.size() - split));
    EXPECT_EQ(ctx.finish(), sha256(BytesView(msg.data(), msg.size())));
  }
}

TEST_P(Sha256, DoubleHashDiffersFromSingle) {
  const Bytes msg = str("abc");
  EXPECT_NE(sha256d(BytesView(msg.data(), msg.size())),
            sha256(BytesView(msg.data(), msg.size())));
}

// RFC 4231 test case 2 (short key).
TEST_P(HmacSha256, Rfc4231Case2) {
  const Bytes key = str("Jefe");
  const Bytes data = str("what do ya want for nothing?");
  EXPECT_EQ(hash_hex(hmac_sha256(BytesView(key.data(), key.size()),
                                 BytesView(data.data(), data.size()))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

// RFC 4231 test case 1.
TEST_P(HmacSha256, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const Bytes data = str("Hi There");
  EXPECT_EQ(hash_hex(hmac_sha256(BytesView(key.data(), key.size()),
                                 BytesView(data.data(), data.size()))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

// RFC 4231 test case 6: key longer than the block size.
TEST_P(HmacSha256, LongKey) {
  const Bytes key(131, 0xaa);
  const Bytes data =
      str("Test Using Larger Than Block-Size Key - Hash Key First");
  EXPECT_EQ(hash_hex(hmac_sha256(BytesView(key.data(), key.size()),
                                 BytesView(data.data(), data.size()))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

/// Digest of `msg` fed through one context of `impl` in the given
/// pieces.
Hash32 digest_in_pieces(Sha256Impl impl, const Bytes& msg,
                        const std::vector<std::size_t>& cuts) {
  const PinnedImpl pin(impl);
  EXPECT_TRUE(pin.ok());
  crypto::Sha256 ctx;
  std::size_t at = 0;
  for (const std::size_t cut : cuts) {
    ctx.update(BytesView(msg.data() + at, cut - at));
    at = cut;
  }
  ctx.update(BytesView(msg.data() + at, msg.size() - at));
  return ctx.finish();
}

TEST(Sha256Impls, ShaNiMatchesPortableAtEveryLength) {
  if (!sha256_supported(Sha256Impl::kShaNi)) {
    GTEST_SKIP() << "no SHA extensions on this CPU";
  }
  std::mt19937_64 rng(2024);
  for (std::size_t len = 0; len <= 4096; ++len) {
    Bytes msg(len);
    for (auto& b : msg) b = static_cast<std::uint8_t>(rng());
    // Random split points exercise the buffered-tail, whole-block and
    // cross-block paths of update().
    std::vector<std::size_t> cuts;
    const std::size_t pieces = len == 0 ? 0 : rng() % 5;
    for (std::size_t i = 0; i < pieces; ++i) cuts.push_back(rng() % (len + 1));
    std::sort(cuts.begin(), cuts.end());
    const Hash32 portable = digest_in_pieces(Sha256Impl::kPortable, msg, {});
    ASSERT_EQ(digest_in_pieces(Sha256Impl::kShaNi, msg, cuts), portable)
        << "length " << len;
    ASSERT_EQ(digest_in_pieces(Sha256Impl::kPortable, msg, cuts), portable)
        << "length " << len;
  }
}

TEST(Sha256Impls, PortableIsAlwaysSupported) {
  EXPECT_TRUE(sha256_supported(Sha256Impl::kPortable));
  EXPECT_TRUE(sha256_supported(sha256_impl()));
}

}  // namespace
}  // namespace zlb::crypto
