#include "crypto/sha256.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define ZLB_SHA_NI 1
#include <cpuid.h>
#include <immintrin.h>
#else
#define ZLB_SHA_NI 0
#endif

namespace zlb::crypto {

namespace {

alignas(16) constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

void compress_portable(std::uint32_t* state, const std::uint8_t* data,
                       std::size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    std::array<std::uint32_t, 64> w;
    for (int i = 0; i < 16; ++i) {
      w[static_cast<std::size_t>(i)] =
          (static_cast<std::uint32_t>(data[4 * i]) << 24) |
          (static_cast<std::uint32_t>(data[4 * i + 1]) << 16) |
          (static_cast<std::uint32_t>(data[4 * i + 2]) << 8) |
          static_cast<std::uint32_t>(data[4 * i + 3]);
    }
    for (std::size_t i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (std::size_t i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if ZLB_SHA_NI
// SHA-NI keeps the state as two vectors, ABEF and CDGH; each
// sha256rnds2 runs two rounds, so a group of four rounds is two calls
// with the message+constant words of the group (low half, then high
// half). sha256msg1/msg2 extend the message schedule four words at a
// time: group i+1 (i >= 3) is built from groups i-3..i.
__attribute__((target("sha,sse4.1,ssse3"))) void compress_shani(
    std::uint32_t* state, const std::uint8_t* data, std::size_t blocks) {
  const __m128i byteswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i state1 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);        // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1B);  // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);  // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);       // CDGH

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_save = state0;
    const __m128i cdgh_save = state1;
    __m128i msg[4] = {};
    // Fully unrolled, the i % 4 schedule slots become plain registers.
#if defined(__clang__)
#pragma unroll
#else
#pragma GCC unroll 16
#endif
    for (int i = 0; i < 16; ++i) {
      if (i < 4) {
        msg[i] = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)),
            byteswap);
      }
      __m128i wk = _mm_add_epi32(
          msg[i % 4],
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[4 * i])));
      state1 = _mm_sha256rnds2_epu32(state1, state0, wk);
      if (i >= 3 && i < 15) {
        const __m128i carry = _mm_alignr_epi8(msg[i % 4], msg[(i + 3) % 4], 4);
        msg[(i + 1) % 4] = _mm_sha256msg2_epu32(
            _mm_add_epi32(msg[(i + 1) % 4], carry), msg[i % 4]);
      }
      wk = _mm_shuffle_epi32(wk, 0x0E);
      state0 = _mm_sha256rnds2_epu32(state0, state1, wk);
      if (i >= 1 && i < 13) {
        msg[(i + 3) % 4] = _mm_sha256msg1_epu32(msg[(i + 3) % 4], msg[i % 4]);
      }
    }
    state0 = _mm_add_epi32(state0, abef_save);
    state1 = _mm_add_epi32(state1, cdgh_save);
  }

  tmp = _mm_shuffle_epi32(state0, 0x1B);       // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xB1);    // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xF0);  // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);     // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), state1);
}

bool cpu_has_sha_ni() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid(1, &a, &b, &c, &d) == 0) return false;
  const bool ssse3 = (c & (1u << 9)) != 0;
  const bool sse41 = (c & (1u << 19)) != 0;
  if (__get_cpuid_count(7, 0, &a, &b, &c, &d) == 0) return false;
  const bool sha = (b & (1u << 29)) != 0;
  return ssse3 && sse41 && sha;
}
#else
bool cpu_has_sha_ni() { return false; }
#endif

Sha256CompressFn compress_for(Sha256Impl impl) {
#if ZLB_SHA_NI
  if (impl == Sha256Impl::kShaNi) return compress_shani;
#else
  (void)impl;
#endif
  return compress_portable;
}

Sha256Impl best_impl() {
  return cpu_has_sha_ni() ? Sha256Impl::kShaNi : Sha256Impl::kPortable;
}

std::atomic<Sha256Impl>& current_impl() {
  static std::atomic<Sha256Impl> impl{best_impl()};
  return impl;
}

}  // namespace

bool sha256_supported(Sha256Impl impl) {
  return impl == Sha256Impl::kPortable || cpu_has_sha_ni();
}

Sha256Impl sha256_impl() {
  return current_impl().load(std::memory_order_relaxed);
}

bool set_sha256_impl(Sha256Impl impl) {
  if (!sha256_supported(impl)) return false;
  current_impl().store(impl, std::memory_order_relaxed);
  return true;
}

Sha256::Sha256() : compress_(compress_for(sha256_impl())) { reset(); }

void Sha256::reset() {
  h_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
        0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  buf_len_ = 0;
  total_len_ = 0;
}

void Sha256::update(BytesView data) {
  total_len_ += data.size();
  std::size_t off = 0;
  if (buf_len_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buf_len_);
    std::memcpy(buf_.data() + buf_len_, data.data(), take);
    buf_len_ += take;
    off = take;
    if (buf_len_ == 64) {
      compress_(h_.data(), buf_.data(), 1);
      buf_len_ = 0;
    }
  }
  const std::size_t blocks = (data.size() - off) / 64;
  if (blocks > 0) {
    compress_(h_.data(), data.data() + off, blocks);
    off += blocks * 64;
  }
  if (off < data.size()) {
    std::memcpy(buf_.data(), data.data() + off, data.size() - off);
    buf_len_ = data.size() - off;
  }
}

Hash32 Sha256::finish() {
  // Padding: 0x80, zeros up to 56 mod 64, then the bit length (BE).
  const std::uint64_t bit_len = total_len_ * 8;
  buf_[buf_len_++] = 0x80;
  if (buf_len_ > 56) {
    std::memset(buf_.data() + buf_len_, 0, 64 - buf_len_);
    compress_(h_.data(), buf_.data(), 1);
    buf_len_ = 0;
  }
  std::memset(buf_.data() + buf_len_, 0, 56 - buf_len_);
  for (int i = 0; i < 8; ++i) {
    buf_[static_cast<std::size_t>(56 + i)] =
        static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  compress_(h_.data(), buf_.data(), 1);
  buf_len_ = 0;
  Hash32 out;
  for (int i = 0; i < 8; ++i) {
    const std::uint32_t v = h_[static_cast<std::size_t>(i)];
    out[static_cast<std::size_t>(4 * i)] = static_cast<std::uint8_t>(v >> 24);
    out[static_cast<std::size_t>(4 * i + 1)] =
        static_cast<std::uint8_t>(v >> 16);
    out[static_cast<std::size_t>(4 * i + 2)] =
        static_cast<std::uint8_t>(v >> 8);
    out[static_cast<std::size_t>(4 * i + 3)] = static_cast<std::uint8_t>(v);
  }
  return out;
}

Hash32 sha256(BytesView data) {
  Sha256 ctx;
  ctx.update(data);
  return ctx.finish();
}

Hash32 sha256d(BytesView data) {
  const Hash32 first = sha256(data);
  return sha256(BytesView(first.data(), first.size()));
}

Hash32 hmac_sha256(BytesView key, BytesView data) {
  std::array<std::uint8_t, 64> k_block{};
  if (key.size() > 64) {
    const Hash32 kh = sha256(key);
    std::memcpy(k_block.data(), kh.data(), kh.size());
  } else {
    std::memcpy(k_block.data(), key.data(), key.size());
  }
  std::array<std::uint8_t, 64> ipad, opad;
  for (std::size_t i = 0; i < 64; ++i) {
    ipad[i] = static_cast<std::uint8_t>(k_block[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(k_block[i] ^ 0x5c);
  }
  Sha256 inner;
  inner.update(BytesView(ipad.data(), 64));
  inner.update(data);
  const Hash32 inner_digest = inner.finish();
  Sha256 outer;
  outer.update(BytesView(opad.data(), 64));
  outer.update(BytesView(inner_digest.data(), inner_digest.size()));
  return outer.finish();
}

std::string hash_hex(const Hash32& h) {
  return to_hex(BytesView(h.data(), h.size()));
}

std::uint64_t hash_prefix64(const Hash32& h) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | h[static_cast<std::size_t>(i)];
  return v;
}

}  // namespace zlb::crypto
