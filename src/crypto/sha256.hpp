// FIPS 180-4 SHA-256, implemented from scratch (no external crypto
// dependency). Used for transaction/block ids, protocol-message digests,
// RFC-6979 deterministic ECDSA nonces and checkpoint merkle leaves.
//
// The block compression has two implementations: a portable one, and
// one on the x86 SHA extensions (SHA-NI), picked at startup from CPUID
// when the CPU has them. Both produce identical digests; the portable
// one also serves as the reference the tests check SHA-NI against.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace zlb::crypto {

using Hash32 = std::array<std::uint8_t, 32>;

enum class Sha256Impl : std::uint8_t {
  kPortable,  ///< plain C++, any CPU
  kShaNi,     ///< x86 SHA extensions
};

/// True when this build and CPU can run `impl`.
[[nodiscard]] bool sha256_supported(Sha256Impl impl);
/// The implementation new contexts use: the fastest supported one,
/// unless set_sha256_impl() pinned another.
[[nodiscard]] Sha256Impl sha256_impl();
/// Pins the implementation for contexts created from now on (tests run
/// the same vectors through both). False, and no change, when `impl`
/// is unsupported.
bool set_sha256_impl(Sha256Impl impl);

/// Compresses `blocks` consecutive 64-byte blocks into `state`.
using Sha256CompressFn = void (*)(std::uint32_t* state,
                                  const std::uint8_t* data,
                                  std::size_t blocks);

/// Incremental SHA-256 context.
class Sha256 {
 public:
  Sha256();

  void reset();
  void update(BytesView data);
  /// Finalizes and returns the digest; the context must be reset() before
  /// reuse.
  [[nodiscard]] Hash32 finish();

 private:
  Sha256CompressFn compress_;
  std::array<std::uint32_t, 8> h_{};
  std::array<std::uint8_t, 64> buf_{};
  std::size_t buf_len_ = 0;
  std::uint64_t total_len_ = 0;
};

/// One-shot convenience.
[[nodiscard]] Hash32 sha256(BytesView data);

/// Double SHA-256 (Bitcoin-style tx/block ids).
[[nodiscard]] Hash32 sha256d(BytesView data);

/// HMAC-SHA256 per RFC 2104.
[[nodiscard]] Hash32 hmac_sha256(BytesView key, BytesView data);

/// Hex rendering of a digest.
[[nodiscard]] std::string hash_hex(const Hash32& h);

/// First 8 bytes of the digest as a u64 (for hash-map bucketing).
[[nodiscard]] std::uint64_t hash_prefix64(const Hash32& h);

struct Hash32Hasher {
  std::size_t operator()(const Hash32& h) const noexcept {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v = (v << 8) | h[static_cast<std::size_t>(i)];
    return static_cast<std::size_t>(v);
  }
};

}  // namespace zlb::crypto
