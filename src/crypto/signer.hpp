// Authentication layer for protocol messages. The paper signs every
// consensus message with ECDSA (certificates and PoFs depend on
// transferable authentication — §4.2.4 explains why MACs are not
// enough). `EcdsaScheme` is the real thing; `SimScheme` preserves the
// semantics (per-replica, unforgeable within the simulation, verifiable
// by everyone, transferable) at a tiny CPU cost so that million-message
// simulations stay tractable. Both are exercised by the test suite.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/types.hpp"
#include "crypto/ecdsa.hpp"

namespace zlb::crypto {

class SignatureScheme {
 public:
  virtual ~SignatureScheme() = default;

  /// Signs on behalf of `id` (the harness owns all keys; replicas only
  /// ever sign with their own id — equivocation is signing two different
  /// payloads, not forging).
  [[nodiscard]] virtual Bytes sign(ReplicaId id, BytesView message) = 0;
  [[nodiscard]] virtual bool verify(ReplicaId id, BytesView message,
                                    BytesView signature) const = 0;
  /// Wire size of one signature in bytes (64 ECDSA, 256 RSA-2048-like).
  [[nodiscard]] virtual std::size_t signature_size() const = 0;
};

/// Real secp256k1 ECDSA, one deterministic key per replica id. Not
/// thread-safe: keys and public keys are cached lazily in unsynchronised
/// maps, so one thread owns a scheme (a LiveNode's loop thread).
class EcdsaScheme final : public SignatureScheme {
 public:
  [[nodiscard]] Bytes sign(ReplicaId id, BytesView message) override;
  [[nodiscard]] bool verify(ReplicaId id, BytesView message,
                            BytesView signature) const override;
  [[nodiscard]] std::size_t signature_size() const override { return 64; }

  [[nodiscard]] const PrivateKey& key(ReplicaId id);
  [[nodiscard]] PublicKey public_key(ReplicaId id) const;

 private:
  const PrivateKey& key_for(ReplicaId id) const;
  /// The signer's decompressed public key: decompression is a field
  /// square root, which every verify would otherwise pay again.
  const AffinePoint& point_for(ReplicaId id) const;

  mutable std::unordered_map<ReplicaId, PrivateKey> keys_;
  mutable std::unordered_map<ReplicaId, PublicKey> pubs_;
  mutable std::unordered_map<ReplicaId, AffinePoint> points_;
};

/// Keyed-hash stand-in with a configurable wire size. sig =
/// HMAC-SHA256(secret(id), message) truncated/padded to `size` bytes.
class SimScheme final : public SignatureScheme {
 public:
  explicit SimScheme(std::size_t size = 64, std::uint64_t domain = 0)
      : size_(size), domain_(domain) {}

  [[nodiscard]] Bytes sign(ReplicaId id, BytesView message) override;
  [[nodiscard]] bool verify(ReplicaId id, BytesView message,
                            BytesView signature) const override;
  [[nodiscard]] std::size_t signature_size() const override { return size_; }

 private:
  [[nodiscard]] Bytes compute(ReplicaId id, BytesView message) const;

  std::size_t size_;
  std::uint64_t domain_;
};

}  // namespace zlb::crypto
