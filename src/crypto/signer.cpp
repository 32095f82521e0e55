#include "crypto/signer.hpp"

#include <cstring>

#include "common/rng.hpp"
#include "common/serde.hpp"

namespace zlb::crypto {

const PrivateKey& EcdsaScheme::key_for(ReplicaId id) const {
  auto it = keys_.find(id);
  if (it == keys_.end()) {
    Writer w;
    w.string("zlb-replica-key");
    w.u32(id);
    it = keys_
             .emplace(id, PrivateKey::from_seed(
                              BytesView(w.data().data(), w.data().size())))
             .first;
  }
  return it->second;
}

const PrivateKey& EcdsaScheme::key(ReplicaId id) {
  return key_for(id);
}

PublicKey EcdsaScheme::public_key(ReplicaId id) const {
  auto it = pubs_.find(id);
  if (it == pubs_.end()) {
    it = pubs_.emplace(id, key_for(id).public_key()).first;
  }
  return it->second;
}

const AffinePoint& EcdsaScheme::point_for(ReplicaId id) const {
  auto it = points_.find(id);
  if (it == points_.end()) {
    const PublicKey pub = public_key(id);
    // A key derived from a valid scalar always decompresses.
    it = points_.emplace(id, *decompress(BytesView(pub.data.data(), 33)))
             .first;
  }
  return it->second;
}

Bytes EcdsaScheme::sign(ReplicaId id, BytesView message) {
  const Signature sig = key_for(id).sign(message);
  const auto raw = sig.to_bytes();
  return Bytes(raw.begin(), raw.end());
}

bool EcdsaScheme::verify(ReplicaId id, BytesView message,
                         BytesView signature) const {
  const auto sig = Signature::from_bytes(signature);
  if (!sig) return false;
  return verify_digest(point_for(id), sha256(message), *sig);
}

Bytes SimScheme::compute(ReplicaId id, BytesView message) const {
  // Keyed 256-bit MAC built from splitmix64 mixing — not
  // cryptographically strong, but unforgeable within the simulation and
  // ~20x faster than HMAC-SHA256, which matters in multi-million-message
  // runs. The *cost* of real signatures is modelled in simulated time by
  // the network CPU model, not by this function.
  const std::uint64_t secret =
      mix64(domain_ ^ (0x5a1b5a1bULL << 32) ^
            mix64(static_cast<std::uint64_t>(id) * 0x9e3779b97f4a7c15ULL + 1));
  std::uint64_t h[4] = {secret, mix64(secret ^ 1), mix64(secret ^ 2),
                        mix64(secret ^ 3)};
  std::size_t i = 0;
  for (; i + 8 <= message.size(); i += 8) {
    std::uint64_t chunk = 0;
    std::memcpy(&chunk, message.data() + i, 8);
    h[(i / 8) & 3] = mix64(h[(i / 8) & 3] ^ chunk);
  }
  std::uint64_t tail = message.size();
  for (; i < message.size(); ++i) tail = (tail << 8) | message[i];
  h[0] = mix64(h[0] ^ tail);
  h[1] = mix64(h[1] ^ h[0]);
  h[2] = mix64(h[2] ^ h[1]);
  h[3] = mix64(h[3] ^ h[2]);
  Bytes out(size_, 0);
  for (std::size_t j = 0; j < size_; ++j) {
    out[j] = static_cast<std::uint8_t>(h[(j / 8) & 3] >> (8 * (j % 8)));
  }
  return out;
}

Bytes SimScheme::sign(ReplicaId id, BytesView message) {
  return compute(id, message);
}

bool SimScheme::verify(ReplicaId id, BytesView message,
                       BytesView signature) const {
  if (signature.size() != size_) return false;
  const Bytes expected = compute(id, message);
  return compare(BytesView(expected.data(), expected.size()), signature) == 0;
}

}  // namespace zlb::crypto
