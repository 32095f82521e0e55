// SHA-256 merkle tree over an ordered list of leaves, RFC 6962 style:
// leaf nodes are domain-separated from interior nodes (0x00 / 0x01
// prefixes) so a leaf can never be confused with a subtree root, and an
// unbalanced tree splits at the largest power of two — no phantom
// duplicate leaves, every tree shape is uniquely determined by the leaf
// count. Used by the checkpoint/state-sync subsystem: a joiner verifies
// each snapshot chunk against a signed root before applying any of it.
#pragma once

#include <vector>

#include "crypto/sha256.hpp"

namespace zlb::crypto {

/// Leaf hash: sha256(0x00 || data).
[[nodiscard]] Hash32 merkle_leaf(BytesView data);

/// Interior hash: sha256(0x01 || left || right).
[[nodiscard]] Hash32 merkle_node(const Hash32& left, const Hash32& right);

class MerkleTree {
 public:
  MerkleTree() = default;

  /// Builds the tree bottom-up from leaf hashes (use merkle_leaf()).
  [[nodiscard]] static MerkleTree build(std::vector<Hash32> leaves);

  [[nodiscard]] std::size_t leaf_count() const { return leaves_.size(); }
  [[nodiscard]] bool empty() const { return leaves_.empty(); }
  /// Leaf `index` (< leaf_count()) as given to build().
  [[nodiscard]] const Hash32& leaf(std::size_t index) const {
    return leaves_.at(index);
  }
  /// Root over all leaves. Zero hash for an empty tree.
  [[nodiscard]] const Hash32& root() const { return root_; }

  /// Audit path for leaf `index`: the sibling subtree roots from the
  /// leaf up to (excluding) the root, ceil(log2(n)) hashes.
  [[nodiscard]] std::vector<Hash32> proof(std::size_t index) const;

  /// Stateless verification: does `leaf` live at `index` in the tree of
  /// `count` leaves with this `root`, given the audit path?
  [[nodiscard]] static bool verify(const Hash32& root, std::size_t index,
                                   std::size_t count, const Hash32& leaf,
                                   const std::vector<Hash32>& proof);

 private:
  std::vector<Hash32> leaves_;
  Hash32 root_{};
};

}  // namespace zlb::crypto
