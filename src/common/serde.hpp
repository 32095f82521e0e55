// Minimal deterministic binary codec used for every wire structure
// (transactions, blocks, consensus messages, certificates). Fixed-width
// integers are little-endian; sequences are length-prefixed with a
// LEB128 varint. Decoding failures throw `DecodeError`.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common/bytes.hpp"

namespace zlb {

class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

/// Append-only encoder.
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  /// Unsigned LEB128 varint.
  void varint(std::uint64_t v);
  /// Raw bytes, no length prefix.
  void raw(BytesView data) { append(buf_, data); }
  /// varint length prefix + raw bytes.
  void bytes(BytesView data);
  void string(std::string_view s);
  void boolean(bool v) { u8(v ? 1 : 0); }

  [[nodiscard]] const Bytes& data() const { return buf_; }
  [[nodiscard]] Bytes take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  Bytes buf_;
};

/// Sequential decoder over a borrowed buffer.
class Reader {
 public:
  explicit Reader(BytesView data) : data_(data) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint16_t u16();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  [[nodiscard]] std::uint64_t varint();
  /// Varint element count for a length-prefixed sequence, proven
  /// satisfiable before any allocation: throws unless
  /// `count <= max_count` and `count * min_entry_bytes <= remaining()`.
  /// Every count that sizes a reserve()/resize() on wire input must
  /// come through here (or sit under an explicit remaining() check) —
  /// otherwise a few-byte frame can demand an arbitrary allocation.
  /// zlb_analyze's bounded-decode checker enforces exactly that.
  [[nodiscard]] std::uint64_t length_prefix(std::size_t min_entry_bytes,
                                            std::uint64_t max_count);
  [[nodiscard]] Bytes raw(std::size_t n);
  /// The next `n` bytes, borrowed from the underlying buffer (no copy).
  [[nodiscard]] BytesView view(std::size_t n);
  [[nodiscard]] Bytes bytes();
  [[nodiscard]] std::string string();
  [[nodiscard]] bool boolean();

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool done() const { return remaining() == 0; }
  /// Throws unless the whole buffer was consumed.
  void expect_done() const;

 private:
  void need(std::size_t n) const;

  BytesView data_;
  std::size_t pos_ = 0;
};

}  // namespace zlb
