#include "common/serde.hpp"

namespace zlb {

void Writer::u16(std::uint16_t v) {
  u8(static_cast<std::uint8_t>(v));
  u8(static_cast<std::uint8_t>(v >> 8));
}

void Writer::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Writer::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Writer::varint(std::uint64_t v) {
  while (v >= 0x80) {
    u8(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  u8(static_cast<std::uint8_t>(v));
}

void Writer::bytes(BytesView data) {
  varint(data.size());
  raw(data);
}

void Writer::string(std::string_view s) {
  varint(s.size());
  for (char c : s) u8(static_cast<std::uint8_t>(c));
}

void Reader::need(std::size_t n) const {
  if (remaining() < n) throw DecodeError("Reader: out of data");
}

std::uint8_t Reader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t Reader::u16() {
  std::uint16_t v = u8();
  v |= static_cast<std::uint16_t>(u8()) << 8;
  return v;
}

std::uint32_t Reader::u32() {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(u8()) << (8 * i);
  return v;
}

std::uint64_t Reader::u64() {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(u8()) << (8 * i);
  return v;
}

std::uint64_t Reader::varint() {
  std::uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (shift >= 64) throw DecodeError("Reader: varint overflow");
    const std::uint8_t b = u8();
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) break;
    shift += 7;
  }
  return v;
}

std::uint64_t Reader::length_prefix(std::size_t min_entry_bytes,
                                    std::uint64_t max_count) {
  const std::uint64_t n = varint();
  if (n > max_count) throw DecodeError("Reader: sequence count over limit");
  // Divide rather than multiply: n * min_entry_bytes could wrap.
  if (min_entry_bytes > 0 && n > remaining() / min_entry_bytes) {
    throw DecodeError("Reader: sequence count exceeds remaining data");
  }
  return n;
}

Bytes Reader::raw(std::size_t n) {
  need(n);
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

BytesView Reader::view(std::size_t n) {
  need(n);
  const BytesView out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

Bytes Reader::bytes() {
  const std::uint64_t n = varint();
  if (n > remaining()) throw DecodeError("Reader: bytes length exceeds data");
  return raw(static_cast<std::size_t>(n));
}

std::string Reader::string() {
  const Bytes b = bytes();
  return std::string(b.begin(), b.end());
}

bool Reader::boolean() {
  const std::uint8_t v = u8();
  if (v > 1) throw DecodeError("Reader: invalid boolean");
  return v == 1;
}

void Reader::expect_done() const {
  if (!done()) throw DecodeError("Reader: trailing bytes");
}

}  // namespace zlb
