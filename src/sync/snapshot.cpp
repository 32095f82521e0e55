#include "sync/snapshot.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <utility>

#include "common/serde.hpp"

namespace zlb::sync {

namespace {

constexpr std::uint32_t kSnapshotMagic = 0x5a4c4253;  // "ZLBS"

void put_outpoint(Writer& w, const chain::OutPoint& op) {
  w.raw(BytesView(op.txid.data(), op.txid.size()));
  w.u32(op.index);
}

// SnapshotDelta::merge writes the layout Snapshot::encode defines (the
// tests hold the two to byte equality) record by record: a header
// (magic, version, upto, mint_counter, deposit), then five sections,
// each a varint count of fixed-size records.
constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8 + 8;
constexpr std::size_t kOutPointBytes = 32 + 4;
constexpr std::size_t kUtxoBytes = kOutPointBytes + 8 + 20;
constexpr std::size_t kValueBytes = kOutPointBytes + 8;
constexpr std::size_t kTxIdBytes = 32;
constexpr std::size_t kAddressBytes = 20;

// Raw writers into that buffer, in Writer's byte layout (u32/u64
// little-endian, LEB128 varints).
std::uint8_t* put_u32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) *p++ = static_cast<std::uint8_t>(v >> (8 * i));
  return p;
}

std::uint8_t* put_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) *p++ = static_cast<std::uint8_t>(v >> (8 * i));
  return p;
}

std::uint8_t* put_varint(std::uint8_t* p, std::uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<std::uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *p++ = static_cast<std::uint8_t>(v);
  return p;
}

std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

std::uint8_t* put_raw(std::uint8_t* p, const std::uint8_t* src,
                      std::size_t n) {
  if (n > 0) std::memcpy(p, src, n);
  return p + n;
}

std::uint8_t* put_outpoint(std::uint8_t* p, const chain::OutPoint& op) {
  return put_u32(put_raw(p, op.txid.data(), op.txid.size()), op.index);
}

std::uint8_t* put_txout(std::uint8_t* p, const chain::TxOut& out) {
  p = put_u64(p, static_cast<std::uint64_t>(out.value));
  return put_raw(p, out.to.data.data(), out.to.data.size());
}

// One record per section entry. A delta's spent outpoint (nullopt) is
// never written — put_live() drops it instead.
std::uint8_t* put_entry(
    std::uint8_t* p,
    const std::pair<chain::OutPoint, std::optional<chain::TxOut>>& e) {
  return put_txout(put_outpoint(p, e.first), *e.second);
}
std::uint8_t* put_entry(std::uint8_t* p,
                        const std::pair<chain::OutPoint, chain::Amount>& e) {
  return put_u64(put_outpoint(p, e.first), static_cast<std::uint64_t>(e.second));
}
std::uint8_t* put_entry(std::uint8_t* p, const chain::TxId& id) {
  return put_raw(p, id.data(), id.size());
}
std::uint8_t* put_entry(std::uint8_t* p, const chain::Address& a) {
  return put_raw(p, a.data.data(), a.data.size());
}

bool is_live(const std::pair<chain::OutPoint, std::optional<chain::TxOut>>& e) {
  return e.second.has_value();
}
template <typename Entry>
bool is_live(const Entry& /*upsert*/) {
  return true;
}

template <typename Value>
const chain::OutPoint& key_of(const std::pair<chain::OutPoint, Value>& e) {
  return e.first;
}
const chain::TxId& key_of(const chain::TxId& id) { return id; }

/// Orders an encoded record against a key the way the decoded values
/// order (OutPoint: txid bytes, then the little-endian index).
int compare_record(const std::uint8_t* rec, const chain::OutPoint& op) {
  if (const int c = std::memcmp(rec, op.txid.data(), op.txid.size())) return c;
  std::uint32_t index = 0;
  for (int i = 0; i < 4; ++i) {
    index |= static_cast<std::uint32_t>(rec[32 + i]) << (8 * i);
  }
  return index < op.index ? -1 : (index > op.index ? 1 : 0);
}
int compare_record(const std::uint8_t* rec, const chain::TxId& id) {
  return std::memcmp(rec, id.data(), id.size());
}

/// The base image of a merge, consumed record by record across the
/// source's blocks; a record split between two blocks is gathered in a
/// small carry buffer.
class BaseReader {
 public:
  explicit BaseReader(MergeSource& source) : source_(source) {}

  /// The next `n` bytes, valid until the next call.
  const std::uint8_t* take(std::size_t n) {
    if (static_cast<std::size_t>(end_ - pos_) >= n) {
      const std::uint8_t* p = pos_;
      pos_ += n;
      return p;
    }
    carry_.clear();
    while (carry_.size() < n) {
      if (pos_ == end_) refill();
      const std::size_t k =
          std::min(n - carry_.size(), static_cast<std::size_t>(end_ - pos_));
      carry_.insert(carry_.end(), pos_, pos_ + k);
      pos_ += k;
    }
    return carry_.data();
  }

  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      const std::uint8_t b = *take(1);
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return v;
    }
    throw DecodeError("snapshot delta: base varint overflow");
  }

  /// The base ends exactly here.
  void expect_end() {
    if (pos_ != end_ || !source_.next().empty()) {
      throw DecodeError("snapshot delta: trailing base bytes");
    }
  }

 private:
  void refill() {
    const BytesView block = source_.next();
    if (block.empty()) throw DecodeError("snapshot delta: base truncated");
    pos_ = block.data();
    end_ = pos_ + block.size();
  }

  MergeSource& source_;
  const std::uint8_t* pos_ = nullptr;
  const std::uint8_t* end_ = nullptr;
  Bytes carry_;
};

void put_count(MergeSink& out, std::uint64_t n) {
  std::uint8_t v[10];
  out.write(BytesView(v, static_cast<std::size_t>(put_varint(v, n) - v)));
}

/// A delta entry as its record (a tombstone writes nothing); whether it
/// wrote one.
template <typename Entry>
bool put_live(MergeSink& out, const Entry& e) {
  if (!is_live(e)) return false;
  std::uint8_t rec[kUtxoBytes];
  out.write(BytesView(rec, static_cast<std::size_t>(put_entry(rec, e) - rec)));
  return true;
}

template <typename Entries>
void check_sorted(const Entries& delta) {
  for (std::size_t i = 1; i < delta.size(); ++i) {
    if (!(key_of(delta[i - 1]) < key_of(delta[i]))) {
      throw std::invalid_argument("snapshot delta: section not sorted");
    }
  }
}

/// One patched section: the base's records with the delta merged in (a
/// same-key entry replaces its record, a tombstone drops it), written
/// under the count the capture recorded, which the merge must meet.
template <typename Entries>
void merge_section(BaseReader& in, MergeSink& out, std::size_t rec,
                   const Entries& delta, std::size_t count) {
  const std::uint64_t base_count = in.varint();
  put_count(out, count);
  std::size_t written = 0;
  std::size_t i = 0;
  for (std::uint64_t j = 0; j < base_count; ++j) {
    const std::uint8_t* r = in.take(rec);
    while (i < delta.size() && compare_record(r, key_of(delta[i])) > 0) {
      written += put_live(out, delta[i++]) ? 1 : 0;
    }
    if (i < delta.size() && compare_record(r, key_of(delta[i])) == 0) {
      written += put_live(out, delta[i++]) ? 1 : 0;
      continue;
    }
    out.write(BytesView(r, rec));
    ++written;
  }
  for (; i < delta.size(); ++i) written += put_live(out, delta[i]) ? 1 : 0;
  if (written != count) {
    throw DecodeError("snapshot delta: merged count differs from capture");
  }
}

/// A small section the delta carries whole: the base's copy is only
/// read past.
void skip_section(BaseReader& in, std::size_t rec) {
  const std::uint64_t n = in.varint();
  for (std::uint64_t j = 0; j < n; ++j) (void)in.take(rec);
}

template <typename Entries>
void put_section(MergeSink& out, const Entries& entries) {
  put_count(out, entries.size());
  for (const auto& e : entries) (void)put_live(out, e);
}

/// A base held in memory: one block.
class ViewSource final : public MergeSource {
 public:
  explicit ViewSource(BytesView bytes) : bytes_(bytes) {}
  BytesView next() override { return std::exchange(bytes_, BytesView()); }

 private:
  BytesView bytes_;
};

class BytesSink final : public MergeSink {
 public:
  explicit BytesSink(std::size_t size) { bytes.reserve(size); }
  void write(BytesView data) override {
    bytes.insert(bytes.end(), data.begin(), data.end());
  }

  Bytes bytes;
};

std::size_t section_bytes(std::size_t count, std::size_t rec) {
  return varint_size(count) + count * rec;
}

std::uint8_t* put_header(std::uint8_t* p, InstanceId upto,
                         std::uint64_t mint_counter, chain::Amount deposit) {
  p = put_u32(p, kSnapshotMagic);
  p = put_u32(p, Snapshot::kVersion);
  p = put_u64(p, upto);
  p = put_u64(p, mint_counter);
  return put_u64(p, static_cast<std::uint64_t>(deposit));
}

/// Fixed-size fields are read in place (Reader::view), not copied out.
template <std::size_t N>
void get_array(Reader& r, std::array<std::uint8_t, N>& out) {
  const BytesView in = r.view(N);
  std::copy(in.begin(), in.end(), out.begin());
}

chain::OutPoint get_outpoint(Reader& r) {
  chain::OutPoint op;
  get_array(r, op.txid);
  op.index = r.u32();
  return op;
}

chain::Address get_address(Reader& r) {
  chain::Address a;
  get_array(r, a.data);
  return a;
}

struct Header {
  InstanceId upto = 0;
  std::uint64_t mint_counter = 0;
  chain::Amount deposit = 0;
};

Header get_header(Reader& r) {
  if (r.u32() != kSnapshotMagic) throw DecodeError("snapshot: bad magic");
  if (r.u32() != Snapshot::kVersion) {
    throw DecodeError("snapshot: bad version");
  }
  Header h;
  h.upto = r.u64();
  h.mint_counter = r.u64();
  h.deposit = r.i64();
  return h;
}

/// The value field of an encoded utxo record.
chain::Amount record_value(const std::uint8_t* rec) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(rec[kOutPointBytes + i]) << (8 * i);
  }
  return static_cast<chain::Amount>(v);
}

/// Section count guarded against length-prefix abuse; each section has
/// far fewer entries than remaining()/min_entry allows, so the entry
/// size is the only binding limit (Reader::length_prefix rejects any
/// count the remaining buffer cannot possibly satisfy).
std::size_t checked_count(Reader& r, std::size_t min_entry_bytes,
                          const char* what) {
  try {
    return static_cast<std::size_t>(
        r.length_prefix(min_entry_bytes, std::uint64_t{1} << 32));
  } catch (const DecodeError&) {
    throw DecodeError(std::string("snapshot: absurd count in ") + what);
  }
}

/// Canonical form: each section's keys ascend strictly (which also
/// bans duplicates).
template <typename Key>
class Ascending {
 public:
  explicit Ascending(const char* what) : what_(what) {}
  void check(const Key& key) {
    if (last_ && !(*last_ < key)) {
      throw DecodeError(std::string("snapshot: unsorted ") + what_);
    }
    last_ = key;
  }

 private:
  const char* what_;
  std::optional<Key> last_;
};

/// Snapshot::decode's sink: the sections as sorted vectors.
class VectorSink final : public SnapshotSink {
 public:
  explicit VectorSink(Snapshot& s) : s_(s) {}

  void header(InstanceId upto, std::uint64_t mint_counter,
              chain::Amount deposit) override {
    s_.upto = upto;
    s_.mint_counter = mint_counter;
    s_.deposit = deposit;
  }
  void section(Section section, std::size_t count) override {
    switch (section) {
      case Section::kUtxos: s_.utxos.reserve(count); break;
      case Section::kArchive: s_.ever_values.reserve(count); break;
      case Section::kKnownTxs: s_.known_txs.reserve(count); break;
      case Section::kInputsDeposit: s_.inputs_deposit.reserve(count); break;
      case Section::kPunished: s_.punished.reserve(count); break;
    }
  }
  void utxo(const chain::OutPoint& op, const chain::TxOut& out) override {
    s_.utxos.emplace_back(op, out);
  }
  void archived(const chain::OutPoint& op, chain::Amount value,
                bool /*live*/) override {
    s_.ever_values.emplace_back(op, value);
  }
  void known_tx(const chain::TxId& id) override {
    s_.known_txs.push_back(id);
  }
  void input_deposit(const chain::OutPoint& op, chain::Amount value) override {
    s_.inputs_deposit.emplace_back(op, value);
  }
  void punished(const chain::Address& account) override {
    s_.punished.push_back(account);
  }

 private:
  Snapshot& s_;
};

}  // namespace

Bytes Snapshot::encode() const {
  Writer w;
  w.u32(kSnapshotMagic);
  w.u32(kVersion);
  w.u64(upto);
  w.u64(mint_counter);
  w.i64(deposit);
  w.varint(utxos.size());
  for (const auto& [op, out] : utxos) {
    put_outpoint(w, op);
    w.i64(out.value);
    w.raw(BytesView(out.to.data.data(), out.to.data.size()));
  }
  w.varint(ever_values.size());
  for (const auto& [op, value] : ever_values) {
    put_outpoint(w, op);
    w.i64(value);
  }
  w.varint(known_txs.size());
  for (const auto& id : known_txs) {
    w.raw(BytesView(id.data(), id.size()));
  }
  w.varint(inputs_deposit.size());
  for (const auto& [op, value] : inputs_deposit) {
    put_outpoint(w, op);
    w.i64(value);
  }
  w.varint(punished.size());
  for (const auto& a : punished) {
    w.raw(BytesView(a.data.data(), a.data.size()));
  }
  return w.take();
}

std::uint64_t SnapshotDelta::image_size() const {
  return kHeaderBytes + section_bytes(counts.utxos, kUtxoBytes) +
         section_bytes(counts.ever_values, kValueBytes) +
         section_bytes(counts.known_txs, kTxIdBytes) +
         section_bytes(inputs_deposit.size(), kValueBytes) +
         section_bytes(punished.size(), kAddressBytes);
}

void SnapshotDelta::merge(MergeSource& base, MergeSink& out) const {
  check_sorted(utxos);
  check_sorted(ever_values);
  check_sorted(known_txs);
  BaseReader in(base);
  {
    Reader r(BytesView(in.take(kHeaderBytes), kHeaderBytes));
    (void)get_header(r);
  }
  std::uint8_t header[kHeaderBytes];
  (void)put_header(header, upto, mint_counter, deposit);
  out.write(BytesView(header, kHeaderBytes));
  merge_section(in, out, kUtxoBytes, utxos, counts.utxos);
  merge_section(in, out, kValueBytes, ever_values, counts.ever_values);
  merge_section(in, out, kTxIdBytes, known_txs, counts.known_txs);
  // The two small sections travel whole.
  skip_section(in, kValueBytes);
  skip_section(in, kAddressBytes);
  in.expect_end();
  put_section(out, inputs_deposit);
  put_section(out, punished);
}

Bytes SnapshotDelta::apply_to(MergeSource& base) const {
  BytesSink sink(static_cast<std::size_t>(image_size()));
  merge(base, sink);
  return std::move(sink.bytes);
}

Bytes SnapshotDelta::apply_to(BytesView base) const {
  ViewSource source(base);
  return apply_to(source);
}

void walk_snapshot(BytesView data, SnapshotSink& sink) {
  using S = SnapshotSink::Section;
  Reader r(data);
  const Header h = get_header(r);
  sink.header(h.upto, h.mint_counter, h.deposit);

  const std::size_t n_utxo = checked_count(r, kUtxoBytes, "utxos");
  // The live records, kept in place to check the archive against.
  const BytesView live =
      data.subspan(data.size() - r.remaining(), n_utxo * kUtxoBytes);
  sink.section(S::kUtxos, n_utxo);
  Ascending<chain::OutPoint> utxo_order("utxos");
  for (std::size_t i = 0; i < n_utxo; ++i) {
    const chain::OutPoint op = get_outpoint(r);
    chain::TxOut out;
    out.value = r.i64();
    out.to = get_address(r);
    utxo_order.check(op);
    sink.utxo(op, out);
  }

  const std::size_t n_ever = checked_count(r, kValueBytes, "ever_values");
  sink.section(S::kArchive, n_ever);
  Ascending<chain::OutPoint> ever_order("ever_values");
  // Both sections ascend, so one merge pass finds each live output's
  // archive entry: `matched` live records have been found so far.
  std::size_t matched = 0;
  for (std::size_t i = 0; i < n_ever; ++i) {
    const chain::OutPoint op = get_outpoint(r);
    const chain::Amount value = r.i64();
    ever_order.check(op);
    bool is_live = false;
    if (matched < n_utxo) {
      const std::uint8_t* rec = live.data() + matched * kUtxoBytes;
      const int c = compare_record(rec, op);
      if (c < 0) throw DecodeError("snapshot: live output not archived");
      if (c == 0) {
        if (record_value(rec) != value) {
          throw DecodeError("snapshot: archived value differs from live");
        }
        is_live = true;
        ++matched;
      }
    }
    sink.archived(op, value, is_live);
  }
  if (matched != n_utxo) {
    throw DecodeError("snapshot: live output not archived");
  }

  const std::size_t n_txs = checked_count(r, kTxIdBytes, "known_txs");
  sink.section(S::kKnownTxs, n_txs);
  Ascending<chain::TxId> tx_order("known_txs");
  for (std::size_t i = 0; i < n_txs; ++i) {
    chain::TxId id;
    get_array(r, id);
    tx_order.check(id);
    sink.known_tx(id);
  }

  const std::size_t n_dep = checked_count(r, kValueBytes, "inputs_deposit");
  sink.section(S::kInputsDeposit, n_dep);
  Ascending<chain::OutPoint> dep_order("inputs_deposit");
  for (std::size_t i = 0; i < n_dep; ++i) {
    const chain::OutPoint op = get_outpoint(r);
    const chain::Amount value = r.i64();
    dep_order.check(op);
    sink.input_deposit(op, value);
  }

  const std::size_t n_pun = checked_count(r, kAddressBytes, "punished");
  sink.section(S::kPunished, n_pun);
  Ascending<chain::Address> pun_order("punished");
  for (std::size_t i = 0; i < n_pun; ++i) {
    const chain::Address a = get_address(r);
    pun_order.check(a);
    sink.punished(a);
  }
  r.expect_done();
}

InstanceId snapshot_watermark(BytesView data) {
  Reader r(data);
  return get_header(r).upto;
}

Snapshot Snapshot::decode(BytesView data) {
  Snapshot s;
  VectorSink sink(s);
  walk_snapshot(data, sink);
  return s;
}

crypto::Hash32 Snapshot::state_digest() const {
  // Hash the canonical bytes with the watermark zeroed: the watermark
  // is positional metadata, not ledger state. The upto field occupies
  // bytes [8, 16) of the encoding (after the u32 magic and u32
  // version), so it is zeroed in place rather than deep-copying the
  // whole snapshot.
  Bytes bytes = encode();
  std::fill(bytes.begin() + 8, bytes.begin() + 16, std::uint8_t{0});
  return crypto::sha256(BytesView(bytes.data(), bytes.size()));
}

std::uint32_t chunk_count(std::size_t total_bytes, std::size_t chunk_size) {
  if (chunk_size == 0) return 0;
  if (total_bytes == 0) return 1;
  return static_cast<std::uint32_t>((total_bytes + chunk_size - 1) /
                                    chunk_size);
}

BytesView chunk_view(BytesView bytes, std::uint32_t index,
                     std::size_t chunk_size) {
  const std::size_t begin = static_cast<std::size_t>(index) * chunk_size;
  if (begin >= bytes.size()) return BytesView();
  const std::size_t len = std::min(chunk_size, bytes.size() - begin);
  return bytes.subspan(begin, len);
}

std::vector<crypto::Hash32> chunk_leaves(BytesView bytes,
                                         std::size_t chunk_size) {
  const std::uint32_t n = chunk_count(bytes.size(), chunk_size);
  std::vector<crypto::Hash32> leaves;
  leaves.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    leaves.push_back(crypto::merkle_leaf(chunk_view(bytes, i, chunk_size)));
  }
  return leaves;
}

}  // namespace zlb::sync
