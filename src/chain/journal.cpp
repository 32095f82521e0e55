#include "chain/journal.hpp"

#include <array>
#include <cstring>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace zlb::chain {

namespace {

constexpr std::uint32_t kRecordMagic = 0x5a4c424a;  // "ZLBJ" — block
constexpr std::uint32_t kEpochMagic = 0x5a4c4245;   // "ZLBE" — epoch boundary
constexpr std::size_t kHeaderBytes = 12;
constexpr std::size_t kMaxRecordBytes = 256u << 20;

bool known_magic(std::uint32_t magic) {
  return magic == kRecordMagic || magic == kEpochMagic;
}

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

void put_u32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v & 0xff);
  p[1] = static_cast<std::uint8_t>((v >> 8) & 0xff);
  p[2] = static_cast<std::uint8_t>((v >> 16) & 0xff);
  p[3] = static_cast<std::uint8_t>((v >> 24) & 0xff);
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

Bytes EpochRecord::serialize() const {
  Writer w;
  w.u32(epoch);
  w.u64(start_index);
  w.varint(members.size());
  for (ReplicaId id : members) w.u32(id);
  w.varint(excluded.size());
  for (ReplicaId id : excluded) w.u32(id);
  return w.take();
}

EpochRecord EpochRecord::deserialize(Reader& r) {
  EpochRecord rec;
  rec.epoch = r.u32();
  rec.start_index = r.u64();
  const std::uint64_t n = r.length_prefix(sizeof(std::uint32_t), 65536);
  rec.members.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) rec.members.push_back(r.u32());
  const std::uint64_t ne = r.length_prefix(sizeof(std::uint32_t), 65536);
  rec.excluded.reserve(ne);
  for (std::uint64_t i = 0; i < ne; ++i) rec.excluded.push_back(r.u32());
  return rec;
}

std::uint32_t crc32(BytesView data) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = 0xffffffffu;
  for (const std::uint8_t byte : data) {
    c = table[(c ^ byte) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

// The write-ahead contract covers file CREATION and RENAME too: data
// fdatasync'd into a file whose directory entry was never flushed is
// gone with the file after power loss. Called after creating the
// journal, after publishing a compaction, and after a checkpoint
// image's rename.
void sync_parent_dir(const std::string& path) {
#if defined(__unix__) || defined(__APPLE__)
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash + 1);
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    (void)::fsync(fd);
    ::close(fd);
  }
#else
  (void)path;
#endif
}

bool sync_data(std::FILE* file) {
  if (std::fflush(file) != 0) return false;
#if defined(__unix__) || defined(__APPLE__)
  return sync_fd(::fileno(file));
#else
  return true;
#endif
}

bool sync_fd(int fd) {
#if defined(__unix__) || defined(__APPLE__)
  // A power-loss-grade guarantee needs the kernel to push the pages to
  // the device, not just our stdio buffer to the kernel. fdatasync
  // skips the inode-metadata flush fsync would add — payloads and
  // lengths are all a reader needs back.
#if defined(__APPLE__)
  return ::fsync(fd) == 0;
#else
  return ::fdatasync(fd) == 0;
#endif
#else
  (void)fd;
  return true;
#endif
}

Journal::Journal(Journal&& o) noexcept
    : file_(std::exchange(o.file_, nullptr)),
      path_(std::move(o.path_)),
      appended_(o.appended_) {}

Journal& Journal::operator=(Journal&& o) noexcept {
  if (this != &o) {
    close();
    file_ = std::exchange(o.file_, nullptr);
    path_ = std::move(o.path_);
    appended_ = o.appended_;
  }
  return *this;
}

std::optional<Journal> Journal::open(
    const std::string& path, const std::function<void(const Block&)>& sink,
    ReplayStats* stats,
    const std::function<void(const EpochRecord&)>& epoch_sink) {
  // "a+b" creates if missing; we reopen in r+b afterwards to control
  // the write position explicitly.
  std::FILE* touch = std::fopen(path.c_str(), "ab");
  if (touch == nullptr) return std::nullopt;
  std::fclose(touch);
  sync_parent_dir(path);

  std::FILE* f = std::fopen(path.c_str(), "r+b");
  if (f == nullptr) return std::nullopt;

  // Replay: read records until EOF or damage.
  std::size_t good_end = 0;
  std::size_t blocks = 0;
  std::size_t epochs = 0;
  for (;;) {
    std::uint8_t header[kHeaderBytes];
    const std::size_t got = std::fread(header, 1, kHeaderBytes, f);
    if (got < kHeaderBytes) break;  // clean EOF or torn header
    const std::uint32_t magic = get_u32(header);
    const std::uint32_t len = get_u32(header + 4);
    const std::uint32_t crc = get_u32(header + 8);
    if (!known_magic(magic) || len > kMaxRecordBytes) break;

    Bytes payload(len);
    if (std::fread(payload.data(), 1, len, f) < len) break;  // torn body
    if (crc32(BytesView(payload.data(), payload.size())) != crc) break;
    try {
      Reader r(BytesView(payload.data(), payload.size()));
      if (magic == kRecordMagic) {
        const Block block = Block::deserialize(r);
        sink(block);
        blocks += 1;
      } else {
        const EpochRecord rec = EpochRecord::deserialize(r);
        if (epoch_sink) epoch_sink(rec);
        epochs += 1;
      }
    } catch (const DecodeError&) {
      break;  // structurally corrupt: treat like a torn record
    }
    good_end += kHeaderBytes + len;
  }

  // Truncate any damaged tail and position for appending.
  std::fseek(f, 0, SEEK_END);
  const auto file_size = static_cast<std::size_t>(std::ftell(f));
  if (stats != nullptr) {
    stats->blocks = blocks;
    stats->epochs = epochs;
    stats->truncated_bytes = file_size - good_end;
  }
  if (file_size > good_end) {
#if defined(__unix__) || defined(__APPLE__)
    if (::ftruncate(::fileno(f), static_cast<off_t>(good_end)) != 0) {
      std::fclose(f);
      return std::nullopt;
    }
#endif
  }
  std::fseek(f, static_cast<long>(good_end), SEEK_SET);

  Journal j;
  j.file_ = f;
  j.path_ = path;
  return j;
}

namespace {
bool append_record(std::FILE* file, std::uint32_t magic,
                   const Bytes& payload) {
  std::uint8_t header[kHeaderBytes];
  put_u32(header, magic);
  put_u32(header + 4, static_cast<std::uint32_t>(payload.size()));
  put_u32(header + 8, crc32(BytesView(payload.data(), payload.size())));
  if (std::fwrite(header, 1, kHeaderBytes, file) < kHeaderBytes) return false;
  return std::fwrite(payload.data(), 1, payload.size(), file) ==
         payload.size();
}
}  // namespace

bool Journal::append(const Block& block, bool sync_now) {
  if (file_ == nullptr) return false;
  if (!append_record(file_, kRecordMagic, block.serialize())) return false;
  appended_ += 1;
  return sync_now ? sync() : true;
}

bool Journal::append_epoch(const EpochRecord& record) {
  if (file_ == nullptr) return false;
  if (!append_record(file_, kEpochMagic, record.serialize())) return false;
  appended_ += 1;
  return sync();
}

std::optional<std::size_t> Journal::compact(InstanceId keep_from) {
  if (file_ == nullptr) return std::nullopt;
  if (std::fflush(file_) != 0) return std::nullopt;

  // Pass 1: read every intact record, keep the ones at or above the
  // watermark. Same tolerant scan as open() — a torn tail is dropped.
  std::size_t kept = 0;
  std::size_t dropped = 0;
  const std::string tmp_path = path_ + ".compact";
  {
    std::FILE* in = std::fopen(path_.c_str(), "rb");
    if (in == nullptr) return std::nullopt;
    std::FILE* out = std::fopen(tmp_path.c_str(), "wb");
    if (out == nullptr) {
      std::fclose(in);
      return std::nullopt;
    }
    bool io_ok = true;
    for (;;) {
      std::uint8_t header[kHeaderBytes];
      if (std::fread(header, 1, kHeaderBytes, in) < kHeaderBytes) break;
      const std::uint32_t magic = get_u32(header);
      const std::uint32_t len = get_u32(header + 4);
      const std::uint32_t crc = get_u32(header + 8);
      if (!known_magic(magic) || len > kMaxRecordBytes) break;
      Bytes payload(len);
      if (std::fread(payload.data(), 1, len, in) < len) break;
      if (crc32(BytesView(payload.data(), payload.size())) != crc) break;
      // Epoch-boundary records always survive compaction: the restart
      // path needs the whole boundary history to key instances to the
      // right committee, and they cost a handful of bytes each.
      InstanceId index = 0;
      try {
        Reader r(BytesView(payload.data(), payload.size()));
        if (magic == kRecordMagic) {
          index = Block::deserialize(r).index;
        } else {
          (void)EpochRecord::deserialize(r);
          index = keep_from;  // never dropped
        }
      } catch (const DecodeError&) {
        break;
      }
      if (index < keep_from) {
        ++dropped;
        continue;
      }
      if (std::fwrite(header, 1, kHeaderBytes, out) < kHeaderBytes ||
          std::fwrite(payload.data(), 1, len, out) < len) {
        io_ok = false;
        break;
      }
      ++kept;
    }
    std::fclose(in);
    bool flushed = std::fflush(out) == 0;
#if defined(__unix__) || defined(__APPLE__)
    // The rename below publishes the compacted file; its contents must
    // be durable first or a crash could leave a shorter-than-promised
    // journal behind the new name.
    if (flushed && ::fsync(::fileno(out)) != 0) flushed = false;
#endif
    std::fclose(out);
    if (!io_ok || !flushed) {
      std::remove(tmp_path.c_str());
      return std::nullopt;
    }
  }
  (void)kept;

  // Swap in the compacted file and reopen positioned for appending.
  std::fclose(file_);
  file_ = nullptr;
  if (std::rename(tmp_path.c_str(), path_.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    // Fall back to the (still intact) old file.
    file_ = std::fopen(path_.c_str(), "r+b");
    if (file_ != nullptr) std::fseek(file_, 0, SEEK_END);
    return std::nullopt;
  }
  sync_parent_dir(path_);
  file_ = std::fopen(path_.c_str(), "r+b");
  if (file_ == nullptr) return std::nullopt;
  std::fseek(file_, 0, SEEK_END);
  return dropped;
}

bool Journal::sync() { return file_ != nullptr && sync_data(file_); }

void Journal::close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

}  // namespace zlb::chain
