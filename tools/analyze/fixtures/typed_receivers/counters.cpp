// zlb_analyze fixture: MUST stay clean. A model class has a `load`
// that reaches fopen, and lock-held code calls std::atomic::load on
// receivers the analyzer can only type through a range-for variable
// (`for (const auto& s : shards_) s.v.load()`, over a std::array or a
// plain member array) or a subscript (`slots_[i].load()`). Typed, no
// receiver resolves to the file reader, so nothing blocks under the
// lock.
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>

#include "common/mutex.hpp"

namespace fx {

class ImageFile {
 public:
  bool load();
};

bool ImageFile::load() {
  std::FILE* f = std::fopen("/tmp/fx-image", "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

class Stats {
 public:
  std::uint64_t total();

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };

  zlb::common::Mutex mu_;
  std::array<Shard, 4> shards_;
  Shard spare_[2];
  std::array<std::atomic<std::uint64_t>, 4> slots_{};
};

std::uint64_t Stats::total() {
  const zlb::common::MutexLock lock(mu_);
  std::uint64_t sum = 0;
  for (const auto& s : shards_) sum += s.v.load(std::memory_order_relaxed);
  for (const auto& s : spare_) sum += s.v.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    sum += slots_[i].load(std::memory_order_relaxed);
  }
  return sum;
}

}  // namespace fx
