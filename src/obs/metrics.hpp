// Lock-cheap metrics registry: monotonic counters, gauges, and
// log-linear-bucket histograms. Hot-path updates are a single relaxed
// atomic RMW (counters additionally shard across cache lines so
// concurrent writers do not bounce one line); reads assemble a
// snapshot on demand. Registration (name -> metric) takes a mutex
// once; callers cache the returned reference, which stays valid for
// the registry's lifetime.
//
// Time never enters this layer directly: callers measure durations
// through the common/clock.hpp seam and hand the resulting integers
// in (the `obs-clock` lint rule enforces it), so traces recorded
// under a ManualClock are bit-deterministic.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.hpp"

namespace zlb::obs {

/// Sorted-by-construction label pairs, e.g. {{"dir", "sent"}}.
using LabelSet = std::vector<std::pair<std::string, std::string>>;

/// Monotonic counter, sharded so concurrent increments from different
/// threads land on different cache lines.
class Counter {
 public:
  static constexpr std::size_t kShards = 8;

  void inc(std::uint64_t n = 1) noexcept {
    shards_[shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const auto& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };

  static std::size_t shard_index() noexcept {
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t slot =
        next.fetch_add(1, std::memory_order_relaxed) % kShards;
    return slot;
  }

  std::array<Shard, kShards> shards_;
};

/// Last-write-wins signed gauge.
class Gauge {
 public:
  void set(std::int64_t v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t n) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Read-side view of a histogram: per-bucket counts (not cumulative),
/// total count, and the raw-value sum. Bucket i covers
/// (bucket_upper(i-1), bucket_upper(i)] in raw (integer) units.
struct HistogramSnapshot {
  std::vector<std::uint64_t> buckets;
  std::uint64_t count = 0;
  std::int64_t sum = 0;

  /// Inclusive upper bound of bucket `idx` in raw units.
  [[nodiscard]] static std::int64_t bucket_upper(std::size_t idx);

  /// Quantile estimate in raw units (linear interpolation inside the
  /// target bucket). q in [0, 1]; returns 0 when the histogram is
  /// empty.
  [[nodiscard]] double quantile(double q) const;
};

/// Log-linear histogram over non-negative integers: each power-of-two
/// major bucket splits into kSubBuckets linear sub-buckets, bounding
/// the relative quantization error at 1/kSubBuckets (25%) while
/// spanning the full int64 range in 256 buckets. Recording is two
/// relaxed fetch-adds plus one on the bucket.
class Histogram {
 public:
  static constexpr std::size_t kSubBits = 2;
  static constexpr std::size_t kSubBuckets = std::size_t{1} << kSubBits;
  static constexpr std::size_t kBuckets = 256;

  void observe(std::int64_t v) noexcept {
    const std::int64_t clamped = v < 0 ? 0 : v;
    buckets_[bucket_index(static_cast<std::uint64_t>(clamped))].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(clamped, std::memory_order_relaxed);
  }

  [[nodiscard]] HistogramSnapshot snapshot() const;

  [[nodiscard]] static std::size_t bucket_index(std::uint64_t v) noexcept {
    if (v < kSubBuckets) return static_cast<std::size_t>(v);
    const auto major = static_cast<std::size_t>(std::bit_width(v)) - 1;
    const std::size_t sub =
        static_cast<std::size_t>(v >> (major - kSubBits)) - kSubBuckets;
    const std::size_t idx = kSubBuckets + (major - kSubBits) * kSubBuckets + sub;
    return idx < kBuckets ? idx : kBuckets - 1;
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
};

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// One metric's state at snapshot time, self-describing for the
/// exposition formats. `scale` converts raw integer units into the
/// exported unit (e.g. 1e-9 for nanosecond histograms exported as
/// seconds); counters and gauges export raw values.
struct Sample {
  MetricKind kind = MetricKind::kCounter;
  std::string name;
  std::string help;
  LabelSet labels;
  double scale = 1.0;
  std::uint64_t counter_value = 0;
  std::int64_t gauge_value = 0;
  HistogramSnapshot hist;
};

/// Name/labels -> metric map. Registration is idempotent: asking for
/// an existing (name, labels) pair returns the same instance, so
/// several subsystems can share one series. Callback variants
/// (counter_fn/gauge_fn) pull their value at snapshot time from
/// state the owner already maintains — the callback must be safe to
/// invoke on whichever thread renders the snapshot.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(const std::string& name, const std::string& help,
                   const LabelSet& labels = {});
  Gauge& gauge(const std::string& name, const std::string& help,
               const LabelSet& labels = {});
  Histogram& histogram(const std::string& name, const std::string& help,
                       double scale = 1.0, const LabelSet& labels = {});

  void counter_fn(const std::string& name, const std::string& help,
                  std::function<std::uint64_t()> fn,
                  const LabelSet& labels = {});
  void gauge_fn(const std::string& name, const std::string& help,
                std::function<std::int64_t()> fn, const LabelSet& labels = {});

  /// The registered Counter or Gauge (M) of series (name, labels), for
  /// readers that need one value: it runs no pull callback, so any
  /// thread may read a running node through it, unlike samples().
  /// Throws std::out_of_range when no such metric was registered
  /// (pull-callback series have no object to return).
  template <class M>
  [[nodiscard]] const M& find(const std::string& name,
                              const LabelSet& labels = {}) const;

  /// Consistent-order snapshot of every registered metric (sorted by
  /// name, then labels — the exposition formats depend on it).
  [[nodiscard]] std::vector<Sample> samples() const;

  /// The process-wide registry (`zlb_node` has one node per process,
  /// so node-local and process-wide coincide there). In-process
  /// multi-node harnesses pass per-node registries instead.
  static Registry& global();

 private:
  struct Entry {
    MetricKind kind = MetricKind::kCounter;
    std::string name;
    std::string help;
    LabelSet labels;
    double scale = 1.0;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::function<std::uint64_t()> counter_cb;
    std::function<std::int64_t()> gauge_cb;
  };

  Entry& entry(MetricKind kind, const std::string& name,
               const std::string& help, const LabelSet& labels, double scale)
      REQUIRES(mu_);

  mutable common::Mutex mu_;
  /// Key = name + 0x1f + k=v joined labels: map order == export order.
  std::map<std::string, Entry> entries_ GUARDED_BY(mu_);
};

}  // namespace zlb::obs
