#include "obs/metrics.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <type_traits>

namespace zlb::obs {

namespace {

std::string entry_key(const std::string& name, const LabelSet& labels) {
  std::string key = name;
  for (const auto& [k, v] : labels) {
    key.push_back('\x1f');
    key += k;
    key.push_back('=');
    key += v;
  }
  return key;
}

}  // namespace

std::int64_t HistogramSnapshot::bucket_upper(std::size_t idx) {
  constexpr std::size_t kSub = Histogram::kSubBuckets;
  constexpr std::size_t kSubBits = Histogram::kSubBits;
  if (idx < kSub) return static_cast<std::int64_t>(idx);
  const std::size_t major = kSubBits + (idx - kSub) / kSub;
  const std::size_t sub = (idx - kSub) % kSub;
  const std::uint64_t base = kSub + sub + 1;
  const std::size_t shift = major - kSubBits;
  // The top few of the 256 buckets lie beyond the int64 value range
  // (observe() clamps its input, so they stay empty): saturate instead
  // of shifting into the sign bit.
  if (shift + static_cast<std::size_t>(std::bit_width(base)) > 63) {
    return std::numeric_limits<std::int64_t>::max();
  }
  return static_cast<std::int64_t>((base << shift) - 1);
}

double HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target observation, 1-based; q=1 -> the last one.
  const double rank = q * static_cast<double>(count);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    const std::uint64_t before = seen;
    seen += buckets[i];
    if (static_cast<double>(seen) >= rank) {
      const double lower =
          i == 0 ? 0.0 : static_cast<double>(bucket_upper(i - 1));
      const double upper = static_cast<double>(bucket_upper(i));
      const double within =
          (rank - static_cast<double>(before)) / static_cast<double>(buckets[i]);
      return lower + (upper - lower) * (within < 0.0 ? 0.0 : within);
    }
  }
  return static_cast<double>(bucket_upper(buckets.empty() ? 0
                                                          : buckets.size() - 1));
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.buckets.resize(kBuckets);
  for (std::size_t i = 0; i < kBuckets; ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  // Concurrent observers can land between the bucket loads and the
  // count load; clamp so count always covers the buckets we saw.
  std::uint64_t bucket_total = 0;
  for (const auto b : snap.buckets) bucket_total += b;
  if (snap.count < bucket_total) snap.count = bucket_total;
  return snap;
}

Registry::Entry& Registry::entry(MetricKind kind, const std::string& name,
                                 const std::string& help,
                                 const LabelSet& labels, double scale) {
  auto [it, inserted] = entries_.try_emplace(entry_key(name, labels));
  Entry& e = it->second;
  if (inserted) {
    e.kind = kind;
    e.name = name;
    e.help = help;
    e.labels = labels;
    e.scale = scale;
  }
  return e;
}

Counter& Registry::counter(const std::string& name, const std::string& help,
                           const LabelSet& labels) {
  MutexLock lock(mu_);
  Entry& e = entry(MetricKind::kCounter, name, help, labels, 1.0);
  if (!e.counter) e.counter = std::make_unique<Counter>();
  return *e.counter;
}

Gauge& Registry::gauge(const std::string& name, const std::string& help,
                       const LabelSet& labels) {
  MutexLock lock(mu_);
  Entry& e = entry(MetricKind::kGauge, name, help, labels, 1.0);
  if (!e.gauge) e.gauge = std::make_unique<Gauge>();
  return *e.gauge;
}

Histogram& Registry::histogram(const std::string& name, const std::string& help,
                               double scale, const LabelSet& labels) {
  MutexLock lock(mu_);
  Entry& e = entry(MetricKind::kHistogram, name, help, labels, scale);
  if (!e.histogram) e.histogram = std::make_unique<Histogram>();
  return *e.histogram;
}

void Registry::counter_fn(const std::string& name, const std::string& help,
                          std::function<std::uint64_t()> fn,
                          const LabelSet& labels) {
  MutexLock lock(mu_);
  Entry& e = entry(MetricKind::kCounter, name, help, labels, 1.0);
  e.counter_cb = std::move(fn);
}

void Registry::gauge_fn(const std::string& name, const std::string& help,
                        std::function<std::int64_t()> fn,
                        const LabelSet& labels) {
  MutexLock lock(mu_);
  Entry& e = entry(MetricKind::kGauge, name, help, labels, 1.0);
  e.gauge_cb = std::move(fn);
}

template <class M>
const M& Registry::find(const std::string& name, const LabelSet& labels) const {
  std::string key = entry_key(name, labels);
  const M* metric = nullptr;
  {
    MutexLock lock(mu_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      if constexpr (std::is_same_v<M, Counter>) {
        metric = it->second.counter.get();
      } else {
        metric = it->second.gauge.get();
      }
    }
  }
  if (metric == nullptr) {
    std::replace(key.begin(), key.end(), '\x1f', ' ');
    throw std::out_of_range("obs::Registry: no registered metric " + key);
  }
  return *metric;
}

template const Counter& Registry::find<Counter>(const std::string&,
                                                const LabelSet&) const;
template const Gauge& Registry::find<Gauge>(const std::string&,
                                            const LabelSet&) const;

std::vector<Sample> Registry::samples() const {
  // Pull callbacks run AFTER the registry lock is released: they take
  // their owners' locks (a node's mempool count takes its decisions
  // lock), and owners register metrics while holding those same locks
  // — calling back under mu_ would close a lock-order cycle.
  std::vector<Sample> out;
  std::vector<std::function<std::uint64_t()>> counter_cbs;
  std::vector<std::function<std::int64_t()>> gauge_cbs;
  {
    MutexLock lock(mu_);
    out.reserve(entries_.size());
    counter_cbs.resize(entries_.size());
    gauge_cbs.resize(entries_.size());
    for (const auto& [key, e] : entries_) {
      Sample s;
      s.kind = e.kind;
      s.name = e.name;
      s.help = e.help;
      s.labels = e.labels;
      s.scale = e.scale;
      switch (e.kind) {
        case MetricKind::kCounter:
          s.counter_value = e.counter ? e.counter->value() : 0;
          counter_cbs[out.size()] = e.counter_cb;
          break;
        case MetricKind::kGauge:
          if (e.gauge_cb) {
            gauge_cbs[out.size()] = e.gauge_cb;
          } else {
            s.gauge_value = e.gauge ? e.gauge->value() : 0;
          }
          break;
        case MetricKind::kHistogram:
          if (e.histogram) s.hist = e.histogram->snapshot();
          break;
      }
      out.push_back(std::move(s));
    }
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (counter_cbs[i]) out[i].counter_value += counter_cbs[i]();
    if (gauge_cbs[i]) out[i].gauge_value = gauge_cbs[i]();
  }
  return out;
}

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

}  // namespace zlb::obs
