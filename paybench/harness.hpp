// Harness arithmetic of the live payment benchmark, kept free of any
// cluster code so harness_test.cpp can check it on synthetic
// timelines: commit-time lookup on sampled floor timelines, latency
// percentiles with failures ranked last, the tail percentile a sample
// supports, and generator lateness.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

namespace paybench {

/// One node's committed floor over time: (timestamp ns, floor) pairs in
/// sampling order, appended only when the floor changed. Floors never
/// decrease; the first entry is the floor when sampling began.
using FloorTimeline = std::vector<std::pair<std::int64_t, std::uint64_t>>;

/// Time at which the floor first passed `instance` (floor > instance,
/// i.e. the instance was applied), or nullopt if it never did.
inline std::optional<std::int64_t> first_crossing(const FloorTimeline& tl,
                                                  std::uint64_t instance) {
  const auto it = std::upper_bound(
      tl.begin(), tl.end(), instance,
      [](std::uint64_t k, const std::pair<std::int64_t, std::uint64_t>& s) {
        return k < s.second;
      });
  if (it == tl.end()) return std::nullopt;
  return it->first;
}

/// tx -> instance -> first floor crossing, for every tx of one node:
/// nullopt where the tx is in no block of that node or the floor never
/// passed its instance.
inline std::vector<std::optional<std::int64_t>> commit_times(
    const std::vector<std::optional<std::uint64_t>>& instance_of_tx,
    const FloorTimeline& tl) {
  std::vector<std::optional<std::int64_t>> out(instance_of_tx.size());
  for (std::size_t i = 0; i < instance_of_tx.size(); ++i) {
    if (instance_of_tx[i]) out[i] = first_crossing(tl, *instance_of_tx[i]);
  }
  return out;
}

/// Latencies of every attempted tx, ascending, with each failed tx
/// (nullopt) ranked above every committed latency as +infinity: a
/// refused or lost payment misses any latency limit.
inline std::vector<double> ranked_latencies(
    const std::vector<std::optional<double>>& latency) {
  std::vector<double> out;
  out.reserve(latency.size());
  for (const auto& l : latency) {
    out.push_back(l ? *l : std::numeric_limits<double>::infinity());
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Nearest-rank percentile of an ascending sample (p in (0, 100]).
inline double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return std::numeric_limits<double>::quiet_NaN();
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// Median of an unsorted sample (mean of the middle two for even
/// counts).
inline double median(std::vector<double> v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

struct TailPoint {
  double pct = 0;      ///< the percentile reported
  double value = 0;    ///< its value
  std::size_t beyond = 0;  ///< samples ranked above it
  std::size_t count = 0;   ///< sample size
};

/// The highest percentile of the ladder p50, p90, p99, p99.9, ... that
/// has at least `min_beyond` samples ranked above it; p50 when not even
/// the median has (then `beyond` says how thin the tail is).
inline TailPoint tail_percentile(const std::vector<double>& sorted,
                                 std::size_t min_beyond = 10) {
  static constexpr double kLadder[] = {50.0, 90.0, 99.0, 99.9, 99.99, 99.999};
  TailPoint best;
  best.count = sorted.size();
  best.pct = 50.0;
  best.value = percentile(sorted, 50.0);
  for (double p : kLadder) {
    if (sorted.empty()) break;
    const auto n = static_cast<double>(sorted.size());
    const auto rank = std::clamp<std::size_t>(
        static_cast<std::size_t>(std::ceil(p / 100.0 * n - 1e-9)), 1,
        sorted.size());
    const std::size_t beyond = sorted.size() - rank;
    if (p == 50.0) best.beyond = beyond;
    if (beyond < min_beyond) break;
    best = TailPoint{p, sorted[rank - 1], beyond, sorted.size()};
  }
  return best;
}

/// Lateness of an open-loop generator. A send is late when it left more
/// than one inter-send interval after it was due. It is the cluster's
/// doing when the target connection still held unsent bytes at the due
/// time (the gateway was not reading), and the generator's own doing
/// otherwise.
struct Lateness {
  double max_ms = 0;
  double late_share = 0;            ///< sends late by > one interval
  double generator_late_share = 0;  ///< of which the connection was idle
  /// Lateness the generator caused itself (sends on an idle connection),
  /// averaged over all sends: what it added to the mean latency.
  double generator_late_mean_ms = 0;
};

inline Lateness lateness(const std::vector<std::int64_t>& due_ns,
                         const std::vector<std::int64_t>& sent_ns,
                         const std::vector<bool>& backlogged,
                         std::int64_t interval_ns) {
  Lateness out;
  if (due_ns.empty()) return out;
  std::size_t late = 0;
  std::size_t own = 0;
  std::int64_t worst = 0;
  double own_ns = 0;
  for (std::size_t i = 0; i < due_ns.size(); ++i) {
    const std::int64_t d = sent_ns[i] - due_ns[i];
    worst = std::max(worst, d);
    if (!backlogged[i]) {
      own_ns += static_cast<double>(std::max<std::int64_t>(0, d));
    }
    if (d > interval_ns) {
      ++late;
      if (!backlogged[i]) ++own;
    }
  }
  const auto n = static_cast<double>(due_ns.size());
  out.max_ms = static_cast<double>(worst) / 1e6;
  out.late_share = static_cast<double>(late) / n;
  out.generator_late_share = static_cast<double>(own) / n;
  out.generator_late_mean_ms = own_ns / n / 1e6;
  return out;
}

/// A run measures the cluster, not the generator, only if the lateness
/// the generator caused itself added at most `max_share` to the mean
/// latency. Lateness behind a backlogged connection is the cluster's
/// and is measured, not excused: latency counts from the due time.
inline bool generator_kept_schedule(const Lateness& l, double lat_mean_ms,
                                    double max_share = 0.01) {
  return l.generator_late_mean_ms <= max_share * lat_mean_ms;
}

}  // namespace paybench
