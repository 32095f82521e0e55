// The observability layer's contracts: log-linear histogram buckets
// and quantiles against a brute-force reference, exact counts under
// concurrent increments (the TSan suite pins the memory-order claims),
// registry idempotence, golden Prometheus/JSON exposition, and
// bit-deterministic spans under a ManualClock.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/mutex.hpp"
#include "obs/expo.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace zlb::obs {
namespace {

TEST(Histogram, BucketIndexIsMonotoneAndCoversRange) {
  // Buckets must partition the value axis: index is monotone in v and
  // every value lands in the bucket whose (upper(i-1), upper(i)] range
  // contains it.
  // Strictly increasing until the top buckets saturate at int64 max
  // (they sit beyond the clamped observe() range and stay empty).
  std::int64_t prev_upper = -1;
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    const std::int64_t upper = HistogramSnapshot::bucket_upper(i);
    if (upper == std::numeric_limits<std::int64_t>::max()) {
      EXPECT_GE(upper, prev_upper) << "bucket " << i;
    } else {
      EXPECT_GT(upper, prev_upper) << "bucket " << i;
    }
    prev_upper = upper;
  }
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 20000; ++trial) {
    // Exercise every magnitude: uniform in the exponent, then mantissa.
    const int bits = static_cast<int>(rng() % 63) + 1;
    const auto v = static_cast<std::int64_t>(
        rng() & ((std::uint64_t{1} << bits) - 1));
    const std::size_t idx =
        Histogram::bucket_index(static_cast<std::uint64_t>(v));
    ASSERT_LT(idx, Histogram::kBuckets);
    EXPECT_LE(v, HistogramSnapshot::bucket_upper(idx));
    if (idx > 0) {
      EXPECT_GT(v, HistogramSnapshot::bucket_upper(idx - 1));
    }
  }
}

TEST(Histogram, BucketRelativeErrorBounded) {
  // Log-linear with 4 sub-buckets per octave: the bucket upper bound
  // overestimates any member value by at most 1/kSubBuckets = 25%.
  for (std::int64_t v : {5, 17, 100, 999, 12345, 1000000, 123456789}) {
    const std::size_t idx =
        Histogram::bucket_index(static_cast<std::uint64_t>(v));
    const double upper =
        static_cast<double>(HistogramSnapshot::bucket_upper(idx));
    EXPECT_LE((upper - static_cast<double>(v)) / static_cast<double>(v),
              0.25 + 1e-12)
        << "v=" << v;
  }
}

TEST(Histogram, QuantilesTrackSortedReference) {
  Histogram h;
  std::vector<std::int64_t> values;
  std::mt19937_64 rng(42);
  for (int i = 0; i < 5000; ++i) {
    // Log-uniform latencies, the shape the histogram is built for.
    const auto v = static_cast<std::int64_t>(
        std::exp(std::uniform_real_distribution<double>(0.0, 18.0)(rng)));
    values.push_back(v);
    h.observe(v);
  }
  std::sort(values.begin(), values.end());
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, values.size());
  for (const double q : {0.5, 0.9, 0.99}) {
    const auto ref = static_cast<double>(
        values[static_cast<std::size_t>(q * (values.size() - 1))]);
    const double est = snap.quantile(q);
    // Bucket quantization bounds the error at one bucket width (25%).
    EXPECT_NEAR(est, ref, ref * 0.30 + 4.0) << "q=" << q;
  }
  // Well-defined and monotone at the edges.
  EXPECT_GE(snap.quantile(0.5), snap.quantile(0.0));
  EXPECT_GE(snap.quantile(1.0), snap.quantile(0.5));
}

TEST(Histogram, EmptyAndNegativeObservations) {
  Histogram h;
  EXPECT_EQ(h.snapshot().count, 0u);
  EXPECT_EQ(h.snapshot().quantile(0.5), 0.0);
  h.observe(-12345);  // clamped to zero, never a wild bucket
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.sum, 0);
  EXPECT_EQ(snap.buckets[0], 1u);
}

TEST(ObsStress, ConcurrentIncrementsAreExact) {
  // Counters shard across cache lines and histograms use relaxed RMWs;
  // the totals must still be exact. This test runs in the TSan suite,
  // which additionally proves the claims about data-race freedom.
  Registry reg;
  Counter& c = reg.counter("zlb_test_ops_total", "ops");
  Gauge& g = reg.gauge("zlb_test_depth", "depth");
  Histogram& h = reg.histogram("zlb_test_latency", "lat");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c.inc();
        g.add(1);
        h.observe(t * kPerThread + i);
        // Snapshot reads interleave with writes (the scrape path).
        if (i % 4096 == 0) (void)reg.samples();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(g.value(), static_cast<std::int64_t>(kThreads) * kPerThread);
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  std::uint64_t bucket_total = 0;
  for (const auto b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, snap.count);
}

TEST(Registry, RegistrationIsIdempotentPerNameAndLabels) {
  Registry reg;
  Counter& a = reg.counter("zlb_x_total", "x", {{"kind", "a"}});
  Counter& a2 = reg.counter("zlb_x_total", "x", {{"kind", "a"}});
  Counter& b = reg.counter("zlb_x_total", "x", {{"kind", "b"}});
  EXPECT_EQ(&a, &a2);
  EXPECT_NE(&a, &b);
  a.inc(3);
  a2.inc(4);  // same series
  EXPECT_EQ(a.value(), 7u);

  reg.counter_fn("zlb_pull_total", "pulled", [] { return 11u; });
  reg.gauge_fn("zlb_pull_depth", "pulled", [] { return -2; });
  const auto samples = reg.samples();
  // Sorted by name then labels, callbacks evaluated at snapshot time.
  ASSERT_EQ(samples.size(), 4u);
  EXPECT_EQ(samples[0].name, "zlb_pull_depth");
  EXPECT_EQ(samples[0].gauge_value, -2);
  EXPECT_EQ(samples[1].name, "zlb_pull_total");
  EXPECT_EQ(samples[1].counter_value, 11u);
  EXPECT_EQ(samples[2].labels, (LabelSet{{"kind", "a"}}));
  EXPECT_EQ(samples[3].labels, (LabelSet{{"kind", "b"}}));
}

TEST(Registry, FindReturnsTheRegisteredMetricOrThrows) {
  Registry reg;
  Counter& c = reg.counter("zlb_x_total", "x", {{"kind", "a"}});
  Gauge& g = reg.gauge("zlb_depth", "d");
  c.inc(5);
  g.set(-3);
  EXPECT_EQ(&reg.find<Counter>("zlb_x_total", {{"kind", "a"}}), &c);
  EXPECT_EQ(reg.find<Counter>("zlb_x_total", {{"kind", "a"}}).value(), 5u);
  EXPECT_EQ(reg.find<Gauge>("zlb_depth").value(), -3);
  // Absent: an unknown name, other labels, the other kind, or a pull
  // callback (it has no object to return).
  reg.counter_fn("zlb_pull_total", "pulled", [] { return 1u; });
  EXPECT_THROW((void)reg.find<Counter>("zlb_nope_total"), std::out_of_range);
  EXPECT_THROW((void)reg.find<Counter>("zlb_x_total", {{"kind", "b"}}),
               std::out_of_range);
  EXPECT_THROW((void)reg.find<Counter>("zlb_x_total"), std::out_of_range);
  EXPECT_THROW((void)reg.find<Gauge>("zlb_x_total", {{"kind", "a"}}),
               std::out_of_range);
  EXPECT_THROW((void)reg.find<Counter>("zlb_pull_total"), std::out_of_range);
}

TEST(Registry, CallbacksRunOutsideTheRegistryLock) {
  // An owner may register metrics while holding its own lock, and its
  // pull callback may take that lock (a node's mempool gauge takes its
  // decisions lock). Calling back under the registry lock would close
  // a lock-order cycle: TSan reports the inversion, and two threads
  // doing it can deadlock.
  Registry reg;
  common::Mutex owner_mu;
  std::int64_t owned = 7;
  reg.gauge_fn("owned", "help", [&]() -> std::int64_t {
    const common::MutexLock lock(owner_mu);
    return owned;
  });
  // A callback may even register: it runs with the registry unlocked.
  reg.gauge_fn("reentrant", "help", [&reg]() -> std::int64_t {
    return static_cast<std::int64_t>(reg.counter("made", "help").value());
  });
  std::thread registrar([&]() {
    for (int i = 0; i < 200; ++i) {
      const common::MutexLock lock(owner_mu);
      (void)reg.histogram("h" + std::to_string(i % 8), "help");
    }
  });
  for (int i = 0; i < 200; ++i) (void)reg.samples();
  registrar.join();
  std::int64_t seen = -1;
  for (const Sample& s : reg.samples()) {
    if (s.name == "owned") seen = s.gauge_value;
  }
  EXPECT_EQ(seen, 7);
}

TEST(Exposition, PrometheusGolden) {
  // Scale 0.5 keeps every exported double exact in binary floating
  // point, so the golden cannot rot on printf rounding.
  Registry reg;
  reg.counter("zlb_msgs_total", "Messages", {{"dir", "sent"}}).inc(5);
  reg.gauge("zlb_depth", "Queue depth").set(-3);
  Histogram& h = reg.histogram("zlb_lat_seconds", "Latency", 0.5);
  h.observe(1);  // bucket upper 1 -> le 0.5
  h.observe(2);  // bucket upper 2 -> le 1
  h.observe(2);
  const std::string text = render_prometheus(reg);
  const std::string expected =
      "# HELP zlb_depth Queue depth\n"
      "# TYPE zlb_depth gauge\n"
      "zlb_depth -3\n"
      "# HELP zlb_lat_seconds Latency\n"
      "# TYPE zlb_lat_seconds histogram\n"
      "zlb_lat_seconds_bucket{le=\"0.5\"} 1\n"
      "zlb_lat_seconds_bucket{le=\"1\"} 3\n"
      "zlb_lat_seconds_bucket{le=\"+Inf\"} 3\n"
      "zlb_lat_seconds_sum 2.5\n"
      "zlb_lat_seconds_count 3\n"
      "# HELP zlb_msgs_total Messages\n"
      "# TYPE zlb_msgs_total counter\n"
      "zlb_msgs_total{dir=\"sent\"} 5\n";
  EXPECT_EQ(text, expected);
}

TEST(Exposition, JsonGoldenAndRoundTrip) {
  Registry reg;
  reg.counter("zlb_msgs_total", "Messages", {{"dir", "sent"}}).inc(5);
  // One observation of raw 1 in bucket (0, 1]: the interpolated
  // quantiles are exactly q, binary-exact at every printed digit.
  Histogram& h = reg.histogram("zlb_lat_seconds", "Latency", 1.0);
  h.observe(1);
  const std::string json = render_json(reg);
  const std::string expected =
      "{\"metrics\":["
      "{\"name\":\"zlb_lat_seconds\",\"type\":\"histogram\",\"labels\":{}"
      ",\"count\":1,\"sum\":1,\"buckets\":[[1,1]]"
      ",\"p50\":0.5,\"p90\":0.9,\"p99\":0.99},"
      "{\"name\":\"zlb_msgs_total\",\"type\":\"counter\","
      "\"labels\":{\"dir\":\"sent\"},\"value\":5}"
      "]}";
  EXPECT_EQ(json, expected);

  // Round-trip: the rendered doubles must parse back to the exact
  // values (fmt_double promises shortest-round-trip forms).
  double p90 = 0.0;
  ASSERT_EQ(std::sscanf(json.c_str() + json.find("\"p90\":") + 6, "%lf",
                        &p90),
            1);
  EXPECT_EQ(p90, 0.9);

  // Escaping: label values with quotes/newlines stay valid JSON.
  Registry esc;
  esc.counter("zlb_esc_total", "h", {{"k", "a\"b\nc"}}).inc(1);
  const std::string esc_json = render_json(esc);
  EXPECT_NE(esc_json.find("a\\\"b\\nc"), std::string::npos);
}

TEST(Tracer, SpansAreDeterministicUnderManualClock) {
  Registry reg;
  common::ManualClock clock(100);
  InstanceTracer tracer(reg, &clock);
  tracer.mark(0, 7, Phase::kPropose);
  clock.advance(2);  // +2s
  tracer.mark(0, 7, Phase::kDeliver);
  clock.advance(1);
  tracer.mark(0, 7, Phase::kDecide);
  tracer.mark(0, 7, Phase::kDecide);  // first mark wins
  clock.advance(1);
  tracer.mark(0, 7, Phase::kApply);
  tracer.finish(0, 7);
  EXPECT_EQ(tracer.finished(), 1u);

  const auto recent = tracer.recent();
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_EQ(recent[0].instance, 7u);
  const auto at = [&](Phase p) {
    return recent[0].at_ns[static_cast<std::size_t>(p)];
  };
  EXPECT_EQ(at(Phase::kPropose), 100'000'000'000);
  EXPECT_EQ(at(Phase::kDecide), 103'000'000'000);
  EXPECT_EQ(at(Phase::kSubmit), -1);  // never reached

  // decide latency = decide - propose = 3s, fed once.
  bool found = false;
  for (const auto& s : reg.samples()) {
    if (s.name == "zlb_decide_latency_seconds") {
      found = true;
      EXPECT_EQ(s.hist.count, 1u);
      EXPECT_NEAR(s.hist.quantile(0.5) * s.scale, 3.0, 3.0 * 0.26);
    }
  }
  EXPECT_TRUE(found);

  // Abandoned spans record nothing.
  tracer.mark(1, 9, Phase::kPropose);
  tracer.abandon(1, 9);
  tracer.finish(1, 9);  // no-op: already gone
  EXPECT_EQ(tracer.finished(), 1u);
}

}  // namespace
}  // namespace zlb::obs
