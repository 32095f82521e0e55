// Tests of the benchmark's harness arithmetic on synthetic timelines.
// Built and run by paybench/run.py before every benchmark run; a
// failure stops the benchmark before it measures anything.
#include <cstdio>
#include <cstdlib>

#include "harness.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "harness_test:%d: FAILED: %s\n", line, what);
    ++failures;
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

using paybench::FloorTimeline;

void test_first_crossing() {
  // Floor 5 from t=100, 7 from t=200, 8 from t=350.
  const FloorTimeline tl = {{100, 5}, {200, 7}, {350, 8}};
  CHECK(paybench::first_crossing(tl, 4) == 100);  // already applied
  CHECK(paybench::first_crossing(tl, 5) == 200);  // floor > 5 at t=200
  CHECK(paybench::first_crossing(tl, 6) == 200);  // jump 5 -> 7 covers 6
  CHECK(paybench::first_crossing(tl, 7) == 350);
  CHECK(!paybench::first_crossing(tl, 8).has_value());  // never applied
  CHECK(!paybench::first_crossing(FloorTimeline{}, 0).has_value());
}

void test_commit_times() {
  const FloorTimeline tl = {{0, 10}, {50, 11}, {90, 14}};
  const std::vector<std::optional<std::uint64_t>> inst = {10, std::nullopt,
                                                          12, 14};
  const auto t = paybench::commit_times(inst, tl);
  CHECK(t.size() == 4);
  CHECK(t[0] == 50);               // instance 10 applied when floor hit 11
  CHECK(!t[1].has_value());        // tx in no block
  CHECK(t[2] == 90);               // 11 -> 14 covers instance 12
  CHECK(!t[3].has_value());        // floor never passed 14
}

void test_failure_ranking() {
  // Two of five txs failed: they rank above every committed latency,
  // so the median is the third-smallest committed value and p90 is a
  // failure (+inf), never a small number.
  const std::vector<std::optional<double>> lat = {30.0, std::nullopt, 10.0,
                                                  std::nullopt, 20.0};
  const auto ranked = paybench::ranked_latencies(lat);
  CHECK(ranked.size() == 5);
  CHECK(ranked[0] == 10.0 && ranked[2] == 30.0);
  CHECK(std::isinf(ranked[3]) && std::isinf(ranked[4]));
  CHECK(paybench::percentile(ranked, 50.0) == 30.0);
  CHECK(std::isinf(paybench::percentile(ranked, 90.0)));
  // Without failures the same committed values give a lower median.
  const auto clean = paybench::ranked_latencies({30.0, 10.0, 20.0});
  CHECK(paybench::percentile(clean, 50.0) == 20.0);
}

void test_tail_percentile() {
  std::vector<double> v;
  for (int i = 1; i <= 2000; ++i) v.push_back(i);
  // n=2000: p99 (rank 1980) has 20 beyond, p99.9 (rank 1998) only 2.
  auto t = paybench::tail_percentile(v);
  CHECK(t.pct == 99.0 && t.value == 1980.0 && t.beyond == 20);
  CHECK(t.count == 2000);
  // n=15000: p99.9 (rank 14985) keeps 15 beyond; p99.99 keeps 1.
  v.clear();
  for (int i = 1; i <= 15000; ++i) v.push_back(i);
  t = paybench::tail_percentile(v);
  CHECK(t.pct == 99.9 && t.value == 14985.0 && t.beyond == 15);
  // Exactly 10 beyond still qualifies: n=1000 -> p99 rank 990.
  v.resize(1000);
  t = paybench::tail_percentile(v);
  CHECK(t.pct == 99.0 && t.beyond == 10);
  // n=15: not even p90 (rank 14, 1 beyond) qualifies; p50 has 7.
  v.resize(15);
  t = paybench::tail_percentile(v);
  CHECK(t.pct == 50.0 && t.value == 8.0 && t.beyond == 7);
}

void test_lateness() {
  // 1 ms interval. Sends 0 and 1 on time; send 2 is 3 ms late with an
  // idle connection (the generator's fault); send 3 is 5 ms late behind
  // a backlog (the cluster's); send 4 is late by less than an interval.
  const std::vector<std::int64_t> due = {0, 1'000'000, 2'000'000, 3'000'000,
                                         4'000'000};
  const std::vector<std::int64_t> sent = {10, 1'000'100, 5'000'000,
                                          8'000'000, 4'900'000};
  const std::vector<bool> backlog = {false, false, false, true, false};
  const auto l = paybench::lateness(due, sent, backlog, 1'000'000);
  CHECK(l.max_ms == 5.0);
  CHECK(l.late_share == 2.0 / 5.0);
  CHECK(l.generator_late_share == 1.0 / 5.0);
  // Own lateness: 10 ns + 100 ns + 3 ms + 0.9 ms over 5 sends; send 3's
  // 5 ms behind a backlog is the cluster's.
  CHECK(std::fabs(l.generator_late_mean_ms - 3.90011 / 5.0) < 1e-9);
  // It adds 0.78 ms to the mean: too much for a 50 ms mean latency
  // (1% = 0.5 ms), negligible for a 100 ms one.
  CHECK(!paybench::generator_kept_schedule(l, 50.0));
  CHECK(paybench::generator_kept_schedule(l, 100.0));
  // Lateness caused only by cluster backpressure keeps the run valid.
  const auto c = paybench::lateness(due, {0, 1'000'000, 5'000'000, 8'000'000,
                                          4'000'000},
                                    {false, false, true, true, false},
                                    1'000'000);
  CHECK(c.generator_late_share == 0.0 && c.generator_late_mean_ms == 0.0);
  CHECK(paybench::generator_kept_schedule(c, 1.0));
}

void test_median_and_mean() {
  CHECK(paybench::median({3.0, 1.0, 2.0}) == 2.0);
  CHECK(paybench::median({4.0, 1.0, 3.0, 2.0}) == 2.5);
  CHECK(paybench::mean({4.0, 1.0, 3.0, 2.0}) == 2.5);
  CHECK(std::isnan(paybench::mean({})));
}

}  // namespace

int main() {
  test_first_crossing();
  test_commit_times();
  test_failure_ranking();
  test_tail_percentile();
  test_lateness();
  test_median_and_mean();
  if (failures != 0) {
    std::fprintf(stderr, "harness_test: %d check(s) failed\n", failures);
    return EXIT_FAILURE;
  }
  std::printf("harness_test: all checks passed\n");
  return EXIT_SUCCESS;
}
