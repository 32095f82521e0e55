// Live reconfiguration wall-clock: a 10-node loopback TCP cluster with
// a 4-replica equivocating coalition and a 4-replica standby pool.
// Measures the paper's detect -> exclude -> include pipeline over real
// sockets (Fig. 5's membership-change times, live analogue), plus the
// time until the rebuilt committee decides payments again. Plain main()
// driver printing one JSON object per line so CI can archive the
// numbers and future PRs get a perf trajectory.
//
//   ZLB_BENCH_FULL=1  repeat runs for a min/median spread
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "net/live_node.hpp"

namespace {

using BenchClock = std::chrono::steady_clock;

double ms_since(BenchClock::time_point t0) {
  return std::chrono::duration<double, std::milli>(BenchClock::now() - t0)
      .count();
}

struct RunResult {
  bool recovered = false;
  double recover_ms = 0;      ///< run start -> every honest node in epoch 1
  double resume_ms = 0;       ///< run start -> 10 post-switch decisions
  std::int64_t detect_ms = -1;   ///< node-reported (run -> fd culprits)
  std::int64_t exclude_ms = -1;  ///< node-reported (run -> exclusion decided)
  std::int64_t include_ms = -1;  ///< node-reported (run -> epoch bumped)
};

/// Stops every node and joins its thread on scope exit, whatever path
/// leaves run_once() — a throwing poll loop must not let a detached
/// node thread outlive the LiveNode it runs on (or std::terminate in
/// ~thread). While the threads run, the harness only observes the
/// nodes through their thread-safe surface: the atomic epoch()/
/// decided_count() and single metric reads through Registry::find.
class ClusterRun {
 public:
  explicit ClusterRun(std::vector<std::unique_ptr<zlb::net::LiveNode>>& nodes)
      : nodes_(nodes) {
    threads_.reserve(nodes.size());
    for (auto& node : nodes) {
      threads_.emplace_back(
          [n = node.get()] { n->run(std::chrono::seconds(120)); });
    }
  }
  ~ClusterRun() {
    for (auto& node : nodes_) node->stop();
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
  }
  ClusterRun(const ClusterRun&) = delete;
  ClusterRun& operator=(const ClusterRun&) = delete;

 private:
  std::vector<std::unique_ptr<zlb::net::LiveNode>>& nodes_;
  std::vector<std::thread> threads_;
};

RunResult run_once() {
  using namespace std::chrono_literals;
  using namespace zlb;
  using namespace zlb::net;

  constexpr std::size_t kCommittee = 10;
  constexpr std::size_t kPool = 4;
  const auto is_colluder = [](ReplicaId id) { return id >= 6 && id <= 9; };

  LiveNodeConfig base;
  base.instances = 1'000'000;
  base.use_ecdsa = false;  // wall-clock of the protocol, not of secp256k1
  base.real_blocks = false;
  base.resync_interval = 50ms;
  base.linger_after_decided = true;
  for (ReplicaId i = 0; i < kCommittee; ++i) base.committee.push_back(i);
  for (ReplicaId i = 0; i < kPool; ++i) {
    base.pool.push_back(static_cast<ReplicaId>(kCommittee + i));
  }

  std::map<ReplicaId, std::uint16_t> ports;
  std::vector<std::unique_ptr<LiveNode>> nodes;
  for (ReplicaId i = 0; i < kCommittee + kPool; ++i) {
    LiveNodeConfig cfg = base;
    cfg.me = i;
    cfg.standby = i >= kCommittee;
    if (is_colluder(i)) {
      cfg.byzantine_equivocate = true;
      cfg.equivocate_from = 2;
    }
    nodes.push_back(std::make_unique<LiveNode>(cfg));
    ports[i] = nodes.back()->port();
  }
  for (auto& node : nodes) node->set_peer_ports(ports);

  const auto t0 = BenchClock::now();
  const ClusterRun cluster(nodes);

  RunResult res;
  const auto deadline = BenchClock::now() + 90s;
  auto honest_recovered = [&] {
    for (ReplicaId i = 0; i < kCommittee; ++i) {
      if (is_colluder(i)) continue;
      if (nodes[i]->epoch() < 1) return false;
    }
    return true;
  };
  while (BenchClock::now() < deadline && !honest_recovered()) {
    std::this_thread::sleep_for(2ms);
  }
  if (honest_recovered()) {
    res.recovered = true;
    res.recover_ms = ms_since(t0);
    // Resume: the rebuilt committee keeps deciding (10 more decisions
    // on an honest veteran past its count at recovery).
    const std::uint64_t base_count = nodes[0]->decided_count();
    while (BenchClock::now() < deadline &&
           nodes[0]->decided_count() < base_count + 10) {
      std::this_thread::sleep_for(2ms);
    }
    res.resume_ms = ms_since(t0);
    const obs::Registry& m = nodes[0]->metrics();
    const auto phase_ms = [&m](const char* phase) {
      return m.find<obs::Gauge>("zlb_reconfig_phase_ms", {{"phase", phase}})
          .value();
    };
    res.detect_ms = phase_ms("detect");
    res.exclude_ms = phase_ms("exclude");
    res.include_ms = phase_ms("include");
  }
  return res;  // ~ClusterRun stops and joins every node thread
}

}  // namespace

int main() {
  const bool full = []() {
    const char* env = std::getenv("ZLB_BENCH_FULL");
    return env != nullptr && env[0] == '1';
  }();
  const int runs = full ? 5 : 1;

  bool all_ok = true;
  for (int i = 0; i < runs; ++i) {
    const RunResult r = run_once();
    all_ok = all_ok && r.recovered;
    std::printf(
        "{\"bench\":\"live_reconfig\",\"n\":10,\"deceitful\":4,\"pool\":4,"
        "\"recovered\":%s,\"detect_ms\":%lld,\"exclude_ms\":%lld,"
        "\"include_ms\":%lld,\"recover_wall_ms\":%.1f,"
        "\"resume_wall_ms\":%.1f}\n",
        r.recovered ? "true" : "false",
        static_cast<long long>(r.detect_ms),
        static_cast<long long>(r.exclude_ms),
        static_cast<long long>(r.include_ms), r.recover_ms, r.resume_ms);
    std::fflush(stdout);
  }
  // Self-checking: CI fails the step if recovery never happened.
  return all_ok ? 0 : 1;
}
