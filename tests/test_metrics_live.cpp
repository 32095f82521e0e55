// The metrics exposition path end to end: a real HTTP GET against the
// MetricsServer riding a node's event loop, then the CI smoke — a
// 4-node live cluster settles a payment and its scrape must contain
// the core series catalogue with a non-empty decide-latency histogram.
#include <gtest/gtest.h>
#include <poll.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "chain/wallet.hpp"
#include "net/client_gateway.hpp"
#include "net/live_node.hpp"
#include "net/metrics_server.hpp"

namespace zlb::net {
namespace {

using namespace std::chrono_literals;

/// Blocking one-shot HTTP GET over loopback (the scraper's view).
std::optional<std::string> http_get(std::uint16_t port,
                                    const std::string& path) {
  auto fd = connect_loopback(port);
  if (!fd) return std::nullopt;
  pollfd p{fd->get(), POLLOUT, 0};
  if (::poll(&p, 1, 5000) <= 0 || !connect_finished(*fd)) return std::nullopt;
  const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  const Bytes out(req.begin(), req.end());
  std::size_t offset = 0;
  const auto deadline = Clock::now() + 5s;
  while (offset < out.size() && Clock::now() < deadline) {
    if (write_some(*fd, out, offset) == IoStatus::kError) return std::nullopt;
    if (offset < out.size()) std::this_thread::sleep_for(2ms);
  }
  Bytes in;
  while (Clock::now() < deadline) {
    const IoStatus status = read_available(*fd, in);
    if (status == IoStatus::kClosed) break;  // Connection: close
    if (status == IoStatus::kError) return std::nullopt;
    if (status == IoStatus::kWouldBlock) std::this_thread::sleep_for(2ms);
  }
  return std::string(in.begin(), in.end());
}

/// Body after the blank line (empty if the response is malformed).
std::string body_of(const std::string& response) {
  const auto pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? std::string{} : response.substr(pos + 4);
}

TEST(MetricsServer, ServesPrometheusAndJsonOverHttp) {
  EventLoop loop;
  obs::Registry reg;
  reg.counter("zlb_test_requests_total", "Requests").inc(7);
  MetricsServer server(loop, reg, 0);
  ASSERT_TRUE(server.listening());

  std::atomic<bool> stop{false};
  std::thread loop_thread([&] {
    while (!stop.load()) loop.poll_once(std::chrono::milliseconds(5));
  });

  const auto prom = http_get(server.local_port(), "/metrics");
  ASSERT_TRUE(prom.has_value());
  EXPECT_NE(prom->find("200 OK"), std::string::npos);
  EXPECT_NE(prom->find("text/plain"), std::string::npos);
  EXPECT_NE(body_of(*prom).find("zlb_test_requests_total 7"),
            std::string::npos);

  const auto json = http_get(server.local_port(), "/metrics.json");
  ASSERT_TRUE(json.has_value());
  EXPECT_NE(json->find("application/json"), std::string::npos);
  EXPECT_NE(body_of(*json).find("\"value\":7"), std::string::npos);

  const auto missing = http_get(server.local_port(), "/nope");
  ASSERT_TRUE(missing.has_value());
  EXPECT_NE(missing->find("404"), std::string::npos);

  EXPECT_GE(server.requests_served(), 3u);
  stop.store(true);
  loop_thread.join();
}

TEST(MetricsSmoke, LiveClusterScrapeHasCoreSeries) {
  const std::size_t n = 4;
  chain::Wallet alice(to_bytes("alice"));
  chain::Wallet bob(to_bytes("bob"));

  LiveNodeConfig cfg;
  cfg.instances = 1'000'000;
  cfg.use_ecdsa = false;
  cfg.real_blocks = true;
  cfg.block_interval = std::chrono::milliseconds(60);
  cfg.metrics_port = 0;  // ephemeral, one responder per node
  LiveCluster cluster(n, cfg);
  chain::UtxoSet genesis_view;
  genesis_view.mint(alice.address(), 10'000);
  for (std::size_t i = 0; i < n; ++i) {
    cluster.node(i).block_manager().utxos().mint(alice.address(), 10'000);
    EXPECT_NE(cluster.node(i).metrics_port(), 0) << "node " << i;
  }

  std::thread runner([&cluster] { cluster.run(120s); });

  // Settle one payment so consensus, commit and apply all have data.
  const auto tx = alice.pay(genesis_view, bob.address(), 2'500);
  ASSERT_TRUE(tx.has_value());
  std::optional<GatewayClient> client;
  const auto connect_deadline = Clock::now() + 15s;
  while (!client && Clock::now() < connect_deadline) {
    client = GatewayClient::connect(cluster.node(0).client_port());
    if (!client) std::this_thread::sleep_for(20ms);
  }
  ASSERT_TRUE(client.has_value());
  ASSERT_TRUE(client->submit(*tx).has_value());

  const auto deadline = Clock::now() + 90s;
  auto settled = [&] {
    for (std::size_t i = 0; i < n; ++i) {
      if (cluster.node(i).balance(bob.address()) != 2'500) return false;
    }
    return true;
  };
  while (Clock::now() < deadline && !settled()) {
    std::this_thread::sleep_for(25ms);
  }
  ASSERT_TRUE(settled()) << "payment did not commit";

  // Scrape node 0 while the cluster is still running — the mid-run
  // path the atomic TransportStats snapshot exists for.
  const auto prom = http_get(cluster.node(0).metrics_port(), "/metrics");
  ASSERT_TRUE(prom.has_value());
  const std::string text = body_of(*prom);
  for (const char* series :
       {"zlb_transport_bytes_total", "zlb_transport_frames_total",
        "zlb_msgs_total", "zlb_msg_bytes_total", "zlb_mempool_size",
        "zlb_mempool_rejected_total", "zlb_instances_decided_total",
        "zlb_consensus_rounds_total", "zlb_epoch",
        "zlb_pipeline_verify_seconds", "zlb_pipeline_apply_seconds",
        "zlb_decide_latency_seconds", "zlb_e2e_latency_seconds",
        "zlb_decide_phase_latency_seconds", "zlb_event_loop_watches",
        "zlb_event_loop_lag_seconds"}) {
    EXPECT_NE(text.find(series), std::string::npos) << series;
  }
  // The decide-latency, loop-lag and commit-pipeline histograms must
  // have real observations (every fired timer records its lateness, and
  // the settled payment went through verify and apply).
  for (const std::string hist :
       {"zlb_decide_latency_seconds", "zlb_event_loop_lag_seconds",
        "zlb_pipeline_verify_seconds", "zlb_pipeline_apply_seconds"}) {
    const std::string key = hist + "_count ";
    const auto count_pos = text.find(key);
    ASSERT_NE(count_pos, std::string::npos) << hist;
    std::uint64_t count = 0;
    ASSERT_EQ(std::sscanf(text.c_str() + count_pos + key.size(),
                          "%" SCNu64, &count),
              1)
        << hist;
    EXPECT_GT(count, 0u) << hist << " histogram is empty";
  }
  // The gateway counted the payment it admitted.
  EXPECT_GE(cluster.node(0)
                .metrics()
                .find<obs::Counter>("zlb_gateway_submissions_total",
                                    {{"status", "accepted"}})
                .value(),
            1u);

  // JSON snapshot; optionally archived as a CI artifact.
  const auto json = http_get(cluster.node(0).metrics_port(), "/metrics.json");
  ASSERT_TRUE(json.has_value());
  const std::string snapshot = body_of(*json);
  EXPECT_NE(snapshot.find("\"zlb_decide_latency_seconds\""),
            std::string::npos);
  if (const char* out = std::getenv("ZLB_METRICS_JSON_OUT")) {
    std::ofstream f(out, std::ios::trunc);
    f << snapshot << "\n";
    EXPECT_TRUE(f.good()) << "failed to write artifact to " << out;
  }

  // Mid-run TransportStats snapshot (satellite of the same contract).
  const TransportStats stats = cluster.node(0).transport_stats();
  EXPECT_GT(stats.bytes_sent, 0u);
  EXPECT_GT(stats.frames_received, 0u);

  for (std::size_t i = 0; i < n; ++i) cluster.node(i).stop();
  runner.join();
}

}  // namespace
}  // namespace zlb::net
