// End-to-end consensus over real TCP sockets: LiveCluster runs the
// same SbcEngine the simulator uses, but each replica is its own
// thread with its own event loop, loopback listener and ECDSA key.
// These tests check SBC termination / agreement / nontriviality on the
// real wire path (serialization, framing, partial reads, signatures),
// and the payment-mode pacing of instance openings.
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <thread>

#include "chain/wallet.hpp"
#include "common/serde.hpp"
#include "consensus/messages.hpp"
#include "net/client_gateway.hpp"
#include "net/live_node.hpp"

namespace zlb::net {
namespace {

using namespace std::chrono_literals;

LiveNodeConfig fast_config(std::uint64_t instances, bool ecdsa) {
  LiveNodeConfig cfg;
  cfg.instances = instances;
  cfg.use_ecdsa = ecdsa;
  cfg.engine.accountable = true;
  return cfg;
}

void expect_agreement(LiveCluster& cluster, std::uint64_t instances) {
  for (std::uint64_t k = 0; k < instances; ++k) {
    const LiveDecision* ref = nullptr;
    std::vector<LiveDecision> ref_store;
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      const auto decisions = cluster.node(i).decisions();
      const auto it =
          std::find_if(decisions.begin(), decisions.end(),
                       [&](const LiveDecision& d) { return d.index == k; });
      ASSERT_NE(it, decisions.end())
          << "node " << i << " missing instance " << k;
      if (ref == nullptr) {
        ref_store.push_back(*it);
        ref = &ref_store.back();
      } else {
        EXPECT_EQ(it->bitmask, ref->bitmask) << "node " << i;
        EXPECT_EQ(it->digests, ref->digests) << "node " << i;
      }
    }
  }
}

TEST(LiveCluster, FourNodesOneInstanceEcdsa) {
  LiveCluster cluster(4, fast_config(1, /*ecdsa=*/true));
  ASSERT_TRUE(cluster.run(20s));
  expect_agreement(cluster, 1);

  // Nontriviality: everyone proposed, a quorum of slots must carry 1.
  const auto d = cluster.node(0).decisions();
  ASSERT_EQ(d.size(), 1u);
  std::size_t ones = 0;
  for (auto b : d[0].bitmask) ones += b;
  EXPECT_GE(ones, 3u);
}

TEST(LiveCluster, SevenNodesThreeInstances) {
  LiveCluster cluster(7, fast_config(3, /*ecdsa=*/false));
  ASSERT_TRUE(cluster.run(30s));
  expect_agreement(cluster, 3);
}

TEST(LiveCluster, TenNodesSimScheme) {
  LiveCluster cluster(10, fast_config(2, /*ecdsa=*/false));
  ASSERT_TRUE(cluster.run(30s));
  expect_agreement(cluster, 2);
}

TEST(LiveCluster, QueuedPayloadsAreDecided) {
  LiveNodeConfig cfg = fast_config(1, /*ecdsa=*/false);
  LiveCluster cluster(4, cfg);
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    cluster.node(i).queue_payload(to_bytes("payload-of-node-" +
                                           std::to_string(i)));
  }
  ASSERT_TRUE(cluster.run(20s));
  expect_agreement(cluster, 1);
  // Some payload bytes must have been carried through.
  EXPECT_GT(cluster.node(0).decisions()[0].payload_bytes, 0u);
}

TEST(LiveCluster, TransportCarriedRealTraffic) {
  LiveCluster cluster(4, fast_config(1, /*ecdsa=*/false));
  ASSERT_TRUE(cluster.run(20s));
  const auto& stats = cluster.node(0).transport_stats();
  EXPECT_GT(stats.frames_sent, 0u);
  EXPECT_GT(stats.frames_received, 0u);
  EXPECT_GT(stats.bytes_sent, 0u);
}

// --- paced openings (payment mode) ----------------------------------

LiveNodeConfig paced_config(Duration block_interval) {
  LiveNodeConfig cfg;
  cfg.instances = 1'000'000;  // the tests stop the nodes themselves
  cfg.use_ecdsa = false;      // protocol signatures; tx signatures stay ECDSA
  cfg.real_blocks = true;
  cfg.block_interval = block_interval;
  return cfg;
}

/// Runs the cluster on a worker thread; stops and joins on any exit
/// path (early ASSERT returns included).
class ClusterRunner {
 public:
  ClusterRunner(LiveCluster& cluster, Duration deadline)
      : cluster_(cluster),
        thread_([&cluster, deadline] { cluster.run(deadline); }) {}
  ~ClusterRunner() { stop(); }
  void stop() {
    if (!thread_.joinable()) return;
    for (std::size_t i = 0; i < cluster_.size(); ++i) cluster_.node(i).stop();
    thread_.join();
  }

 private:
  LiveCluster& cluster_;
  std::thread thread_;
};

bool wait_for(const std::function<bool()>& done, Duration budget) {
  const auto deadline = Clock::now() + budget;
  while (!done()) {
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(5ms);
  }
  return true;
}

TEST(LivePacing, StartOpensOnlyTheCursorInstance) {
  // One opening per block_interval / pipeline_window = 10 s: long after
  // the first instance decided, nothing else may have opened (a node
  // opening its whole window at start would decide instances 0..3).
  LiveCluster cluster(4, paced_config(40s));
  ClusterRunner runner(cluster, 60s);
  ASSERT_TRUE(wait_for(
      [&] {
        for (std::size_t i = 0; i < cluster.size(); ++i) {
          if (cluster.node(i).decided_count() == 0) return false;
        }
        return true;
      },
      15s));
  std::this_thread::sleep_for(300ms);
  runner.stop();
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    const auto decisions = cluster.node(i).decisions();
    ASSERT_EQ(decisions.size(), 1u) << "node " << i;
    EXPECT_EQ(decisions[0].index, 0u) << "node " << i;
  }
}

TEST(LivePacing, LoadedInstancesCarryTransactions) {
  // One transaction every 25 ms, round-robin over the gateways, against
  // one opening every 200 ms / 4 = 50 ms: staggered openings put
  // transactions in most instances. Lockstep lanes (the whole window
  // opened, decided and reopened together) left 3 of 4 blocks empty.
  constexpr std::size_t kNodes = 4;
  constexpr std::size_t kTxs = 120;
  chain::Wallet payer(to_bytes("pacing-payer"));
  chain::Wallet sink(to_bytes("pacing-sink"));
  LiveCluster cluster(kNodes, paced_config(200ms));
  chain::UtxoSet genesis;
  for (std::size_t c = 0; c < kTxs; ++c) {
    genesis.mint(payer.address(), 10);
    for (std::size_t i = 0; i < kNodes; ++i) {
      cluster.node(i).block_manager().utxos().mint(payer.address(), 10);
    }
  }
  std::vector<chain::Transaction> txs;
  for (const auto& coin : genesis.owned_by(payer.address())) {
    txs.push_back(payer.pay_from({coin}, sink.address(), 10));
  }
  ASSERT_EQ(txs.size(), kTxs);

  ClusterRunner runner(cluster, 120s);
  std::vector<GatewayClient> clients;
  for (std::size_t i = 0; i < kNodes; ++i) {
    std::optional<GatewayClient> c;
    ASSERT_TRUE(wait_for(
        [&] { return (c = GatewayClient::connect(cluster.node(i).client_port()))
                         .has_value(); },
        15s));
    clients.push_back(std::move(*c));
  }
  ASSERT_TRUE(
      wait_for([&] { return cluster.node(0).decided_count() >= 2; }, 15s));

  const std::size_t first = cluster.node(0).decisions().size();
  const auto start = Clock::now();
  for (std::size_t t = 0; t < kTxs; ++t) {
    std::this_thread::sleep_until(start + t * 25ms);
    const auto ack = clients[t % kNodes].submit(txs[t]);
    ASSERT_TRUE(ack.has_value());
    EXPECT_EQ(*ack, SubmitStatus::kAccepted);
  }
  const std::size_t last = cluster.node(0).decisions().size();
  runner.stop();

  // Instances node 0 decided while the load ran, and how many of them
  // committed a block carrying a transaction.
  const auto decisions = cluster.node(0).decisions();
  const chain::BlockStore& store = cluster.node(0).block_manager().store();
  std::size_t carrying = 0;
  for (std::size_t d = first; d < last; ++d) {
    for (const auto& id : store.at_index(decisions[d].index)) {
      const chain::Block* block = store.get(id);
      if (block != nullptr && !block->txs.empty()) {
        ++carrying;
        break;
      }
    }
  }
  const std::size_t decided = last - first;
  ASSERT_GE(decided, 20u);
  EXPECT_GE(carrying * 10, decided * 6)
      << carrying << " of " << decided << " instances carried a transaction";
}

TEST(LivePacing, WindowOfOneDecidesInOrder) {
  // pipeline_window = 1: the next instance opens once the previous one
  // decided and block_interval passed since the last opening.
  LiveNodeConfig cfg = paced_config(30ms);
  cfg.pipeline_window = 1;
  cfg.instances = 8;
  LiveCluster cluster(4, cfg);
  ASSERT_TRUE(cluster.run(60s));
  expect_agreement(cluster, cfg.instances);
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    const auto decisions = cluster.node(i).decisions();
    ASSERT_EQ(decisions.size(), cfg.instances) << "node " << i;
    for (std::size_t k = 0; k < decisions.size(); ++k) {
      EXPECT_EQ(decisions[k].index, k) << "node " << i;
    }
  }
}

// --- anti-entropy resync -------------------------------------------

/// A kResyncStatus frame laid out as LiveNode::resync_tick sends it,
/// signed for `signer` with the SimScheme keys of use_ecdsa = false.
Bytes resync_status(ReplicaId signer, InstanceId floor, std::int64_t ts) {
  Writer sb;
  sb.string("zlb-resync-status");
  sb.u32(signer);
  sb.u32(0);  // epoch
  sb.u64(floor);
  sb.i64(ts);
  const Bytes signing = sb.take();
  crypto::SimScheme scheme;
  const Bytes sig =
      scheme.sign(signer, BytesView(signing.data(), signing.size()));
  Writer w;
  w.u8(static_cast<std::uint8_t>(consensus::MsgTag::kResyncStatus));
  w.u32(0);
  w.u64(floor);
  w.i64(ts);
  w.bytes(BytesView(sig.data(), sig.size()));
  return w.take();
}

TEST(LiveResync, OutOfRangeStatusTimestampIsDropped) {
  // A status timestamp is checked for freshness before its signature,
  // and anyone past the transport's unauthenticated hello can send one:
  // an extreme value must fall out of the freshness window, never into
  // a signed overflow of `now - ts`. The peer here is a pool member
  // whose statuses are validly signed, so only the freshness window can
  // drop them; a fresh status from it gets a checkpoint offer, which
  // shows the stale ones would have got one too.
  constexpr ReplicaId kPeer = 4;
  LiveNodeConfig base = paced_config(20ms);
  base.committee = {0, 1, 2, 3};
  base.pool = {kPeer};
  base.checkpoint.interval = 8;
  std::map<ReplicaId, std::uint16_t> ports;
  std::vector<std::unique_ptr<LiveNode>> nodes;
  for (ReplicaId i = 0; i < 4; ++i) {
    LiveNodeConfig cfg = base;
    cfg.me = i;
    nodes.push_back(std::make_unique<LiveNode>(cfg));
    ports[i] = nodes.back()->port();
  }
  // The fake peer: a bare transport under the pool id, driven by this
  // thread. The committee sends it nothing but answers to its statuses.
  EventLoop peer_loop;
  TransportConfig tc;
  tc.me = kPeer;
  tc.peers = ports;
  TcpTransport peer(peer_loop, tc);
  std::size_t offers = 0;
  peer.set_handler([&offers](ReplicaId, BytesView data) {
    if (!data.empty() &&
        data[0] ==
            static_cast<std::uint8_t>(consensus::MsgTag::kSnapshotManifest)) {
      ++offers;
    }
  });
  ports[kPeer] = peer.local_port();
  for (auto& node : nodes) node->set_peer_ports(ports);

  std::vector<std::thread> threads;
  for (auto& node : nodes) {
    threads.emplace_back([n = node.get()] { n->run(120s); });
  }
  struct Stopper {
    std::vector<std::unique_ptr<LiveNode>>& nodes;
    std::vector<std::thread>& threads;
    ~Stopper() {
      for (auto& n : nodes) n->stop();
      for (auto& t : threads) t.join();
    }
  } stopper{nodes, threads};
  peer.start();
  const auto pump = [&peer_loop](const std::function<bool()>& done,
                                 Duration budget) {
    const auto deadline = Clock::now() + budget;
    while (!done() && Clock::now() < deadline) peer_loop.poll_once(5ms);
    return done();
  };
  ASSERT_TRUE(pump(
      [&] {
        for (ReplicaId i = 0; i < 4; ++i) {
          if (!peer.connected(i)) return false;
        }
        return nodes[0]->checkpoints()->watermark() >= 8;
      },
      30s))
      << "peer links or the first checkpoint never came up";

  for (const std::int64_t ts : {std::numeric_limits<std::int64_t>::min(),
                                std::numeric_limits<std::int64_t>::max()}) {
    const Bytes stale = resync_status(kPeer, 0, ts);
    for (ReplicaId i = 0; i < 4; ++i) peer.send(i, stale);
  }
  (void)pump([] { return false; }, 1s);
  EXPECT_EQ(offers, 0u) << "a status outside the freshness window was used";
  const std::uint64_t decided = nodes[0]->decided_count();
  EXPECT_TRUE(pump([&] { return nodes[0]->decided_count() > decided; }, 20s))
      << "the cluster stopped deciding";

  const Bytes fresh =
      resync_status(kPeer, 0, common::Clock::system().unix_seconds());
  peer.send(0, fresh);
  EXPECT_TRUE(pump([&] { return offers > 0; }, 20s))
      << "a fresh status from the peer got no checkpoint offer";
}

}  // namespace
}  // namespace zlb::net
