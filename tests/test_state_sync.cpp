// The chunked state-transfer path, bottom to top: the SnapshotFetcher
// state machine (windowed pulls, churn resume, adversarial chunks,
// source switching), the live-TCP acceptance scenario — a fresh node
// joining a loopback cluster with hundreds of decided instances catches
// up via checkpoint transfer instead of replaying from genesis — and
// the simulator's functional membership change, where included pool
// replicas install a real snapshot during catch-up.
#include <gtest/gtest.h>

#include <filesystem>
#include <thread>

#include "asmr/payload.hpp"
#include "chain/wallet.hpp"
#include "net/client_gateway.hpp"
#include "net/live_node.hpp"
#include "sync/fetcher.hpp"
#include "zlb/cluster.hpp"

namespace zlb::sync {
namespace {

using namespace std::chrono_literals;

struct FetchHarness {
  explicit FetchHarness(std::size_t state_bytes, std::size_t chunk_size,
                        InstanceId upto = 50) {
    Bytes bytes(state_bytes);
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      bytes[i] = static_cast<std::uint8_t>(i * 31 + 7);
    }
    image = CheckpointImage::from_bytes(upto, std::move(bytes), chunk_size);
    manifest.server = 1;
    manifest.upto = upto;
    manifest.chunk_size = static_cast<std::uint32_t>(chunk_size);
    manifest.chunk_count = image.chunks();
    manifest.total_bytes = image.bytes.size();
    manifest.root = image.root();
  }

  SnapshotChunk chunk(std::uint32_t i) const {
    SnapshotChunk c;
    c.upto = image.upto;
    c.index = i;
    c.data = image.chunk(i).value();
    c.proof = image.tree.proof(i);
    return c;
  }

  CheckpointImage image;
  SnapshotManifest manifest;
};

TEST(SnapshotFetcher, AssemblesImageFromChunks) {
  FetchHarness h(1000, 64);
  std::vector<ChunkRequest> requests;
  obs::Registry metrics;
  SnapshotFetcher fetcher({.window = 4, .stall_ticks = 2}, metrics,
                          [&](ReplicaId to, const ChunkRequest& r) {
                            EXPECT_EQ(to, 1u);
                            requests.push_back(r);
                          });
  ASSERT_TRUE(fetcher.consider(1, h.manifest, /*my_floor=*/0));
  EXPECT_FALSE(requests.empty());
  std::optional<Bytes> done;
  for (std::uint32_t i = 0; i < h.manifest.chunk_count; ++i) {
    ASSERT_FALSE(done.has_value());
    done = fetcher.on_chunk(1, h.chunk(i));
  }
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(*done, h.image.bytes);
  EXPECT_FALSE(fetcher.active());
  EXPECT_EQ(
      metrics.find<obs::Counter>("zlb_sync_chunks_received_total").value(),
      h.manifest.chunk_count);
  // No request amplification: a loss-free transfer asks for every
  // chunk at most once (the window slides; it does not re-request its
  // whole contents on every arrival).
  std::uint64_t total_requested = 0;
  for (const auto& r : requests) total_requested += r.count;
  EXPECT_LE(total_requested, h.manifest.chunk_count);
}

TEST(SnapshotFetcher, ResumesAfterChurnByReRequesting) {
  FetchHarness h(2048, 128);
  std::vector<ChunkRequest> requests;
  obs::Registry metrics;
  SnapshotFetcher fetcher({.window = 4, .stall_ticks = 2}, metrics,
                          [&](ReplicaId, const ChunkRequest& r) {
                            requests.push_back(r);
                          });
  ASSERT_TRUE(fetcher.consider(1, h.manifest, 0));
  // Deliver only chunk 2 of the first window; the rest "was lost".
  (void)fetcher.on_chunk(1, h.chunk(2));
  requests.clear();
  fetcher.tick();  // 1 of stall_ticks
  EXPECT_TRUE(requests.empty());
  fetcher.tick();  // stall threshold hit -> re-request missing
  ASSERT_FALSE(requests.empty());
  EXPECT_EQ(requests.front().first, 0u) << "missing chunks come first";
  EXPECT_GE(
      metrics.find<obs::Counter>("zlb_sync_fetch_retry_rounds_total").value(),
      1u);
  // Finish the transfer.
  std::optional<Bytes> done;
  for (std::uint32_t i = 0; i < h.manifest.chunk_count && !done; ++i) {
    if (i == 2) continue;
    done = fetcher.on_chunk(1, h.chunk(i));
  }
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(*done, h.image.bytes);
}

TEST(SnapshotFetcher, RejectsForgedAndStaleChunks) {
  FetchHarness h(512, 64);
  obs::Registry metrics;
  SnapshotFetcher fetcher({}, metrics, [](ReplicaId, const ChunkRequest&) {});
  ASSERT_TRUE(fetcher.consider(1, h.manifest, 0));
  // Flipped payload byte: merkle proof fails, nothing is accepted.
  auto bad = h.chunk(0);
  bad.data[0] ^= 0x01;
  EXPECT_FALSE(fetcher.on_chunk(1, bad).has_value());
  EXPECT_EQ(
      metrics.find<obs::Counter>("zlb_sync_chunks_rejected_total").value(),
      1u);
  EXPECT_EQ(fetcher.have(), 0u);
  // Chunk of a different checkpoint: ignored.
  auto stale = h.chunk(0);
  stale.upto = h.manifest.upto + 1;
  EXPECT_FALSE(fetcher.on_chunk(1, stale).has_value());
  // Out-of-range index and wrong-size data: rejected.
  auto oob = h.chunk(0);
  oob.index = h.manifest.chunk_count;
  EXPECT_FALSE(fetcher.on_chunk(1, oob).has_value());
  auto short_chunk = h.chunk(0);
  short_chunk.data.pop_back();
  EXPECT_FALSE(fetcher.on_chunk(1, short_chunk).has_value());
  // The honest chunk still lands afterwards.
  EXPECT_FALSE(fetcher.on_chunk(1, h.chunk(0)).has_value());
  EXPECT_EQ(fetcher.have(), 1u);
}

TEST(SnapshotFetcher, PrefersFresherManifestAndIgnoresShallowOnes) {
  FetchHarness old_h(512, 64, /*upto=*/10);
  FetchHarness new_h(512, 64, /*upto=*/20);
  obs::Registry metrics;
  SnapshotFetcher fetcher({.min_lag = 2}, metrics,
                          [](ReplicaId, const ChunkRequest&) {});
  // Not worth a transfer: manifest below floor + min_lag.
  EXPECT_FALSE(fetcher.consider(1, old_h.manifest, /*my_floor=*/9));
  ASSERT_TRUE(fetcher.consider(1, old_h.manifest, /*my_floor=*/0));
  // Same watermark, same source again: no restart.
  EXPECT_FALSE(fetcher.consider(1, old_h.manifest, 0));
  // Fresher image: retarget.
  EXPECT_TRUE(fetcher.consider(2, new_h.manifest, 0));
  EXPECT_EQ(fetcher.target(), 20u);
  EXPECT_EQ(fetcher.source(), 2u);
  // Chunks of the abandoned image no longer match.
  EXPECT_FALSE(fetcher.on_chunk(1, old_h.chunk(0)).has_value());
}

TEST(SnapshotFetcher, SwitchesSourceAfterStallingOut) {
  FetchHarness h(512, 64);
  std::vector<ReplicaId> asked;
  obs::Registry metrics;
  SnapshotFetcher fetcher({.window = 2, .stall_ticks = 1,
                           .max_retry_rounds = 2},
                          metrics, [&](ReplicaId to, const ChunkRequest&) {
                            asked.push_back(to);
                          });
  ASSERT_TRUE(fetcher.consider(1, h.manifest, 0));
  for (int i = 0; i < 3; ++i) fetcher.tick();  // stall out source 1
  // Same image offered by another peer: adopt it there.
  SnapshotManifest other = h.manifest;
  other.server = 3;
  ASSERT_TRUE(fetcher.consider(3, other, 0));
  EXPECT_EQ(fetcher.source(), 3u);
  EXPECT_EQ(asked.back(), 3u);
}

}  // namespace
}  // namespace zlb::sync

// ---------------------------------------------------------------------
// Live-TCP acceptance: a fresh LiveNode joins a 4-node loopback cluster
// with >= 200 decided instances and catches up via checkpoint transfer,
// served from memory or, with checkpoint paths, read from the image
// files.
namespace zlb::net {
namespace {

using namespace std::chrono_literals;

void late_joiner_catches_up(bool on_disk) {
  SCOPED_TRACE(on_disk ? "images served from their files"
                       : "images served from memory");
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("zlb-state-sync-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  if (on_disk) std::filesystem::create_directories(dir);
  constexpr std::size_t kVeterans = 4;
  constexpr InstanceId kInstances = 210;
  constexpr std::uint64_t kInterval = 50;
  chain::Wallet alice(to_bytes("alice"));
  chain::Wallet bob(to_bytes("bob"));

  LiveNodeConfig base;
  base.instances = kInstances;
  base.use_ecdsa = false;  // protocol sigs; tx sigs stay real ECDSA
  base.real_blocks = true;
  base.block_interval = std::chrono::milliseconds(5);
  base.resync_interval = std::chrono::milliseconds(50);
  base.linger_after_decided = true;
  base.committee = {0, 1, 2, 3, 4};
  base.checkpoint.interval = kInterval;
  base.checkpoint.chunk_size = 512;  // force a real multi-chunk transfer
  // A small down-link bound: the veterans must not retain the whole
  // wire history in the joiner's send queue (that WOULD be a genesis
  // replay, just hidden inside the transport).
  base.down_link_buffer_bytes = 32 * 1024;

  // All five nodes bind up front (the committee and the port map are
  // fixed), but node 4 only starts running after the veterans are done.
  std::map<ReplicaId, std::uint16_t> ports;
  std::vector<std::unique_ptr<LiveNode>> nodes;
  for (ReplicaId i = 0; i < 5; ++i) {
    LiveNodeConfig cfg = base;
    cfg.me = i;
    if (on_disk) {
      cfg.checkpoint.path =
          (dir / ("node" + std::to_string(i) + ".ckpt")).string();
    }
    nodes.push_back(std::make_unique<LiveNode>(cfg));
    ports[i] = nodes.back()->port();
  }
  for (auto& node : nodes) {
    node->set_peer_ports(ports);
    node->block_manager().utxos().mint(alice.address(), 10'000);
  }

  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kVeterans; ++i) {
    threads.emplace_back([node = nodes[i].get()] { node->run(180s); });
  }

  // Real traffic early on, so the checkpointed state is more than the
  // genesis mint.
  {
    std::optional<GatewayClient> client;
    const auto connect_deadline = Clock::now() + 15s;
    while (!client && Clock::now() < connect_deadline) {
      client = GatewayClient::connect(nodes[0]->client_port());
      if (!client) std::this_thread::sleep_for(20ms);
    }
    ASSERT_TRUE(client.has_value());
    chain::UtxoSet view;
    view.mint(alice.address(), 10'000);
    for (int i = 0; i < 5; ++i) {
      const auto tx = alice.pay(view, bob.address(), 100);
      ASSERT_TRUE(tx.has_value());
      // Keep the client view in sync with what was just spent.
      for (const auto& in : tx->inputs) view.consume(in.prev);
      view.insert_outputs(*tx);
      const auto ack = client->submit(*tx);
      ASSERT_TRUE(ack.has_value());
      EXPECT_EQ(*ack, SubmitStatus::kAccepted);
    }
  }

  // Veterans decide everything (node 4 is absent; 4-of-5 decides).
  const auto veterans_deadline = Clock::now() + 150s;
  auto veterans_done = [&] {
    for (std::size_t i = 0; i < kVeterans; ++i) {
      if (!nodes[i]->all_decided()) return false;
    }
    return true;
  };
  while (Clock::now() < veterans_deadline && !veterans_done()) {
    std::this_thread::sleep_for(20ms);
  }
  ASSERT_TRUE(veterans_done()) << "veteran cluster stalled";
  ASSERT_GE(nodes[0]->decided_count(), 200u);

  // Now the joiner starts from nothing (fresh genesis only).
  threads.emplace_back([node = nodes[4].get()] { node->run(120s); });
  const auto join_deadline = Clock::now() + 110s;
  while (Clock::now() < join_deadline && !nodes[4]->all_decided()) {
    std::this_thread::sleep_for(25ms);
  }
  EXPECT_TRUE(nodes[4]->all_decided()) << "joiner never caught up";
  for (auto& node : nodes) node->stop();
  for (auto& t : threads) t.join();

  // Caught up via checkpoint transfer, not genesis replay.
  const obs::Registry& joiner = nodes[4]->metrics();
  EXPECT_GE(
      joiner.find<obs::Counter>("zlb_sync_snapshots_installed_total").value(),
      1u);
  const std::int64_t installed_upto =
      joiner.find<obs::Gauge>("zlb_sync_installed_upto").value();
  EXPECT_GE(installed_upto, 200);
  EXPECT_GT(joiner.find<obs::Counter>("zlb_sync_chunks_received_total").value(),
            1u)
      << "multi-chunk transfer";
  // No genesis replay: the installed snapshot settled the bulk of
  // history without ever running those instances here. (A handful may
  // decide live in the instants before the transfer lands.)
  const auto joiner_decisions = nodes[4]->decisions();
  std::size_t below_watermark = 0;
  for (const auto& d : joiner_decisions) {
    if (static_cast<std::int64_t>(d.index) < installed_upto) ++below_watermark;
  }
  EXPECT_LT(below_watermark, 100u)
      << "joiner executed most of history instance by instance";
  EXPECT_LT(joiner_decisions.size(), kInstances);
  // The joiner's block store holds only the post-install tail.
  EXPECT_LT(nodes[4]->block_manager().store().size(),
            nodes[0]->block_manager().store().size());

  // Hash-identical ledgers, cluster-wide.
  const crypto::Hash32 ref = nodes[0]->state_digest();
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    EXPECT_EQ(nodes[i]->state_digest(), ref) << "node " << i;
  }
  EXPECT_EQ(nodes[4]->balance(bob.address()), 500);
  // A veteran served the transfer.
  std::uint64_t served = 0;
  for (std::size_t i = 0; i < kVeterans; ++i) {
    served += nodes[i]
                  ->metrics()
                  .find<obs::Counter>("zlb_sync_chunks_served_total")
                  .value();
  }
  EXPECT_GT(served, 0u);
  // Where the served images lived.
  for (const auto& node : nodes) {
    const auto image = node->checkpoints()->image();
    ASSERT_NE(image, nullptr);
    EXPECT_EQ(image->bytes.memory() == nullptr, on_disk);
  }
  nodes.clear();
  std::filesystem::remove_all(dir);
}

TEST(StateSyncLive, LateJoinerCatchesUpViaCheckpointNotGenesisReplay) {
  late_joiner_catches_up(/*on_disk=*/false);
  late_joiner_catches_up(/*on_disk=*/true);
}

}  // namespace
}  // namespace zlb::net

// ---------------------------------------------------------------------
// Simulator: the post-merge membership change ships real snapshots to
// the included pool replicas (deterministic, same seed = same run).
namespace zlb {
namespace {

TEST(StateSyncSim, IncludedPoolReplicasInstallRealSnapshots) {
  constexpr chain::Amount kMillion = 1'000'000;
  chain::Wallet alice(to_bytes("alice"));
  chain::Wallet bob(to_bytes("bob"));
  chain::Wallet carol(to_bytes("carol"));

  ClusterConfig cfg;
  cfg.n = 10;
  cfg.deceitful = 5;
  cfg.attack = AttackKind::kReliableBroadcast;
  cfg.base_delay = DelayModel::kLan;
  cfg.attack_delay = DelayModel::kUniform;
  cfg.attack_uniform_mean = ms(400);
  cfg.replica.synthetic = false;
  cfg.replica.batch_tx_count = 8;
  cfg.replica.max_instances = 40;
  cfg.replica.log_slot_cap = 32;
  cfg.replica.checkpoint_interval = 8;
  cfg.seed = 3;
  Cluster cluster(cfg);

  for (ReplicaId id : cluster.honest_ids()) {
    auto& bm = cluster.replica(id).block_manager();
    bm.utxos().mint(alice.address(), kMillion);
    bm.fund_deposit(2 * kMillion);
  }
  for (ReplicaId id : cluster.pool_ids()) {
    auto& bm = cluster.replica(id).block_manager();
    bm.utxos().mint(alice.address(), kMillion);
    bm.fund_deposit(2 * kMillion);
  }

  chain::UtxoSet genesis_view;
  genesis_view.mint(alice.address(), kMillion);
  const auto coins = genesis_view.owned_by(alice.address());
  const chain::Transaction tx_bob =
      alice.pay_from(coins, bob.address(), kMillion);
  const chain::Transaction tx_carol =
      alice.pay_from(coins, carol.address(), kMillion);

  AdversaryShared* shared = cluster.adversary_shared();
  ASSERT_NE(shared, nullptr);
  shared->payload_factory = [&](int persona, InstanceId index) {
    asmr::BatchPayload p;
    p.synthetic = false;
    p.index = index;
    chain::Block block;
    block.index = index;
    if (index == 0) {
      block.txs.push_back(persona == 0 ? tx_bob : tx_carol);
      p.tag = static_cast<std::uint64_t>(persona);
    }
    p.tx_count = static_cast<std::uint32_t>(block.txs.size());
    p.block_bytes = block.serialize();
    return p.encode();
  };

  cluster.run_while([&] { return cluster.all_recovered(); }, seconds(600));
  ASSERT_TRUE(cluster.report().recovered);
  // Let the in-flight catch-ups and reconcile/merge traffic drain.
  cluster.run(cluster.sim().now() + seconds(30));
  const auto rep = cluster.report();

  // Every included pool replica came up through a real snapshot.
  EXPECT_GE(rep.snapshot_catchups, 1u);
  EXPECT_EQ(rep.snapshot_catchups, rep.included);

  // And the transferred state is the real ledger: the activated
  // newcomers know the pre-join payments they never executed.
  std::size_t activated = 0;
  for (ReplicaId id : cluster.pool_ids()) {
    if (!cluster.has_replica(id)) continue;
    const auto& r = cluster.replica(id);
    if (!r.active()) continue;
    ++activated;
    const auto& m = r.metrics();
    EXPECT_TRUE(m.snapshot_installed) << "pool replica " << id;
    const auto& bm = r.block_manager();
    EXPECT_TRUE(bm.knows_tx(tx_bob.id()) || bm.knows_tx(tx_carol.id()))
        << "pool replica " << id << " joined with an empty ledger";
  }
  EXPECT_GE(activated, 1u);
  // Veterans checkpointed along the way.
  const auto* ckpt =
      cluster.replica(cluster.honest_ids().front()).checkpoints();
  ASSERT_NE(ckpt, nullptr);
  EXPECT_GE(ckpt->stats().taken, 1u);
}

}  // namespace
}  // namespace zlb
