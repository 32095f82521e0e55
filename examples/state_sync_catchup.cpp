// State-sync catch-up: a 4-node live TCP cluster decides a hundred
// instances with periodic checkpoints, then a fifth node joins from
// nothing and catches up through a verified chunked snapshot transfer
// instead of replaying the chain from genesis. Prints the transfer as
// it is observed: checkpoint watermark, chunks, installed state,
// restart replay cost.
//
//   ./example_state_sync_catchup
#include <cstdio>
#include <filesystem>
#include <thread>

#include "chain/wallet.hpp"
#include "net/client_gateway.hpp"
#include "net/live_node.hpp"

using namespace zlb;
using namespace std::chrono_literals;

int main() {
  constexpr InstanceId kInstances = 120;
  constexpr std::uint64_t kCheckpointEvery = 25;
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("zlb-statesync-example-" + std::to_string(::getpid())))
          .string();
  std::filesystem::create_directories(dir);

  chain::Wallet alice(to_bytes("alice"));
  chain::Wallet bob(to_bytes("bob"));

  net::LiveNodeConfig base;
  base.instances = kInstances;
  base.use_ecdsa = false;  // fast protocol sigs; tx sigs stay ECDSA
  base.real_blocks = true;
  base.block_interval = 5ms;
  base.resync_interval = 50ms;
  base.linger_after_decided = true;
  base.committee = {0, 1, 2, 3, 4};
  base.checkpoint.interval = kCheckpointEvery;
  base.checkpoint.chunk_size = 1024;
  base.down_link_buffer_bytes = 16 * 1024;

  std::printf("== 4 veterans run %llu instances (checkpoint every %llu)\n",
              static_cast<unsigned long long>(kInstances),
              static_cast<unsigned long long>(kCheckpointEvery));
  std::map<ReplicaId, std::uint16_t> ports;
  std::vector<std::unique_ptr<net::LiveNode>> nodes;
  for (ReplicaId i = 0; i < 5; ++i) {
    net::LiveNodeConfig cfg = base;
    cfg.me = i;
    if (i == 0) cfg.journal_path = dir + "/node0.wal";  // node 0 durable
    nodes.push_back(std::make_unique<net::LiveNode>(cfg));
    ports[i] = nodes.back()->port();
  }
  for (auto& node : nodes) {
    node->set_peer_ports(ports);
    node->block_manager().utxos().mint(alice.address(), 10'000);
  }

  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < 4; ++i) {
    threads.emplace_back([node = nodes[i].get()] { node->run(60s); });
  }

  // A few client payments so the snapshot carries real state.
  if (auto client = net::GatewayClient::connect(nodes[0]->client_port())) {
    chain::UtxoSet view;
    view.mint(alice.address(), 10'000);
    for (int i = 0; i < 3; ++i) {
      const auto tx = alice.pay(view, bob.address(), 250);
      if (!tx) break;
      for (const auto& in : tx->inputs) view.consume(in.prev);
      view.insert_outputs(*tx);
      (void)client->submit(*tx);
    }
  }

  while (!nodes[0]->all_decided() || !nodes[1]->all_decided() ||
         !nodes[2]->all_decided() || !nodes[3]->all_decided()) {
    std::this_thread::sleep_for(20ms);
  }
  std::printf("   veterans decided %llu instances; node0 checkpoint wm=%llu\n",
              static_cast<unsigned long long>(nodes[0]->decided_count()),
              static_cast<unsigned long long>(
                  nodes[0]->checkpoints()->watermark()));

  std::printf("== node 4 joins from scratch\n");
  threads.emplace_back([node = nodes[4].get()] { node->run(60s); });
  while (!nodes[4]->all_decided()) std::this_thread::sleep_for(20ms);
  for (auto& node : nodes) node->stop();
  for (auto& t : threads) t.join();

  const obs::Registry& joiner = nodes[4]->metrics();
  std::printf(
      "   snapshot installed: %llu (watermark %lld)\n",
      static_cast<unsigned long long>(
          joiner.find<obs::Counter>("zlb_sync_snapshots_installed_total")
              .value()),
      static_cast<long long>(
          joiner.find<obs::Gauge>("zlb_sync_installed_upto").value()));
  std::printf(
      "   chunks pulled: %llu, manifests adopted: %llu\n",
      static_cast<unsigned long long>(
          joiner.find<obs::Counter>("zlb_sync_chunks_received_total").value()),
      static_cast<unsigned long long>(
          joiner.find<obs::Counter>("zlb_sync_manifests_adopted_total")
              .value()));
  std::printf("   joiner bob balance: %lld (veteran: %lld)\n",
              static_cast<long long>(nodes[4]->balance(bob.address())),
              static_cast<long long>(nodes[0]->balance(bob.address())));
  const bool identical =
      nodes[4]->state_digest() == nodes[0]->state_digest();
  std::printf("   ledgers hash-identical: %s\n", identical ? "yes" : "NO");

  // Restart economics for the durable node: only the post-checkpoint
  // journal tail replays.
  bm::BlockManager reborn;
  sync::CheckpointManager ckpt(
      sync::CheckpointConfig{dir + "/node0.wal.ckpt", kCheckpointEvery, 1024});
  if (const auto upto = ckpt.restore_disk(reborn)) {
    const auto replay = reborn.open_journal(dir + "/node0.wal");
    std::printf("== node0 restart: checkpoint wm=%llu + %zu journal blocks "
                "(chain has %llu instances)\n",
                static_cast<unsigned long long>(*upto),
                replay ? replay->blocks : 0,
                static_cast<unsigned long long>(kInstances));
  }
  std::filesystem::remove_all(dir);
  return identical ? 0 : 1;
}
