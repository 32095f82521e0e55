// The live analogue of test_attack_recovery: a 4-replica deceitful
// coalition in a 10-node TCP cluster equivocates on its accountable
// votes, every honest node extracts proofs of fraud, the exclusion
// consensus cuts the coalition out, the inclusion consensus admits 4
// standby replicas from the configured pool, the transport tears the
// excluded links down and raises the new ones, the standbys activate on
// t+1 signed epoch announcements and catch up through cross-validated
// checkpoint transfer, and payments keep settling under epoch 1 —
// Alg. 1 end to end over real sockets.
#include <gtest/gtest.h>

#include <thread>

#include "chain/wallet.hpp"
#include "net/client_gateway.hpp"
#include "net/live_node.hpp"

namespace zlb::net {
namespace {

using namespace std::chrono_literals;

constexpr std::size_t kCommittee = 10;
constexpr std::size_t kPool = 4;
const std::vector<ReplicaId> kColluders = {6, 7, 8, 9};

bool is_colluder(ReplicaId id) {
  return std::find(kColluders.begin(), kColluders.end(), id) !=
         kColluders.end();
}

// Engine-level epoch coverage: the signing bytes carry the epoch via
// the instance key, so a vote for the same (slot, round, value) in a
// different epoch neither verifies under the old bytes nor reaches an
// engine keyed elsewhere.
TEST(LiveReconfigUnits, EngineRejectsCrossEpochVotes) {
  crypto::SimScheme scheme(64);
  const std::vector<ReplicaId> members = {0, 1, 2, 3};
  consensus::SbcEngine::Config cfg;
  cfg.epoch = 1;
  int broadcasts = 0;
  consensus::SbcEngine::Hooks hooks;
  hooks.broadcast = [&](Bytes, std::uint32_t, std::uint64_t) { ++broadcasts; };
  consensus::SbcEngine engine({1, consensus::InstanceKind::kRegular, 7},
                              members, nullptr, 0, scheme, cfg, hooks);
  ASSERT_FALSE(engine.stopped());

  // An epoch-0 echo for the same instance index: ignored entirely.
  consensus::SignedVote vote;
  vote.signer = 1;
  vote.body.key = {0, consensus::InstanceKind::kRegular, 7};
  vote.body.type = consensus::VoteType::kEcho;
  vote.body.value = Bytes(32, 0xaa);
  const Bytes sb = vote.body.signing_bytes();
  vote.signature = scheme.sign(1, BytesView(sb.data(), sb.size()));
  engine.handle_vote(vote);
  EXPECT_EQ(engine.slot_debug(0).echoes, 0u);

  // The right-epoch twin lands.
  vote.body.key.epoch = 1;
  const Bytes sb1 = vote.body.signing_bytes();
  vote.signature = scheme.sign(1, BytesView(sb1.data(), sb1.size()));
  engine.handle_vote(vote);
  EXPECT_EQ(engine.slot_debug(0).echoes, 1u);
  EXPECT_EQ(engine.slot_debug(0).epoch, 1u);
}

TEST(LiveReconfigUnits, EngineEpochConfigMismatchIsDeadOnArrival) {
  crypto::SimScheme scheme(64);
  consensus::SbcEngine::Config cfg;
  cfg.epoch = 0;  // caller wired epoch 0 ...
  consensus::SbcEngine engine({2, consensus::InstanceKind::kRegular, 0},
                              {0, 1, 2, 3}, nullptr, 0, scheme, cfg,
                              {});  // ... against an epoch-2 key
  EXPECT_TRUE(engine.stopped());
  engine.resume();  // resume must not revive a misconfigured engine
  EXPECT_TRUE(engine.stopped());
}

TEST(LiveReconfigUnits, OutcomeEntriesCarryTheEpoch) {
  crypto::SimScheme scheme(64);
  const std::vector<ReplicaId> members = {0, 1, 2, 3};
  std::vector<std::unique_ptr<consensus::SbcEngine>> engines;
  std::vector<Bytes> wires[4];
  consensus::SbcEngine::Config cfg;
  cfg.epoch = 3;
  for (ReplicaId me = 0; me < 4; ++me) {
    consensus::SbcEngine::Hooks hooks;
    hooks.broadcast = [&wires, me](Bytes data, std::uint32_t, std::uint64_t) {
      wires[me].push_back(std::move(data));
    };
    engines.push_back(std::make_unique<consensus::SbcEngine>(
        consensus::InstanceKey{3, consensus::InstanceKind::kRegular, 0},
        members, nullptr, me, scheme, cfg, std::move(hooks)));
  }
  for (ReplicaId me = 0; me < 4; ++me) {
    Writer w;
    w.u32(me);
    engines[me]->propose(w.take(), 0, 1);
  }
  // Flood-deliver until quiescent.
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (ReplicaId from = 0; from < 4; ++from) {
      std::vector<Bytes> pending;
      pending.swap(wires[from]);
      progressed = progressed || !pending.empty();
      for (const Bytes& wire : pending) {
        Reader r(BytesView(wire.data() + 1, wire.size() - 1));
        for (auto& engine : engines) {
          Reader rr(BytesView(wire.data() + 1, wire.size() - 1));
          if (wire[0] == 2) {
            engine->handle_proposal(consensus::ProposalMsg::decode(rr));
          } else {
            engine->handle_vote(consensus::SignedVote::decode(rr));
          }
        }
        (void)r;
      }
    }
  }
  for (auto& engine : engines) {
    ASSERT_TRUE(engine->has_decided());
    ASSERT_FALSE(engine->outcome().empty());
    for (const auto& entry : engine->outcome()) {
      EXPECT_EQ(entry.epoch, 3u);
    }
  }
}

// ---------------------------------------------------------------------

TEST(LiveReconfig, CoalitionExcludedPoolAdmittedPaymentsContinue) {
  chain::Wallet alice(to_bytes("alice"));
  chain::Wallet bob(to_bytes("bob"));
  chain::Wallet carol(to_bytes("carol"));

  LiveNodeConfig base;
  base.instances = 1'000'000;  // effectively unbounded; we stop the nodes
  base.use_ecdsa = false;      // protocol sigs; tx sigs stay real ECDSA
  base.real_blocks = true;
  base.block_interval = std::chrono::milliseconds(10);
  base.resync_interval = std::chrono::milliseconds(50);
  base.linger_after_decided = true;
  base.checkpoint.interval = 8;
  base.checkpoint.chunk_size = 512;  // real multi-chunk transfers
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
      cfg.equivocate_from = 4;  // settle real payments first
    }
    nodes.push_back(std::make_unique<LiveNode>(cfg));
    ports[i] = nodes.back()->port();
  }
  for (auto& node : nodes) {
    node->set_peer_ports(ports);
    node->block_manager().utxos().mint(alice.address(), 100'000);
  }

  std::vector<std::thread> threads;
  threads.reserve(nodes.size());
  for (auto& node : nodes) {
    threads.emplace_back([n = node.get()] { n->run(240s); });
  }
  // Guaranteed teardown on any assertion exit.
  struct Stopper {
    std::vector<std::unique_ptr<LiveNode>>& nodes;
    std::vector<std::thread>& threads;
    ~Stopper() {
      for (auto& n : nodes) n->stop();
      for (auto& t : threads) t.join();
    }
  } stopper{nodes, threads};

  // A pre-attack payment through an honest gateway.
  chain::UtxoSet view;
  view.mint(alice.address(), 100'000);
  const auto tx1 = alice.pay(view, bob.address(), 7'000);
  ASSERT_TRUE(tx1.has_value());
  std::optional<GatewayClient> c0;
  const auto connect_deadline = Clock::now() + 20s;
  while (!c0 && Clock::now() < connect_deadline) {
    c0 = GatewayClient::connect(nodes[0]->client_port());
    if (!c0) std::this_thread::sleep_for(20ms);
  }
  ASSERT_TRUE(c0.has_value());
  ASSERT_TRUE(c0->submit(*tx1).has_value());

  const auto deadline = Clock::now() + 210s;

  // The coalition equivocates from instance 4 on; every honest veteran
  // must reach epoch 1.
  auto honest_recovered = [&] {
    for (ReplicaId i = 0; i < kCommittee; ++i) {
      if (is_colluder(i)) continue;
      if (nodes[i]->epoch() < 1) return false;
    }
    return true;
  };
  while (Clock::now() < deadline && !honest_recovered()) {
    std::this_thread::sleep_for(25ms);
  }
  ASSERT_TRUE(honest_recovered()) << "membership change never completed";

  // Every standby activates into epoch 1.
  auto standbys_active = [&] {
    for (std::size_t i = kCommittee; i < nodes.size(); ++i) {
      if (!nodes[i]->active() || nodes[i]->epoch() < 1) return false;
    }
    return true;
  };
  while (Clock::now() < deadline && !standbys_active()) {
    std::this_thread::sleep_for(25ms);
  }
  ASSERT_TRUE(standbys_active()) << "pool replicas never admitted";

  // The epoch-1 committee is identical everywhere honest: the six
  // surviving veterans plus the four pool replicas, no colluder.
  std::vector<ReplicaId> expected;
  for (ReplicaId i = 0; i < kCommittee + kPool; ++i) {
    if (!is_colluder(i)) expected.push_back(i);
  }
  for (ReplicaId i = 0; i < kCommittee + kPool; ++i) {
    if (is_colluder(i)) continue;
    EXPECT_EQ(nodes[i]->committee_members(), expected) << "node " << i;
  }

  // Accountability was the trigger. A veteran may legitimately be
  // healed by the announcement instead of finishing the inclusion
  // itself (the consensus only needs a quorum), so the full
  // excluded/included counters appear on the nodes that executed the
  // change — and adoption takes t+1 such signers, so at least t+1
  // veterans must show them, with consistent phase ordering.
  std::size_t executed = 0;
  for (ReplicaId i = 0; i < kCommittee; ++i) {
    if (is_colluder(i)) continue;
    const obs::Registry& m = nodes[i]->metrics();
    const std::uint64_t excluded =
        m.find<obs::Counter>("zlb_reconfig_excluded_total").value();
    const std::int64_t detect_ms =
        m.find<obs::Gauge>("zlb_reconfig_phase_ms", {{"phase", "detect"}})
            .value();
    const std::int64_t exclude_ms =
        m.find<obs::Gauge>("zlb_reconfig_phase_ms", {{"phase", "exclude"}})
            .value();
    const std::int64_t include_ms =
        m.find<obs::Gauge>("zlb_reconfig_phase_ms", {{"phase", "include"}})
            .value();
    EXPECT_EQ(nodes[i]->epoch(), 1u) << "node " << i;
    EXPECT_GE(include_ms, 0) << "node " << i;
    if (excluded == 0) continue;  // healed by announcement
    ++executed;
    EXPECT_EQ(excluded, kColluders.size()) << "node " << i;
    EXPECT_EQ(m.find<obs::Counter>("zlb_reconfig_included_total").value(),
              kPool)
        << "node " << i;
    EXPECT_GE(detect_ms, 0) << "node " << i;
    EXPECT_GE(exclude_ms, detect_ms) << "node " << i;
    EXPECT_GE(include_ms, exclude_ms) << "node " << i;
  }
  EXPECT_GE(executed, (kCommittee - 1) / 3 + 1)
      << "fewer veterans executed the change than adoption requires";

  // Payments keep settling under the new committee — including on the
  // admitted standbys, which must have caught up to the pre-attack
  // state they never executed.
  const auto pay_deadline = Clock::now() + 120s;
  std::optional<GatewayClient> c1;
  while (!c1 && Clock::now() < pay_deadline) {
    c1 = GatewayClient::connect(nodes[1]->client_port());
    if (!c1) std::this_thread::sleep_for(20ms);
  }
  ASSERT_TRUE(c1.has_value());
  std::optional<chain::Transaction> tx2;
  while (Clock::now() < pay_deadline && !tx2) {
    // Bob's coin exists once tx1 committed; build the spend from the
    // committed UTXO view of an honest veteran.
    const auto coins = nodes[0]->owned_coins(bob.address());
    if (coins.empty()) {
      std::this_thread::sleep_for(25ms);
      continue;
    }
    tx2 = bob.pay_from(coins, carol.address(), 2'500);
  }
  ASSERT_TRUE(tx2.has_value()) << "pre-attack payment never committed";
  ASSERT_TRUE(c1->submit(*tx2).has_value());

  auto members_have = [&](const chain::Address& a, chain::Amount v) {
    for (ReplicaId i = 0; i < kCommittee + kPool; ++i) {
      if (is_colluder(i)) continue;
      if (nodes[i]->balance(a) != v) return false;
    }
    return true;
  };
  while (Clock::now() < pay_deadline &&
         !members_have(carol.address(), 2'500)) {
    std::this_thread::sleep_for(25ms);
  }
  auto dump_state = [&] {
    // First decided-instance digest disagreement vs node 0, per node.
    const auto ref_decisions = nodes[0]->decisions();
    std::map<InstanceId, std::vector<crypto::Hash32>> ref_by_index;
    for (const auto& d : ref_decisions) ref_by_index[d.index] = d.digests;
    for (ReplicaId i = 1; i < kCommittee + kPool; ++i) {
      if (is_colluder(i)) continue;
      for (const auto& d : nodes[i]->decisions()) {
        const auto it = ref_by_index.find(d.index);
        if (it == ref_by_index.end() || it->second == d.digests) continue;
        std::fprintf(stderr,
                     "node %u DIVERGES at instance %llu (epoch %u): %zu vs "
                     "%zu digests\n",
                     i, static_cast<unsigned long long>(d.index), d.epoch,
                     d.digests.size(), it->second.size());
        break;
      }
    }
    for (ReplicaId i = 0; i < kCommittee + kPool; ++i) {
      const obs::Registry& m = nodes[i]->metrics();
      const auto count = [&m](const char* name) {
        return static_cast<unsigned long long>(
            m.find<obs::Counter>(name).value());
      };
      const auto installed_upto = static_cast<InstanceId>(
          m.find<obs::Gauge>("zlb_sync_installed_upto").value());
      // Lowest instance this node recorded no decision for (settled
      // instances have no record; start above the installed watermark).
      std::set<InstanceId> have;
      for (const auto& d : nodes[i]->decisions()) have.insert(d.index);
      InstanceId gap = installed_upto;
      while (have.count(gap) != 0) ++gap;
      std::fprintf(stderr, "node %u: first decision gap at %llu\n", i,
                   static_cast<unsigned long long>(gap));
      std::fprintf(
          stderr,
          "node %u%s: epoch=%u active=%d decided=%llu installed=%llu "
          "installed_upto=%llu endorsed=%llu adopted=%llu manifests_sent=%llu "
          "chunks_served=%llu chunks_recv=%llu stale_manifests=%llu "
          "cross_epoch=%llu bob=%lld carol=%lld\n",
          i, is_colluder(i) ? " (colluder)" : (i >= kCommittee ? " (pool)" : ""),
          nodes[i]->epoch(), nodes[i]->active() ? 1 : 0,
          static_cast<unsigned long long>(nodes[i]->decided_count()),
          count("zlb_sync_snapshots_installed_total"),
          static_cast<unsigned long long>(installed_upto),
          count("zlb_sync_manifests_endorsed_total"),
          count("zlb_sync_manifests_adopted_total"),
          count("zlb_sync_manifests_sent_total"),
          count("zlb_sync_chunks_served_total"),
          count("zlb_sync_chunks_received_total"),
          count("zlb_sync_manifests_rejected_total"),
          count("zlb_reconfig_cross_epoch_dropped_total"),
          static_cast<long long>(nodes[i]->balance(bob.address())),
          static_cast<long long>(nodes[i]->balance(carol.address())));
    }
  };
  if (!members_have(carol.address(), 2'500)) dump_state();
  EXPECT_TRUE(members_have(carol.address(), 2'500))
      << "post-recovery payment did not settle cluster-wide";
  EXPECT_TRUE(members_have(bob.address(), 4'500));

  // The standbys came up through verified snapshot transfer (their
  // pre-join history is below their join boundary), cross-validated by
  // t+1 matching manifests.
  for (std::size_t i = kCommittee; i < nodes.size(); ++i) {
    const obs::Registry& m = nodes[i]->metrics();
    EXPECT_GE(
        m.find<obs::Counter>("zlb_sync_snapshots_installed_total").value(),
        1u)
        << "standby " << i;
    EXPECT_GE(
        m.find<obs::Counter>("zlb_sync_manifests_endorsed_total").value(),
        2u)
        << "standby " << i;
  }

  // Ledgers converge across the whole epoch-1 membership.
  const crypto::Hash32 ref = nodes[0]->state_digest();
  for (ReplicaId i = 1; i < kCommittee + kPool; ++i) {
    if (is_colluder(i)) continue;
    EXPECT_EQ(nodes[i]->state_digest(), ref) << "node " << i;
  }
}

}  // namespace
}  // namespace zlb::net
