// Per-layer metrics of a traced pass. Three sources, all read or
// replayed after the nodes stopped, so the live part of a traced pass
// runs exactly the code of an untraced one:
//   R  each node's metrics registry, summed over nodes;
//   S  the nodes' decisions() and block stores;
//   P  the run's own inputs and committed blocks replayed through each
//      layer's public functions, every call timed here.
// The client-side (C) figures arrive in PassFacts from the generator and
// sampler.
#include <algorithm>
#include <chrono>
#include <deque>
#include <memory>

#include "chain/mempool.hpp"
#include "consensus/messages.hpp"
#include "consensus/sbc.hpp"
#include "crypto/signer.hpp"
#include "harness.hpp"
#include "paybench.hpp"
#include "sync/checkpoint.hpp"

namespace paybench {
namespace {

double seconds_since(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t)
      .count();
}

double thread_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

bool has_labels(const obs::Sample& s, const obs::LabelSet& want) {
  return std::all_of(want.begin(), want.end(), [&](const auto& kv) {
    return std::find(s.labels.begin(), s.labels.end(), kv) != s.labels.end();
  });
}

/// Registry snapshots of every node, taken once.
class Registries {
 public:
  explicit Registries(const std::vector<net::LiveNode*>& nodes) {
    for (const net::LiveNode* node : nodes) {
      snaps_.push_back(node->metrics().samples());
    }
  }

  [[nodiscard]] double counter(const std::string& name,
                               const obs::LabelSet& labels = {}) const {
    double total = 0;
    for (const auto& snap : snaps_) {
      for (const auto& s : snap) {
        if (s.kind == obs::MetricKind::kCounter && s.name == name &&
            has_labels(s, labels)) {
          total += static_cast<double>(s.counter_value);
        }
      }
    }
    return total;
  }

  struct Hist {
    double count = 0;
    double sum_s = 0;  ///< in exported units (seconds)
    double max_s = 0;  ///< upper bound of the highest non-empty bucket
    [[nodiscard]] double mean_ms() const { return ratio(sum_s, count) * 1e3; }
  };
  [[nodiscard]] Hist hist(const std::string& name,
                          const obs::LabelSet& labels = {}) const {
    Hist h;
    for (const auto& snap : snaps_) {
      for (const auto& s : snap) {
        if (s.kind != obs::MetricKind::kHistogram || s.name != name ||
            !has_labels(s, labels)) {
          continue;
        }
        h.count += static_cast<double>(s.hist.count);
        h.sum_s += static_cast<double>(s.hist.sum) * s.scale;
        for (std::size_t b = s.hist.buckets.size(); b-- > 0;) {
          if (s.hist.buckets[b] == 0) continue;
          h.max_s = std::max(
              h.max_s,
              static_cast<double>(obs::HistogramSnapshot::bucket_upper(b)) *
                  s.scale);
          break;
        }
      }
    }
    return h;
  }

 private:
  std::vector<std::vector<obs::Sample>> snaps_;
};

/// EcdsaScheme behind a counter: every sign and verify the consensus
/// replay performs, plus the signed votes for the crypto timings.
class CountingScheme final : public crypto::SignatureScheme {
 public:
  struct Signed {
    ReplicaId id = 0;
    Bytes message;
    Bytes signature;
  };

  [[nodiscard]] Bytes sign(ReplicaId id, BytesView message) override {
    Bytes sig = inner_.sign(id, message);
    log.push_back({id, Bytes(message.begin(), message.end()), sig});
    return sig;
  }
  [[nodiscard]] bool verify(ReplicaId id, BytesView message,
                            BytesView signature) const override {
    ++verifies;
    return inner_.verify(id, message, signature);
  }
  [[nodiscard]] std::size_t signature_size() const override { return 64; }

  mutable std::uint64_t verifies = 0;
  std::vector<Signed> log;  ///< every signature made, in order

 private:
  crypto::EcdsaScheme inner_;
};

struct ConsensusReplay {
  double signs_per_inst = 0;
  double verifies_per_inst = 0;
  double cpu_ms_per_inst = 0;
  std::vector<CountingScheme::Signed> votes;
};

/// One 4-engine SbcEngine instance at a time over an in-process router,
/// every engine proposing `block` (re-labelled with its own proposer
/// and slot), every frame signature-verified at every receiver,
/// including the sender, as the live nodes do.
ConsensusReplay replay_consensus(const chain::Block& block) {
  constexpr std::size_t kEngines = 4;
  constexpr int kInstances = 8;
  using consensus::MsgTag;
  CountingScheme scheme;
  std::vector<ReplicaId> members;
  for (std::size_t i = 0; i < kEngines; ++i) {
    members.push_back(static_cast<ReplicaId>(i));
  }
  const consensus::Committee live(members);
  consensus::SbcEngine::Config config;
  config.record_wire = true;  // resync is on in the live configuration

  const double cpu0 = thread_cpu_s();
  for (int k = 0; k < kInstances; ++k) {
    std::deque<Bytes> queue;
    std::vector<std::unique_ptr<consensus::SbcEngine>> engines;
    for (std::size_t i = 0; i < kEngines; ++i) {
      consensus::SbcEngine::Hooks hooks;
      hooks.broadcast = [&queue](Bytes data, std::uint32_t, std::uint64_t) {
        queue.push_back(std::move(data));
      };
      engines.push_back(std::make_unique<consensus::SbcEngine>(
          consensus::InstanceKey{0, consensus::InstanceKind::kRegular,
                                 static_cast<InstanceId>(k)},
          members, &live, static_cast<ReplicaId>(i), scheme, config,
          std::move(hooks)));
    }
    for (std::size_t i = 0; i < kEngines; ++i) {
      chain::Block own = block;
      own.index = static_cast<InstanceId>(k);
      own.proposer = static_cast<ReplicaId>(i);
      own.slot = static_cast<std::uint32_t>(i);
      engines[i]->propose(own.serialize(), 0, 1, 1);
    }
    while (!queue.empty()) {
      const Bytes frame = std::move(queue.front());
      queue.pop_front();
      for (auto& engine : engines) {
        Reader r(BytesView(frame.data() + 1, frame.size() - 1));
        if (frame[0] == static_cast<std::uint8_t>(MsgTag::kVote)) {
          const auto vote = consensus::SignedVote::decode(r);
          const Bytes sb = vote.body.signing_bytes();
          if (scheme.verify(vote.signer, BytesView(sb.data(), sb.size()),
                            BytesView(vote.signature.data(),
                                      vote.signature.size()))) {
            engine->handle_vote(vote);
          }
        } else if (frame[0] == static_cast<std::uint8_t>(MsgTag::kProposal)) {
          const auto msg = consensus::ProposalMsg::decode(r);
          const Bytes sb = msg.vote.body.signing_bytes();
          if (scheme.verify(msg.vote.signer, BytesView(sb.data(), sb.size()),
                            BytesView(msg.vote.signature.data(),
                                      msg.vote.signature.size()))) {
            engine->handle_proposal(msg);
          }
        }
      }
    }
    for (const auto& engine : engines) {
      if (!engine->has_decided()) {
        throw std::runtime_error("consensus replay did not decide");
      }
    }
  }
  ConsensusReplay out;
  out.cpu_ms_per_inst = (thread_cpu_s() - cpu0) * 1e3 / kInstances;
  out.signs_per_inst = static_cast<double>(scheme.log.size()) / kInstances;
  out.verifies_per_inst = static_cast<double>(scheme.verifies) / kInstances;
  out.votes = std::move(scheme.log);
  return out;
}

/// Genesis ledger restored from its on-disk image; also times it.
std::unique_ptr<bm::BlockManager> restore_genesis(const Inputs& in,
                                                  double& seconds) {
  const auto t = std::chrono::steady_clock::now();
  sync::CheckpointConfig cc;
  cc.path = in.genesis_path;
  sync::CheckpointManager ckpt(cc);
  const auto snap = ckpt.load_disk();
  if (!snap) throw std::runtime_error("cannot load the genesis checkpoint");
  auto ledger = std::make_unique<bm::BlockManager>();
  ledger->restore(*snap);
  seconds = seconds_since(t);
  return ledger;
}

}  // namespace

std::vector<chain::Block> committed_blocks(const net::LiveNode& node,
                                           InstanceId from) {
  const auto& store = node.block_manager().store();
  std::vector<chain::Block> out;
  if (store.size() == 0) return out;
  for (InstanceId k = from; k <= store.max_index(); ++k) {
    for (const auto& id : store.at_index(k)) {
      if (const chain::Block* b = store.get(id)) out.push_back(*b);
    }
  }
  return out;
}

DecisionCounts count_decisions(const std::vector<net::LiveNode*>& nodes) {
  DecisionCounts c;
  double insts = 0;
  for (const net::LiveNode* node : nodes) {
    for (const auto& d : node->decisions()) {
      insts += 1;
      c.slots += static_cast<double>(d.bitmask.size());
      c.lost_slots += static_cast<double>(
          std::count(d.bitmask.begin(), d.bitmask.end(), 0));
    }
  }
  c.insts_per_node = ratio(insts, static_cast<double>(nodes.size()));
  return c;
}

std::uint64_t counter_total(const std::vector<net::LiveNode*>& nodes,
                            const std::string& name,
                            const obs::LabelSet& labels) {
  return static_cast<std::uint64_t>(Registries(nodes).counter(name, labels));
}

Metrics node_layer_metrics(const std::vector<net::LiveNode*>& nodes,
                           const PassFacts& facts) {
  const Registries reg(nodes);
  Metrics m;
  auto add = [&m](const char* name, double value, const char* unit) {
    m.push_back({name, value, unit});
  };

  const DecisionCounts dc = count_decisions(nodes);
  const double per_node_insts = dc.insts_per_node;

  std::vector<double> ack = facts.ack_ms;
  std::sort(ack.begin(), ack.end());
  add("net.ack_ms_p50", percentile(ack, 50), "ms");
  add("net.ack_ms_p99", percentile(ack, 99), "ms");
  add("net.vote_frames_per_inst",
      ratio(reg.counter("zlb_msgs_total", {{"dir", "rx"}, {"kind", "vote"}}),
            per_node_insts),
      "count");
  add("net.bytes_per_inst",
      ratio(reg.counter("zlb_msg_bytes_total", {{"dir", "tx"}}),
            per_node_insts),
      "B");
  add("net.proposal_bytes_per_tx",
      ratio(reg.counter("zlb_msg_bytes_total",
                        {{"dir", "tx"}, {"kind", "proposal"}}),
            static_cast<double>(facts.committed)),
      "B");
  add("net.resync_frames_per_s",
      ratio(reg.counter("zlb_msgs_total",
                        {{"dir", "tx"}, {"kind", "resync_status"}}),
            facts.run_s),
      "1/s");

  add("consensus.inst_per_s", ratio(per_node_insts, facts.run_s), "1/s");
  std::size_t blocks = 0;
  std::size_t empty = 0;
  for (const auto& b : committed_blocks(*nodes[0], 0)) {
    ++blocks;
    if (b.txs.empty()) ++empty;
  }
  add("consensus.empty_block_share",
      ratio(static_cast<double>(empty), static_cast<double>(blocks)), "ratio");
  add("consensus.slot_loss_share", ratio(dc.lost_slots, dc.slots), "ratio");
  add("consensus.rounds_per_slot",
      ratio(reg.counter("zlb_consensus_rounds_total"), dc.slots), "count");
  add("consensus.deliver_ms_mean",
      reg.hist("zlb_decide_phase_latency_seconds", {{"phase", "deliver"}})
          .mean_ms(),
      "ms");
  add("consensus.decide_ms_mean",
      reg.hist("zlb_decide_latency_seconds").mean_ms(), "ms");

  const auto decode = reg.hist("zlb_pipeline_decode_seconds");
  const auto verify = reg.hist("zlb_pipeline_verify_seconds");
  const auto apply = reg.hist("zlb_pipeline_apply_seconds");
  const auto journal = reg.hist("zlb_pipeline_journal_seconds");
  add("bm.decode_ms_per_inst", decode.mean_ms(), "ms");
  add("bm.verify_ms_per_inst", verify.mean_ms(), "ms");
  add("bm.apply_ms_per_flush", apply.mean_ms(), "ms");
  add("bm.journal_ms_per_flush", journal.mean_ms(), "ms");
  add("bm.insts_per_flush", ratio(decode.count, journal.count), "count");
  add("bm.commit_ms_mean",
      reg.hist("zlb_decide_phase_latency_seconds", {{"phase", "apply"}})
          .mean_ms(),
      "ms");

  add("chain.queue_ms_mean",
      reg.hist("zlb_decide_phase_latency_seconds", {{"phase", "propose"}})
          .mean_ms(),
      "ms");
  add("chain.mempool_rejected", reg.counter("zlb_mempool_rejected_total"),
      "count");

  const auto ckpt = reg.hist("zlb_checkpoint_export_seconds");
  add("sync.ckpt_export_ms_mean", ckpt.mean_ms(), "ms");
  add("sync.ckpt_export_ms_max", ckpt.max_s * 1e3, "ms");
  add("sync.ckpts", ckpt.count, "count");
  const auto* latest = nodes[0]->checkpoints() != nullptr
                           ? nodes[0]->checkpoints()->latest()
                           : nullptr;
  add("sync.ckpt_mb",
      latest != nullptr ? static_cast<double>(latest->bytes.size()) / 1e6 : 0,
      "MB");

  add("obs.node_e2e_ms_mean", reg.hist("zlb_e2e_latency_seconds").mean_ms(),
      "ms");
  add("client.lat_p99_ms", facts.lat_tail_ms, "ms");
  add("client.gen_late_ms_max", facts.gen_late_ms_max, "ms");
  add("client.gen_late_share", facts.gen_late_share, "ratio");
  add("client.cpu_share", facts.client_cpu_share, "ratio");
  add("client.fail_pct", facts.fail_pct, "%");
  return m;
}

Metrics replay_layer_metrics(const Inputs& in,
                             const std::vector<chain::Block>& blocks) {
  Metrics m;
  auto add = [&m](const char* name, double value, const char* unit) {
    m.push_back({name, value, unit});
  };
  if (blocks.empty()) throw std::runtime_error("no committed blocks");

  // Consensus: the run's median block (by transaction count).
  std::vector<const chain::Block*> by_size;
  for (const auto& b : blocks) by_size.push_back(&b);
  std::nth_element(by_size.begin(), by_size.begin() + by_size.size() / 2,
                   by_size.end(), [](const auto* a, const auto* b) {
                     return a->txs.size() < b->txs.size();
                   });
  const ConsensusReplay cons = replay_consensus(*by_size[by_size.size() / 2]);
  add("consensus.signs_per_inst", cons.signs_per_inst, "count");
  add("consensus.verifies_per_inst", cons.verifies_per_inst, "count");
  add("consensus.cpu_ms_per_inst", cons.cpu_ms_per_inst, "ms");

  // Crypto: the replay's own votes, signed and verified again.
  {
    crypto::EcdsaScheme scheme;
    const std::size_t n = std::min<std::size_t>(cons.votes.size(), 1000);
    for (ReplicaId id = 0; id < 4; ++id) (void)scheme.public_key(id);
    auto t = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      const auto& v = cons.votes[i];
      (void)scheme.sign(v.id, BytesView(v.message.data(), v.message.size()));
    }
    add("crypto.ecdsa_sign_us",
        ratio(seconds_since(t) * 1e6, static_cast<double>(n)), "us");
    t = std::chrono::steady_clock::now();
    std::size_t bad = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto& v = cons.votes[i];
      if (!scheme.verify(v.id, BytesView(v.message.data(), v.message.size()),
                         BytesView(v.signature.data(), v.signature.size()))) {
        ++bad;
      }
    }
    add("crypto.ecdsa_verify_us",
        ratio(seconds_since(t) * 1e6, static_cast<double>(n)), "us");
    if (bad != 0) throw std::runtime_error("replayed vote failed to verify");
  }

  // Blockchain manager: the committed blocks, verified then applied on
  // a ledger restored from the genesis image (serial verify, as the
  // live pipeline's single commit worker does).
  std::vector<double> restores;
  std::unique_ptr<bm::BlockManager> ledger;
  for (int r = 0; r < 3; ++r) {
    double s = 0;
    ledger = restore_genesis(in, s);
    restores.push_back(s);
  }
  {
    double verify_s = 0;
    double apply_s = 0;
    std::size_t txs = 0;
    for (const auto& b : blocks) {
      auto t = std::chrono::steady_clock::now();
      const auto ok = bm::BlockManager::verify_block_signatures(b, nullptr);
      verify_s += seconds_since(t);
      t = std::chrono::steady_clock::now();
      (void)ledger->apply_verified(b, ok);
      apply_s += seconds_since(t);
      txs += b.txs.size();
    }
    add("bm.verify_us_per_tx",
        ratio(verify_s * 1e6, static_cast<double>(txs)), "us");
    add("bm.apply_us_per_tx", ratio(apply_s * 1e6, static_cast<double>(txs)),
        "us");
  }

  // Chain: gateway-side admission of the run's own transactions.
  {
    chain::Mempool pool;
    const auto t = std::chrono::steady_clock::now();
    for (const auto& payload : in.payloads) {
      Reader r(BytesView(payload.data(), payload.size()));
      const chain::Transaction tx = chain::Transaction::deserialize(r);
      (void)tx.id();
      (void)pool.try_add(tx);
    }
    add("chain.admit_us_per_tx",
        ratio(seconds_since(t) * 1e6, static_cast<double>(in.payloads.size())),
        "us");
  }

  add("sync.restore_s", median(restores), "s");
  return m;
}

}  // namespace paybench
