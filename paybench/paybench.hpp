// Shared types of the live payment benchmark (paybench.cpp drives the
// cluster; layers.cpp derives the per-layer metrics of a traced run).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "chain/block.hpp"
#include "chain/tx.hpp"
#include "net/live_node.hpp"

namespace paybench {

using namespace zlb;

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
/// Printed in insertion order.
using Metrics = std::vector<Metric>;

/// Everything generated from the seed before the clock starts.
struct Inputs {
  /// Watermark of the genesis checkpoint every node restores from.
  InstanceId watermark = 0;
  std::string genesis_path;
  std::vector<chain::Transaction> txs;  ///< send order
  std::vector<chain::TxId> ids;
  std::vector<Bytes> payloads;  ///< serialized txs (gateway frame bodies)
  std::vector<Bytes> frames;    ///< length-prefixed gateway frames
  std::vector<std::size_t> target;   ///< gateway (node) per send
  std::vector<std::int64_t> due_ns;  ///< schedule, relative to the start
  std::vector<chain::OutPoint> spent;  ///< the genesis coin each tx spends
  std::int64_t interval_ns = 0;
};

/// What node_layer_metrics needs besides the nodes: the pass's own
/// figures and the client-side (C) ones from the generator and sampler.
struct PassFacts {
  std::size_t committed = 0;
  double run_s = 0;  ///< node lifetime: cluster start -> stop
  std::vector<double> ack_ms;  ///< frame sent -> gateway ACK, per answer
  double lat_tail_ms = 0;
  double gen_late_ms_max = 0;
  double gen_late_share = 0;
  double client_cpu_share = 0;
  double fail_pct = 0;
};

/// Sum over `nodes` of counter `name` across every series carrying all
/// of `labels`. Only valid once the nodes' run() returned (the registry
/// also renders loop-thread callbacks).
std::uint64_t counter_total(const std::vector<net::LiveNode*>& nodes,
                            const std::string& name,
                            const obs::LabelSet& labels = {});

/// Decided instances and slots over the nodes' decisions() (restored
/// history excluded).
struct DecisionCounts {
  double insts_per_node = 0;
  double slots = 0;       ///< decided slots, all nodes
  double lost_slots = 0;  ///< of which decided 0
};
DecisionCounts count_decisions(const std::vector<net::LiveNode*>& nodes);

/// R and S sources, summed over the (stopped) nodes.
Metrics node_layer_metrics(const std::vector<net::LiveNode*>& nodes,
                           const PassFacts& facts);

/// P sources: the run's own inputs and committed blocks replayed
/// through each layer's public functions, timed by the benchmark.
Metrics replay_layer_metrics(const Inputs& inputs,
                             const std::vector<chain::Block>& blocks);

/// The committed blocks of a stopped node at or above `from`, in
/// instance order.
std::vector<chain::Block> committed_blocks(const net::LiveNode& node,
                                           InstanceId from);

}  // namespace paybench
