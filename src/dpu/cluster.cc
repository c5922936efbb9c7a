#include "src/dpu/cluster.h"

#include <algorithm>

#include "src/common/check.h"

namespace hyperion::dpu {

KvCluster::KvCluster(const ClusterOptions& options)
    : options_(options),
      fleet_(options.num_nodes, options.num_shards, options.use_threads) {
  CHECK_GT(options_.workload.value_bytes, 0u);
  CHECK_GT(options_.workload.key_space, 0u);

  value_.resize(options_.workload.value_bytes);
  for (size_t i = 0; i < value_.size(); ++i) {
    value_[i] = static_cast<uint8_t>(i * 31 + 7);
  }

  nodes_.reserve(options_.num_nodes);
  std::vector<ShardedRpcNode*> partitions;
  for (uint32_t id = 0; id < options_.num_nodes; ++id) {
    Node& node = nodes_.emplace_back(options_.workload.seed ^ (0x9e3779b97f4a7c15ULL * (id + 1)),
                                     options_.workload.clients_per_node,
                                     options_.workload.ops_per_client);
    const Fleet::Node& booted = fleet_.AddDpu(
        Fleet::NodeConfig(),
        [&](Fleet::Node& dpu_node) {
          auto installed = HyperionServices::Install(dpu_node.dpu.get(), options_.backend);
          CHECK(installed.ok());
          node.services = std::move(*installed);
        },
        options_.trace);
    partitions.push_back(booted.endpoint.get());
  }
  for (uint32_t id = 0; id < options_.num_nodes; ++id) {
    nodes_[id].kv = std::make_unique<ShardedKvClient>(fleet_.node(id).endpoint.get(), partitions);
  }
}

KvCluster::~KvCluster() = default;

void KvCluster::Preload() {
  // Load every key directly into its owner's store (no virtual wire): the
  // measured phase then runs read-mostly traffic against a warm cluster.
  const ByteSpan value(value_.data(), value_.size());
  for (uint64_t key = 0; key < options_.workload.key_space; ++key) {
    Node& owner = nodes_[KvPartitionOf(key, nodes_.size())];
    CHECK(owner.services->kv().Put(key, value).ok());
  }
}

void KvCluster::IssueOp(uint32_t id, uint32_t client) {
  Node& node = nodes_[id];
  Client& state = node.clients[client];
  CHECK_GT(state.remaining, 0u);
  --state.remaining;
  const ClusterWorkload& workload = options_.workload;
  const uint64_t key = node.rng.Uniform(workload.key_space);
  const bool write = node.rng.Uniform(100) < workload.write_pct;
  sim::Engine& shard = fleet_.shard_engine(id);
  const sim::SimTime issued = shard.Now();
  // Closed loop: the completion records the op and immediately issues the
  // client's next one, so per-client concurrency stays at 1 and offered
  // load scales with clients_per_node.
  auto finish = [this, &node, &shard, id, client, issued](bool ok) {
    const sim::SimTime now = shard.Now();
    node.latency.Record(now - issued);
    if (ok) {
      ++node.ok_ops;
    } else {
      ++node.failed_ops;
    }
    node.last_completion = std::max(node.last_completion, now);
    if (node.clients[client].remaining > 0) {
      IssueOp(id, client);
    }
  };
  if (write) {
    node.kv->PutAsync(key, ByteSpan(value_.data(), value_.size()),
                      [finish](Status status) { finish(status.ok()); });
  } else {
    node.kv->GetAsync(key, [finish](Result<Buffer> result) { finish(result.ok()); });
  }
}

ClusterResult KvCluster::Run() {
  CHECK(!ran_);
  ran_ = true;
  Preload();
  // Clients start once the slowest node has drained boot + preload from its
  // pipeline — latency then measures wire + service, not boot backlog.
  const sim::SimTime start_base = fleet_.StartBase();
  if (options_.workload.ops_per_client > 0) {
    fleet_.KickClients(start_base, options_.workload.clients_per_node,
                       [this](uint32_t id, uint32_t client) { IssueOp(id, client); });
  }
  sim::ParallelEngine& engine = fleet_.engine();
  engine.Run();

  ClusterResult result;
  result.events_run = engine.stats().events_run;
  result.messages = engine.stats().messages;
  result.start_ns = start_base;
  result.nodes.reserve(nodes_.size());
  for (uint32_t id = 0; id < nodes_.size(); ++id) {
    const Node& node = nodes_[id];
    const Fleet::Node& fleet_node = fleet_.node(id);
    result.ok_ops += node.ok_ops;
    result.failed_ops += node.failed_ops;
    if (node.last_completion > start_base) {
      result.makespan_ns = std::max(result.makespan_ns, node.last_completion - start_base);
    }
    merged_latency_.Merge(node.latency);
    ClusterNodeResult per_node;
    per_node.node_clock_ns = fleet_node.clock.Now();
    per_node.rpcs_served = fleet_node.endpoint->counters().Get("rpc_async_served");
    per_node.ok_ops = node.ok_ops;
    per_node.failed_ops = node.failed_ops;
    result.nodes.push_back(per_node);
  }
  result.latency_count = merged_latency_.count();
  result.latency_p50_ns = merged_latency_.P50();
  result.latency_p99_ns = merged_latency_.P99();
  result.latency_max_ns = merged_latency_.max();
  return result;
}

}  // namespace hyperion::dpu
