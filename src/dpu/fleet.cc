#include "src/dpu/fleet.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/obs/export.h"

namespace hyperion::dpu {

namespace {

// Every node and every cross-node frame uses the default wire model.
const net::FabricParams kWire;

}  // namespace

HyperionConfig Fleet::NodeConfig() {
  HyperionConfig config;
  config.nvme_devices = 1;
  config.lbas_per_device = kLbasPerDevice;
  config.dram_bytes = kDramBytes;
  config.hbm_bytes = kHbmBytes;
  config.link_gbps = kWire.default_link_gbps;
  return config;
}

Fleet::Fleet(uint32_t num_nodes, uint32_t num_shards, bool use_threads)
    : num_nodes_(num_nodes) {
  CHECK_GT(num_nodes, 0u);
  sim::ParallelEngineOptions options;
  options.num_shards = num_shards == 0 || num_shards > num_nodes ? num_nodes : num_shards;
  options.use_threads = use_threads;
  engine_ = std::make_unique<sim::ParallelEngine>(options);
  nodes_.reserve(num_nodes);
}

Fleet::~Fleet() = default;

uint32_t Fleet::ShardOf(uint32_t node) const {
  // Contiguous blocks: halving the shard count merges neighbouring shards
  // without reordering the nodes inside them.
  return static_cast<uint32_t>(uint64_t{node} * engine_->num_shards() / num_nodes_);
}

Fleet::Node& Fleet::AddNode() {
  CHECK_LT(nodes_.size(), num_nodes_);
  auto& node = nodes_.emplace_back(std::make_unique<Node>());
  node->id = static_cast<uint32_t>(nodes_.size() - 1);
  return *node;
}

Fleet::Node& Fleet::AddDpu(const HyperionConfig& config,
                           const std::function<void(Node&)>& install, bool trace) {
  Node& node = AddNode();
  node.net = std::make_unique<net::Fabric>(&node.clock, kWire);
  node.dpu = std::make_unique<Hyperion>(&node.clock, node.net.get(), config);
  CHECK(node.dpu->Boot().ok());
  install(node);
  node.endpoint = AddEndpoint(node.id, &node.dpu->rpc(), &node.clock);
  if (trace) {
    node.tracer = std::make_unique<obs::Tracer>(node.id);
    node.dpu->InstallTracer(node.tracer.get());
    node.endpoint->SetTracer(node.tracer.get());
  }
  return node;
}

Fleet::Node& Fleet::AddClient() {
  Node& node = AddNode();
  node.endpoint = AddEndpoint(node.id, /*server=*/nullptr, &node.clock);
  return node;
}

std::unique_ptr<ShardedRpcNode> Fleet::AddEndpoint(uint32_t node, RpcServer* server,
                                                   sim::Engine* clock) {
  return std::make_unique<ShardedRpcNode>(engine_.get(), ShardOf(node), server, clock, kWire,
                                          kWire.default_link_gbps);
}

sim::SimTime Fleet::StartBase() const {
  sim::SimTime base = 0;
  for (const auto& node : nodes_) {
    base = std::max(base, node->clock.Now());
  }
  return base + 1000;
}

std::vector<obs::SpanRecord> Fleet::MergedTrace() const {
  std::vector<const obs::Tracer*> tracers;
  for (const auto& node : nodes_) {
    if (node->tracer != nullptr) {
      tracers.push_back(node->tracer.get());
    }
  }
  return obs::Tracer::Merged(tracers);
}

void Fleet::SnapshotMetrics(obs::MetricsRegistry* registry) const {
  for (const auto& node : nodes_) {
    registry->ImportCounters(obs::Subsystem::kRpc, node->endpoint->counters());
    if (node->dpu != nullptr) {
      registry->ImportCounters(obs::Subsystem::kRpc, node->dpu->rpc().counters());
      registry->ImportCounters(obs::Subsystem::kNvme, node->dpu->nvme().counters());
    }
  }
  obs::ImportParallelStats(registry, engine_->stats());
}

}  // namespace hyperion::dpu
