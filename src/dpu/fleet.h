// One rack of self-hosting DPUs under the sharded simulation (paper §2.4).
//
// Fleet is the substrate every cluster harness runs on — dpu::KvCluster,
// dpu::ReplicatedKvCluster, load::OverloadCluster and load::XdpCluster —
// and owns what they would otherwise each re-implement:
//
//   * the ParallelEngine, with the shard count clamped to one per node;
//   * the contiguous node -> shard map;
//   * id-ordered node construction: a private node clock, a net::Fabric, a
//     booted Hyperion, its ShardedRpcNode endpoint and, when traced, an
//     obs::Tracer whose origin is the node id. Endpoint registration order
//     is the cross-shard tie-break, so constructing nodes in id order makes
//     the merged (time, source, seq) order independent of the shard layout;
//   * the closed-loop client start (a layout-invariant start base and one
//     distinct start time per client);
//   * the per-node counter import behind every harness's SnapshotMetrics.
//
// Tenants keep their own per-node state beside the fleet, indexed by node
// id. Nodes share no mutable state, so results are bit-identical for every
// shard count and with threads on or off.

#ifndef HYPERION_SRC_DPU_FLEET_H_
#define HYPERION_SRC_DPU_FLEET_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/dpu/hyperion.h"
#include "src/dpu/rpc.h"
#include "src/net/fabric.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/engine.h"
#include "src/sim/parallel.h"

namespace hyperion::dpu {

class Fleet {
 public:
  // Trimmed per-node DPU: the cluster experiments care about communication
  // structure, not per-node capacity, and a rack of full-size nodes would
  // pay construction time for memory the workloads never touch.
  static constexpr uint64_t kLbasPerDevice = 32768;
  static constexpr uint64_t kDramBytes = 64ull << 20;
  static constexpr uint64_t kHbmBytes = 16ull << 20;
  static HyperionConfig NodeConfig(uint64_t dram_bytes = kDramBytes,
                                   uint64_t hbm_bytes = kHbmBytes);

  struct Node {
    uint32_t id = 0;
    sim::Engine clock;                    // private cost engine (never holds events)
    std::unique_ptr<net::Fabric> net;     // null on endpoint-only nodes
    std::unique_ptr<Hyperion> dpu;        // null on endpoint-only nodes
    std::unique_ptr<obs::Tracer> tracer;  // origin = node id; null untraced
    std::unique_ptr<ShardedRpcNode> endpoint;
  };

  // `num_shards` 0, or more than `num_nodes`, means one shard per node.
  Fleet(uint32_t num_nodes, uint32_t num_shards, bool use_threads);
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
  ~Fleet();

  uint32_t num_nodes() const { return num_nodes_; }
  uint32_t num_shards() const { return engine_->num_shards(); }
  uint32_t ShardOf(uint32_t node) const;
  sim::ParallelEngine& engine() { return *engine_; }
  sim::Engine& shard_engine(uint32_t node) { return engine_->shard(ShardOf(node)); }
  Node& node(uint32_t id) { return *nodes_[id]; }
  const Node& node(uint32_t id) const { return *nodes_[id]; }

  // Adds the next node id as a full DPU: boots it, runs `install` (the
  // tenant's services), registers its endpoint and, with `trace`, wires a
  // tracer into the DPU and the endpoint — after `install`, so set-up work
  // is never traced.
  Node& AddDpu(const HyperionConfig& config, const std::function<void(Node&)>& install,
               bool trace = false);
  // Adds the next node id as a client endpoint that serves nothing.
  Node& AddClient();
  // A second pipeline on `node`'s shard with its own server and clock.
  // Registration order counts like a node's: add it in id order.
  std::unique_ptr<ShardedRpcNode> AddEndpoint(uint32_t node, RpcServer* server,
                                              sim::Engine* clock);

  // Clients start 1 us after the slowest node clock. Boot and preload never
  // touch shard engines, so the base is layout-invariant.
  sim::SimTime StartBase() const;
  // Schedules issue(node, client) for every client of every node at its own
  // virtual time: distinct timestamps need no tie-break, so the start order
  // is layout-invariant.
  template <typename IssueFn>
  void KickClients(sim::SimTime start, uint32_t clients_per_node, IssueFn issue) {
    for (uint32_t id = 0; id < nodes_.size(); ++id) {
      for (uint32_t client = 0; client < clients_per_node; ++client) {
        shard_engine(id).ScheduleAt(start + (uint64_t{id} * clients_per_node + client) * 7,
                                    [issue, id, client] { issue(id, client); });
      }
    }
  }

  // Every node's spans in (begin, origin, id) order: the golden-trace oracle.
  std::vector<obs::SpanRecord> MergedTrace() const;
  // Every node's endpoint, RPC server and NVMe counters plus the parallel
  // engine's tallies, under stable names.
  void SnapshotMetrics(obs::MetricsRegistry* registry) const;

 private:
  Node& AddNode();

  uint32_t num_nodes_;
  std::unique_ptr<sim::ParallelEngine> engine_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace hyperion::dpu

#endif  // HYPERION_SRC_DPU_FLEET_H_
