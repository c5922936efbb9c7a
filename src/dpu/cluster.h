// Sharded multi-DPU cluster simulation (PR 3).
//
// KvCluster composes the pieces the parallel-simulation layer introduced
// into the paper's §3 picture — a rack of self-hosting DPUs serving a
// partitioned KV service — and runs it across ParallelEngine shards:
//
//   * Every node is a full Hyperion DPU (its own private cost engine, NVMe,
//     object store, RPC services) plus a population of closed-loop clients
//     colocated on the node's shard.
//   * Keys hash-partition across nodes with the same placement the
//     synchronous DistributedKvClient uses; an op whose owner is another
//     node crosses shards as a serialized RPC frame (ShardedRpcNode).
//   * The nodes form a dpu::Fleet, which maps them onto `num_shards`
//     shards in contiguous blocks. The result snapshot is bit-identical for
//     any shard count and with threads on or off — tests/cluster_test.cc
//     pins num_shards in {1, 2, 4} — because nodes share no mutable state
//     and cross-node messages merge in (time, source, seq) order.
//
// bench_cluster_scaling uses it for the netkv scaling experiment; the
// determinism regression uses the ClusterResult snapshot.

#ifndef HYPERION_SRC_DPU_CLUSTER_H_
#define HYPERION_SRC_DPU_CLUSTER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/dpu/distributed.h"
#include "src/dpu/fleet.h"
#include "src/dpu/services.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/stats.h"

namespace hyperion::dpu {

struct ClusterWorkload {
  uint32_t clients_per_node = 8;
  uint32_t ops_per_client = 32;
  uint32_t value_bytes = 256;
  uint64_t key_space = 2048;
  uint32_t write_pct = 50;  // percent of ops that are puts (YCSB-A at 50)
  uint64_t seed = 21;
};

struct ClusterOptions {
  uint32_t num_nodes = 4;
  // 0 defaults to one shard per node (full spatial parallelism).
  uint32_t num_shards = 0;
  bool use_threads = true;
  storage::KvBackend backend = storage::KvBackend::kBTree;
  ClusterWorkload workload;
  // Distributed tracing: every node gets an obs::Tracer whose origin is the
  // node id (a logical identity — never the shard index), wired into the
  // node's DPU substrates and its shard endpoint. MergedTrace() after Run()
  // is bit-identical across shard layouts and threading modes; virtual time
  // is unaffected either way (trace context rides frames as unmodelled
  // metadata).
  bool trace = false;
};

// Everything observable a run produces, in deterministic form: equality
// across two runs (or two shard layouts) means the traces matched.
struct ClusterNodeResult {
  sim::SimTime node_clock_ns = 0;  // the node pipeline's final virtual time
  uint64_t rpcs_served = 0;
  uint64_t ok_ops = 0;  // ops issued by this node's clients
  uint64_t failed_ops = 0;

  bool operator==(const ClusterNodeResult&) const = default;
};

struct ClusterResult {
  uint64_t ok_ops = 0;
  uint64_t failed_ops = 0;
  uint64_t events_run = 0;      // across all shard engines
  uint64_t messages = 0;        // channel messages (layout-invariant)
  // Clients start after the slowest node finishes boot + preload (start_ns),
  // so the measured window excludes the ~2.8 s virtual boot sequence;
  // makespan_ns is last client completion minus start_ns.
  sim::SimTime start_ns = 0;
  sim::SimTime makespan_ns = 0;
  // Client-observed latency merged across nodes (Histogram::Merge).
  uint64_t latency_count = 0;
  uint64_t latency_p50_ns = 0;
  uint64_t latency_p99_ns = 0;
  uint64_t latency_max_ns = 0;
  std::vector<ClusterNodeResult> nodes;

  bool operator==(const ClusterResult&) const = default;
};

class KvCluster {
 public:
  explicit KvCluster(const ClusterOptions& options);
  KvCluster(const KvCluster&) = delete;
  KvCluster& operator=(const KvCluster&) = delete;
  ~KvCluster();

  uint32_t num_nodes() const { return fleet_.num_nodes(); }
  uint32_t num_shards() const { return fleet_.num_shards(); }
  uint32_t ShardOf(uint32_t node) const { return fleet_.ShardOf(node); }

  sim::ParallelEngine& engine() { return fleet_.engine(); }

  // Runs the closed-loop workload to quiescence and snapshots the result.
  // One-shot: construct a fresh cluster per run.
  ClusterResult Run();

  // Merged client-observed latency across nodes (valid after Run()).
  const sim::Histogram& merged_latency() const { return merged_latency_; }

  // Per-node tracer (null unless options.trace) and the deterministic
  // cross-node merge — (begin, origin, id) order, the golden-trace oracle.
  const obs::Tracer* tracer(uint32_t node) const { return fleet_.node(node).tracer.get(); }
  std::vector<obs::SpanRecord> MergedTrace() const { return fleet_.MergedTrace(); }

  // Cluster-wide metrics: per-node RPC/endpoint counters and the parallel
  // engine's tallies imported into `registry` under stable names.
  void SnapshotMetrics(obs::MetricsRegistry* registry) const { fleet_.SnapshotMetrics(registry); }

 private:
  struct Client {
    uint32_t remaining = 0;
  };

  // The KV tenant on one fleet node: its services, its sharded KV client
  // and the colocated client population.
  struct Node {
    Node(uint64_t seed, uint32_t clients, uint32_t ops_per_client)
        : rng(seed), clients(clients, Client{ops_per_client}) {}
    std::unique_ptr<HyperionServices> services;
    std::unique_ptr<ShardedKvClient> kv;
    Rng rng;
    sim::Histogram latency;
    std::vector<Client> clients;
    uint64_t ok_ops = 0;
    uint64_t failed_ops = 0;
    sim::SimTime last_completion = 0;
  };

  void Preload();
  void IssueOp(uint32_t id, uint32_t client);

  ClusterOptions options_;
  Bytes value_;  // shared value pattern for puts
  Fleet fleet_;
  std::vector<Node> nodes_;  // indexed by node id
  sim::Histogram merged_latency_;
  bool ran_ = false;
};

}  // namespace hyperion::dpu

#endif  // HYPERION_SRC_DPU_CLUSTER_H_
