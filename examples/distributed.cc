// Distributed CPU-free applications over a rack of Hyperion DPUs (paper
// §2.4's "mixed distributed workloads" and discussion question 3).
//
// Three DPUs share a fabric with one client. The client holds all the
// smartness (passive disaggregation): it hash-partitions a KV space across
// the rack. A Corfu chain-replicated KV group then loses its head mid-run
// and fails over without any coordination service: the clients seal the
// chain, repair its tail and lose no acknowledged write.
//
//   ./build/examples/distributed

#include <cstdio>

#include "src/dpu/distributed.h"
#include "src/dpu/hyperion.h"
#include "src/dpu/replication.h"
#include "src/dpu/services.h"

using namespace hyperion;  // NOLINT

int main() {
  sim::Engine engine;
  net::Fabric fabric(&engine);
  const net::HostId client = fabric.AddHost("client");
  Rng rng(3);
  auto transport = net::MakeTransport(net::TransportKind::kRdma, &fabric, &rng);

  std::vector<std::unique_ptr<dpu::Hyperion>> dpus;
  std::vector<std::unique_ptr<dpu::HyperionServices>> services;
  std::vector<std::unique_ptr<dpu::RpcClient>> rpcs;
  for (int d = 0; d < 3; ++d) {
    dpus.push_back(std::make_unique<dpu::Hyperion>(&engine, &fabric));
    CHECK_OK(dpus.back()->Boot());
    auto installed = dpu::HyperionServices::Install(dpus.back().get());
    CHECK_OK(installed.status());
    services.push_back(std::move(*installed));
    rpcs.push_back(std::make_unique<dpu::RpcClient>(transport.get(), client,
                                                    dpus.back()->host_id(),
                                                    &dpus.back()->rpc()));
  }
  std::printf("rack up: 3 CPU-free DPUs booted, %zu W of CPUs installed\n\n", size_t{0});

  // ---- hash-partitioned KV ---------------------------------------------------
  std::vector<dpu::RpcClient*> rack = {rpcs[0].get(), rpcs[1].get(), rpcs[2].get()};
  dpu::DistributedKvClient kv(rack);
  int per_partition[3] = {0, 0, 0};
  for (uint64_t k = 0; k < 600; ++k) {
    Bytes value;
    PutU64(value, k * k);
    CHECK_OK(kv.Put(k, ByteSpan(value.data(), value.size())));
    ++per_partition[kv.PartitionOf(k)];
  }
  std::printf("distributed KV: 600 keys client-routed to partitions [%d, %d, %d]\n",
              per_partition[0], per_partition[1], per_partition[2]);
  auto sample = kv.Get(123);
  CHECK_OK(sample.status());
  std::printf("  get(123) -> %llu (from DPU %zu)\n\n",
              static_cast<unsigned long long>(GetU64(*sample, 0)), kv.PartitionOf(123));

  // ---- chain-replicated KV with a failover -------------------------------------
  dpu::RepClusterOptions rep;
  rep.groups = 1;
  rep.replicas_per_group = 3;
  rep.workload.clients_per_node = 2;
  rep.workload.ops_per_client = 8;
  rep.workload.key_space = 48;
  rep.workload.seed = 33;
  rep.kill_node = 0;  // the chain head, which is also the sequencer
  rep.kill_after_ns = 60 * sim::kMicrosecond;
  dpu::ReplicatedKvCluster replicated(rep);
  const dpu::RepClusterResult result = replicated.Run();
  const dpu::RepAudit audit = replicated.AuditAckedWrites();
  CHECK(audit.ok());
  std::printf("chain-replicated KV: 1 group x 3 replicas, head killed 60 us into the run\n");
  std::printf("  %llu ops acked, %llu failed, %llu client-driven failovers\n",
              static_cast<unsigned long long>(result.ok_puts + result.ok_gets),
              static_cast<unsigned long long>(result.failed_ops),
              static_cast<unsigned long long>(result.failovers));
  std::printf("  audit: all %llu acked writes present on every live replica\n",
              static_cast<unsigned long long>(audit.acked));

  std::printf("\nClients carry the distribution logic; DPUs only serve the fast path —\n"
              "the passive-disaggregation division of labor the paper argues for.\n");
  return 0;
}
