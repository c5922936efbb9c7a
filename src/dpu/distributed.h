// Distributed CPU-free applications over multiple Hyperion DPUs (paper
// §2.4's C1 class and discussion question 3: "How should one build CPU-free
// distributed applications ... of such standalone, passively disaggregated
// DPUs?").
//
// The clients follow the passive-disaggregation doctrine: the *client*
// holds the smartness (partitioning, failure fallback) and the DPUs serve
// only fast datapath requests.
//
//   DistributedKvClient  client-driven request routing (MICA [111] style):
//                        keys hash-partition across N DPUs; every op is a
//                        single RPC to the owning partition.
//   ShardedKvClient      its asynchronous twin on the sharded simulation.
//
// Fault-tolerant replication lives in src/dpu/replication.h (Corfu chain
// replication with client-driven failover).

#ifndef HYPERION_SRC_DPU_DISTRIBUTED_H_
#define HYPERION_SRC_DPU_DISTRIBUTED_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/dpu/rpc.h"

namespace hyperion::dpu {

// Hash-partition placement shared by the synchronous and sharded clients:
// both must route a key to the same owner or the cluster experiments would
// disagree with the single-engine ones.
size_t KvPartitionOf(uint64_t key, size_t partitions);

class DistributedKvClient {
 public:
  // One RpcClient per DPU partition. Ownership stays with the caller.
  explicit DistributedKvClient(std::vector<RpcClient*> partitions)
      : partitions_(std::move(partitions)) {}

  Status Put(uint64_t key, ByteSpan value);
  // The returned Buffer shares the RPC response's backing bytes.
  Result<Buffer> Get(uint64_t key);
  Status Delete(uint64_t key);

  // The partition that owns `key` (exposed for tests/placement debugging).
  size_t PartitionOf(uint64_t key) const;
  size_t PartitionCount() const { return partitions_.size(); }

 private:
  Result<RpcResponse> CallOwner(uint64_t key, uint16_t opcode, Bytes payload);

  std::vector<RpcClient*> partitions_;
};

// Sharded-cluster twin of DistributedKvClient (PR 3): the same client-driven
// MICA-style partitioning, but asynchronous and shard-aware — each op is one
// ShardedRpcNode::CallAsync to the owning partition, so an op whose owner
// lives on another shard becomes a cross-shard frame message and ops to
// different partitions overlap in virtual time. Completions run on the
// calling node's shard.
class ShardedKvClient {
 public:
  // `self` is the calling node's endpoint; `partitions[i]` serves partition
  // i. Ownership stays with the caller; endpoints must outlive the client
  // and every in-flight op.
  ShardedKvClient(ShardedRpcNode* self, std::vector<ShardedRpcNode*> partitions)
      : self_(self), partitions_(std::move(partitions)) {}

  void PutAsync(uint64_t key, ByteSpan value, std::function<void(Status)> done);
  // The Buffer handed to `done` shares the response frame's backing bytes.
  void GetAsync(uint64_t key, std::function<void(Result<Buffer>)> done);
  void DeleteAsync(uint64_t key, std::function<void(Status)> done);

  size_t PartitionOf(uint64_t key) const { return KvPartitionOf(key, partitions_.size()); }
  size_t PartitionCount() const { return partitions_.size(); }

 private:
  void CallOwnerAsync(uint64_t key, uint16_t opcode, Bytes payload,
                      std::function<void(Result<RpcResponse>)> done);

  ShardedRpcNode* self_;
  std::vector<ShardedRpcNode*> partitions_;
};

}  // namespace hyperion::dpu

#endif  // HYPERION_SRC_DPU_DISTRIBUTED_H_
