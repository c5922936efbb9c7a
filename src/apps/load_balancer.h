// Stateful L4 load balancer with flash spill (paper §2.4, citing Tiara
// [169]: FPGA load balancers have flow-proportional state that outgrows
// on-chip memory; Tiara spills it to x86 servers — Hyperion spills to its
// own attached SSDs).
//
// New flows are placed by consistent hashing over the backend ring (so
// backend changes only remap a 1/N slice); established flows are pinned by
// a flow table. The table's hot part lives in the DPU DRAM tier with a
// bounded capacity; on overflow the LRU entry spills to a durable hash
// index on flash, from which it is promoted back on access. This keeps
// *every* established flow sticky across backend reconfiguration, at flash
// (not remote-server) cost for the cold tail.

#ifndef HYPERION_SRC_APPS_LOAD_BALANCER_H_
#define HYPERION_SRC_APPS_LOAD_BALANCER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "src/apps/packet.h"
#include "src/common/flat_index.h"
#include "src/common/result.h"
#include "src/dpu/hyperion.h"
#include "src/storage/hash_index.h"

namespace hyperion::apps {

struct Backend {
  uint32_t ip = 0;
  uint16_t port = 0;

  friend bool operator==(const Backend&, const Backend&) = default;
};

struct LoadBalancerStats {
  uint64_t packets = 0;
  uint64_t new_flows = 0;
  uint64_t resident_hits = 0;
  uint64_t spills = 0;
  uint64_t spill_hits = 0;   // served from the flash tier
  uint64_t promotions = 0;
};

class LoadBalancer {
 public:
  // `resident_capacity` bounds the DRAM-tier flow table. `spill_buckets`
  // sizes the flash tier's fixed hash directory: leave the default for
  // middleware-scale tests, raise it when the spill tier must absorb
  // millions of flows without deep overflow chains (the PR 8 ingress
  // pipeline passes ~2 * expected_flows / 100).
  static Result<std::unique_ptr<LoadBalancer>> Create(dpu::Hyperion* dpu,
                                                      std::vector<Backend> backends,
                                                      uint32_t resident_capacity,
                                                      uint32_t spill_buckets = 256);

  // Routes one packet; FIN/RST tear the flow state down.
  Result<Backend> Route(const Packet& packet);

  Status AddBackend(Backend backend);
  Status RemoveBackend(Backend backend);

  const LoadBalancerStats& stats() const { return stats_; }
  size_t ResidentFlows() const { return index_.size(); }
  // Flash-tier directory health (chain depth, occupancy).
  const storage::HashIndex& spill() const { return *spill_; }

 private:
  LoadBalancer(dpu::Hyperion* dpu, std::vector<Backend> backends, uint32_t resident_capacity)
      : dpu_(dpu), backends_(std::move(backends)), resident_capacity_(resident_capacity) {}

  void RebuildRing();
  Backend PickByConsistentHash(const FlowKey& key) const;
  uint32_t FindResident(const FlowKey& key) const;
  Status InsertResident(const FlowKey& key, const Backend& backend);
  Status SpillOne();
  // LRU list surgery on node ids (head_ = most recent, tail_ = least).
  void Unlink(uint32_t node);
  void PushFront(uint32_t node);
  // Drops a node that is already unlinked from the LRU list.
  void Release(uint32_t node);

  dpu::Hyperion* dpu_;
  std::vector<Backend> backends_;
  uint32_t resident_capacity_;

  // Consistent-hash ring: point -> backend index (kVirtualNodes per backend).
  static constexpr uint32_t kVirtualNodes = 256;
  std::map<uint64_t, size_t> ring_;

  // Resident flow table: a slab of nodes linked in LRU order by index,
  // behind an open-addressed index. Both grow with the resident flows; the
  // slab grows in fixed blocks, so growing never copies it.
  static constexpr uint32_t kNil = 0xffffffffu;
  static constexpr uint32_t kNodesPerBlock = 4096;
  struct ResidentNode {
    FlowKey key;
    Backend backend;
    uint32_t newer = kNil;
    uint32_t older = kNil;
  };
  ResidentNode& Node(uint32_t id) {
    return node_blocks_[id / kNodesPerBlock][id % kNodesPerBlock];
  }
  const ResidentNode& Node(uint32_t id) const {
    return node_blocks_[id / kNodesPerBlock][id % kNodesPerBlock];
  }
  std::vector<std::unique_ptr<ResidentNode[]>> node_blocks_;
  uint32_t node_count_ = 0;  // ids handed out so far
  std::vector<uint32_t> free_nodes_;
  FlatIndex index_;  // flow key -> node id
  uint32_t head_ = kNil;
  uint32_t tail_ = kNil;

  std::unique_ptr<storage::HashIndex> spill_;  // durable flash tier
  LoadBalancerStats stats_;
};

}  // namespace hyperion::apps

#endif  // HYPERION_SRC_APPS_LOAD_BALANCER_H_
