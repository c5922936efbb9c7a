#include "src/apps/load_balancer.h"

#include <algorithm>
#include <array>

#include "src/common/check.h"

namespace hyperion::apps {

namespace {
constexpr uint64_t kSpillIndexId = 0x1B;

uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

uint64_t RingHash(uint32_t ip, uint16_t port, uint32_t replica) {
  Bytes bytes;
  PutU32(bytes, ip);
  PutU16(bytes, port);
  PutU32(bytes, replica);
  return Mix64(Fnv1a64(ByteSpan(bytes.data(), bytes.size())));
}

// Resident-index hash: any good mix of the five fields will do (placement
// uses FlowKey::Hash, not this).
uint64_t IndexHash(const FlowKey& key) {
  const uint64_t ips = (uint64_t{key.src_ip} << 32) | key.dst_ip;
  const uint64_t rest =
      (uint64_t{key.src_port} << 24) | (uint64_t{key.dst_port} << 8) | key.protocol;
  return Mix64(ips ^ Mix64(rest));
}

// The spill tier's 6-byte value.
constexpr size_t kBackendBytes = 6;

std::array<uint8_t, kBackendBytes> BackendBytes(const Backend& backend) {
  std::array<uint8_t, kBackendBytes> out;
  for (size_t i = 0; i < 4; ++i) {
    out[i] = static_cast<uint8_t>(backend.ip >> (8 * i));
  }
  out[4] = static_cast<uint8_t>(backend.port);
  out[5] = static_cast<uint8_t>(backend.port >> 8);
  return out;
}

Backend BackendFromBytes(ByteSpan data) {
  Backend backend;
  backend.ip = GetU32(data, 0);
  backend.port = GetU16(data, 4);
  return backend;
}
}  // namespace

Result<std::unique_ptr<LoadBalancer>> LoadBalancer::Create(dpu::Hyperion* dpu,
                                                           std::vector<Backend> backends,
                                                           uint32_t resident_capacity,
                                                           uint32_t spill_buckets) {
  if (!dpu->booted()) {
    return Unavailable("boot the DPU first");
  }
  if (backends.empty()) {
    return InvalidArgument("need at least one backend");
  }
  if (resident_capacity == 0) {
    return InvalidArgument("resident capacity must be positive");
  }
  if (spill_buckets == 0) {
    return InvalidArgument("spill tier needs at least one bucket");
  }
  auto lb = std::unique_ptr<LoadBalancer>(
      new LoadBalancer(dpu, std::move(backends), resident_capacity));
  lb->RebuildRing();
  // Spill tier: value = 6-byte backend; fixed 13-byte FlowKey keys.
  ASSIGN_OR_RETURN(storage::HashIndex spill,
                   storage::HashIndex::Create(&dpu->store(), kSpillIndexId, spill_buckets));
  lb->spill_ = std::make_unique<storage::HashIndex>(std::move(spill));
  return lb;
}

void LoadBalancer::RebuildRing() {
  ring_.clear();
  for (size_t b = 0; b < backends_.size(); ++b) {
    for (uint32_t v = 0; v < kVirtualNodes; ++v) {
      ring_[RingHash(backends_[b].ip, backends_[b].port, v)] = b;
    }
  }
}

Backend LoadBalancer::PickByConsistentHash(const FlowKey& key) const {
  CHECK(!ring_.empty());
  auto it = ring_.lower_bound(Mix64(key.Hash()));
  if (it == ring_.end()) {
    it = ring_.begin();  // wrap
  }
  return backends_[it->second];
}

uint32_t LoadBalancer::FindResident(const FlowKey& key) const {
  return index_.Find(IndexHash(key), [&](uint32_t node) { return Node(node).key == key; });
}

void LoadBalancer::Unlink(uint32_t node) {
  ResidentNode& n = Node(node);
  (n.newer == kNil ? head_ : Node(n.newer).older) = n.older;
  (n.older == kNil ? tail_ : Node(n.older).newer) = n.newer;
  n.newer = n.older = kNil;
}

void LoadBalancer::PushFront(uint32_t node) {
  ResidentNode& n = Node(node);
  n.newer = kNil;
  n.older = head_;
  (head_ == kNil ? tail_ : Node(head_).newer) = node;
  head_ = node;
}

void LoadBalancer::Release(uint32_t node) {
  const FlowKey& key = Node(node).key;
  index_.Erase(IndexHash(key), [&](uint32_t held) { return held == node; });
  free_nodes_.push_back(node);
}

Status LoadBalancer::SpillOne() {
  CHECK_NE(tail_, kNil);
  const uint32_t victim = tail_;
  const FlowKey::Wire key_bytes = Node(victim).key.Pack();
  const auto value = BackendBytes(Node(victim).backend);
  RETURN_IF_ERROR(spill_->Put(ByteSpan(key_bytes.data(), key_bytes.size()),
                              ByteSpan(value.data(), value.size())));
  Unlink(victim);
  Release(victim);
  ++stats_.spills;
  return Status::Ok();
}

Status LoadBalancer::InsertResident(const FlowKey& key, const Backend& backend) {
  while (index_.size() >= resident_capacity_) {
    RETURN_IF_ERROR(SpillOne());
  }
  uint32_t node;
  if (!free_nodes_.empty()) {
    node = free_nodes_.back();
    free_nodes_.pop_back();
  } else {
    if (node_count_ % kNodesPerBlock == 0) {
      node_blocks_.push_back(std::make_unique<ResidentNode[]>(kNodesPerBlock));
    }
    node = node_count_++;
  }
  Node(node).key = key;
  Node(node).backend = backend;
  PushFront(node);
  index_.Insert(IndexHash(key), node, [this](uint32_t held) {
    return IndexHash(Node(held).key);
  });
  return Status::Ok();
}

Result<Backend> LoadBalancer::Route(const Packet& packet) {
  ++stats_.packets;
  const FlowKey& key = packet.flow;
  const bool teardown = (packet.tcp_flags & (kTcpFin | kTcpRst)) != 0;

  const uint32_t node = FindResident(key);
  if (node != FlatIndex::kNone) {
    ++stats_.resident_hits;
    const Backend backend = Node(node).backend;
    // LRU touch.
    Unlink(node);
    if (teardown) {
      Release(node);
    } else {
      PushFront(node);
    }
    return backend;
  }

  // Flash tier probe. A pure SYN is a brand-new connection: it cannot have
  // been spilled, so skip the flash read and go straight to placement.
  const bool fresh_syn = (packet.tcp_flags & kTcpSyn) != 0 && !teardown;
  if (!fresh_syn) {
    const FlowKey::Wire key_bytes = key.Pack();
    const ByteSpan spill_key(key_bytes.data(), key_bytes.size());
    Result<Bytes> spilled = spill_->Get(spill_key);
    if (spilled.ok()) {
      ++stats_.spill_hits;
      const Backend backend = BackendFromBytes(ByteSpan(spilled->data(), spilled->size()));
      RETURN_IF_ERROR(spill_->Delete(spill_key));
      if (!teardown) {
        // Promote back to DRAM.
        RETURN_IF_ERROR(InsertResident(key, backend));
        ++stats_.promotions;
      }
      return backend;
    }
    if (spilled.status().code() != StatusCode::kNotFound) {
      return spilled.status();
    }
  }

  // New flow: consistent hash placement; SYN-less packets of unknown flows
  // still get a deterministic backend (ring), they just are not pinned.
  const Backend backend = PickByConsistentHash(key);
  if (!teardown) {
    ++stats_.new_flows;
    RETURN_IF_ERROR(InsertResident(key, backend));
  }
  return backend;
}

Status LoadBalancer::AddBackend(Backend backend) {
  for (const Backend& b : backends_) {
    if (b == backend) {
      return AlreadyExists("backend already registered");
    }
  }
  backends_.push_back(backend);
  RebuildRing();
  return Status::Ok();
}

Status LoadBalancer::RemoveBackend(Backend backend) {
  auto it = std::find(backends_.begin(), backends_.end(), backend);
  if (it == backends_.end()) {
    return NotFound("no such backend");
  }
  backends_.erase(it);
  if (backends_.empty()) {
    backends_.push_back(backend);  // restore: cannot run with zero backends
    return InvalidArgument("cannot remove the last backend");
  }
  RebuildRing();
  return Status::Ok();
}

}  // namespace hyperion::apps
