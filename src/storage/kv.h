// KV-SSD facade (paper §2: storage API menu "NVMoF, KV, ZNS"; §2.4:
// network-attached SSDs exporting "trees, lookup-tables").
//
// One key-value interface over a pluggable index backend, so workloads can
// choose an ordered (B+ tree) or a point-lookup (hash) layout without
// changing call sites. The write-optimized layout is the LsmEngine on ZNS,
// served beside this store as ServiceId::kLsmKv (dpu/services.h); E9 runs
// its YCSB mixes across all three. Keys are u64 (KV-SSD style fixed keys); values are
// byte strings of any size: small values inline in the index, large ones
// spill into their own durable segments with a reference in the index (the
// classic KV-SSD value-log split). The object store's segment table owns
// spill state: a key has a spilled value exactly when KvValueSegment is
// mapped, so a put learns it from one translation instead of an index walk,
// and a same-size overwrite rewrites the segment in place without touching
// the index.

#ifndef HYPERION_SRC_STORAGE_KV_H_
#define HYPERION_SRC_STORAGE_KV_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/buffer.h"
#include "src/common/result.h"
#include "src/mem/object_store.h"
#include "src/storage/bptree.h"
#include "src/storage/hash_index.h"

namespace hyperion::storage {

// The values seed store ids and print as test parameters, so they stay fixed.
enum class KvBackend { kBTree = 0, kHash = 2 };

std::string_view KvBackendName(KvBackend backend);

// Segment id of the spilled value of `key` in store `store_id`.
mem::SegmentId KvValueSegment(uint64_t store_id, uint64_t key);

class KvStore {
 public:
  // Values above this spill (kept under every backend's inline cap).
  static constexpr size_t kInlineMax = 200;

  static Result<KvStore> Create(mem::ObjectStore* store, uint64_t store_id, KvBackend backend);

  // The one copy on the put path happens here, at the mutation/durability
  // boundary: the value is written into the index or its spill segment.
  Status Put(uint64_t key, ByteSpan value);
  Result<Bytes> Get(uint64_t key);
  // Zero-copy get: the returned Buffer adopts the bytes read from the store
  // and slices off the tag — no copy on the way out. Preferred on the
  // datapath (the RPC response shares the same backing block).
  Result<Buffer> GetBuffer(uint64_t key);
  Status Delete(uint64_t key);

  // Ordered scan; kUnimplemented on the hash backend.
  Result<std::vector<std::pair<uint64_t, Bytes>>> Scan(uint64_t lo, uint64_t hi);

 private:
  KvStore() = default;

  Status IndexPut(uint64_t key, ByteSpan tagged);
  Result<Bytes> IndexGet(uint64_t key);
  Status IndexDelete(uint64_t key);
  // The one decoder for a tagged index value: an inline value is a slice
  // past the tag, an indirect ref [tag][size u64] is read from its spill
  // segment. DataLoss for an empty value, an unknown tag or a short ref.
  Result<Buffer> Untag(uint64_t key, Bytes tagged);

  mem::ObjectStore* store_ = nullptr;
  uint64_t store_id_ = 0;
  std::unique_ptr<BPlusTree> btree_;
  std::unique_ptr<HashIndex> hash_;
};

}  // namespace hyperion::storage

#endif  // HYPERION_SRC_STORAGE_KV_H_
