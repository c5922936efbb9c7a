// eBPF maps: the state abstraction shared between programs and the host
// (or, on Hyperion, between pipeline stages and the DPU runtime).
//
// Two kinds cover the workloads in the paper: HashMap (fail2ban counters,
// load-balancer flow tables) and ArrayMap (configuration, histograms).
// Keys and values are fixed-size byte strings, as in the kernel ABI.

#ifndef HYPERION_SRC_EBPF_MAPS_H_
#define HYPERION_SRC_EBPF_MAPS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/flat_index.h"
#include "src/common/result.h"

namespace hyperion::ebpf {

enum class MapType : uint8_t { kHash, kArray };

struct MapSpec {
  MapType type = MapType::kHash;
  uint32_t key_size = 4;
  uint32_t value_size = 8;
  uint32_t max_entries = 1024;
  std::string name;
  // Owning tenant; kSharedMap means any program may reference it. The DPU
  // control path enforces that a tenant's programs only reference maps it
  // owns (or shared ones) *before* anything reaches the fabric.
  uint32_t tenant = 0xffffffffu;
};

constexpr uint32_t kSharedMap = 0xffffffffu;

// Largest key or value: helpers stage both in buffers the size of the VM
// stack, which is where a program builds them.
constexpr uint32_t kMaxMapKeyOrValueBytes = 512;
// Largest max_entries: a map-value pointer carries a 24-bit slot handle.
constexpr uint32_t kMaxMapEntries = 1u << 24;

// InvalidArgument unless `spec` describes a map Map can hold: a known type,
// key/value sizes in [1, 512], max_entries in [1, 2^24], and u32 keys for
// arrays. Specs from the control path are checked with this before a Map
// is built; Map's constructor CHECKs it.
Status ValidateMapSpec(const MapSpec& spec);

class Map {
 public:
  // Returned by the helper-path calls for a miss, a full map or an
  // out-of-range array index; no Status is built.
  static constexpr uint32_t kNoEntry = 0xffffffffu;

  explicit Map(MapSpec spec);

  const MapSpec& spec() const { return spec_; }
  uint32_t EntryCount() const;

  // Helper path. `key` and `value` must be exactly key_size / value_size
  // bytes. Find returns the entry's stable handle (its slot in the value
  // arena), which the VM packs into tagged map-value pointers. Upsert
  // inserts or overwrites and returns the handle. Erase reports whether a
  // key was removed (always false for arrays).
  uint32_t Find(ByteSpan key) const;
  uint32_t Upsert(ByteSpan key, ByteSpan value);
  bool Erase(ByteSpan key);

  // Status wrappers for host callers: InvalidArgument on a size mismatch,
  // NotFound on a miss, ResourceExhausted when full, OutOfRange for an
  // array index past max_entries. Lookup copies the value out.
  Result<Bytes> Lookup(ByteSpan key) const;
  Result<uint32_t> Update(ByteSpan key, ByteSpan value);
  Status Delete(ByteSpan key);

  // Direct value access by handle (bounds-checked).
  Result<Bytes> ValueByHandle(uint32_t handle) const;
  MutableByteSpan MutableValue(uint32_t handle);

 private:
  const uint8_t* KeyAt(uint32_t slot) const {
    return keys_.data() + static_cast<size_t>(slot) * spec_.key_size;
  }
  bool KeyIs(uint32_t slot, ByteSpan key) const;

  MapSpec spec_;
  // Value arena: slot i holds value_size bytes (and, for hash maps, its key
  // in keys_); the LIFO free list recycles slots before next_slot_ grows.
  std::vector<uint8_t> values_;
  std::vector<uint8_t> keys_;
  std::vector<uint32_t> free_slots_;
  uint32_t next_slot_ = 0;
  FlatIndex index_;  // hash maps: key bytes -> slot
};

// Registry with dense u32 ids, what LD_IMM64/map-fd instructions reference.
class MapRegistry {
 public:
  uint32_t Create(MapSpec spec);
  Map* Get(uint32_t id);
  const Map* Get(uint32_t id) const;
  size_t Count() const { return maps_.size(); }

 private:
  std::vector<std::unique_ptr<Map>> maps_;
};

}  // namespace hyperion::ebpf

#endif  // HYPERION_SRC_EBPF_MAPS_H_
