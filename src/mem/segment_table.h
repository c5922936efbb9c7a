// Segment translation table (paper §2.1).
//
// Hyperion replaces page-based virtual memory with segmentation-based,
// single-level unified storage-memory addressing: a 128-bit segment id maps
// to a location (DRAM, HBM, or NVMe) and a base address within it. The
// table is object-granular — one entry per segment regardless of its size —
// which is the coarseness the paper credits with "reducing overheads
// associated with the virtual memory translation". Experiment E4 compares
// the per-access translation cost of this table against a 4-level page walk
// (see vm_baseline.h).
//
// The table is periodically persisted to a pre-selected control/boot NVMe
// area so the single-level store survives power cycles.

#ifndef HYPERION_SRC_MEM_SEGMENT_TABLE_H_
#define HYPERION_SRC_MEM_SEGMENT_TABLE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/common/result.h"
#include "src/common/u128.h"
#include "src/nvme/controller.h"
#include "src/sim/time.h"

namespace hyperion::mem {

using SegmentId = U128;

enum class Location : uint8_t { kDram = 0, kHbm = 1, kNvme = 2 };

// Placement/durability intent supplied at creation (the "hints-based
// allocation" of §2.1).
struct SegmentHints {
  bool durable = false;           // must live on NVMe (also) to survive power-off
  bool performance_critical = false;  // prefer HBM over DRAM
};

struct Segment {
  SegmentId id;
  uint64_t size = 0;
  Location location = Location::kDram;
  uint64_t base = 0;  // byte offset in DRAM/HBM arena, or starting LBA on NVMe
  bool durable = false;
};

class SegmentTable {
 public:
  SegmentTable() = default;

  // Inserts a new segment entry. Fails with kAlreadyExists on id collision.
  Status Insert(const Segment& segment);
  Status Erase(SegmentId id);

  // Translation: id -> descriptor. This is the operation on Hyperion's
  // critical path; its modelled hardware cost is kLookupCost (one hashed
  // SRAM/HBM reference — contrast with the 4-level DRAM walk of the VM
  // baseline).
  Result<Segment> Lookup(SegmentId id) const;

  // The access-path form of Lookup: one hash probe that finds the entry and
  // counts the access in it. Null when `id` is not mapped (no Status is
  // built). The pointer is valid until the entry is erased.
  const Segment* Translate(SegmentId id);

  bool Contains(SegmentId id) const { return entries_.find(id) != entries_.end(); }

  // Accesses Translate counted for `id` since its entry was inserted or
  // the last ResetAccessCounts (0 when unmapped). Counts are volatile: they
  // are not persisted, so a reloaded table starts every entry at 0.
  uint64_t AccessCount(SegmentId id) const;
  void ResetAccessCounts();

  Status Update(const Segment& segment);  // kNotFound if absent; keeps the count

  size_t size() const { return entries_.size(); }
  std::vector<Segment> Entries() const;  // sorted by id, for persistence/tests

  // Modelled hardware translation cost per lookup.
  static constexpr sim::Duration kLookupCost = 8;  // ns: hash + one SRAM bank read

  // -- Persistence (control/boot NVMe area) --------------------------------

  // Serialized snapshot format: [magic, version, count, entries..., crc32c].
  Bytes Serialize() const;
  static Result<SegmentTable> Deserialize(ByteSpan data);

  // Writes the snapshot to `boot_lbas` starting at LBA 0 of `nsid`.
  Status PersistTo(nvme::Controller* controller, uint32_t nsid, uint64_t boot_area_lbas) const;
  static Result<SegmentTable> LoadFrom(nvme::Controller* controller, uint32_t nsid,
                                       uint64_t boot_area_lbas);

 private:
  struct Entry {
    Segment segment;
    uint64_t accesses = 0;
  };
  std::unordered_map<SegmentId, Entry> entries_;
};

}  // namespace hyperion::mem

#endif  // HYPERION_SRC_MEM_SEGMENT_TABLE_H_
