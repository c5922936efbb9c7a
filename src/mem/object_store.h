// Single-level object store (paper §2.1).
//
// The ObjectStore is the programming surface of Hyperion's unified
// storage-memory model: 128-bit segment ids name objects wherever they live
// (FPGA DRAM, HBM, or NVMe flash). Total addressable capacity is the sum of
// all three. Placement follows creation hints — performance-critical
// objects go to HBM, durable ones to NVMe — with graceful spill when a tier
// is full, and explicit Promote()/Demote() for hint-driven migration.
//
// Every access pays exactly one segment-table translation (object-granular)
// plus the media cost of the tier — no page tables, no TLBs, no pinning, no
// host OS. In the simulator the translation is one hash probe too: the
// entry it finds carries the segment's access count. Crash recovery reloads
// the persisted segment table and drops ephemeral (DRAM/HBM) segments,
// keeping durable ones; access counts restart at 0.
//
// ReadInto is the copy-free read: DRAM/HBM bytes and LBA-aligned NVMe
// blocks land straight in the caller's buffer. Unaligned NVMe reads and
// the read-modify-write of unaligned NVMe writes stage through one scratch
// block the store reuses.

#ifndef HYPERION_SRC_MEM_OBJECT_STORE_H_
#define HYPERION_SRC_MEM_OBJECT_STORE_H_

#include <cstdint>
#include <memory>

#include "src/common/result.h"
#include "src/mem/allocator.h"
#include "src/mem/dram.h"
#include "src/mem/segment_table.h"
#include "src/nvme/controller.h"
#include "src/sim/engine.h"
#include "src/sim/stats.h"

namespace hyperion::mem {

struct ObjectStoreConfig {
  uint64_t dram_bytes = 256ull << 20;
  uint64_t hbm_bytes = 64ull << 20;
  uint32_t nvme_nsid = 1;
  // LBAs reserved at the start of the namespace for the segment-table
  // snapshot (the "pre-selected control/boot NVMe area").
  uint64_t boot_area_lbas = 256;
};

class ObjectStore {
 public:
  ObjectStore(sim::Engine* engine, nvme::Controller* nvme, ObjectStoreConfig config);

  // Allocates a segment of `size` bytes placed per `hints`; returns its id.
  Result<SegmentId> Create(uint64_t size, SegmentHints hints = SegmentHints());
  // Same, but with a caller-chosen id (used by layers that derive ids).
  Status CreateWithId(SegmentId id, uint64_t size, SegmentHints hints = SegmentHints());

  Status Delete(SegmentId id);

  Status Write(SegmentId id, uint64_t offset, ByteSpan data);
  Result<Bytes> Read(SegmentId id, uint64_t offset, uint64_t length);
  // Read into a caller-owned buffer (`out.size()` bytes at `offset`):
  // allocation-free for DRAM/HBM segments, which is what lets per-packet
  // index probes run without a heap allocation per access.
  Status ReadInto(SegmentId id, uint64_t offset, MutableByteSpan out);

  // Moves a segment's backing to `target`, copying its contents.
  Status Migrate(SegmentId id, Location target);

  // Hints-based promotion (§2.1: "performance-critical objects are ...
  // eventually promoted to DRAM or HBM"): migrates up to `max_promotions`
  // of the most-accessed ephemeral flash-resident segments with at least
  // `min_accesses` touches into DRAM, then resets the access counters.
  // Returns the number promoted.
  Result<uint64_t> PromoteHot(uint64_t min_accesses, size_t max_promotions);

  // Accesses recorded for a segment since it was created, recovered or
  // last swept by PromoteHot (0 when it does not exist).
  uint64_t AccessCount(SegmentId id) const { return table_.AccessCount(id); }

  Result<Segment> Describe(SegmentId id) const;
  // Charges and counts one translation of `id`; null when it is unmapped.
  // Every access pays one, and so does a probe for whether `id` is mapped.
  // The pointer is valid until `id` is deleted.
  const Segment* Translate(SegmentId id);
  size_t SegmentCount() const { return table_.size(); }

  // Persists the segment table snapshot to the boot area.
  Status Checkpoint();

  // Simulates power-cycle recovery: reloads the table from the boot area,
  // drops ephemeral segments, and rebuilds NVMe allocator state. Returns
  // the number of segments recovered.
  Result<uint64_t> Recover();

  uint64_t TotalCapacity() const;
  const sim::Counters& counters() const { return counters_; }

 private:
  Result<Location> PickLocation(uint64_t size, const SegmentHints& hints);
  Result<uint64_t> AllocateIn(Location loc, uint64_t size);
  Status FreeIn(Location loc, uint64_t base, uint64_t size);

  Status WriteNvme(const Segment& seg, uint64_t offset, ByteSpan data);
  Status ReadNvme(const Segment& seg, uint64_t offset, MutableByteSpan out);
  // The covering blocks of an unaligned NVMe access, in the reused scratch.
  MutableByteSpan NvmeScratch(uint32_t blocks);

  sim::Engine* engine_;
  nvme::Controller* nvme_;
  ObjectStoreConfig config_;

  DramDevice dram_;
  DramDevice hbm_;
  RangeAllocator dram_alloc_;
  RangeAllocator hbm_alloc_;
  RangeAllocator nvme_alloc_;  // LBA-granular, excludes the boot area

  SegmentTable table_;
  uint64_t next_id_ = 1;
  Bytes nvme_scratch_;
  sim::Counters counters_;
  // Counter slots, interned at first bump (see sim::Counters::Slot).
  sim::Counters::Slot translations_slot_{"translations"};
  sim::Counters::Slot segments_created_slot_{"segments_created"};
};

}  // namespace hyperion::mem

#endif  // HYPERION_SRC_MEM_OBJECT_STORE_H_
