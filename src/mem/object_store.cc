#include "src/mem/object_store.h"

#include <algorithm>

#include "src/common/check.h"

namespace hyperion::mem {

namespace {
uint64_t LbasFor(uint64_t bytes) { return (bytes + nvme::kLbaSize - 1) / nvme::kLbaSize; }
}  // namespace

ObjectStore::ObjectStore(sim::Engine* engine, nvme::Controller* nvme, ObjectStoreConfig config)
    : engine_(engine),
      nvme_(nvme),
      config_(config),
      dram_(engine, config.dram_bytes),
      hbm_(engine, config.hbm_bytes, HbmParams()),
      dram_alloc_(config.dram_bytes),
      hbm_alloc_(config.hbm_bytes),
      nvme_alloc_(0) {
  auto capacity = nvme->NamespaceCapacity(config.nvme_nsid);
  CHECK(capacity.ok()) << "object store requires a valid NVMe namespace";
  CHECK_GT(*capacity, config.boot_area_lbas);
  // LBA space after the boot area is the single-level store's flash tier.
  nvme_alloc_ = RangeAllocator(*capacity - config.boot_area_lbas);
}

uint64_t ObjectStore::TotalCapacity() const {
  return dram_.capacity() + hbm_.capacity() + nvme_alloc_.capacity() * nvme::kLbaSize;
}

Result<Location> ObjectStore::PickLocation(uint64_t size, const SegmentHints& hints) {
  if (hints.durable) {
    // Durable segments must be NVMe-backed to survive power-off.
    if (nvme_alloc_.FreeBytes() * nvme::kLbaSize >= size) {
      return Location::kNvme;
    }
    return ResourceExhausted("flash tier full for durable segment");
  }
  if (hints.performance_critical && hbm_alloc_.LargestFreeRange() >= size) {
    return Location::kHbm;
  }
  if (dram_alloc_.LargestFreeRange() >= size) {
    return Location::kDram;
  }
  if (hbm_alloc_.LargestFreeRange() >= size) {
    return Location::kHbm;
  }
  // Spill: NVMe as "a large capacity location" for ephemeral segments.
  if (nvme_alloc_.LargestFreeRange() >= LbasFor(size)) {
    return Location::kNvme;
  }
  return ResourceExhausted("object store full");
}

Result<uint64_t> ObjectStore::AllocateIn(Location loc, uint64_t size) {
  switch (loc) {
    case Location::kDram:
      return dram_alloc_.Allocate(size);
    case Location::kHbm:
      return hbm_alloc_.Allocate(size);
    case Location::kNvme: {
      ASSIGN_OR_RETURN(uint64_t lba, nvme_alloc_.Allocate(LbasFor(size)));
      return lba + config_.boot_area_lbas;  // absolute LBA
    }
  }
  return Internal("bad location");
}

Status ObjectStore::FreeIn(Location loc, uint64_t base, uint64_t size) {
  switch (loc) {
    case Location::kDram:
      return dram_alloc_.Free(base, size);
    case Location::kHbm:
      return hbm_alloc_.Free(base, size);
    case Location::kNvme:
      return nvme_alloc_.Free(base - config_.boot_area_lbas, LbasFor(size));
  }
  return Internal("bad location");
}

Result<SegmentId> ObjectStore::Create(uint64_t size, SegmentHints hints) {
  const SegmentId id(0xC0FFEEull, next_id_++);
  RETURN_IF_ERROR(CreateWithId(id, size, hints));
  return id;
}

Status ObjectStore::CreateWithId(SegmentId id, uint64_t size, SegmentHints hints) {
  if (size == 0) {
    return InvalidArgument("zero-size segment");
  }
  if (table_.Contains(id)) {
    return AlreadyExists("segment id in use");
  }
  ASSIGN_OR_RETURN(Location loc, PickLocation(size, hints));
  ASSIGN_OR_RETURN(uint64_t base, AllocateIn(loc, size));
  Segment seg;
  seg.id = id;
  seg.size = size;
  seg.location = loc;
  seg.base = base;
  seg.durable = hints.durable;
  RETURN_IF_ERROR(table_.Insert(seg));
  counters_.Increment(segments_created_slot_);
  return Status::Ok();
}

Status ObjectStore::Delete(SegmentId id) {
  ASSIGN_OR_RETURN(Segment seg, table_.Lookup(id));
  RETURN_IF_ERROR(FreeIn(seg.location, seg.base, seg.size));
  return table_.Erase(id);
}

Result<Segment> ObjectStore::Describe(SegmentId id) const { return table_.Lookup(id); }

const Segment* ObjectStore::Translate(SegmentId id) {
  engine_->Advance(SegmentTable::kLookupCost);
  counters_.Increment(translations_slot_);
  return table_.Translate(id);
}

Status ObjectStore::Write(SegmentId id, uint64_t offset, ByteSpan data) {
  const Segment* seg = Translate(id);
  if (seg == nullptr) {
    return NotFound("segment not mapped");
  }
  if (!RangeFits(offset, data.size(), seg->size)) {
    return OutOfRange("write past end of segment");
  }
  switch (seg->location) {
    case Location::kDram:
      return dram_.Write(seg->base + offset, data);
    case Location::kHbm:
      return hbm_.Write(seg->base + offset, data);
    case Location::kNvme:
      return WriteNvme(*seg, offset, data);
  }
  return Internal("bad location");
}

Result<Bytes> ObjectStore::Read(SegmentId id, uint64_t offset, uint64_t length) {
  const Segment* seg = Translate(id);
  if (seg == nullptr) {
    return NotFound("segment not mapped");
  }
  if (!RangeFits(offset, length, seg->size)) {
    return OutOfRange("read past end of segment");
  }
  Bytes out(length);
  switch (seg->location) {
    case Location::kDram:
      RETURN_IF_ERROR(dram_.Read(seg->base + offset, MutableByteSpan(out)));
      return out;
    case Location::kHbm:
      RETURN_IF_ERROR(hbm_.Read(seg->base + offset, MutableByteSpan(out)));
      return out;
    case Location::kNvme:
      RETURN_IF_ERROR(ReadNvme(*seg, offset, MutableByteSpan(out)));
      return out;
  }
  return Internal("bad location");
}

Status ObjectStore::ReadInto(SegmentId id, uint64_t offset, MutableByteSpan out) {
  const Segment* seg = Translate(id);
  if (seg == nullptr) {
    return NotFound("segment not mapped");
  }
  if (!RangeFits(offset, out.size(), seg->size)) {
    return OutOfRange("read past end of segment");
  }
  switch (seg->location) {
    case Location::kDram:
      return dram_.Read(seg->base + offset, out);
    case Location::kHbm:
      return hbm_.Read(seg->base + offset, out);
    case Location::kNvme:
      return ReadNvme(*seg, offset, out);
  }
  return Internal("bad location");
}

MutableByteSpan ObjectStore::NvmeScratch(uint32_t blocks) {
  const size_t bytes = static_cast<size_t>(blocks) * nvme::kLbaSize;
  if (nvme_scratch_.size() < bytes) {
    nvme_scratch_.resize(bytes);
  }
  return MutableByteSpan(nvme_scratch_.data(), bytes);
}

Status ObjectStore::WriteNvme(const Segment& seg, uint64_t offset, ByteSpan data) {
  // Read-modify-write of the covering LBA range.
  const uint64_t first_lba = seg.base + offset / nvme::kLbaSize;
  const uint64_t end = offset + data.size();
  const uint64_t last_lba = seg.base + (end - 1) / nvme::kLbaSize;
  const auto count = static_cast<uint32_t>(last_lba - first_lba + 1);
  const uint64_t head_skew = offset % nvme::kLbaSize;
  const bool aligned = head_skew == 0 && data.size() % nvme::kLbaSize == 0;
  if (aligned) {
    return nvme_->Write(config_.nvme_nsid, first_lba, data);
  }
  MutableByteSpan block = NvmeScratch(count);
  RETURN_IF_ERROR(nvme_->ReadInto(config_.nvme_nsid, first_lba, block));
  std::copy(data.begin(), data.end(), block.begin() + static_cast<ptrdiff_t>(head_skew));
  return nvme_->Write(config_.nvme_nsid, first_lba, block);
}

Status ObjectStore::ReadNvme(const Segment& seg, uint64_t offset, MutableByteSpan out) {
  const uint64_t first_lba = seg.base + offset / nvme::kLbaSize;
  const uint64_t head_skew = offset % nvme::kLbaSize;
  if (head_skew == 0 && out.size() % nvme::kLbaSize == 0) {
    // Aligned: the covering blocks are exactly `out`.
    return nvme_->ReadInto(config_.nvme_nsid, first_lba, out);
  }
  const uint64_t end = offset + out.size();
  const uint64_t last_lba = seg.base + (end - 1) / nvme::kLbaSize;
  MutableByteSpan block = NvmeScratch(static_cast<uint32_t>(last_lba - first_lba + 1));
  RETURN_IF_ERROR(nvme_->ReadInto(config_.nvme_nsid, first_lba, block));
  std::copy_n(block.begin() + static_cast<ptrdiff_t>(head_skew), out.size(), out.begin());
  return Status::Ok();
}

Status ObjectStore::Migrate(SegmentId id, Location target) {
  ASSIGN_OR_RETURN(Segment seg, table_.Lookup(id));
  if (seg.location == target) {
    return Status::Ok();
  }
  if (seg.durable && target != Location::kNvme) {
    return InvalidArgument("durable segments must stay NVMe-backed");
  }
  ASSIGN_OR_RETURN(Bytes contents, Read(id, 0, seg.size));
  ASSIGN_OR_RETURN(uint64_t new_base, AllocateIn(target, seg.size));
  const Location old_loc = seg.location;
  const uint64_t old_base = seg.base;
  seg.location = target;
  seg.base = new_base;
  RETURN_IF_ERROR(table_.Update(seg));
  RETURN_IF_ERROR(Write(id, 0, ByteSpan(contents.data(), contents.size())));
  RETURN_IF_ERROR(FreeIn(old_loc, old_base, seg.size));
  counters_.Increment("migrations");
  return Status::Ok();
}

Result<uint64_t> ObjectStore::PromoteHot(uint64_t min_accesses, size_t max_promotions) {
  // Collect ephemeral flash-resident candidates, hottest first.
  std::vector<std::pair<uint64_t, SegmentId>> candidates;
  for (const Segment& seg : table_.Entries()) {
    if (seg.location != Location::kNvme || seg.durable) {
      continue;
    }
    const uint64_t hits = AccessCount(seg.id);
    if (hits >= min_accesses) {
      candidates.emplace_back(hits, seg.id);
    }
  }
  std::sort(candidates.begin(), candidates.end(), [](const auto& a, const auto& b) {
    return a.first > b.first;
  });
  uint64_t promoted = 0;
  for (const auto& [hits, id] : candidates) {
    if (promoted >= max_promotions) {
      break;
    }
    ASSIGN_OR_RETURN(Segment seg, table_.Lookup(id));
    if (dram_alloc_.LargestFreeRange() < seg.size) {
      break;  // fast tier full: stop promoting
    }
    RETURN_IF_ERROR(Migrate(id, Location::kDram));
    ++promoted;
  }
  table_.ResetAccessCounts();  // epoch-based decay
  counters_.Add("promotions", promoted);
  return promoted;
}

Status ObjectStore::Checkpoint() {
  counters_.Increment("checkpoints");
  return table_.PersistTo(nvme_, config_.nvme_nsid, config_.boot_area_lbas);
}

Result<uint64_t> ObjectStore::Recover() {
  ASSIGN_OR_RETURN(SegmentTable loaded,
                   SegmentTable::LoadFrom(nvme_, config_.nvme_nsid, config_.boot_area_lbas));
  // Reset allocator state; DRAM/HBM contents did not survive the power
  // cycle, so only NVMe-resident segments are retained.
  dram_alloc_ = RangeAllocator(config_.dram_bytes);
  hbm_alloc_ = RangeAllocator(config_.hbm_bytes);
  nvme_alloc_ = RangeAllocator(nvme_alloc_.capacity());
  table_ = SegmentTable();
  uint64_t recovered = 0;
  uint64_t max_id = 0;
  for (const Segment& seg : loaded.Entries()) {
    if (seg.location != Location::kNvme) {
      continue;  // ephemeral segment: data is gone
    }
    RETURN_IF_ERROR(
        nvme_alloc_.Reserve(seg.base - config_.boot_area_lbas, LbasFor(seg.size)));
    RETURN_IF_ERROR(table_.Insert(seg));
    ++recovered;
    if (seg.id.hi == 0xC0FFEEull) {
      max_id = std::max(max_id, seg.id.lo);
    }
  }
  next_id_ = max_id + 1;
  counters_.Increment("recoveries");
  return recovered;
}

}  // namespace hyperion::mem
