#include "src/mem/segment_table.h"

#include <algorithm>

#include "src/common/bytes.h"
#include "src/common/check.h"

namespace hyperion::mem {

namespace {
constexpr uint32_t kMagic = 0x53454754;  // "SEGT"
constexpr uint32_t kVersion = 1;
constexpr size_t kEntryBytes = 16 + 8 + 1 + 8 + 1;  // id + size + loc + base + durable
}  // namespace

Status SegmentTable::Insert(const Segment& segment) {
  if (segment.size == 0) {
    return InvalidArgument("zero-size segment");
  }
  auto [it, inserted] = entries_.emplace(segment.id, Entry{segment});
  if (!inserted) {
    return AlreadyExists("segment id already mapped");
  }
  return Status::Ok();
}

Status SegmentTable::Erase(SegmentId id) {
  if (entries_.erase(id) == 0) {
    return NotFound("segment not mapped");
  }
  return Status::Ok();
}

Result<Segment> SegmentTable::Lookup(SegmentId id) const {
  auto it = entries_.find(id);
  if (it == entries_.end()) {
    return NotFound("segment not mapped");
  }
  return it->second.segment;
}

const Segment* SegmentTable::Translate(SegmentId id) {
  auto it = entries_.find(id);
  if (it == entries_.end()) {
    return nullptr;
  }
  ++it->second.accesses;
  return &it->second.segment;
}

uint64_t SegmentTable::AccessCount(SegmentId id) const {
  auto it = entries_.find(id);
  return it == entries_.end() ? 0 : it->second.accesses;
}

void SegmentTable::ResetAccessCounts() {
  for (auto& [id, entry] : entries_) {
    entry.accesses = 0;
  }
}

Status SegmentTable::Update(const Segment& segment) {
  auto it = entries_.find(segment.id);
  if (it == entries_.end()) {
    return NotFound("segment not mapped");
  }
  it->second.segment = segment;
  return Status::Ok();
}

std::vector<Segment> SegmentTable::Entries() const {
  std::vector<Segment> out;
  out.reserve(entries_.size());
  for (const auto& [id, entry] : entries_) {
    out.push_back(entry.segment);
  }
  std::sort(out.begin(), out.end(),
            [](const Segment& a, const Segment& b) { return a.id < b.id; });
  return out;
}

Bytes SegmentTable::Serialize() const {
  Bytes out;
  PutU32(out, kMagic);
  PutU32(out, kVersion);
  const auto entries = Entries();
  PutU64(out, entries.size());
  for (const Segment& seg : entries) {
    PutU64(out, seg.id.hi);
    PutU64(out, seg.id.lo);
    PutU64(out, seg.size);
    out.push_back(static_cast<uint8_t>(seg.location));
    PutU64(out, seg.base);
    out.push_back(seg.durable ? 1 : 0);
  }
  PutU32(out, Crc32c(ByteSpan(out.data(), out.size())));
  return out;
}

Result<SegmentTable> SegmentTable::Deserialize(ByteSpan data) {
  if (data.size() < 20) {
    return DataLoss("segment table snapshot truncated");
  }
  const size_t body = data.size() - 4;
  const uint32_t stored_crc = GetU32(data, body);
  if (Crc32c(data.subspan(0, body)) != stored_crc) {
    return DataLoss("segment table snapshot checksum mismatch");
  }
  ByteReader reader(data.subspan(0, body));
  if (reader.ReadU32() != kMagic) {
    return DataLoss("bad segment table magic");
  }
  if (reader.ReadU32() != kVersion) {
    return Unimplemented("unknown segment table version");
  }
  const uint64_t count = reader.ReadU64();
  if (count > reader.remaining() / kEntryBytes) {
    return DataLoss("segment table snapshot truncated");
  }
  SegmentTable table;
  for (uint64_t i = 0; i < count; ++i) {
    Segment seg;
    seg.id.hi = reader.ReadU64();
    seg.id.lo = reader.ReadU64();
    seg.size = reader.ReadU64();
    seg.location = static_cast<Location>(reader.ReadU8());
    seg.base = reader.ReadU64();
    seg.durable = reader.ReadU8() != 0;
    if (!reader.Ok() || seg.location > Location::kNvme) {
      return DataLoss("segment table snapshot entry malformed");
    }
    RETURN_IF_ERROR(table.Insert(seg));
  }
  return table;
}

Status SegmentTable::PersistTo(nvme::Controller* controller, uint32_t nsid,
                               uint64_t boot_area_lbas) const {
  Bytes snapshot = Serialize();
  // Length prefix so Load knows how much of the padded area is real.
  Bytes framed;
  PutU64(framed, snapshot.size());
  PutBytes(framed, ByteSpan(snapshot.data(), snapshot.size()));
  const uint64_t lbas_needed = (framed.size() + nvme::kLbaSize - 1) / nvme::kLbaSize;
  if (lbas_needed > boot_area_lbas) {
    return ResourceExhausted("segment table exceeds boot area");
  }
  framed.resize(lbas_needed * nvme::kLbaSize, 0);
  RETURN_IF_ERROR(controller->Write(nsid, 0, ByteSpan(framed.data(), framed.size())));
  return controller->Flush(nsid);
}

Result<SegmentTable> SegmentTable::LoadFrom(nvme::Controller* controller, uint32_t nsid,
                                            uint64_t boot_area_lbas) {
  ASSIGN_OR_RETURN(Bytes first, controller->Read(nsid, 0, 1));
  const uint64_t length = GetU64(first, 0);
  if (length == 0) {
    return NotFound("no segment table snapshot present");
  }
  const uint64_t total = length + 8;
  const uint64_t lbas = (total + nvme::kLbaSize - 1) / nvme::kLbaSize;
  if (lbas > boot_area_lbas) {
    return DataLoss("snapshot length exceeds boot area");
  }
  ASSIGN_OR_RETURN(Bytes all, controller->Read(nsid, 0, static_cast<uint32_t>(lbas)));
  return Deserialize(ByteSpan(all.data() + 8, length));
}

}  // namespace hyperion::mem
