// Unit + property tests for the single-level store: allocator, segment
// table (incl. persistence/recovery), the lazily backed DRAM/HBM device,
// object store placement/migration, and the page-based VM baseline it is
// measured against.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/mem/allocator.h"
#include "src/mem/dram.h"
#include "src/mem/object_store.h"
#include "src/mem/segment_table.h"
#include "src/mem/vm_baseline.h"
#include "src/nvme/controller.h"
#include "src/sim/engine.h"

namespace hyperion::mem {
namespace {

// -- RangeAllocator ---------------------------------------------------------

TEST(AllocatorTest, FirstFitAllocates) {
  RangeAllocator alloc(100);
  EXPECT_EQ(*alloc.Allocate(10), 0u);
  EXPECT_EQ(*alloc.Allocate(10), 10u);
  EXPECT_EQ(alloc.used(), 20u);
}

TEST(AllocatorTest, ExhaustionIsReported) {
  RangeAllocator alloc(16);
  ASSERT_TRUE(alloc.Allocate(16).ok());
  EXPECT_EQ(alloc.Allocate(1).status().code(), StatusCode::kResourceExhausted);
}

TEST(AllocatorTest, FreeCoalescesNeighbours) {
  RangeAllocator alloc(30);
  auto a = *alloc.Allocate(10);
  auto b = *alloc.Allocate(10);
  auto c = *alloc.Allocate(10);
  ASSERT_TRUE(alloc.Free(a, 10).ok());
  ASSERT_TRUE(alloc.Free(c, 10).ok());
  ASSERT_TRUE(alloc.Free(b, 10).ok());
  // Fully coalesced: one 30-byte range again.
  EXPECT_EQ(alloc.LargestFreeRange(), 30u);
  EXPECT_EQ(*alloc.Allocate(30), 0u);
}

TEST(AllocatorTest, DoubleFreeRejected) {
  RangeAllocator alloc(20);
  auto a = *alloc.Allocate(10);
  ASSERT_TRUE(alloc.Free(a, 10).ok());
  EXPECT_FALSE(alloc.Free(a, 10).ok());
}

TEST(AllocatorTest, ReserveSpecificRange) {
  RangeAllocator alloc(100);
  ASSERT_TRUE(alloc.Reserve(40, 20).ok());
  EXPECT_EQ(alloc.used(), 20u);
  // Overlapping reserve fails.
  EXPECT_FALSE(alloc.Reserve(50, 5).ok());
  // First-fit now skips the hole.
  EXPECT_EQ(*alloc.Allocate(40), 0u);
  EXPECT_EQ(*alloc.Allocate(40), 60u);
}

// Property: random alloc/free churn never corrupts accounting and always
// coalesces back to a single range when everything is freed.
TEST(AllocatorTest, PropertyChurnConservesSpace) {
  Rng rng(99);
  RangeAllocator alloc(1 << 20);
  std::vector<std::pair<uint64_t, uint64_t>> live;
  for (int i = 0; i < 2000; ++i) {
    if (live.empty() || rng.Bernoulli(0.6)) {
      const uint64_t size = rng.UniformRange(1, 4096);
      auto off = alloc.Allocate(size);
      if (off.ok()) {
        live.emplace_back(*off, size);
      }
    } else {
      const size_t victim = rng.Uniform(live.size());
      ASSERT_TRUE(alloc.Free(live[victim].first, live[victim].second).ok());
      live.erase(live.begin() + static_cast<ptrdiff_t>(victim));
    }
    uint64_t live_bytes = 0;
    for (const auto& [off, size] : live) {
      live_bytes += size;
    }
    ASSERT_EQ(alloc.used(), live_bytes);
  }
  for (const auto& [off, size] : live) {
    ASSERT_TRUE(alloc.Free(off, size).ok());
  }
  EXPECT_EQ(alloc.used(), 0u);
  EXPECT_EQ(alloc.LargestFreeRange(), 1u << 20);
}

// -- SegmentTable -------------------------------------------------------------

TEST(SegmentTableTest, InsertLookupErase) {
  SegmentTable table;
  Segment seg;
  seg.id = U128(1, 2);
  seg.size = 4096;
  seg.location = Location::kDram;
  seg.base = 0;
  ASSERT_TRUE(table.Insert(seg).ok());
  auto found = table.Lookup(U128(1, 2));
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->size, 4096u);
  EXPECT_EQ(table.Insert(seg).code(), StatusCode::kAlreadyExists);
  ASSERT_TRUE(table.Erase(U128(1, 2)).ok());
  EXPECT_EQ(table.Lookup(U128(1, 2)).status().code(), StatusCode::kNotFound);
}

TEST(SegmentTableTest, TranslateCountsInTheEntry) {
  SegmentTable table;
  Segment seg;
  seg.id = U128(1, 2);
  seg.size = 4096;
  ASSERT_TRUE(table.Insert(seg).ok());
  EXPECT_TRUE(table.Contains(U128(1, 2)));
  EXPECT_FALSE(table.Contains(U128(1, 3)));
  EXPECT_EQ(table.Translate(U128(1, 3)), nullptr);
  const Segment* found = table.Translate(U128(1, 2));
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->size, 4096u);
  table.Translate(U128(1, 2));
  EXPECT_EQ(table.AccessCount(U128(1, 2)), 2u);
  EXPECT_EQ(table.AccessCount(U128(1, 3)), 0u);
  seg.base = 8192;
  ASSERT_TRUE(table.Update(seg).ok());  // migration keeps the count
  EXPECT_EQ(table.AccessCount(U128(1, 2)), 2u);
  table.ResetAccessCounts();
  EXPECT_EQ(table.AccessCount(U128(1, 2)), 0u);
  ASSERT_TRUE(table.Erase(U128(1, 2)).ok());
  ASSERT_TRUE(table.Insert(seg).ok());
  EXPECT_EQ(table.AccessCount(U128(1, 2)), 0u);
}

TEST(SegmentTableTest, SerializeRoundTrip) {
  SegmentTable table;
  for (uint64_t i = 0; i < 50; ++i) {
    Segment seg;
    seg.id = U128(i, i * 7);
    seg.size = 100 + i;
    seg.location = static_cast<Location>(i % 3);
    seg.base = i * 1000;
    seg.durable = i % 2 == 0;
    ASSERT_TRUE(table.Insert(seg).ok());
  }
  Bytes blob = table.Serialize();
  auto loaded = SegmentTable::Deserialize(ByteSpan(blob.data(), blob.size()));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 50u);
  auto entries = loaded->Entries();
  auto original = table.Entries();
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].id, original[i].id);
    EXPECT_EQ(entries[i].size, original[i].size);
    EXPECT_EQ(entries[i].location, original[i].location);
    EXPECT_EQ(entries[i].base, original[i].base);
    EXPECT_EQ(entries[i].durable, original[i].durable);
  }
}

TEST(SegmentTableTest, CorruptSnapshotDetected) {
  SegmentTable table;
  Segment seg;
  seg.id = U128(9, 9);
  seg.size = 10;
  ASSERT_TRUE(table.Insert(seg).ok());
  Bytes blob = table.Serialize();
  blob[10] ^= 0xff;
  auto loaded = SegmentTable::Deserialize(ByteSpan(blob.data(), blob.size()));
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

TEST(SegmentTableTest, PersistAndLoadViaNvme) {
  sim::Engine engine;
  nvme::Controller ctrl(&engine);
  const uint32_t ns = ctrl.AddNamespace(4096);
  SegmentTable table;
  Segment seg;
  seg.id = U128(0xAA, 0xBB);
  seg.size = 8192;
  seg.location = Location::kNvme;
  seg.base = 300;
  seg.durable = true;
  ASSERT_TRUE(table.Insert(seg).ok());
  ASSERT_TRUE(table.PersistTo(&ctrl, ns, 256).ok());
  auto loaded = SegmentTable::LoadFrom(&ctrl, ns, 256);
  ASSERT_TRUE(loaded.ok());
  auto found = loaded->Lookup(U128(0xAA, 0xBB));
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->base, 300u);
  EXPECT_TRUE(found->durable);
}

TEST(SegmentTableTest, LoadFromEmptyDeviceIsNotFound) {
  sim::Engine engine;
  nvme::Controller ctrl(&engine);
  const uint32_t ns = ctrl.AddNamespace(4096);
  EXPECT_EQ(SegmentTable::LoadFrom(&ctrl, ns, 256).status().code(), StatusCode::kNotFound);
}

// -- SegmentTable::Deserialize fuzz ----------------------------------------
//
// The snapshot is durable bytes read back at every boot, and the KV store
// keeps its spill state in the table, so a corrupt snapshot must decode to a
// Result error or a well-formed table, never UB (the CI runs this under
// ASan/UBSan).

// Snapshot layout: magic u32, version u32, count u64, then 34-byte entries
// (id hi/lo, size, location u8, base, durable u8), then crc32c.
constexpr size_t kSnapHeader = 16;
constexpr size_t kSnapEntry = 34;

Bytes RandomSnapshot(Rng& rng) {
  SegmentTable table;
  const uint64_t count = rng.Uniform(12);
  for (uint64_t i = 0; i < count; ++i) {
    Segment seg;
    seg.id = U128(rng.Uniform(4), rng.Next());
    seg.size = 1 + rng.Uniform(1 << 20);
    seg.location = static_cast<Location>(rng.Uniform(3));
    seg.base = rng.Uniform(1 << 24);
    seg.durable = rng.Bernoulli(0.5);
    CHECK_OK(table.Insert(seg));
  }
  return table.Serialize();
}

// Recomputes the trailing checksum, so a mutation reaches the decoder.
void Reseal(Bytes& snap) {
  const size_t body = snap.size() - 4;
  const uint32_t crc = Crc32c(ByteSpan(snap.data(), body));
  for (int b = 0; b < 4; ++b) {
    snap[body + b] = static_cast<uint8_t>(crc >> (8 * b));
  }
}

void PutU64At(Bytes& snap, size_t at, uint64_t value) {
  for (int b = 0; b < 8; ++b) {
    snap[at + b] = static_cast<uint8_t>(value >> (8 * b));
  }
}

// Decodes `snap`: an error, or a table whose every entry is one the
// in-memory table could hold.
void JudgeSnapshot(const Bytes& snap) {
  Result<SegmentTable> table = SegmentTable::Deserialize(ByteSpan(snap));
  if (!table.ok()) {
    return;
  }
  for (const Segment& seg : table->Entries()) {
    EXPECT_GT(seg.size, 0u);
    EXPECT_LE(static_cast<uint8_t>(seg.location), static_cast<uint8_t>(Location::kNvme));
  }
}

TEST(SegmentTableFuzz, ByteFlipsAreDataLoss) {
  Rng rng(0x5e670001);
  for (int iter = 0; iter < 5000; ++iter) {
    const Bytes original = RandomSnapshot(rng);
    Bytes snap = original;
    const uint64_t flips = 1 + rng.Uniform(4);
    for (uint64_t f = 0; f < flips; ++f) {
      snap[rng.Uniform(snap.size())] ^= static_cast<uint8_t>(1 + rng.Uniform(255));
    }
    if (snap == original) {
      continue;  // two flips of one byte cancelled out
    }
    EXPECT_EQ(SegmentTable::Deserialize(ByteSpan(snap)).status().code(), StatusCode::kDataLoss);
  }
}

TEST(SegmentTableFuzz, TruncationsAreDataLoss) {
  Rng rng(0x5e670002);
  for (int seed = 0; seed < 16; ++seed) {
    const Bytes snap = RandomSnapshot(rng);
    for (size_t len = 0; len < snap.size(); ++len) {
      EXPECT_EQ(SegmentTable::Deserialize(ByteSpan(snap.data(), len)).status().code(),
                StatusCode::kDataLoss)
          << "prefix " << len << " of " << snap.size();
    }
  }
}

TEST(SegmentTableFuzz, ValidChecksumMutationsAreErrorsOrWellFormedTables) {
  Rng rng(0x5e670003);
  const uint64_t wide[] = {0, 1, 33, 34, 35, 0xffff, 1ull << 32, 0x0787878787878788ull,
                           ~0ull / kSnapEntry + 1, ~0ull};
  for (int iter = 0; iter < 20000; ++iter) {
    Bytes snap = RandomSnapshot(rng);
    const size_t count = (snap.size() - kSnapHeader - 4) / kSnapEntry;
    const size_t entry = kSnapHeader + kSnapEntry * (count == 0 ? 0 : rng.Uniform(count));
    const bool has_entry = count > 0;
    switch (rng.Uniform(7)) {
      case 0:  // the entry count: small, one off, or wrapping when multiplied
        PutU64At(snap, 8, rng.Bernoulli(0.5) ? wide[rng.Uniform(std::size(wide))]
                                              : count + rng.Uniform(3) - 1);
        break;
      case 1:  // magic and version
        snap[rng.Uniform(8)] ^= static_cast<uint8_t>(1 + rng.Uniform(255));
        break;
      case 2:  // size: zero, wrapping, or anything
        if (has_entry) {
          PutU64At(snap, entry + 16, wide[rng.Uniform(std::size(wide))]);
        }
        break;
      case 3:  // location and durable bytes
        if (has_entry) {
          snap[entry + 24] = static_cast<uint8_t>(rng.Next());
          snap[entry + 33] = static_cast<uint8_t>(rng.Next());
        }
        break;
      case 4:  // a duplicate id
        if (count > 1) {
          std::copy_n(snap.begin() + kSnapHeader, 16, snap.begin() + kSnapHeader + kSnapEntry);
        }
        break;
      case 5:  // trailing or missing bytes before the checksum
        if (rng.Bernoulli(0.5)) {
          snap.insert(snap.end() - 4, 1 + rng.Uniform(40), 0x5a);
        } else if (snap.size() > kSnapHeader + 4) {
          const size_t cut = 1 + rng.Uniform(std::min<size_t>(40, snap.size() - 20));
          snap.erase(snap.end() - 4 - static_cast<ptrdiff_t>(cut), snap.end() - 4);
        }
        break;
      default:  // any byte
        snap[rng.Uniform(snap.size() - 4)] = static_cast<uint8_t>(rng.Next());
        break;
    }
    Reseal(snap);
    JudgeSnapshot(snap);
  }
}

TEST(SegmentTableFuzz, BadLocationIsDataLoss) {
  SegmentTable table;
  Segment seg;
  seg.id = U128(1, 1);
  seg.size = 64;
  ASSERT_TRUE(table.Insert(seg).ok());
  Bytes snap = table.Serialize();
  snap[kSnapHeader + 24] = 3;  // one past kNvme
  Reseal(snap);
  EXPECT_EQ(SegmentTable::Deserialize(ByteSpan(snap)).status().code(), StatusCode::kDataLoss);
}

// -- DramDevice ------------------------------------------------------------

constexpr uint64_t kHostPage = 4096;

Bytes Pattern(size_t n, uint8_t seed) {
  Bytes b(n);
  for (size_t i = 0; i < n; ++i) {
    b[i] = static_cast<uint8_t>(seed + 13 * i);
  }
  return b;
}

TEST(DramDeviceTest, FreshDeviceReadsZeroAtBothEnds) {
  sim::Engine engine;
  DramDevice dram(&engine, 32ull << 30);  // a U280's DDR4
  uint8_t byte = 0xFF;
  ASSERT_TRUE(dram.Read(0, MutableByteSpan(&byte, 1)).ok());
  EXPECT_EQ(byte, 0);
  byte = 0xFF;
  ASSERT_TRUE(dram.Read(dram.capacity() - 1, MutableByteSpan(&byte, 1)).ok());
  EXPECT_EQ(byte, 0);
}

TEST(DramDeviceTest, ReadSpanningWrittenAndUntouchedPagesSeesZeros) {
  sim::Engine engine;
  DramDevice dram(&engine, 1 << 20);
  // Fill the tail of page 1; pages 0 and 2 are never written.
  const Bytes data = Pattern(100, 3);
  ASSERT_TRUE(dram.Write(2 * kHostPage - data.size(), ByteSpan(data)).ok());
  Bytes out(3 * kHostPage, 0xAA);
  ASSERT_TRUE(dram.Read(0, MutableByteSpan(out)).ok());
  Bytes expected(3 * kHostPage, 0);
  std::copy(data.begin(), data.end(), expected.begin() + 2 * kHostPage - data.size());
  EXPECT_EQ(out, expected);
}

TEST(DramDeviceTest, RoundTripAcrossPageBoundary) {
  sim::Engine engine;
  DramDevice dram(&engine, 1 << 20);
  const Bytes data = Pattern(600, 11);
  ASSERT_TRUE(dram.Write(kHostPage - 300, ByteSpan(data)).ok());
  Bytes out(data.size());
  ASSERT_TRUE(dram.Read(kHostPage - 300, MutableByteSpan(out)).ok());
  EXPECT_EQ(out, data);
}

TEST(DramDeviceTest, ZeroCapacityRejectsNonEmptyAccess) {
  // mmap rejects a zero length, so constructing this device CHECK-fails if
  // it tries to map anything.
  sim::Engine engine;
  DramDevice dram(&engine, 0);
  EXPECT_EQ(dram.capacity(), 0u);
  uint8_t byte = 0;
  EXPECT_EQ(dram.Read(0, MutableByteSpan(&byte, 1)).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(dram.Write(0, ByteSpan(&byte, 1)).code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(dram.Read(0, MutableByteSpan()).ok());
  EXPECT_TRUE(dram.Write(0, ByteSpan()).ok());
}

TEST(DramDeviceTest, WrappingAddressIsOutOfRange) {
  sim::Engine engine;
  DramDevice dram(&engine, 64);
  // UINT64_MAX - 7 + 16 wraps to 8, inside the device.
  const uint64_t wrapping = UINT64_MAX - 7;
  Bytes buf(16);
  EXPECT_EQ(dram.Read(wrapping, MutableByteSpan(buf)).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(dram.Write(wrapping, ByteSpan(buf)).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(dram.Read(65, MutableByteSpan()).code(), StatusCode::kOutOfRange);
}

TEST(DramDeviceDeathTest, FailedReservationNamesTheCapacity) {
  sim::Engine engine;
  // 2^60 bytes exceed every 64-bit host's user address space.
  EXPECT_DEATH(DramDevice(&engine, uint64_t{1} << 60),
               "cannot reserve 1152921504606846976 bytes of device memory");
}

// -- ObjectStore -------------------------------------------------------------

class ObjectStoreTest : public ::testing::Test {
 protected:
  ObjectStoreTest() : ctrl_(&engine_) {
    nsid_ = ctrl_.AddNamespace(16384);  // 64 MiB flash
    ObjectStoreConfig config;
    config.dram_bytes = 1 << 20;
    config.hbm_bytes = 256 << 10;
    config.nvme_nsid = nsid_;
    store_ = std::make_unique<ObjectStore>(&engine_, &ctrl_, config);
  }

  sim::Engine engine_;
  nvme::Controller ctrl_;
  uint32_t nsid_ = 0;
  std::unique_ptr<ObjectStore> store_;
};

TEST_F(ObjectStoreTest, EphemeralLandsInDram) {
  auto id = store_->Create(4096, {});
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(store_->Describe(*id)->location, Location::kDram);
}

TEST_F(ObjectStoreTest, DurableLandsOnNvme) {
  auto id = store_->Create(4096, {.durable = true});
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(store_->Describe(*id)->location, Location::kNvme);
}

TEST_F(ObjectStoreTest, PerformanceCriticalPrefersHbm) {
  auto id = store_->Create(4096, {.performance_critical = true});
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(store_->Describe(*id)->location, Location::kHbm);
}

TEST_F(ObjectStoreTest, SpillsToNvmeWhenDramFull) {
  // DRAM 1 MiB + HBM 256 KiB; a 2 MiB ephemeral segment must spill.
  auto id = store_->Create(2 << 20, {});
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(store_->Describe(*id)->location, Location::kNvme);
}

TEST_F(ObjectStoreTest, WriteReadRoundTripAllTiers) {
  for (SegmentHints hints :
       {SegmentHints{}, SegmentHints{.durable = true}, SegmentHints{.performance_critical = true}}) {
    auto id = store_->Create(10000, hints);
    ASSERT_TRUE(id.ok());
    Bytes data = Pattern(5000, 42);
    ASSERT_TRUE(store_->Write(*id, 2500, ByteSpan(data.data(), data.size())).ok());
    auto read = store_->Read(*id, 2500, 5000);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(*read, data);
  }
}

TEST_F(ObjectStoreTest, BoundsEnforced) {
  auto id = store_->Create(100, {});
  ASSERT_TRUE(id.ok());
  Bytes data(50);
  EXPECT_FALSE(store_->Write(*id, 60, ByteSpan(data.data(), data.size())).ok());
  EXPECT_FALSE(store_->Read(*id, 90, 20).ok());
}

TEST_F(ObjectStoreTest, WrappingOffsetIsOutOfRangeOnDramAndHbm) {
  for (const SegmentHints hints : {SegmentHints{}, SegmentHints{.performance_critical = true}}) {
    auto id = store_->Create(64, hints);
    ASSERT_TRUE(id.ok());
    const Location loc = store_->Describe(*id)->location;
    EXPECT_EQ(loc, hints.performance_critical ? Location::kHbm : Location::kDram);
    // UINT64_MAX - 7 + 16 wraps to 8, inside the segment.
    const uint64_t wrapping = UINT64_MAX - 7;
    Bytes buf(16);
    EXPECT_EQ(store_->Read(*id, wrapping, 16).status().code(), StatusCode::kOutOfRange);
    EXPECT_EQ(store_->ReadInto(*id, wrapping, MutableByteSpan(buf)).code(),
              StatusCode::kOutOfRange);
    EXPECT_EQ(store_->Write(*id, wrapping, ByteSpan(buf)).code(), StatusCode::kOutOfRange);
  }
}

TEST_F(ObjectStoreTest, MigratePreservesContents) {
  auto id = store_->Create(8192, {});
  ASSERT_TRUE(id.ok());
  Bytes data = Pattern(8192, 5);
  ASSERT_TRUE(store_->Write(*id, 0, ByteSpan(data.data(), data.size())).ok());
  ASSERT_TRUE(store_->Migrate(*id, Location::kNvme).ok());
  EXPECT_EQ(store_->Describe(*id)->location, Location::kNvme);
  EXPECT_EQ(*store_->Read(*id, 0, 8192), data);
  ASSERT_TRUE(store_->Migrate(*id, Location::kHbm).ok());
  EXPECT_EQ(*store_->Read(*id, 0, 8192), data);
}

TEST_F(ObjectStoreTest, DurableSegmentCannotLeaveNvme) {
  auto id = store_->Create(4096, {.durable = true});
  ASSERT_TRUE(id.ok());
  EXPECT_FALSE(store_->Migrate(*id, Location::kDram).ok());
}

TEST_F(ObjectStoreTest, DeleteReleasesSpace) {
  ObjectStoreConfig tiny;
  tiny.dram_bytes = 8192;
  tiny.hbm_bytes = 0;
  tiny.nvme_nsid = nsid_;
  // Separate store with a tiny DRAM so exhaustion is easy to hit.
  sim::Engine engine;
  nvme::Controller ctrl(&engine);
  tiny.nvme_nsid = ctrl.AddNamespace(1024);
  ObjectStore store(&engine, &ctrl, tiny);
  auto a = store.Create(8192, {});
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(store.Describe(*a)->location, Location::kDram);
  ASSERT_TRUE(store.Delete(*a).ok());
  auto b = store.Create(8192, {});
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(store.Describe(*b)->location, Location::kDram);
}

TEST_F(ObjectStoreTest, RecoveryKeepsDurableDropsEphemeral) {
  auto durable = store_->Create(4096, {.durable = true});
  auto ephemeral = store_->Create(4096, {});
  ASSERT_TRUE(durable.ok());
  ASSERT_TRUE(ephemeral.ok());
  Bytes data = Pattern(4096, 77);
  ASSERT_TRUE(store_->Write(*durable, 0, ByteSpan(data.data(), data.size())).ok());
  ASSERT_TRUE(store_->Checkpoint().ok());

  auto recovered = store_->Recover();
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(*recovered, 1u);
  EXPECT_EQ(*store_->Read(*durable, 0, 4096), data);
  EXPECT_EQ(store_->Read(*ephemeral, 0, 1).status().code(), StatusCode::kNotFound);
  // New creations keep working after recovery (allocators rebuilt).
  EXPECT_TRUE(store_->Create(4096, {.durable = true}).ok());
}

TEST_F(ObjectStoreTest, RecoveredIdReuseStartsWithZeroAccessCount) {
  // Recovery drops the ephemeral segment and restarts id allocation above
  // the surviving durable ids, so the next Create reuses the dropped id. The
  // access count lives in the table entry, so the new segment must not
  // inherit the dropped one's.
  auto durable = store_->Create(4096, {.durable = true});
  auto ephemeral = store_->Create(4096, {});
  ASSERT_TRUE(durable.ok());
  ASSERT_TRUE(ephemeral.ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(store_->Read(*ephemeral, 0, 64).ok());
  }
  ASSERT_TRUE(store_->Read(*durable, 0, 64).ok());
  EXPECT_EQ(store_->AccessCount(*ephemeral), 50u);
  ASSERT_TRUE(store_->Checkpoint().ok());
  ASSERT_TRUE(store_->Recover().ok());
  auto reused = store_->Create(4096, {});
  ASSERT_TRUE(reused.ok());
  ASSERT_EQ(*reused, *ephemeral);
  EXPECT_EQ(store_->AccessCount(*reused), 0u);
  EXPECT_EQ(store_->AccessCount(*durable), 0u);  // counts are volatile
}

// A recovered NVMe entry whose base lay inside the boot area made
// RangeAllocator::Reserve wrap its bounds check and accept it, corrupting
// the flash allocator. Planted snapshots (valid checksums) must fail
// Recover or recover only in-tier, disjoint segments that later creations
// never overlap.
TEST_F(ObjectStoreTest, RecoveredSegmentsStayInTheFlashTier) {
  const uint64_t boot = ObjectStoreConfig().boot_area_lbas;
  const uint64_t lbas = 16384;
  auto lbas_of = [](uint64_t size) {
    return size / nvme::kLbaSize + (size % nvme::kLbaSize != 0 ? 1 : 0);
  };
  Rng rng(0x5e670004);
  for (int iter = 0; iter < 2000; ++iter) {
    SegmentTable table;
    const uint64_t count = 1 + rng.Uniform(6);
    for (uint64_t i = 0; i < count; ++i) {
      const uint64_t bases[] = {0, boot - 1, boot, boot + rng.Uniform(lbas - boot), lbas - 1,
                                ~0ull - rng.Uniform(4)};
      const uint64_t sizes[] = {1, 4096, 1 + rng.Uniform(1 << 20), ~0ull - rng.Uniform(8192)};
      Segment seg;
      seg.id = U128(0xC0FFEEull, 1 + i);
      seg.location = Location::kNvme;
      seg.durable = true;
      seg.base = iter == 0 ? boot - 1 : bases[rng.Uniform(std::size(bases))];
      seg.size = iter == 0 ? 4096 : sizes[rng.Uniform(std::size(sizes))];
      ASSERT_TRUE(table.Insert(seg).ok());
    }
    ASSERT_TRUE(table.PersistTo(&ctrl_, nsid_, boot).ok());
    Result<uint64_t> recovered = store_->Recover();
    if (iter == 0) {
      EXPECT_FALSE(recovered.ok());  // the boot-area regression
    }
    if (!recovered.ok()) {
      continue;
    }
    auto fresh = store_->Create(4096, {.durable = true});
    ASSERT_TRUE(fresh.ok());
    const uint64_t fresh_base = store_->Describe(*fresh)->base;
    for (const Segment& seg : table.Entries()) {
      ASSERT_GE(seg.base, boot);
      ASSERT_TRUE(RangeFits(seg.base, lbas_of(seg.size), lbas));
      EXPECT_TRUE(fresh_base + 1 <= seg.base || seg.base + lbas_of(seg.size) <= fresh_base);
      EXPECT_TRUE(store_->Read(seg.id, 0, 1).ok());
    }
  }
}

TEST_F(ObjectStoreTest, AccessCountsFollowTranslations) {
  auto id = store_->Create(8192, {.durable = true});
  ASSERT_TRUE(id.ok());
  Bytes out(100);
  ASSERT_TRUE(store_->ReadInto(*id, 10, MutableByteSpan(out)).ok());
  ASSERT_TRUE(store_->Read(*id, 0, 4096).ok());
  Bytes data = Pattern(100, 3);
  ASSERT_TRUE(store_->Write(*id, 4000, ByteSpan(data)).ok());
  EXPECT_EQ(store_->AccessCount(*id), 3u);
  // A miss is charged a translation but counts against no segment.
  const SegmentId missing(0xC0FFEEull, 999);
  EXPECT_EQ(store_->Read(missing, 0, 1).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store_->AccessCount(missing), 0u);
  EXPECT_EQ(store_->counters().Get("translations"), 4u);
  ASSERT_TRUE(store_->Delete(*id).ok());
  EXPECT_EQ(store_->AccessCount(*id), 0u);
}

TEST_F(ObjectStoreTest, UnalignedNvmeAccessRoundTripsThroughScratch) {
  // Reads and read-modify-writes that straddle LBA boundaries, mixed with
  // aligned ones, on one segment: every read sees the bytes last written.
  auto id = store_->Create(6 * 4096, {.durable = true});
  ASSERT_TRUE(id.ok());
  Bytes shadow(6 * 4096, 0);
  Rng rng(3);
  for (int i = 0; i < 60; ++i) {
    const uint64_t offset = i % 3 == 0 ? 4096 * rng.Uniform(4) : rng.Uniform(5 * 4096);
    const uint64_t length = i % 3 == 0 ? 4096 * rng.UniformRange(1, 2)
                                       : rng.UniformRange(1, 6 * 4096 - offset);
    if (i % 2 == 0) {
      Bytes data = Pattern(length, static_cast<uint8_t>(i));
      ASSERT_TRUE(store_->Write(*id, offset, ByteSpan(data)).ok());
      std::copy(data.begin(), data.end(), shadow.begin() + static_cast<ptrdiff_t>(offset));
    } else {
      Bytes out(length);
      ASSERT_TRUE(store_->ReadInto(*id, offset, MutableByteSpan(out)).ok());
      EXPECT_TRUE(std::equal(out.begin(), out.end(),
                             shadow.begin() + static_cast<ptrdiff_t>(offset)))
          << "read " << i;
    }
  }
  EXPECT_EQ(*store_->Read(*id, 0, 6 * 4096), shadow);
}

TEST_F(ObjectStoreTest, TranslationCostCharged) {
  auto id = store_->Create(64, {});
  ASSERT_TRUE(id.ok());
  const auto before = engine_.Now();
  ASSERT_TRUE(store_->Read(*id, 0, 64).ok());
  EXPECT_GE(engine_.Now() - before, SegmentTable::kLookupCost);
  EXPECT_GE(store_->counters().Get("translations"), 1u);
}

// -- VM baseline ---------------------------------------------------------

TEST(PageTableTest, WalkTranslates4K) {
  PageTable pt;
  ASSERT_TRUE(pt.MapPage(0x1000, 0x40000, PageSize::k4K).ok());
  auto walk = pt.WalkTranslate(0x1234);
  ASSERT_TRUE(walk.ok());
  EXPECT_EQ(walk->paddr, 0x40234u);
  EXPECT_EQ(walk->levels_touched, 4);
}

TEST(PageTableTest, WalkTranslates2M) {
  PageTable pt;
  ASSERT_TRUE(pt.MapPage(0, 0x200000, PageSize::k2M).ok());
  auto walk = pt.WalkTranslate(0x12345);
  ASSERT_TRUE(walk.ok());
  EXPECT_EQ(walk->paddr, 0x200000u + 0x12345u);
  EXPECT_EQ(walk->levels_touched, 3);  // stops at the PD leaf
}

TEST(PageTableTest, UnmappedFaults) {
  PageTable pt;
  EXPECT_EQ(pt.WalkTranslate(0xdead000).status().code(), StatusCode::kNotFound);
}

TEST(PageTableTest, DoubleMapRejected) {
  PageTable pt;
  ASSERT_TRUE(pt.MapPage(0x1000, 0x2000, PageSize::k4K).ok());
  EXPECT_FALSE(pt.MapPage(0x1000, 0x3000, PageSize::k4K).ok());
}

TEST(PageTableTest, MapRangeCoversEveryPage) {
  PageTable pt;
  ASSERT_TRUE(pt.MapRange(0, 0x100000, 16 * 4096, PageSize::k4K).ok());
  EXPECT_EQ(pt.MappedPages(), 16u);
  for (uint64_t off = 0; off < 16 * 4096; off += 4096) {
    ASSERT_TRUE(pt.WalkTranslate(off).ok());
  }
}

TEST(TlbTest, HitAfterInsert) {
  Tlb tlb(64, 4);
  tlb.Insert(0x5000, 0x9000, PageSize::k4K);
  Tlb::CachedTranslation out;
  EXPECT_TRUE(tlb.Lookup(0x5abc, &out));
  EXPECT_EQ(out.paddr, 0x9000u);
  EXPECT_EQ(tlb.hits(), 1u);
}

TEST(TlbTest, CapacityEviction) {
  Tlb tlb(4, 4);  // one set, 4 ways
  for (uint64_t i = 0; i < 5; ++i) {
    tlb.Insert(i * 4096, i * 8192, PageSize::k4K);
  }
  Tlb::CachedTranslation out;
  // The LRU entry (page 0) was evicted.
  EXPECT_FALSE(tlb.Lookup(0, &out));
  EXPECT_TRUE(tlb.Lookup(4 * 4096, &out));
}

TEST(VirtualMemoryTest, TlbHitIsCheapWalkIsExpensive) {
  VirtualMemory vm;
  ASSERT_TRUE(vm.MapRange(0, 0, 1 << 20, PageSize::k4K).ok());
  auto cold = vm.Translate(0x3000);
  ASSERT_TRUE(cold.ok());
  auto warm = vm.Translate(0x3008);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->l1_hit);
  EXPECT_GT(cold->cost, warm->cost * 5);
}

// The E4 claim in miniature: with a working set far beyond TLB reach, the
// mean VM translation cost exceeds the flat segment-table cost.
TEST(VirtualMemoryTest, TlbThrashingExceedsSegmentLookupCost) {
  VirtualMemory vm;
  const uint64_t working_set = 1ull << 30;  // 1 GiB of 4K pages
  ASSERT_TRUE(vm.MapRange(0, 0, working_set, PageSize::k4K).ok());
  Rng rng(17);
  uint64_t total_cost = 0;
  constexpr int kAccesses = 20000;
  for (int i = 0; i < kAccesses; ++i) {
    auto t = vm.Translate(rng.Uniform(working_set));
    ASSERT_TRUE(t.ok());
    total_cost += t->cost;
  }
  const double mean = static_cast<double>(total_cost) / kAccesses;
  EXPECT_GT(mean, static_cast<double>(SegmentTable::kLookupCost) * 3);
}

TEST(VirtualMemoryTest, HugePagesReduceMissCost) {
  VirtualMemory vm4k;
  VirtualMemory vm2m;
  const uint64_t ws = 1ull << 30;
  ASSERT_TRUE(vm4k.MapRange(0, 0, ws, PageSize::k4K).ok());
  ASSERT_TRUE(vm2m.MapRange(0, 0, ws, PageSize::k2M).ok());
  Rng rng_a(21);
  Rng rng_b(21);
  uint64_t cost4k = 0;
  uint64_t cost2m = 0;
  for (int i = 0; i < 20000; ++i) {
    cost4k += vm4k.Translate(rng_a.Uniform(ws))->cost;
    cost2m += vm2m.Translate(rng_b.Uniform(ws))->cost;
  }
  EXPECT_LT(cost2m, cost4k);
}

}  // namespace
}  // namespace hyperion::mem
