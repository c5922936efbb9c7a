// Tests for the storage engines: B+ tree, LSM engine, hash index, Corfu log,
// and WAL transactions (including crash-injection recovery).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <unordered_map>

#include "src/common/rng.h"
#include "src/mem/object_store.h"
#include "src/nvme/controller.h"
#include "src/nvme/zns.h"
#include "src/sim/engine.h"
#include "src/storage/bptree.h"
#include "src/storage/corfu.h"
#include "src/storage/graph.h"
#include "src/storage/hash_index.h"
#include "src/storage/kv.h"
#include "src/storage/lsm_engine.h"
#include "src/storage/txn.h"

namespace hyperion::storage {
namespace {

class StorageTest : public ::testing::Test {
 protected:
  StorageTest() : ctrl_(&engine_) {
    const uint32_t nsid = ctrl_.AddNamespace(1u << 18);  // 1 GiB
    mem::ObjectStoreConfig config;
    config.dram_bytes = 64u << 20;
    config.hbm_bytes = 8u << 20;
    config.nvme_nsid = nsid;
    store_ = std::make_unique<mem::ObjectStore>(&engine_, &ctrl_, config);
  }

  Bytes Value(uint64_t key) {
    Bytes v;
    PutU64(v, key * 31 + 7);
    return v;
  }

  // An LsmEngine on a fresh 48 x 128-LBA zoned namespace of ctrl_.
  std::unique_ptr<LsmEngine> FormatLsm(size_t memtable_budget) {
    const uint32_t nsid = ctrl_.AddNamespace(48 * 128);
    auto zns = nvme::ZonedNamespace::Create(&ctrl_, nsid, 128);
    CHECK_OK(zns.status());
    zns_ = std::make_unique<nvme::ZonedNamespace>(std::move(*zns));
    LsmEngineOptions options;
    options.memtable_budget_bytes = memtable_budget;
    auto lsm = LsmEngine::Format({.engine = &engine_, .zns = zns_.get()}, options);
    CHECK_OK(lsm.status());
    return std::move(*lsm);
  }

  sim::Engine engine_;
  nvme::Controller ctrl_;
  std::unique_ptr<mem::ObjectStore> store_;
  std::unique_ptr<nvme::ZonedNamespace> zns_;
};

// -- B+ tree ----------------------------------------------------------------

TEST_F(StorageTest, BTreeInsertGet) {
  auto tree = BPlusTree::Create(store_.get(), 1);
  ASSERT_TRUE(tree.ok());
  for (uint64_t k = 0; k < 500; ++k) {
    Bytes v = Value(k);
    ASSERT_TRUE(tree->Insert(k, ByteSpan(v.data(), v.size())).ok());
  }
  EXPECT_EQ(tree->EntryCount(), 500u);
  for (uint64_t k = 0; k < 500; ++k) {
    auto got = tree->Get(k);
    ASSERT_TRUE(got.ok()) << k;
    EXPECT_EQ(*got, Value(k));
  }
  EXPECT_FALSE(tree->Get(9999).ok());
}

TEST_F(StorageTest, BTreeOverwrite) {
  auto tree = BPlusTree::Create(store_.get(), 2);
  ASSERT_TRUE(tree.ok());
  Bytes v1 = {1};
  Bytes v2 = {2};
  ASSERT_TRUE(tree->Insert(5, ByteSpan(v1.data(), 1)).ok());
  ASSERT_TRUE(tree->Insert(5, ByteSpan(v2.data(), 1)).ok());
  EXPECT_EQ(tree->EntryCount(), 1u);
  EXPECT_EQ(*tree->Get(5), v2);
}

TEST_F(StorageTest, BTreeGrowsInHeight) {
  auto tree = BPlusTree::Create(store_.get(), 3);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->Height(), 1u);
  for (uint64_t k = 0; k < 2000; ++k) {
    Bytes v = Value(k);
    ASSERT_TRUE(tree->Insert(k * 17 % 4096, ByteSpan(v.data(), v.size())).ok());
  }
  EXPECT_GE(tree->Height(), 3u);
  // Every key still reachable after many splits.
  for (uint64_t k = 0; k < 2000; ++k) {
    ASSERT_TRUE(tree->Get(k * 17 % 4096).ok());
  }
}

TEST_F(StorageTest, BTreeScanOrderedAndBounded) {
  auto tree = BPlusTree::Create(store_.get(), 4);
  ASSERT_TRUE(tree.ok());
  for (uint64_t k = 0; k < 300; ++k) {
    Bytes v = Value(k);
    ASSERT_TRUE(tree->Insert(k * 2, ByteSpan(v.data(), v.size())).ok());  // even keys
  }
  auto rows = tree->Scan(100, 200);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 51u);  // 100..200 step 2
  for (size_t i = 0; i + 1 < rows->size(); ++i) {
    EXPECT_LT((*rows)[i].first, (*rows)[i + 1].first);
  }
  EXPECT_EQ(rows->front().first, 100u);
  EXPECT_EQ(rows->back().first, 200u);
}

TEST_F(StorageTest, BTreeDelete) {
  auto tree = BPlusTree::Create(store_.get(), 5);
  ASSERT_TRUE(tree.ok());
  for (uint64_t k = 0; k < 100; ++k) {
    Bytes v = Value(k);
    ASSERT_TRUE(tree->Insert(k, ByteSpan(v.data(), v.size())).ok());
  }
  ASSERT_TRUE(tree->Delete(50).ok());
  EXPECT_FALSE(tree->Get(50).ok());
  EXPECT_EQ(tree->Delete(50).code(), StatusCode::kNotFound);
  EXPECT_EQ(tree->EntryCount(), 99u);
}

TEST_F(StorageTest, BTreeNodeReadsMatchHeight) {
  auto tree = BPlusTree::Create(store_.get(), 6);
  ASSERT_TRUE(tree.ok());
  for (uint64_t k = 0; k < 2000; ++k) {
    Bytes v = Value(k);
    ASSERT_TRUE(tree->Insert(k, ByteSpan(v.data(), v.size())).ok());
  }
  tree->ResetStats();
  ASSERT_TRUE(tree->Get(1234).ok());
  EXPECT_EQ(tree->NodeReads(), tree->Height());
}

TEST_F(StorageTest, BTreePropertyMatchesStdMap) {
  auto tree = BPlusTree::Create(store_.get(), 7);
  ASSERT_TRUE(tree.ok());
  std::map<uint64_t, Bytes> model;
  Rng rng(1234);
  for (int i = 0; i < 3000; ++i) {
    const uint64_t key = rng.Uniform(800);
    const int action = static_cast<int>(rng.Uniform(3));
    if (action == 0 && !model.empty()) {
      // Delete a key that may or may not exist.
      const bool existed = model.erase(key) > 0;
      Status st = tree->Delete(key);
      EXPECT_EQ(st.ok(), existed);
    } else {
      Bytes v;
      PutU64(v, rng.Next());
      model[key] = v;
      ASSERT_TRUE(tree->Insert(key, ByteSpan(v.data(), v.size())).ok());
    }
  }
  EXPECT_EQ(tree->EntryCount(), model.size());
  for (const auto& [key, value] : model) {
    auto got = tree->Get(key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(*got, value);
  }
}

// -- B+ tree raw node view vs the decode path ---------------------------------
//
// Get, Delete's walk and Scan read nodes through RawNodeView; ParseBPlusNode
// decodes them. On any image — valid, bit-flipped, truncated, or with a
// mutated count or value length — the two must agree: same Status, same
// keys, values and child pointers, and the same routing for any probe key.

// Corrupts `image` in place with one seeded mutation.
void MutateNodeImage(Bytes& image, Rng& rng) {
  const uint32_t count = GetU32(image, 1);
  switch (rng.Uniform(5)) {
    case 0:  // byte flip in the populated front of the image
      image[rng.Uniform(600)] ^= static_cast<uint8_t>(rng.UniformRange(1, 255));
      break;
    case 1:  // bit flip in the header (is_leaf, count, next_leaf)
      image[rng.Uniform(13)] ^= static_cast<uint8_t>(1u << rng.Uniform(8));
      break;
    case 2: {  // count field
      const uint32_t counts[] = {count + 1, count - 1, 0, 512, 513,
                                 static_cast<uint32_t>(rng.Next())};
      const uint32_t mutated = counts[rng.Uniform(6)];
      std::memcpy(image.data() + 1, &mutated, 4);
      break;
    }
    case 3: {  // a value-length field (a leaf's), or the first key slot
      size_t at = 13 + 8 * size_t{count};
      const uint32_t skip = count == 0 ? 0 : static_cast<uint32_t>(rng.Uniform(count));
      for (uint32_t i = 0; i < skip && at + 4 <= image.size(); ++i) {
        at += 4 + GetU32(image, at);
      }
      if (at + 4 > image.size()) {
        at = 13;
      }
      const uint32_t len = GetU32(image, at);
      const uint32_t lens[] = {len + 1, len - 1, 4096, 0xFFFFFFFFu,
                               static_cast<uint32_t>(rng.Uniform(5000))};
      const uint32_t mutated = lens[rng.Uniform(5)];
      std::memcpy(image.data() + at, &mutated, 4);
      break;
    }
    default: {  // torn write: the tail from a random cut reads back as zeroes
      const size_t cut = rng.Uniform(400);
      std::fill(image.begin() + static_cast<ptrdiff_t>(cut), image.end(), 0);
      break;
    }
  }
}

// Asserts RawNodeView::Open and ParseBPlusNode agree on `raw`, down to the
// route each probe key takes.
void ExpectViewMatchesParse(ByteSpan raw, const std::vector<uint64_t>& probes) {
  Result<NodeView> parsed = ParseBPlusNode(raw);
  Result<RawNodeView> view = RawNodeView::Open(raw);
  ASSERT_EQ(parsed.status().code(), view.status().code());
  ASSERT_EQ(parsed.status().message(), view.status().message());
  if (!parsed.ok()) {
    return;
  }
  ASSERT_EQ(view->is_leaf(), parsed->is_leaf);
  ASSERT_EQ(view->count(), parsed->keys.size());
  ASSERT_EQ(view->next_leaf(), parsed->next_leaf);
  for (uint32_t i = 0; i < view->count(); ++i) {
    ASSERT_EQ(view->key(i), parsed->keys[i]);
    if (parsed->is_leaf) {
      const ByteSpan value = view->value(i);
      ASSERT_EQ(Bytes(value.begin(), value.end()), parsed->values[i]);
    }
  }
  for (uint64_t key : probes) {
    const auto& keys = parsed->keys;
    if (parsed->is_leaf) {
      auto it = std::lower_bound(keys.begin(), keys.end(), key);
      const std::optional<ByteSpan> found = view->Find(key);
      ASSERT_EQ(found.has_value(), it != keys.end() && *it == key) << key;
      if (found.has_value()) {
        ASSERT_EQ(Bytes(found->begin(), found->end()),
                  parsed->values[static_cast<size_t>(it - keys.begin())]);
      }
    } else {
      auto it = std::upper_bound(keys.begin(), keys.end(), key);
      ASSERT_EQ(view->ChildFor(key), parsed->children[static_cast<size_t>(it - keys.begin())]);
    }
  }
}

// The decode-path walk: read each node, ParseBPlusNode it, route with std::
// binary searches. Returns the leaf reached (or nullopt past `max_hops`, a
// cycle a corrupt child pointer can close) and the Get outcome.
struct ReferenceWalk {
  std::optional<uint64_t> leaf;
  Result<Bytes> value = NotFound("no walk");
};

ReferenceWalk WalkByDecoding(mem::ObjectStore* store, uint64_t tree_id, uint64_t root,
                             uint64_t key, int max_hops = 8) {
  ReferenceWalk walk;
  uint64_t node_id = root;
  for (int hop = 0; hop < max_hops; ++hop) {
    Result<Bytes> raw = store->Read(BPlusNodeSegment(tree_id, node_id), 0,
                                    BPlusTree::kNodeBytes);
    if (!raw.ok()) {
      walk.leaf = node_id;
      walk.value = raw.status();
      return walk;
    }
    Result<NodeView> node = ParseBPlusNode(*raw);
    if (!node.ok()) {
      walk.leaf = node_id;
      walk.value = node.status();
      return walk;
    }
    if (node->is_leaf) {
      walk.leaf = node_id;
      auto it = std::lower_bound(node->keys.begin(), node->keys.end(), key);
      if (it == node->keys.end() || *it != key) {
        walk.value = NotFound("key not in tree");
      } else {
        walk.value = node->values[static_cast<size_t>(it - node->keys.begin())];
      }
      return walk;
    }
    auto it = std::upper_bound(node->keys.begin(), node->keys.end(), key);
    node_id = node->children[static_cast<size_t>(it - node->keys.begin())];
  }
  return walk;
}

TEST(BPlusRawNodeViewTest, OpenMatchesParseOnValidAndTruncatedImages) {
  sim::Engine engine;
  nvme::Controller ctrl(&engine);
  mem::ObjectStoreConfig config;
  config.nvme_nsid = ctrl.AddNamespace(1u << 14);
  mem::ObjectStore store(&engine, &ctrl, config);
  auto tree = BPlusTree::Create(&store, 41);
  ASSERT_TRUE(tree.ok());
  Rng rng(41);
  for (uint64_t k = 0; k < 1500; ++k) {
    Bytes v(rng.Uniform(BPlusTree::kMaxValueLen + 1), static_cast<uint8_t>(k));
    ASSERT_TRUE(tree->Insert(rng.Uniform(100000), ByteSpan(v)).ok());
  }
  ASSERT_EQ(tree->Height(), 3u);
  const std::vector<uint64_t> probes = {0, 1, 50000, 99999, 100000, ~0ull};
  for (uint64_t node_id = 1; node_id < 40; ++node_id) {
    auto raw = store.Read(BPlusNodeSegment(41, node_id), 0, BPlusTree::kNodeBytes);
    ASSERT_TRUE(raw.ok());
    ExpectViewMatchesParse(*raw, probes);
    for (size_t cut : {size_t{0}, size_t{1}, size_t{4}, size_t{5}, size_t{12}, size_t{13},
                       size_t{20}, static_cast<size_t>(rng.Uniform(BPlusTree::kNodeBytes))}) {
      ExpectViewMatchesParse(ByteSpan(*raw).subspan(0, cut), probes);
    }
  }
}

TEST(BPlusRawNodeViewTest, OpenMatchesParseOnMutatedImages) {
  sim::Engine engine;
  nvme::Controller ctrl(&engine);
  mem::ObjectStoreConfig config;
  config.nvme_nsid = ctrl.AddNamespace(1u << 14);
  mem::ObjectStore store(&engine, &ctrl, config);
  auto tree = BPlusTree::Create(&store, 42);
  ASSERT_TRUE(tree.ok());
  for (uint64_t k = 0; k < 1200; ++k) {
    Bytes v(k % 40, static_cast<uint8_t>(k));
    ASSERT_TRUE(tree->Insert(k * 7, ByteSpan(v)).ok());
  }
  Rng rng(7);
  int rejected = 0;
  int tested = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const uint64_t node_id = rng.UniformRange(1, 300);
    auto raw = store.Read(BPlusNodeSegment(42, node_id), 0, BPlusTree::kNodeBytes);
    if (!raw.ok()) {
      continue;
    }
    Bytes image = *raw;
    MutateNodeImage(image, rng);
    if (rng.Uniform(4) == 0) {
      image.resize(rng.Uniform(image.size()));
    }
    const uint64_t key = rng.Uniform(1200) * 7;
    ExpectViewMatchesParse(image, {key, key + 1, rng.Next()});
    rejected += !ParseBPlusNode(image).ok();
    ++tested;
  }
  // Both outcomes are well represented.
  EXPECT_GT(rejected, tested / 10);
  EXPECT_LT(rejected, tested * 9 / 10);
}

TEST_F(StorageTest, BTreeRawWalkMatchesDecodePathOnCorruptNodes) {
  constexpr uint64_t kTree = 43;
  // Durable nodes: the walk reads them from flash straight into the image.
  auto tree = BPlusTree::Create(store_.get(), kTree, {.durable = true});
  ASSERT_TRUE(tree.ok());
  std::vector<uint64_t> keys;
  for (uint64_t k = 0; k < 1200; ++k) {
    Bytes v(k % 30, static_cast<uint8_t>(k));
    ASSERT_TRUE(tree->Insert(k * 5, ByteSpan(v)).ok());
    keys.push_back(k * 5);
  }
  ASSERT_EQ(tree->Height(), 3u);
  Rng rng(43);
  int compared = 0;
  int deleted = 0;
  int corrupt = 0;
  for (int trial = 0; trial < 600; ++trial) {
    // Corrupt one node: the root, an inner node or a leaf.
    const uint64_t node_id = trial % 8 == 0 ? tree->root_node_id() : rng.UniformRange(1, 300);
    const mem::SegmentId seg = BPlusNodeSegment(kTree, node_id);
    auto original = store_->Read(seg, 0, BPlusTree::kNodeBytes);
    if (!original.ok()) {
      continue;
    }
    Bytes image = *original;
    MutateNodeImage(image, rng);
    ASSERT_TRUE(store_->Write(seg, 0, ByteSpan(image)).ok());

    for (int probe = 0; probe < 4; ++probe) {
      const uint64_t key = probe == 3 ? rng.Uniform(6000) : keys[rng.Uniform(keys.size())];
      const ReferenceWalk expected =
          WalkByDecoding(store_.get(), kTree, tree->root_node_id(), key);
      if (!expected.leaf.has_value()) {
        continue;  // a corrupt pointer closed a cycle: both walks would spin
      }
      corrupt += expected.value.status().code() == StatusCode::kDataLoss;
      Result<Bytes> got = tree->Get(key);
      ASSERT_EQ(got.status().code(), expected.value.status().code()) << trial;
      ASSERT_EQ(got.status().message(), expected.value.status().message()) << trial;
      if (got.ok()) {
        ASSERT_EQ(*got, *expected.value) << trial;
      }
      ++compared;

      // Delete takes the same walk; on success the leaf is rewritten as
      // its decoded form less `key`.
      const mem::SegmentId leaf_seg = BPlusNodeSegment(kTree, *expected.leaf);
      Result<Bytes> leaf_before = store_->Read(leaf_seg, 0, BPlusTree::kNodeBytes);
      Status st = tree->Delete(key);
      ASSERT_EQ(st.code(), expected.value.status().code()) << trial;
      if (!st.ok()) {
        continue;
      }
      ++deleted;
      Result<NodeView> before = ParseBPlusNode(*leaf_before);
      auto after = store_->Read(leaf_seg, 0, BPlusTree::kNodeBytes);
      ASSERT_TRUE(before.ok() && after.ok());
      Result<NodeView> rewritten = ParseBPlusNode(*after);
      ASSERT_TRUE(rewritten.ok());
      auto pos = std::lower_bound(before->keys.begin(), before->keys.end(), key);
      const auto index = pos - before->keys.begin();
      before->keys.erase(pos);
      before->values.erase(before->values.begin() + index);
      EXPECT_TRUE(rewritten->is_leaf);
      EXPECT_EQ(rewritten->keys, before->keys);
      EXPECT_EQ(rewritten->values, before->values);
      EXPECT_EQ(rewritten->next_leaf, before->next_leaf);
      ASSERT_TRUE(store_->Write(leaf_seg, 0, ByteSpan(*leaf_before)).ok());
    }
    ASSERT_TRUE(store_->Write(seg, 0, ByteSpan(*original)).ok());
  }
  EXPECT_GT(compared, 1500);
  EXPECT_GT(deleted, 500);
  EXPECT_GT(corrupt, 50);
  // Every corruption was undone: the tree reads back whole.
  for (uint64_t key : keys) {
    ASSERT_TRUE(tree->Get(key).ok()) << key;
  }
}

// -- LSM engine ---------------------------------------------------------------
// KvStore has no LSM layout: the write-optimized store is the LsmEngine on
// ZNS (served as ServiceId::kLsmKv). lsm_model_test checks it against a
// std::map model; these pin single behaviours.

TEST_F(StorageTest, LsmPutGetThroughFlushes) {
  auto lsm = FormatLsm(8 * 1024);
  for (uint64_t k = 0; k < 1000; ++k) {
    Bytes v = Value(k);
    ASSERT_TRUE(lsm->Put(k, ByteSpan(v.data(), v.size())).ok());
  }
  EXPECT_GT(lsm->stats().flushes, 0u);
  for (uint64_t k = 0; k < 1000; ++k) {
    auto got = lsm->Get(k);
    ASSERT_TRUE(got.ok() && got->has_value()) << k;
    EXPECT_EQ(**got, Value(k));
  }
}

TEST_F(StorageTest, LsmNewestVersionWins) {
  auto lsm = FormatLsm(4 * 1024);
  Bytes v1 = {1};
  Bytes v2 = {2};
  ASSERT_TRUE(lsm->Put(42, ByteSpan(v1.data(), 1)).ok());
  ASSERT_TRUE(lsm->Flush().ok());
  ASSERT_TRUE(lsm->Put(42, ByteSpan(v2.data(), 1)).ok());
  EXPECT_EQ(lsm->Get(42)->value(), v2);
  ASSERT_TRUE(lsm->Flush().ok());
  EXPECT_EQ(lsm->Get(42)->value(), v2);
}

TEST_F(StorageTest, LsmTombstonesShadowOlderValues) {
  auto lsm = FormatLsm(4 * 1024);
  Bytes v = {7};
  ASSERT_TRUE(lsm->Put(10, ByteSpan(v.data(), 1)).ok());
  ASSERT_TRUE(lsm->Flush().ok());
  ASSERT_TRUE(lsm->Delete(10).ok());
  EXPECT_FALSE(lsm->Get(10)->has_value());
  ASSERT_TRUE(lsm->Flush().ok());
  EXPECT_FALSE(lsm->Get(10)->has_value());
}

TEST_F(StorageTest, LsmCompactionBoundsL0AndDropsTombstones) {
  auto lsm = FormatLsm(2 * 1024);
  for (uint64_t k = 0; k < 2000; ++k) {
    Bytes v = Value(k);
    ASSERT_TRUE(lsm->Put(k, ByteSpan(v.data(), v.size())).ok());
    if (k % 500 == 0) {
      ASSERT_TRUE(lsm->Delete(k).ok());
    }
    if (k % 8 == 0) {
      ASSERT_TRUE(lsm->CompactStep().ok());
    }
  }
  ASSERT_TRUE(lsm->Flush().ok());
  ASSERT_TRUE(lsm->CompactAll().ok());
  EXPECT_GT(lsm->stats().compactions, 0u);
  EXPECT_GT(lsm->stats().compaction_drop_entries, 0u);
  EXPECT_LT(lsm->LevelTableCount(0), LsmEngineOptions().l0_compaction_trigger);
  EXPECT_GT(lsm->LevelTableCount(1), 0u);
  // Everything still readable post-compaction; deleted keys stay deleted.
  for (uint64_t k = 0; k < 2000; k += 97) {
    auto got = lsm->Get(k);
    ASSERT_TRUE(got.ok()) << k;
    EXPECT_EQ(got->has_value(), k % 500 != 0) << k;
  }
}

TEST_F(StorageTest, LsmBloomFiltersSkipFlashReads) {
  auto lsm = FormatLsm(4 * 1024);
  for (uint64_t k = 0; k < 500; ++k) {
    Bytes v = Value(k);
    ASSERT_TRUE(lsm->Put(k * 2, ByteSpan(v.data(), v.size())).ok());  // even keys
  }
  ASSERT_TRUE(lsm->Flush().ok());
  // Odd keys fall inside the tables' [min, max] but are absent: blooms
  // absorb most probes before any block read.
  for (uint64_t k = 1; k < 400; k += 2) {
    auto got = lsm->Get(k);
    ASSERT_TRUE(got.ok());
    EXPECT_FALSE(got->has_value());
  }
  EXPECT_GT(lsm->stats().bloom_skips, 0u);
}

TEST_F(StorageTest, LsmPropertyMatchesStdMap) {
  auto lsm = FormatLsm(2 * 1024);
  std::map<uint64_t, Bytes> model;
  Rng rng(777);
  for (int i = 0; i < 2000; ++i) {
    const uint64_t key = rng.Uniform(300);
    if (rng.Bernoulli(0.25)) {
      model.erase(key);
      ASSERT_TRUE(lsm->Delete(key).ok());
    } else {
      Bytes v;
      PutU64(v, rng.Next());
      model[key] = v;
      ASSERT_TRUE(lsm->Put(key, ByteSpan(v.data(), v.size())).ok());
    }
    if (i % 8 == 0) {
      ASSERT_TRUE(lsm->CompactStep().ok());
    }
  }
  for (uint64_t key = 0; key < 300; ++key) {
    auto got = lsm->Get(key);
    ASSERT_TRUE(got.ok()) << key;
    auto it = model.find(key);
    ASSERT_EQ(got->has_value(), it != model.end()) << key;
    if (it != model.end()) {
      EXPECT_EQ(**got, it->second) << key;
    }
  }
}

// -- Hash index -----------------------------------------------------------

TEST_F(StorageTest, HashIndexBasicOps) {
  auto index = HashIndex::Create(store_.get(), 1, 16);
  ASSERT_TRUE(index.ok());
  Bytes key = ToBytes("flow-1");
  Bytes value = ToBytes("backend-3");
  ASSERT_TRUE(index->Put(ByteSpan(key.data(), key.size()), ByteSpan(value.data(), value.size()))
                  .ok());
  EXPECT_EQ(*index->Get(ByteSpan(key.data(), key.size())), value);
  ASSERT_TRUE(index->Delete(ByteSpan(key.data(), key.size())).ok());
  EXPECT_FALSE(index->Get(ByteSpan(key.data(), key.size())).ok());
}

TEST_F(StorageTest, HashIndexOverflowChains) {
  // 1 bucket forces every key through the same chain.
  auto index = HashIndex::Create(store_.get(), 2, 1);
  ASSERT_TRUE(index.ok());
  for (uint64_t k = 0; k < 500; ++k) {
    Bytes key;
    PutU64(key, k);
    Bytes value = Value(k);
    ASSERT_TRUE(
        index->Put(ByteSpan(key.data(), key.size()), ByteSpan(value.data(), value.size())).ok())
        << k;
  }
  EXPECT_EQ(index->EntryCount(), 500u);
  for (uint64_t k = 0; k < 500; ++k) {
    Bytes key;
    PutU64(key, k);
    auto got = index->Get(ByteSpan(key.data(), key.size()));
    ASSERT_TRUE(got.ok()) << k;
    EXPECT_EQ(*got, Value(k));
  }
}

TEST_F(StorageTest, HashIndexStatsTrackChainsAndOccupancy) {
  // 4 roots and fixed-size records: chain growth is fully predictable, so
  // the stats must track it exactly, not approximately.
  auto index = HashIndex::Create(store_.get(), 4, 4);
  ASSERT_TRUE(index.ok());
  HashIndexStats stats = index->Stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.root_buckets, 4u);
  EXPECT_EQ(stats.overflow_buckets, 0u);
  EXPECT_EQ(stats.max_chain, 1u);
  EXPECT_EQ(stats.occupancy, 0.0);

  for (uint64_t k = 0; k < 2000; ++k) {
    Bytes key;
    PutU64(key, k);
    Bytes value = Value(k);
    ASSERT_TRUE(
        index->Put(ByteSpan(key.data(), key.size()), ByteSpan(value.data(), value.size())).ok());
  }
  stats = index->Stats();
  EXPECT_EQ(stats.entries, 2000u);
  EXPECT_GT(stats.overflow_buckets, 0u);
  EXPECT_GT(stats.max_chain, 1u);
  // mean chain = total buckets / roots, and the max bounds the mean.
  EXPECT_DOUBLE_EQ(stats.mean_chain,
                   static_cast<double>(stats.root_buckets + stats.overflow_buckets) /
                       stats.root_buckets);
  EXPECT_LE(stats.mean_chain, static_cast<double>(stats.max_chain));
  EXPECT_GT(stats.occupancy, 0.0);
  EXPECT_LE(stats.occupancy, 1.0);

  // Deleting everything drains entries; chains may persist (no merge), but
  // occupancy must fall to zero payload.
  for (uint64_t k = 0; k < 2000; ++k) {
    Bytes key;
    PutU64(key, k);
    ASSERT_TRUE(index->Delete(ByteSpan(key.data(), key.size())).ok());
  }
  stats = index->Stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.occupancy, 0.0);
}

TEST_F(StorageTest, HashIndexMillionEntryScale) {
  // The XDP flow table sizing case: >=1M concurrent flows over a fixed
  // bucket directory. Fixed 16-byte records over 8192 4KiB roots sit right
  // at capacity, so overflow stays near zero and chains stay flat.
  auto index = HashIndex::Create(store_.get(), 5, 8192);
  ASSERT_TRUE(index.ok());
  const uint64_t kFlows = 1u << 20;
  for (uint64_t k = 0; k < kFlows; ++k) {
    Bytes key;
    PutU64(key, k * 0x9E3779B97F4A7C15ull);  // well-spread flow ids
    Bytes value = Value(k);
    ASSERT_TRUE(
        index->Put(ByteSpan(key.data(), key.size()), ByteSpan(value.data(), value.size())).ok())
        << k;
  }
  HashIndexStats stats = index->Stats();
  EXPECT_EQ(stats.entries, kFlows);
  EXPECT_EQ(stats.root_buckets, 8192u);
  EXPECT_LT(stats.max_chain, 4u);
  EXPECT_LT(stats.mean_chain, 1.1);
  EXPECT_GT(stats.occupancy, 0.5);
  // Spot-check reads across the whole range.
  for (uint64_t k = 0; k < kFlows; k += 65537) {
    Bytes key;
    PutU64(key, k * 0x9E3779B97F4A7C15ull);
    auto got = index->Get(ByteSpan(key.data(), key.size()));
    ASSERT_TRUE(got.ok()) << k;
    EXPECT_EQ(*got, Value(k));
  }
  // Teardown of a stripe shrinks the count exactly.
  for (uint64_t k = 0; k < kFlows; k += 16) {
    Bytes key;
    PutU64(key, k * 0x9E3779B97F4A7C15ull);
    ASSERT_TRUE(index->Delete(ByteSpan(key.data(), key.size())).ok()) << k;
  }
  EXPECT_EQ(index->Stats().entries, kFlows - kFlows / 16);
}

TEST_F(StorageTest, HashIndexPropertyMatchesUnorderedMap) {
  auto index = HashIndex::Create(store_.get(), 6, 8);
  ASSERT_TRUE(index.ok());
  std::unordered_map<uint64_t, uint64_t> model;
  Rng rng(0xD1CE);
  for (int op = 0; op < 20000; ++op) {
    const uint64_t k = rng.Uniform(512);  // small key space forces collisions
    Bytes key;
    PutU64(key, k);
    const uint32_t kind = static_cast<uint32_t>(rng.Uniform(10));
    if (kind < 6) {  // put (fresh, same-size overwrite, or resize overwrite)
      const uint64_t v = rng.Next();
      Bytes value;
      PutU64(value, v);
      if (kind == 5) {
        PutU64(value, v);  // 16-byte variant: in-place resize path
      }
      ASSERT_TRUE(
          index->Put(ByteSpan(key.data(), key.size()), ByteSpan(value.data(), value.size())).ok());
      model[k] = v;
    } else if (kind < 8) {  // delete
      const Status deleted = index->Delete(ByteSpan(key.data(), key.size()));
      EXPECT_EQ(deleted.ok(), model.erase(k) > 0) << "key " << k;
    } else {  // lookup
      auto got = index->Get(ByteSpan(key.data(), key.size()));
      auto expect = model.find(k);
      ASSERT_EQ(got.ok(), expect != model.end()) << "key " << k;
      if (got.ok()) {
        EXPECT_EQ(GetU64(ByteSpan(got->data(), got->size()), 0), expect->second);
      }
    }
  }
  EXPECT_EQ(index->EntryCount(), model.size());
  for (const auto& [k, v] : model) {
    Bytes key;
    PutU64(key, k);
    auto got = index->Get(ByteSpan(key.data(), key.size()));
    ASSERT_TRUE(got.ok()) << k;
    EXPECT_EQ(GetU64(ByteSpan(got->data(), got->size()), 0), v);
  }
}

TEST_F(StorageTest, HashIndexOverwrite) {
  auto index = HashIndex::Create(store_.get(), 3, 8);
  ASSERT_TRUE(index.ok());
  Bytes key = ToBytes("k");
  Bytes v1 = ToBytes("old");
  Bytes v2 = ToBytes("new");
  ASSERT_TRUE(index->Put(ByteSpan(key.data(), 1), ByteSpan(v1.data(), v1.size())).ok());
  ASSERT_TRUE(index->Put(ByteSpan(key.data(), 1), ByteSpan(v2.data(), v2.size())).ok());
  EXPECT_EQ(index->EntryCount(), 1u);
  EXPECT_EQ(*index->Get(ByteSpan(key.data(), 1)), v2);
}

// -- Corfu log ------------------------------------------------------------

TEST_F(StorageTest, CorfuAppendRead) {
  CorfuLog log(store_.get(), 1);
  auto p0 = log.Append(ByteSpan(reinterpret_cast<const uint8_t*>("alpha"), 5));
  auto p1 = log.Append(ByteSpan(reinterpret_cast<const uint8_t*>("beta"), 4));
  ASSERT_TRUE(p0.ok());
  ASSERT_TRUE(p1.ok());
  EXPECT_EQ(*p0, 0u);
  EXPECT_EQ(*p1, 1u);
  EXPECT_EQ(ToString(ByteSpan(log.Read(0)->data(), log.Read(0)->size())), "alpha");
  EXPECT_EQ(ToString(ByteSpan(log.Read(1)->data(), log.Read(1)->size())), "beta");
}

TEST_F(StorageTest, CorfuWriteOnceEnforced) {
  CorfuLog log(store_.get(), 2);
  const uint64_t pos = log.Reserve();
  Bytes data = ToBytes("x");
  ASSERT_TRUE(log.WriteAt(pos, ByteSpan(data.data(), 1)).ok());
  EXPECT_EQ(log.WriteAt(pos, ByteSpan(data.data(), 1)).code(), StatusCode::kAlreadyExists);
}

TEST_F(StorageTest, CorfuHolesAndFills) {
  CorfuLog log(store_.get(), 3);
  const uint64_t hole = log.Reserve();  // reserved, never written
  auto p1 = log.Append(ToBytes("after-hole"));
  ASSERT_TRUE(p1.ok());
  // The hole reads as NotFound until filled.
  EXPECT_EQ(log.Read(hole).status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(log.Fill(hole).ok());
  EXPECT_EQ(log.Read(hole).status().code(), StatusCode::kDataLoss);
  // Fill is also write-once.
  EXPECT_EQ(log.Fill(hole).code(), StatusCode::kAlreadyExists);
  // A slow writer arriving after the fill loses.
  Bytes late = ToBytes("late");
  EXPECT_EQ(log.WriteAt(hole, ByteSpan(late.data(), late.size())).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(StorageTest, CorfuTrimReclaims) {
  CorfuLog log(store_.get(), 4);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(log.Append(ToBytes("entry")).ok());
  }
  ASSERT_TRUE(log.Trim(5).ok());
  EXPECT_EQ(log.Read(3).status().code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(log.Read(7).ok());
  EXPECT_EQ(log.TrimPoint(), 5u);
}

TEST_F(StorageTest, CorfuStriping) {
  CorfuLog log(store_.get(), 5, /*stripe_units=*/4);
  EXPECT_EQ(log.UnitOf(0), 0u);
  EXPECT_EQ(log.UnitOf(5), 1u);
  EXPECT_EQ(log.UnitOf(7), 3u);
}

TEST_F(StorageTest, CorfuDetectsCorruption) {
  CorfuLog log(store_.get(), 6);
  auto pos = log.Append(ToBytes("precious"));
  ASSERT_TRUE(pos.ok());
  // Flip a byte behind the log's back.
  const mem::SegmentId seg(0xC0F0000000000006ull, *pos);
  auto raw = store_->Read(seg, 0, 6);
  ASSERT_TRUE(raw.ok());
  Bytes tampered = *raw;
  tampered[5] ^= 0xff;
  ASSERT_TRUE(store_->Write(seg, 0, ByteSpan(tampered.data(), tampered.size())).ok());
  EXPECT_EQ(log.Read(*pos).status().code(), StatusCode::kDataLoss);
}

// Regression: the sequencer must be durable. A log reopened over the same
// store used to restart its tail at 0 and re-issue handed-out positions,
// silently overwriting nothing (write-once saves the data) but breaking
// Reserve()'s uniqueness contract — every retry loop above it spun forever
// on kAlreadyExists.
TEST_F(StorageTest, CorfuSequencerSurvivesReopen) {
  constexpr uint64_t kLogId = 7;
  uint64_t reserved = 0;
  {
    CorfuLog log(store_.get(), kLogId);
    for (int i = 0; i < 5; ++i) {
      reserved = log.Reserve();
    }
    Bytes data = ToBytes("durable");
    ASSERT_TRUE(log.WriteAt(reserved, ByteSpan(data.data(), data.size())).ok());
  }
  CorfuLog reopened(store_.get(), kLogId);
  // The recovered tail may overestimate (chunked ceiling) but never hands
  // out a position at or below anything previously reserved.
  EXPECT_GT(reopened.Reserve(), reserved);
  // Write-once still holds across the reopen.
  Bytes late = ToBytes("late");
  EXPECT_EQ(reopened.WriteAt(reserved, ByteSpan(late.data(), late.size())).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(ToString(ByteSpan(reopened.Read(reserved)->data(), reopened.Read(reserved)->size())),
            "durable");
}

// Trim must survive a reopen too (same meta segment as the ceiling).
TEST_F(StorageTest, CorfuTrimSurvivesReopen) {
  constexpr uint64_t kLogId = 8;
  {
    CorfuLog log(store_.get(), kLogId);
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(log.Append(ToBytes("entry")).ok());
    }
    ASSERT_TRUE(log.Trim(6).ok());
  }
  CorfuLog reopened(store_.get(), kLogId);
  EXPECT_EQ(reopened.TrimPoint(), 6u);
  EXPECT_EQ(reopened.Read(3).status().code(), StatusCode::kOutOfRange);
}

// AdvanceTail (failover tail adoption) persists: a reopened log resumes
// past the adopted tail.
TEST_F(StorageTest, CorfuAdoptedTailSurvivesReopen) {
  constexpr uint64_t kLogId = 9;
  {
    CorfuLog log(store_.get(), kLogId);
    log.AdvanceTail(500);
    EXPECT_EQ(log.Tail(), 500u);
  }
  CorfuLog reopened(store_.get(), kLogId);
  EXPECT_GE(reopened.Tail(), 500u);
  EXPECT_GE(reopened.Reserve(), 500u);
}

// A replica accepts writes at positions sequenced elsewhere: WriteAt past
// the local tail advances it instead of rejecting.
TEST_F(StorageTest, CorfuRemoteSequencedWriteAdvancesTail) {
  CorfuLog log(store_.get(), 10);
  Bytes data = ToBytes("remote");
  ASSERT_TRUE(log.WriteAt(7, ByteSpan(data.data(), data.size())).ok());
  EXPECT_EQ(log.Tail(), 8u);
  EXPECT_EQ(log.Read(7).status().code(), StatusCode::kOk);
  EXPECT_EQ(log.Read(3).status().code(), StatusCode::kNotFound);
}

// -- Transactions ---------------------------------------------------------

class TxnTest : public StorageTest {
 protected:
  mem::SegmentId MakeTarget(uint64_t id, uint64_t size = 4096) {
    const mem::SegmentId seg(0xDA7Aull, id);
    CHECK_OK(store_->CreateWithId(seg, size, {.durable = true}));
    return seg;
  }
};

TEST_F(TxnTest, CommitAppliesAtomically) {
  auto mgr = TransactionManager::Create(store_.get(), 1);
  ASSERT_TRUE(mgr.ok());
  const mem::SegmentId a = MakeTarget(1);
  const mem::SegmentId b = MakeTarget(2);
  auto txn = mgr->Begin();
  Bytes da = ToBytes("AAAA");
  Bytes db = ToBytes("BBBB");
  TransactionManager::StageWrite(txn, a, 0, ByteSpan(da.data(), da.size()));
  TransactionManager::StageWrite(txn, b, 100, ByteSpan(db.data(), db.size()));
  ASSERT_TRUE(mgr->Commit(txn).ok());
  EXPECT_EQ(ToString(ByteSpan(store_->Read(a, 0, 4)->data(), 4)), "AAAA");
  EXPECT_EQ(ToString(ByteSpan(store_->Read(b, 100, 4)->data(), 4)), "BBBB");
  EXPECT_EQ(mgr->committed(), 1u);
}

TEST_F(TxnTest, CrashBeforeSyncLosesTransaction) {
  auto mgr = TransactionManager::Create(store_.get(), 2);
  ASSERT_TRUE(mgr.ok());
  const mem::SegmentId a = MakeTarget(3);
  auto txn = mgr->Begin();
  Bytes data = ToBytes("GONE");
  TransactionManager::StageWrite(txn, a, 0, ByteSpan(data.data(), data.size()));
  EXPECT_EQ(mgr->Commit(txn, CrashPoint::kBeforeWalSync).code(), StatusCode::kAborted);
  // Power cycle: attach + recover.
  auto recovered_mgr = TransactionManager::Attach(store_.get(), 2);
  ASSERT_TRUE(recovered_mgr.ok());
  auto applied = recovered_mgr->Recover();
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, 0u);
  EXPECT_EQ(ToString(ByteSpan(store_->Read(a, 0, 4)->data(), 4)), std::string(4, '\0'));
}

TEST_F(TxnTest, CrashAfterSyncIsReplayed) {
  auto mgr = TransactionManager::Create(store_.get(), 3);
  ASSERT_TRUE(mgr.ok());
  const mem::SegmentId a = MakeTarget(4);
  const mem::SegmentId b = MakeTarget(5);
  auto txn = mgr->Begin();
  Bytes da = ToBytes("SAVE");
  Bytes db = ToBytes("ALSO");
  TransactionManager::StageWrite(txn, a, 0, ByteSpan(da.data(), da.size()));
  TransactionManager::StageWrite(txn, b, 8, ByteSpan(db.data(), db.size()));
  EXPECT_EQ(mgr->Commit(txn, CrashPoint::kAfterWalSync).code(), StatusCode::kAborted);
  // Data not applied yet.
  EXPECT_EQ(ToString(ByteSpan(store_->Read(a, 0, 4)->data(), 4)), std::string(4, '\0'));
  // Recovery replays both writes (atomicity across segments).
  auto recovered_mgr = TransactionManager::Attach(store_.get(), 3);
  ASSERT_TRUE(recovered_mgr.ok());
  auto applied = recovered_mgr->Recover();
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, 1u);
  EXPECT_EQ(ToString(ByteSpan(store_->Read(a, 0, 4)->data(), 4)), "SAVE");
  EXPECT_EQ(ToString(ByteSpan(store_->Read(b, 8, 4)->data(), 4)), "ALSO");
}

TEST_F(TxnTest, InvalidStagedWriteRejectedBeforeLogging) {
  auto mgr = TransactionManager::Create(store_.get(), 4);
  ASSERT_TRUE(mgr.ok());
  const mem::SegmentId a = MakeTarget(6, /*size=*/64);
  auto txn = mgr->Begin();
  Bytes big(128, 0xee);
  TransactionManager::StageWrite(txn, a, 0, ByteSpan(big.data(), big.size()));
  EXPECT_EQ(mgr->Commit(txn).code(), StatusCode::kOutOfRange);
  // WAL unchanged: recovery finds nothing.
  auto recovered = TransactionManager::Attach(store_.get(), 4)->Recover();
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(*recovered, 0u);
}

TEST_F(TxnTest, CheckpointTruncatesWal) {
  auto mgr = TransactionManager::Create(store_.get(), 5);
  ASSERT_TRUE(mgr.ok());
  const mem::SegmentId a = MakeTarget(7);
  for (int i = 0; i < 5; ++i) {
    auto txn = mgr->Begin();
    Bytes data = ToBytes("data");
    TransactionManager::StageWrite(txn, a, static_cast<uint64_t>(i) * 8,
                                   ByteSpan(data.data(), data.size()));
    ASSERT_TRUE(mgr->Commit(txn).ok());
  }
  ASSERT_TRUE(mgr->Checkpoint().ok());
  auto recovered = TransactionManager::Attach(store_.get(), 5)->Recover();
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(*recovered, 0u);  // log empty; data already in place
  EXPECT_EQ(ToString(ByteSpan(store_->Read(a, 0, 4)->data(), 4)), "data");
}

// -- KV facade ---------------------------------------------------------------

class KvParamTest : public StorageTest,
                    public ::testing::WithParamInterface<KvBackend> {};

TEST_P(KvParamTest, PutGetDeleteAcrossBackends) {
  auto kv = KvStore::Create(store_.get(), 40 + static_cast<uint64_t>(GetParam()), GetParam());
  ASSERT_TRUE(kv.ok());
  for (uint64_t k = 0; k < 200; ++k) {
    Bytes v = Value(k);
    ASSERT_TRUE(kv->Put(k, ByteSpan(v.data(), v.size())).ok()) << k;
  }
  for (uint64_t k = 0; k < 200; ++k) {
    auto got = kv->Get(k);
    ASSERT_TRUE(got.ok()) << KvBackendName(GetParam()) << " key " << k;
    EXPECT_EQ(*got, Value(k));
  }
  ASSERT_TRUE(kv->Delete(100).ok());
  EXPECT_FALSE(kv->Get(100).ok());
  EXPECT_FALSE(kv->Get(100000).ok());
}

INSTANTIATE_TEST_SUITE_P(AllBackends, KvParamTest,
                         ::testing::Values(KvBackend::kBTree, KvBackend::kHash),
                         [](const auto& info) {
                           return std::string(KvBackendName(info.param));
                         });

TEST_P(KvParamTest, LargeValuesSpillToSegments) {
  auto kv = KvStore::Create(store_.get(), 60 + static_cast<uint64_t>(GetParam()), GetParam());
  ASSERT_TRUE(kv.ok());
  // 64 KiB value: far above every backend's inline cap.
  Bytes big(64 * 1024);
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<uint8_t>(i * 7);
  }
  ASSERT_TRUE(kv->Put(5, ByteSpan(big.data(), big.size())).ok());
  auto got = kv->Get(5);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, big);
  // Overwrite with a small value: the spilled segment must be reclaimed.
  const size_t before = store_->SegmentCount();
  Bytes small = {1, 2, 3};
  ASSERT_TRUE(kv->Put(5, ByteSpan(small.data(), small.size())).ok());
  EXPECT_EQ(*kv->Get(5), small);
  EXPECT_LT(store_->SegmentCount(), before);
  // Delete of a spilled value reclaims too.
  ASSERT_TRUE(kv->Put(6, ByteSpan(big.data(), big.size())).ok());
  ASSERT_TRUE(kv->Delete(6).ok());
  EXPECT_FALSE(kv->Get(6).ok());
}

// The segment table owns spill state: after every put and delete the value
// segment is mapped exactly when the newest value is over kInlineMax. A
// same-size spilled overwrite is one probe plus the in-place write: no
// index access and no segment created or deleted.
TEST_P(KvParamTest, PutStateTransitionsKeepSpillStateInTheSegmentTable) {
  const uint64_t store_id = 80 + static_cast<uint64_t>(GetParam());
  auto kv = KvStore::Create(store_.get(), store_id, GetParam());
  ASSERT_TRUE(kv.ok());
  constexpr uint64_t kKey = 7;
  const mem::SegmentId seg = KvValueSegment(store_id, kKey);
  const mem::SegmentId root = BPlusNodeSegment(store_id, 1);  // btree: the one leaf
  constexpr size_t kSpill = KvStore::kInlineMax + 56;  // 256 B, kv_fleet's size
  struct Step {
    const char* name;
    size_t size;  // 0: delete
    uint64_t created;
  };
  const Step steps[] = {
      {"absent->inline", 16, 0},
      {"delete inline", 0, 0},
      {"absent->spill", kSpill, 1},
      {"spill->same-size spill", kSpill, 0},
      {"spill->other-size spill", kSpill + 300, 1},
      {"spill->inline", KvStore::kInlineMax, 0},
      {"inline->spill", kSpill, 1},
      {"spill->same-size spill again", kSpill, 0},
      {"delete spill", 0, 0},
  };
  bool mapped = false;
  size_t last_size = 0;
  for (size_t i = 0; i < std::size(steps); ++i) {
    const Step& step = steps[i];
    SCOPED_TRACE(step.name);
    const uint64_t translations = store_->counters().Get("translations");
    const uint64_t created = store_->counters().Get("segments_created");
    const uint64_t root_reads = store_->AccessCount(root);
    const size_t segments = store_->SegmentCount();
    Bytes value(step.size, static_cast<uint8_t>(0xa0 + i));
    if (step.size == 0) {
      ASSERT_TRUE(kv->Delete(kKey).ok());
    } else {
      ASSERT_TRUE(kv->Put(kKey, ByteSpan(value)).ok());
    }
    const bool now_mapped = step.size > KvStore::kInlineMax;
    const uint64_t step_translations = store_->counters().Get("translations") - translations;
    if (step.size == last_size && now_mapped) {
      EXPECT_EQ(step_translations, 2u);  // the probe and the in-place write
      if (GetParam() == KvBackend::kBTree) {
        EXPECT_EQ(store_->AccessCount(root), root_reads);  // no node read or write
      }
    } else {
      EXPECT_GT(step_translations, 2u);  // the index was walked
    }
    EXPECT_EQ(store_->counters().Get("segments_created") - created, step.created);
    EXPECT_EQ(store_->SegmentCount() - segments, static_cast<size_t>(now_mapped) -
                                                     static_cast<size_t>(mapped));
    auto described = store_->Describe(seg);
    ASSERT_EQ(described.ok(), now_mapped);
    if (now_mapped) {
      EXPECT_EQ(described->size, step.size);
    }
    auto got = kv->Get(kKey);
    if (step.size == 0) {
      EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
    } else {
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(*got, value);
    }
    mapped = now_mapped;
    last_size = step.size;
  }
}

// Random puts and deletes with value sizes straddling kInlineMax, checked
// against std::map and against the mapped-iff-spilled invariant.
TEST_P(KvParamTest, SpillBoundaryPropertyMatchesStdMap) {
  const uint64_t store_id = 90 + static_cast<uint64_t>(GetParam());
  auto kv = KvStore::Create(store_.get(), store_id, GetParam());
  ASSERT_TRUE(kv.ok());
  Rng rng(0x5b111);
  std::map<uint64_t, Bytes> model;
  for (int op = 0; op < 3000; ++op) {
    const uint64_t key = rng.Uniform(48);
    if (rng.Uniform(8) == 0) {
      const Status st = kv->Delete(key);
      EXPECT_EQ(st.ok(), model.erase(key) == 1) << st.ToString();
    } else {
      // Sizes in [180, 220]: about half inline, half spilled, many repeats.
      Bytes value(180 + rng.Uniform(41));
      for (uint8_t& b : value) {
        b = static_cast<uint8_t>(rng.Next());
      }
      ASSERT_TRUE(kv->Put(key, ByteSpan(value)).ok()) << op;
      auto got = kv->Get(key);
      ASSERT_TRUE(got.ok()) << op;
      EXPECT_EQ(*got, value) << op;
      model[key] = std::move(value);
    }
  }
  for (uint64_t key = 0; key < 48; ++key) {
    auto it = model.find(key);
    auto got = kv->Get(key);
    const bool spilled = it != model.end() && it->second.size() > KvStore::kInlineMax;
    EXPECT_EQ(store_->Describe(KvValueSegment(store_id, key)).ok(), spilled) << key;
    if (it == model.end()) {
      EXPECT_EQ(got.status().code(), StatusCode::kNotFound) << key;
    } else {
      ASSERT_TRUE(got.ok()) << key;
      EXPECT_EQ(*got, it->second) << key;
    }
  }
}

TEST_F(StorageTest, KvScanMaterializesSpilledValues) {
  auto kv = KvStore::Create(store_.get(), 70, KvBackend::kBTree);
  ASSERT_TRUE(kv.ok());
  Bytes big(8000, 0x3c);
  Bytes small = {9};
  ASSERT_TRUE(kv->Put(1, ByteSpan(small.data(), 1)).ok());
  ASSERT_TRUE(kv->Put(2, ByteSpan(big.data(), big.size())).ok());
  auto rows = kv->Scan(0, 10);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0].second, small);
  EXPECT_EQ((*rows)[1].second, big);
}

TEST_F(StorageTest, KvScanOnOrderedBackendsOnly) {
  auto btree_kv = KvStore::Create(store_.get(), 50, KvBackend::kBTree);
  auto hash_kv = KvStore::Create(store_.get(), 51, KvBackend::kHash);
  ASSERT_TRUE(btree_kv.ok());
  ASSERT_TRUE(hash_kv.ok());
  Bytes v = {1};
  ASSERT_TRUE(btree_kv->Put(1, ByteSpan(v.data(), 1)).ok());
  EXPECT_TRUE(btree_kv->Scan(0, 10).ok());
  EXPECT_EQ(hash_kv->Scan(0, 10).status().code(), StatusCode::kUnimplemented);
}

// Index values are read back from flash, so Get, GetBuffer and Scan must
// reject a corrupt tag byte and an indirect ref too short to hold its size.
TEST_F(StorageTest, KvMalformedTaggedValueIsDataLoss) {
  constexpr uint64_t kStore = 53;
  auto kv = KvStore::Create(store_.get(), kStore, KvBackend::kBTree);
  ASSERT_TRUE(kv.ok());
  Bytes v = {0xa5, 0x5a};
  ASSERT_TRUE(kv->Put(1, ByteSpan(v.data(), v.size())).ok());
  // The store's B+ tree is one leaf, node 1, holding [tag][0xa5][0x5a].
  const mem::SegmentId leaf = BPlusNodeSegment(kStore, 1);
  auto image = store_->Read(leaf, 0, BPlusTree::kNodeBytes);
  ASSERT_TRUE(image.ok());
  auto view = RawNodeView::Open(*image);
  ASSERT_TRUE(view.ok());
  ASSERT_EQ(view->value(0).size(), 3u);
  const size_t tag_offset = view->value(0).data() - image->data();
  for (uint8_t tag : {uint8_t{0x07}, uint8_t{0x01}}) {  // unknown; indirect of 3 bytes
    Bytes planted = *image;
    planted[tag_offset] = tag;
    ASSERT_TRUE(store_->Write(leaf, 0, ByteSpan(planted)).ok());
    EXPECT_EQ(kv->Get(1).status().code(), StatusCode::kDataLoss) << int{tag};
    EXPECT_EQ(kv->GetBuffer(1).status().code(), StatusCode::kDataLoss) << int{tag};
    EXPECT_EQ(kv->Scan(0, 10).status().code(), StatusCode::kDataLoss) << int{tag};
  }
}

TEST_F(StorageTest, LsmScanMergesLevelsNewestWins) {
  auto lsm = FormatLsm(2 * 1024);
  // Old versions end up in deeper levels via compaction, new ones in the
  // memtable/L0.
  for (uint64_t k = 0; k < 400; ++k) {
    Bytes v = {1};
    ASSERT_TRUE(lsm->Put(k, ByteSpan(v.data(), 1)).ok());
  }
  ASSERT_TRUE(lsm->Flush().ok());
  ASSERT_TRUE(lsm->CompactAll().ok());
  // Overwrite a subset and delete another subset, leaving them in newer
  // layers.
  for (uint64_t k = 100; k < 120; ++k) {
    Bytes v = {2};
    ASSERT_TRUE(lsm->Put(k, ByteSpan(v.data(), 1)).ok());
  }
  for (uint64_t k = 150; k < 160; ++k) {
    ASSERT_TRUE(lsm->Delete(k).ok());
  }
  auto rows = lsm->Scan(90, 169);
  ASSERT_TRUE(rows.ok());
  // 80 keys in range minus 10 tombstoned.
  EXPECT_EQ(rows->size(), 70u);
  for (const auto& [key, value] : *rows) {
    ASSERT_GE(key, 90u);
    ASSERT_LE(key, 169u);
    EXPECT_TRUE(key < 150 || key > 159) << key;  // deleted range absent
    const uint8_t expected = (key >= 100 && key < 120) ? 2 : 1;
    EXPECT_EQ(value[0], expected) << key;
  }
  // Ordering.
  for (size_t i = 0; i + 1 < rows->size(); ++i) {
    EXPECT_LT((*rows)[i].first, (*rows)[i + 1].first);
  }
}

TEST_F(StorageTest, LsmScanInvertedRangeRejected) {
  auto lsm = FormatLsm(4 * 1024);
  EXPECT_EQ(lsm->Scan(10, 5).status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace hyperion::storage

namespace graph_tests {

using namespace hyperion;           // NOLINT
using namespace hyperion::storage;  // NOLINT

class GraphTest : public ::testing::Test {
 protected:
  GraphTest() : ctrl_(&engine_) {
    mem::ObjectStoreConfig config;
    config.dram_bytes = 32u << 20;
    config.hbm_bytes = 32u << 20;
    config.nvme_nsid = ctrl_.AddNamespace(16384);
    store_ = std::make_unique<mem::ObjectStore>(&engine_, &ctrl_, config);
  }

  sim::Engine engine_;
  nvme::Controller ctrl_;
  std::unique_ptr<mem::ObjectStore> store_;
};

TEST_F(GraphTest, NeighborsAndDegrees) {
  // 0 -> 1, 0 -> 2, 1 -> 2, 3 isolated.
  auto graph = CsrGraph::Build(store_.get(), 1, 4, {{0, 1}, {0, 2}, {1, 2}});
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->node_count(), 4u);
  EXPECT_EQ(graph->edge_count(), 3u);
  EXPECT_EQ(*graph->Neighbors(0), (std::vector<uint32_t>{1, 2}));
  EXPECT_EQ(*graph->Neighbors(1), (std::vector<uint32_t>{2}));
  EXPECT_TRUE(graph->Neighbors(3)->empty());
  EXPECT_EQ(*graph->OutDegree(0), 2u);
  EXPECT_FALSE(graph->Neighbors(4).ok());
}

TEST_F(GraphTest, BfsDistancesOnAPath) {
  // Chain 0 -> 1 -> 2 -> 3, plus a disconnected vertex 4.
  auto graph = CsrGraph::Build(store_.get(), 2, 5, {{0, 1}, {1, 2}, {2, 3}});
  ASSERT_TRUE(graph.ok());
  auto dist = graph->Bfs(0);
  ASSERT_TRUE(dist.ok());
  EXPECT_EQ(*dist, (std::vector<uint32_t>{0, 1, 2, 3, CsrGraph::kNoPath}));
}

TEST_F(GraphTest, BfsTakesShortestRoute) {
  // Diamond: 0->1->3, 0->2->3, plus long way 0->4->5->3.
  auto graph = CsrGraph::Build(store_.get(), 3, 6,
                               {{0, 1}, {0, 2}, {0, 4}, {1, 3}, {2, 3}, {4, 5}, {5, 3}});
  ASSERT_TRUE(graph.ok());
  auto dist = graph->Bfs(0);
  ASSERT_TRUE(dist.ok());
  EXPECT_EQ((*dist)[3], 2u);
}

TEST_F(GraphTest, PageRankSumsToOneAndRanksHubs) {
  // Star: everyone points at vertex 0; 0 points at 1.
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  for (uint32_t v = 1; v < 10; ++v) {
    edges.emplace_back(v, 0);
  }
  edges.emplace_back(0, 1);
  auto graph = CsrGraph::Build(store_.get(), 4, 10, edges);
  ASSERT_TRUE(graph.ok());
  auto rank = graph->PageRank(30);
  ASSERT_TRUE(rank.ok());
  double sum = 0;
  for (double r : *rank) {
    sum += r;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // The hub holds the highest rank; vertex 1 (the hub's only target) second.
  for (uint32_t v = 2; v < 10; ++v) {
    EXPECT_GT((*rank)[0], (*rank)[v]);
    EXPECT_GT((*rank)[1], (*rank)[v]);
  }
}

TEST_F(GraphTest, PageRankHandlesDanglingNodes) {
  // 0 -> 1; 1 dangles. Mass must not leak.
  auto graph = CsrGraph::Build(store_.get(), 5, 2, {{0, 1}});
  ASSERT_TRUE(graph.ok());
  auto rank = graph->PageRank(50);
  ASSERT_TRUE(rank.ok());
  EXPECT_NEAR((*rank)[0] + (*rank)[1], 1.0, 1e-9);
  EXPECT_GT((*rank)[1], (*rank)[0]);
}

TEST_F(GraphTest, SegmentReadsTracked) {
  auto graph = CsrGraph::Build(store_.get(), 6, 3, {{0, 1}, {1, 2}});
  ASSERT_TRUE(graph.ok());
  graph->ResetStats();
  ASSERT_TRUE(graph->Bfs(0).ok());
  // 3 vertices expanded, each costing an offset read + (if edges) edge read.
  EXPECT_GE(graph->segment_reads(), 5u);
}

TEST_F(GraphTest, EmptyGraphAndBadEdgesRejected) {
  EXPECT_FALSE(CsrGraph::Build(store_.get(), 7, 0, {}).ok());
  EXPECT_FALSE(CsrGraph::Build(store_.get(), 8, 2, {{0, 5}}).ok());
  // Edgeless graph is fine.
  auto graph = CsrGraph::Build(store_.get(), 9, 3, {});
  ASSERT_TRUE(graph.ok());
  EXPECT_TRUE(graph->Neighbors(1)->empty());
}

}  // namespace graph_tests
