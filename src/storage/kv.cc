#include "src/storage/kv.h"

namespace hyperion::storage {

namespace {
Bytes KeyBytes(uint64_t key) {
  Bytes b;
  PutU64(b, key);
  return b;
}

// Every stored value carries a 1-byte tag so the KV layer can spill large
// values ("indirect") into their own durable segments — the KV-SSD pattern:
// the index stays small, values are unbounded.
constexpr uint8_t kInline = 0x00;
constexpr uint8_t kIndirect = 0x01;
}  // namespace

mem::SegmentId KvValueSegment(uint64_t store_id, uint64_t key) {
  return mem::SegmentId(0x4B56000000000000ull | store_id, key);
}

std::string_view KvBackendName(KvBackend backend) {
  return backend == KvBackend::kBTree ? "btree" : "hash";
}

Result<KvStore> KvStore::Create(mem::ObjectStore* store, uint64_t store_id, KvBackend backend) {
  KvStore kv;
  kv.store_ = store;
  kv.store_id_ = store_id;
  if (backend == KvBackend::kBTree) {
    ASSIGN_OR_RETURN(BPlusTree tree, BPlusTree::Create(store, store_id, {.durable = true}));
    kv.btree_ = std::make_unique<BPlusTree>(std::move(tree));
  } else {
    ASSIGN_OR_RETURN(HashIndex index, HashIndex::Create(store, store_id, 64));
    kv.hash_ = std::make_unique<HashIndex>(std::move(index));
  }
  return kv;
}

Status KvStore::IndexPut(uint64_t key, ByteSpan tagged) {
  if (btree_) {
    return btree_->Insert(key, tagged);
  }
  Bytes kb = KeyBytes(key);
  return hash_->Put(ByteSpan(kb.data(), kb.size()), tagged);
}

Result<Bytes> KvStore::IndexGet(uint64_t key) {
  if (btree_) {
    return btree_->Get(key);
  }
  Bytes kb = KeyBytes(key);
  return hash_->Get(ByteSpan(kb.data(), kb.size()));
}

Status KvStore::IndexDelete(uint64_t key) {
  if (btree_) {
    return btree_->Delete(key);
  }
  Bytes kb = KeyBytes(key);
  return hash_->Delete(ByteSpan(kb.data(), kb.size()));
}

Status KvStore::Put(uint64_t key, ByteSpan value) {
  // The segment table says whether `key` has spilled: one probe, no walk.
  const mem::SegmentId seg = KvValueSegment(store_id_, key);
  const mem::Segment* spilled = store_->Translate(seg);
  // The put path's one copy: the value crosses the mutation/durability
  // boundary into the index or its spill segment. Charged so experiment
  // copy-bytes stats cover the whole datapath, not just the buffer layer.
  AccountBufferCopy(value.size());
  const bool spill = value.size() > kInlineMax;
  if (spill && spilled != nullptr && spilled->size == value.size()) {
    // Same-size overwrite: the value log rewrites in place, and the index
    // ref [kIndirect][size] would not change, so the index is not touched.
    return store_->Write(seg, 0, value);
  }
  if (spilled != nullptr) {
    RETURN_IF_ERROR(store_->Delete(seg));
  }
  if (!spill) {
    Bytes tagged;
    tagged.reserve(value.size() + 1);
    tagged.push_back(kInline);
    tagged.insert(tagged.end(), value.begin(), value.end());
    return IndexPut(key, ByteSpan(tagged.data(), tagged.size()));
  }
  // Spill: the value gets its own durable segment; the index holds a ref.
  RETURN_IF_ERROR(store_->CreateWithId(seg, value.size(), {.durable = true}));
  Bytes ref;
  ref.push_back(kIndirect);
  PutU64(ref, value.size());
  Status st = store_->Write(seg, 0, value);
  if (st.ok()) {
    st = IndexPut(key, ByteSpan(ref.data(), ref.size()));
  }
  if (!st.ok()) {
    // A mapped segment must mean the index holds its ref; otherwise a later
    // same-size put would rewrite it behind a stale index entry.
    (void)store_->Delete(seg);
  }
  return st;
}

Result<Buffer> KvStore::Untag(uint64_t key, Bytes tagged) {
  if (tagged.empty()) {
    return DataLoss("untagged KV value");
  }
  if (tagged[0] == kInline) {
    // Adopt the tagged block and slice past the tag — shares the backing.
    return Buffer(std::move(tagged)).Slice(1);
  }
  if (tagged[0] != kIndirect || tagged.size() < 9) {
    return DataLoss("corrupt KV value tag");
  }
  ASSIGN_OR_RETURN(Bytes value,
                   store_->Read(KvValueSegment(store_id_, key), 0, GetU64(tagged, 1)));
  return Buffer(std::move(value));
}

Result<Bytes> KvStore::Get(uint64_t key) {
  ASSIGN_OR_RETURN(Bytes tagged, IndexGet(key));
  ASSIGN_OR_RETURN(Buffer value, Untag(key, std::move(tagged)));
  return Bytes(value.data(), value.data() + value.size());
}

Result<Buffer> KvStore::GetBuffer(uint64_t key) {
  ASSIGN_OR_RETURN(Bytes tagged, IndexGet(key));
  return Untag(key, std::move(tagged));
}

Status KvStore::Delete(uint64_t key) {
  const mem::SegmentId seg = KvValueSegment(store_id_, key);
  if (store_->Translate(seg) != nullptr) {
    RETURN_IF_ERROR(store_->Delete(seg));
  }
  return IndexDelete(key);
}

Result<std::vector<std::pair<uint64_t, Bytes>>> KvStore::Scan(uint64_t lo, uint64_t hi) {
  if (!btree_) {
    return Unimplemented("hash index has no key order");
  }
  ASSIGN_OR_RETURN(auto rows, btree_->Scan(lo, hi));
  for (auto& [key, tagged] : rows) {
    ASSIGN_OR_RETURN(Buffer value, Untag(key, std::move(tagged)));
    tagged.assign(value.data(), value.data() + value.size());
  }
  return rows;
}

}  // namespace hyperion::storage
