// B+ tree over the single-level object store (paper §2.3/§2.4).
//
// Pointer-chasing structures are the paper's canonical latency-sensitive
// workload: a lookup walks height-many nodes, and when the tree lives on a
// network-attached device each hop is a round trip unless the walk executes
// *at* the device. This tree therefore stores every node as its own
// 128-bit-addressed segment, so the per-node access cost (segment
// translation + media) is explicit and the walk can be priced either
// client-driven or DPU-offloaded (experiment E5).
//
// Keys are u64; values are byte strings up to kMaxValueLen. Deletion removes
// the key from its leaf without rebalancing (standard for append-mostly
// storage engines; documented trade-off).
//
// Host-side cost: each hop reads the node's segment into a scratch image
// the tree owns and walks it through a RawNodeView — keys binary-searched in
// place, the child pointer or value found by offset — so Get, Delete's walk
// and Scan decode nothing. Insert decodes only the nodes it rewrites, from
// the bytes the hop already read. No decoded node outlives the call that
// read it: every walk works on the bytes its modelled read returned, so
// corruption, power cuts and recovery see exactly what the media holds.

#ifndef HYPERION_SRC_STORAGE_BPTREE_H_
#define HYPERION_SRC_STORAGE_BPTREE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/result.h"
#include "src/mem/object_store.h"

namespace hyperion::storage {

// Public image of a serialized node, used by *clients* that walk the tree
// remotely (client-driven pointer chasing reads raw node segments over the
// network and parses them locally — experiment E5's baseline).
struct NodeView {
  bool is_leaf = true;
  std::vector<uint64_t> keys;
  std::vector<Bytes> values;       // leaf only
  std::vector<uint64_t> children;  // inner only (node ids)
  uint64_t next_leaf = 0;
};

// Parses a raw node segment into a NodeView.
Result<NodeView> ParseBPlusNode(ByteSpan raw);

// Validated read-only view over a serialized node image. Open checks the
// same framing ParseBPlusNode does and fails with the same DataLoss; the
// accessors then read the image in place. The view borrows `raw`.
class RawNodeView {
 public:
  static Result<RawNodeView> Open(ByteSpan raw);

  bool is_leaf() const { return is_leaf_; }
  uint32_t count() const { return count_; }
  uint64_t next_leaf() const;
  uint64_t key(uint32_t i) const;
  // Inner only: child `i` of count() + 1.
  uint64_t child(uint32_t i) const;
  // Leaf only: value `i`, as a span into the image.
  ByteSpan value(uint32_t i) const;

  // std::lower_bound / std::upper_bound over the keys, with the same
  // halving, so even a corrupt (unsorted) image routes as its decoded form.
  uint32_t LowerBound(uint64_t key) const;
  uint32_t UpperBound(uint64_t key) const;

  // Inner: the child covering `key`. Leaf: the value stored under `key`.
  uint64_t ChildFor(uint64_t key) const { return child(UpperBound(key)); }
  std::optional<ByteSpan> Find(uint64_t key) const;

 private:
  explicit RawNodeView(ByteSpan raw) : raw_(raw) {}

  ByteSpan raw_;
  bool is_leaf_ = true;
  uint32_t count_ = 0;
};

// Segment id of node `node_id` in tree `tree_id` (stable naming contract).
mem::SegmentId BPlusNodeSegment(uint64_t tree_id, uint64_t node_id);

class BPlusTree {
 public:
  static constexpr uint32_t kNodeBytes = 4096;
  static constexpr uint32_t kMaxValueLen = 256;
  // Fanout chosen so a full inner node serializes under kNodeBytes.
  static constexpr uint32_t kMaxInnerKeys = 160;
  static constexpr uint32_t kMaxLeafEntries = 12;

  // Creates an empty tree whose nodes are derived from `tree_id`.
  // `hints` controls node placement (e.g. durable => NVMe-resident nodes).
  static Result<BPlusTree> Create(mem::ObjectStore* store, uint64_t tree_id,
                                  mem::SegmentHints hints = {});

  Status Insert(uint64_t key, ByteSpan value);
  Result<Bytes> Get(uint64_t key);
  Status Delete(uint64_t key);  // kNotFound if absent

  // All entries with key in [lo, hi], in key order.
  Result<std::vector<std::pair<uint64_t, Bytes>>> Scan(uint64_t lo, uint64_t hi);

  uint32_t Height() const { return height_; }
  uint64_t EntryCount() const { return entry_count_; }
  uint64_t tree_id() const { return tree_id_; }
  uint64_t root_node_id() const { return root_; }

  // Opaque on-storage node image; defined in bptree.cc, exposed for
  // ParseBPlusNode.
  struct Node;

  // Node reads performed since the last ResetStats (the "pointer chases").
  uint64_t NodeReads() const { return node_reads_; }
  void ResetStats() { node_reads_ = 0; }

 private:
  BPlusTree(mem::ObjectStore* store, uint64_t tree_id, mem::SegmentHints hints)
      : store_(store), tree_id_(tree_id), hints_(hints) {}

  mem::SegmentId NodeSegment(uint64_t node_id) const;
  Result<uint64_t> AllocateNode(const Node& node);
  // Reads node `node_id` into `image` (sized to kNodeBytes) and opens a
  // view on it.
  Result<RawNodeView> ReadNode(uint64_t node_id, Bytes& image);
  Status WriteNode(uint64_t node_id, const Node& node);

  // Insert into subtree rooted at node_id, `depth` levels below the root;
  // on split returns the new right sibling's (separator_key, node_id).
  Result<std::optional<std::pair<uint64_t, uint64_t>>> InsertRec(uint64_t node_id, uint64_t key,
                                                                 ByteSpan value, size_t depth);

  mem::ObjectStore* store_;
  uint64_t tree_id_;
  mem::SegmentHints hints_;
  uint64_t root_ = 0;
  uint64_t next_node_id_ = 1;
  uint32_t height_ = 1;
  uint64_t entry_count_ = 0;
  uint64_t node_reads_ = 0;
  // Reused node images, sized at first read: one for the walks of Get,
  // Delete and Scan, and one per level for Insert, whose split rewrites a
  // parent from the bytes read on the way down.
  Bytes image_;
  std::vector<Bytes> path_images_;
};

}  // namespace hyperion::storage

#endif  // HYPERION_SRC_STORAGE_BPTREE_H_
