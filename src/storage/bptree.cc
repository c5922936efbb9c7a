#include "src/storage/bptree.h"

#include <algorithm>

#include "src/common/check.h"

namespace hyperion::storage {

// In-memory node image; serialized into one kNodeBytes segment.
struct BPlusTree::Node {
  bool is_leaf = true;
  std::vector<uint64_t> keys;
  std::vector<Bytes> values;      // leaf only, parallel to keys
  std::vector<uint64_t> children; // inner only, keys.size() + 1 entries
  uint64_t next_leaf = 0;         // leaf chain for scans (0 = none)

  Bytes Serialize() const {
    Bytes out;
    out.reserve(kNodeBytes);  // WriteNode pads to a full node: one allocation
    out.push_back(is_leaf ? 1 : 0);
    PutU32(out, static_cast<uint32_t>(keys.size()));
    PutU64(out, next_leaf);
    for (uint64_t k : keys) {
      PutU64(out, k);
    }
    if (is_leaf) {
      for (const Bytes& v : values) {
        PutU32(out, static_cast<uint32_t>(v.size()));
        PutBytes(out, ByteSpan(v.data(), v.size()));
      }
    } else {
      for (uint64_t c : children) {
        PutU64(out, c);
      }
    }
    CHECK_LE(out.size(), kNodeBytes) << "node serialization overflow";
    return out;
  }

  static Result<Node> Deserialize(ByteSpan data) {
    ByteReader reader(data);
    Node node;
    node.is_leaf = reader.ReadU8() != 0;
    const uint32_t count = reader.ReadU32();
    node.next_leaf = reader.ReadU64();
    if (count > kNodeBytes / 8) {
      return DataLoss("implausible B+ node entry count");
    }
    node.keys.resize(count);
    for (uint32_t i = 0; i < count; ++i) {
      node.keys[i] = reader.ReadU64();
    }
    if (node.is_leaf) {
      node.values.resize(count);
      for (uint32_t i = 0; i < count; ++i) {
        const uint32_t len = reader.ReadU32();
        node.values[i] = reader.ReadBytes(len);
      }
    } else {
      node.children.resize(count + 1);
      for (uint32_t i = 0; i <= count; ++i) {
        node.children[i] = reader.ReadU64();
      }
    }
    if (!reader.Ok()) {
      return DataLoss("truncated B+ node");
    }
    return node;
  }
};

mem::SegmentId BPlusNodeSegment(uint64_t tree_id, uint64_t node_id) {
  // Namespaced 128-bit id: high word identifies the tree, low the node.
  return mem::SegmentId(0xB7EE000000000000ull | tree_id, node_id);
}

Result<NodeView> ParseBPlusNode(ByteSpan raw) {
  ASSIGN_OR_RETURN(BPlusTree::Node node, BPlusTree::Node::Deserialize(raw));
  NodeView view;
  view.is_leaf = node.is_leaf;
  view.keys = std::move(node.keys);
  view.values = std::move(node.values);
  view.children = std::move(node.children);
  view.next_leaf = node.next_leaf;
  return view;
}

namespace {
// Node image layout: is_leaf u8, count u32, next_leaf u64, count keys, then
// count length-prefixed values (leaf) or count + 1 child ids (inner).
constexpr size_t kKeysAt = 13;
}  // namespace

Result<RawNodeView> RawNodeView::Open(ByteSpan raw) {
  // The checks and their order follow Node::Deserialize, so a bad image
  // fails here exactly as it fails to decode.
  RawNodeView view(raw);
  view.is_leaf_ = !raw.empty() && raw[0] != 0;
  view.count_ = raw.size() >= 5 ? GetU32(raw, 1) : 0;
  if (view.count_ > BPlusTree::kNodeBytes / 8) {
    return DataLoss("implausible B+ node entry count");
  }
  size_t at = kKeysAt + 8 * static_cast<size_t>(view.count_);
  if (!view.is_leaf_) {
    at += 8 * (static_cast<size_t>(view.count_) + 1);
  }
  if (raw.size() < at) {
    return DataLoss("truncated B+ node");
  }
  if (view.is_leaf_) {
    for (uint32_t i = 0; i < view.count_; ++i) {
      if (raw.size() - at < 4 || raw.size() - at - 4 < GetU32(raw, at)) {
        return DataLoss("truncated B+ node");
      }
      at += 4 + GetU32(raw, at);
    }
  }
  return view;
}

uint64_t RawNodeView::next_leaf() const { return GetU64(raw_, 5); }

uint64_t RawNodeView::key(uint32_t i) const { return GetU64(raw_, kKeysAt + 8 * size_t{i}); }

uint64_t RawNodeView::child(uint32_t i) const {
  return GetU64(raw_, kKeysAt + 8 * (size_t{count_} + i));
}

ByteSpan RawNodeView::value(uint32_t i) const {
  size_t at = kKeysAt + 8 * size_t{count_};
  for (uint32_t skip = 0; skip < i; ++skip) {
    at += 4 + GetU32(raw_, at);
  }
  return raw_.subspan(at + 4, GetU32(raw_, at));
}

uint32_t RawNodeView::LowerBound(uint64_t k) const {
  uint32_t first = 0;
  uint32_t len = count_;
  while (len > 0) {
    const uint32_t half = len >> 1;
    if (key(first + half) < k) {
      first += half + 1;
      len -= half + 1;
    } else {
      len = half;
    }
  }
  return first;
}

uint32_t RawNodeView::UpperBound(uint64_t k) const {
  uint32_t first = 0;
  uint32_t len = count_;
  while (len > 0) {
    const uint32_t half = len >> 1;
    if (k < key(first + half)) {
      len = half;
    } else {
      first += half + 1;
      len -= half + 1;
    }
  }
  return first;
}

std::optional<ByteSpan> RawNodeView::Find(uint64_t k) const {
  const uint32_t pos = LowerBound(k);
  if (pos == count_ || key(pos) != k) {
    return std::nullopt;
  }
  return value(pos);
}

mem::SegmentId BPlusTree::NodeSegment(uint64_t node_id) const {
  return BPlusNodeSegment(tree_id_, node_id);
}

Result<BPlusTree> BPlusTree::Create(mem::ObjectStore* store, uint64_t tree_id,
                                    mem::SegmentHints hints) {
  BPlusTree tree(store, tree_id, hints);
  Node root;
  root.is_leaf = true;
  ASSIGN_OR_RETURN(tree.root_, tree.AllocateNode(root));
  return tree;
}

Result<uint64_t> BPlusTree::AllocateNode(const Node& node) {
  const uint64_t id = next_node_id_++;
  RETURN_IF_ERROR(store_->CreateWithId(NodeSegment(id), kNodeBytes, hints_));
  RETURN_IF_ERROR(WriteNode(id, node));
  return id;
}

Result<RawNodeView> BPlusTree::ReadNode(uint64_t node_id, Bytes& image) {
  ++node_reads_;
  image.resize(kNodeBytes);
  RETURN_IF_ERROR(store_->ReadInto(NodeSegment(node_id), 0, MutableByteSpan(image)));
  return RawNodeView::Open(image);
}

Status BPlusTree::WriteNode(uint64_t node_id, const Node& node) {
  Bytes raw = node.Serialize();
  raw.resize(kNodeBytes, 0);
  return store_->Write(NodeSegment(node_id), 0, ByteSpan(raw.data(), raw.size()));
}

Result<std::optional<std::pair<uint64_t, uint64_t>>> BPlusTree::InsertRec(uint64_t node_id,
                                                                          uint64_t key,
                                                                          ByteSpan value,
                                                                          size_t depth) {
  // Index path_images_ afresh after any recursion: a deeper level may grow
  // (and so move) the vector.
  if (depth == path_images_.size()) {
    path_images_.emplace_back();
  }
  ASSIGN_OR_RETURN(RawNodeView view, ReadNode(node_id, path_images_[depth]));
  if (view.is_leaf()) {
    ASSIGN_OR_RETURN(Node node, Node::Deserialize(path_images_[depth]));
    auto it = std::lower_bound(node.keys.begin(), node.keys.end(), key);
    const size_t pos = static_cast<size_t>(it - node.keys.begin());
    if (it != node.keys.end() && *it == key) {
      node.values[pos] = Bytes(value.begin(), value.end());  // overwrite
    } else {
      node.keys.insert(it, key);
      node.values.insert(node.values.begin() + static_cast<ptrdiff_t>(pos),
                         Bytes(value.begin(), value.end()));
      ++entry_count_;
    }
    if (node.keys.size() <= kMaxLeafEntries) {
      RETURN_IF_ERROR(WriteNode(node_id, node));
      return std::optional<std::pair<uint64_t, uint64_t>>{};
    }
    // Split the leaf.
    const size_t mid = node.keys.size() / 2;
    Node right;
    right.is_leaf = true;
    right.keys.assign(node.keys.begin() + static_cast<ptrdiff_t>(mid), node.keys.end());
    right.values.assign(node.values.begin() + static_cast<ptrdiff_t>(mid), node.values.end());
    right.next_leaf = node.next_leaf;
    node.keys.resize(mid);
    node.values.resize(mid);
    ASSIGN_OR_RETURN(uint64_t right_id, AllocateNode(right));
    node.next_leaf = right_id;
    RETURN_IF_ERROR(WriteNode(node_id, node));
    return std::make_optional(std::make_pair(right.keys.front(), right_id));
  }
  // Inner: route to the child covering `key`.
  const uint32_t child_idx = view.UpperBound(key);
  ASSIGN_OR_RETURN(auto split, InsertRec(view.child(child_idx), key, value, depth + 1));
  if (!split.has_value()) {
    return std::optional<std::pair<uint64_t, uint64_t>>{};
  }
  // The split lands here: decode this node from the image read above.
  ASSIGN_OR_RETURN(Node node, Node::Deserialize(path_images_[depth]));
  node.keys.insert(node.keys.begin() + static_cast<ptrdiff_t>(child_idx), split->first);
  node.children.insert(node.children.begin() + static_cast<ptrdiff_t>(child_idx) + 1,
                       split->second);
  if (node.keys.size() <= kMaxInnerKeys) {
    RETURN_IF_ERROR(WriteNode(node_id, node));
    return std::optional<std::pair<uint64_t, uint64_t>>{};
  }
  // Split the inner node; the middle key moves up.
  const size_t mid = node.keys.size() / 2;
  const uint64_t up_key = node.keys[mid];
  Node right;
  right.is_leaf = false;
  right.keys.assign(node.keys.begin() + static_cast<ptrdiff_t>(mid) + 1, node.keys.end());
  right.children.assign(node.children.begin() + static_cast<ptrdiff_t>(mid) + 1,
                        node.children.end());
  node.keys.resize(mid);
  node.children.resize(mid + 1);
  ASSIGN_OR_RETURN(uint64_t right_id, AllocateNode(right));
  RETURN_IF_ERROR(WriteNode(node_id, node));
  return std::make_optional(std::make_pair(up_key, right_id));
}

Status BPlusTree::Insert(uint64_t key, ByteSpan value) {
  if (value.size() > kMaxValueLen) {
    return InvalidArgument("value exceeds kMaxValueLen");
  }
  ASSIGN_OR_RETURN(auto split, InsertRec(root_, key, value, 0));
  if (split.has_value()) {
    // Grow a new root.
    Node new_root;
    new_root.is_leaf = false;
    new_root.keys.push_back(split->first);
    new_root.children.push_back(root_);
    new_root.children.push_back(split->second);
    ASSIGN_OR_RETURN(root_, AllocateNode(new_root));
    ++height_;
  }
  return Status::Ok();
}

Result<Bytes> BPlusTree::Get(uint64_t key) {
  uint64_t node_id = root_;
  while (true) {
    ASSIGN_OR_RETURN(RawNodeView node, ReadNode(node_id, image_));
    if (node.is_leaf()) {
      const std::optional<ByteSpan> value = node.Find(key);
      if (!value.has_value()) {
        return NotFound("key not in tree");
      }
      return Bytes(value->begin(), value->end());
    }
    node_id = node.ChildFor(key);
  }
}

Status BPlusTree::Delete(uint64_t key) {
  // Walk to the leaf, remembering the path is unnecessary: no rebalancing.
  uint64_t node_id = root_;
  while (true) {
    ASSIGN_OR_RETURN(RawNodeView view, ReadNode(node_id, image_));
    if (view.is_leaf()) {
      const uint32_t pos = view.LowerBound(key);
      if (pos == view.count() || view.key(pos) != key) {
        return NotFound("key not in tree");
      }
      ASSIGN_OR_RETURN(Node node, Node::Deserialize(image_));
      node.keys.erase(node.keys.begin() + pos);
      node.values.erase(node.values.begin() + pos);
      --entry_count_;
      return WriteNode(node_id, node);
    }
    node_id = view.ChildFor(key);
  }
}

Result<std::vector<std::pair<uint64_t, Bytes>>> BPlusTree::Scan(uint64_t lo, uint64_t hi) {
  if (lo > hi) {
    return InvalidArgument("scan range is inverted");
  }
  std::vector<std::pair<uint64_t, Bytes>> out;
  // Descend to the leaf containing lo, then walk the leaf chain.
  ASSIGN_OR_RETURN(RawNodeView node, ReadNode(root_, image_));
  while (!node.is_leaf()) {
    ASSIGN_OR_RETURN(node, ReadNode(node.ChildFor(lo), image_));
  }
  while (true) {
    for (uint32_t i = 0; i < node.count(); ++i) {
      if (node.key(i) >= lo && node.key(i) <= hi) {
        const ByteSpan value = node.value(i);
        out.emplace_back(node.key(i), Bytes(value.begin(), value.end()));
      }
    }
    if (node.next_leaf() == 0 || (node.count() > 0 && node.key(node.count() - 1) > hi)) {
      return out;
    }
    ASSIGN_OR_RETURN(node, ReadNode(node.next_leaf(), image_));
  }
}

}  // namespace hyperion::storage
