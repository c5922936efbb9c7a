// FlatIndex: an open-addressed (linear probing) index from a 64-bit key hash
// to a uint32_t id, for tables that keep their keys in a slab of their own
// (ebpf::Map's key arena, apps::LoadBalancer's flow nodes).
//
// The index stores ids only, plus the hash's high 32 bits as a tag so most
// mismatches are settled without touching the caller's key. Callers pass
// the key comparison (`eq(id)`) and, for growth, a way to rehash an id's
// key (`hash_of(id)`). It allocates nothing until the first insert and
// is rebuilt, a power of two at least twice the live entries, when live
// plus deleted cells pass three quarters of it, so its size follows the
// entries, not a capacity bound.

#ifndef HYPERION_SRC_COMMON_FLAT_INDEX_H_
#define HYPERION_SRC_COMMON_FLAT_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace hyperion {

class FlatIndex {
 public:
  // Returned by Find/Erase for an absent key. Ids must stay below it.
  static constexpr uint32_t kNone = 0xfffffffeu;

  uint32_t size() const { return live_; }

  // The id whose key matches, or kNone.
  template <typename Eq>
  uint32_t Find(uint64_t hash, Eq&& eq) const {
    const size_t cell = FindCell(hash, eq);
    return cell < cells_.size() ? cells_[cell].id : kNone;
  }

  // Adds `id`, whose key must be absent from the index.
  template <typename HashOf>
  void Insert(uint64_t hash, uint32_t id, HashOf&& hash_of) {
    if ((uint64_t{live_} + deleted_ + 1) * 4 > cells_.size() * 3) {
      Rehash(CellsFor(live_ + 1), hash_of);
    }
    // The key is absent, so the first free cell on its probe path takes it.
    const size_t mask = cells_.size() - 1;
    size_t i = hash & mask;
    while (cells_[i].id < kNone) {
      i = (i + 1) & mask;
    }
    if (cells_[i].id == kDeleted) {
      --deleted_;
    }
    cells_[i] = Cell{id, static_cast<uint32_t>(hash >> 32)};
    ++live_;
  }

  // Removes the matching key; returns its id, or kNone when absent.
  template <typename Eq>
  uint32_t Erase(uint64_t hash, Eq&& eq) {
    const size_t cell = FindCell(hash, eq);
    if (cell >= cells_.size()) {
      return kNone;
    }
    const uint32_t id = cells_[cell].id;
    --live_;
    // A cell followed by an empty one ends every probe path through it, so
    // it can become empty itself; otherwise it stays a deleted marker.
    if (cells_[(cell + 1) & (cells_.size() - 1)].id == kEmpty) {
      cells_[cell].id = kEmpty;
    } else {
      cells_[cell].id = kDeleted;
      ++deleted_;
    }
    return id;
  }

 private:
  struct Cell {
    uint32_t id;
    uint32_t tag;
  };
  static constexpr uint32_t kDeleted = 0xfffffffeu;  // == kNone: never an id
  static constexpr uint32_t kEmpty = 0xffffffffu;

  // A power of two at most half full after a rehash; live plus deleted
  // cells stay at most three quarters of the table until the next one.
  static size_t CellsFor(size_t entries) {
    size_t cells = 16;
    while (cells < entries * 2) {
      cells *= 2;
    }
    return cells;
  }

  template <typename Eq>
  size_t FindCell(uint64_t hash, Eq& eq) const {
    if (cells_.empty()) {
      return 0;
    }
    const size_t mask = cells_.size() - 1;
    const auto tag = static_cast<uint32_t>(hash >> 32);
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      const Cell& cell = cells_[i];
      if (cell.id == kEmpty) {
        return cells_.size();
      }
      if (cell.id != kDeleted && cell.tag == tag && eq(cell.id)) {
        return i;
      }
    }
  }

  template <typename HashOf>
  void Rehash(size_t cells, HashOf& hash_of) {
    std::vector<Cell> old = std::move(cells_);
    cells_.assign(cells, Cell{kEmpty, 0});
    deleted_ = 0;
    const size_t mask = cells - 1;
    for (const Cell& cell : old) {
      if (cell.id >= kDeleted) {
        continue;
      }
      size_t i = hash_of(cell.id) & mask;
      while (cells_[i].id != kEmpty) {
        i = (i + 1) & mask;
      }
      cells_[i] = cell;
    }
  }

  std::vector<Cell> cells_;
  uint32_t live_ = 0;
  uint32_t deleted_ = 0;
};

}  // namespace hyperion

#endif  // HYPERION_SRC_COMMON_FLAT_INDEX_H_
