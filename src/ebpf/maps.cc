#include "src/ebpf/maps.h"

#include <cstring>

#include "src/common/check.h"

namespace hyperion::ebpf {

namespace {

uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

// Mixes the key 8 bytes at a time (a short tail zero-padded).
uint64_t HashKey(ByteSpan key) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  size_t i = 0;
  for (; i + 8 <= key.size(); i += 8) {
    uint64_t word;
    std::memcpy(&word, key.data() + i, 8);
    h = Mix64(h ^ word);
  }
  if (i < key.size()) {
    uint64_t word = 0;
    std::memcpy(&word, key.data() + i, key.size() - i);
    h = Mix64(h ^ word);
  }
  return h;
}

}  // namespace

Status ValidateMapSpec(const MapSpec& spec) {
  if (spec.type != MapType::kHash && spec.type != MapType::kArray) {
    return InvalidArgument("unknown map type");
  }
  if (spec.key_size == 0 || spec.key_size > kMaxMapKeyOrValueBytes) {
    return InvalidArgument("map key size must be 1..512 bytes");
  }
  if (spec.value_size == 0 || spec.value_size > kMaxMapKeyOrValueBytes) {
    return InvalidArgument("map value size must be 1..512 bytes");
  }
  if (spec.max_entries == 0 || spec.max_entries > kMaxMapEntries) {
    return InvalidArgument("map max_entries must be 1..2^24");
  }
  if (spec.type == MapType::kArray && spec.key_size != 4) {
    return InvalidArgument("array map keys are u32 indexes");
  }
  return Status::Ok();
}

Map::Map(MapSpec spec) : spec_(std::move(spec)) {
  const Status valid = ValidateMapSpec(spec_);
  CHECK(valid.ok()) << valid.message();
  if (spec_.type == MapType::kArray) {
    // Array maps are fully pre-allocated and every index always exists.
    values_.resize(static_cast<size_t>(spec_.max_entries) * spec_.value_size, 0);
    next_slot_ = spec_.max_entries;
  }
}

uint32_t Map::EntryCount() const {
  return spec_.type == MapType::kArray ? spec_.max_entries : index_.size();
}

bool Map::KeyIs(uint32_t slot, ByteSpan key) const {
  return std::memcmp(KeyAt(slot), key.data(), spec_.key_size) == 0;
}

uint32_t Map::Find(ByteSpan key) const {
  DCHECK_EQ(key.size(), spec_.key_size);
  if (spec_.type == MapType::kArray) {
    const uint32_t idx = GetU32(key, 0);
    return idx < spec_.max_entries ? idx : kNoEntry;
  }
  const uint32_t slot =
      index_.Find(HashKey(key), [&](uint32_t candidate) { return KeyIs(candidate, key); });
  return slot == FlatIndex::kNone ? kNoEntry : slot;
}

uint32_t Map::Upsert(ByteSpan key, ByteSpan value) {
  DCHECK_EQ(key.size(), spec_.key_size);
  DCHECK_EQ(value.size(), spec_.value_size);
  uint32_t slot;
  if (spec_.type == MapType::kArray) {
    slot = GetU32(key, 0);
    if (slot >= spec_.max_entries) {
      return kNoEntry;
    }
  } else {
    const uint64_t hash = HashKey(key);
    slot = index_.Find(hash, [&](uint32_t candidate) { return KeyIs(candidate, key); });
    if (slot == FlatIndex::kNone) {
      if (index_.size() >= spec_.max_entries) {
        return kNoEntry;
      }
      if (!free_slots_.empty()) {
        slot = free_slots_.back();
        free_slots_.pop_back();
      } else {
        slot = next_slot_++;
        values_.resize(static_cast<size_t>(next_slot_) * spec_.value_size, 0);
        keys_.resize(static_cast<size_t>(next_slot_) * spec_.key_size);
      }
      std::memcpy(keys_.data() + static_cast<size_t>(slot) * spec_.key_size, key.data(),
                  spec_.key_size);
      index_.Insert(hash, slot, [this](uint32_t held) {
        return HashKey(ByteSpan(KeyAt(held), spec_.key_size));
      });
    }
  }
  std::memcpy(values_.data() + static_cast<size_t>(slot) * spec_.value_size, value.data(),
              spec_.value_size);
  return slot;
}

bool Map::Erase(ByteSpan key) {
  DCHECK_EQ(key.size(), spec_.key_size);
  if (spec_.type == MapType::kArray) {
    return false;
  }
  const uint32_t slot =
      index_.Erase(HashKey(key), [&](uint32_t candidate) { return KeyIs(candidate, key); });
  if (slot == FlatIndex::kNone) {
    return false;
  }
  free_slots_.push_back(slot);
  return true;
}

Result<Bytes> Map::Lookup(ByteSpan key) const {
  if (key.size() != spec_.key_size) {
    return InvalidArgument("key size mismatch");
  }
  const uint32_t handle = Find(key);
  if (handle == kNoEntry) {
    return NotFound(spec_.type == MapType::kArray ? "array index out of range" : "no such key");
  }
  return ValueByHandle(handle);
}

Result<uint32_t> Map::Update(ByteSpan key, ByteSpan value) {
  if (key.size() != spec_.key_size) {
    return InvalidArgument("key size mismatch");
  }
  if (value.size() != spec_.value_size) {
    return InvalidArgument("value size mismatch");
  }
  const uint32_t slot = Upsert(key, value);
  if (slot == kNoEntry) {
    if (spec_.type == MapType::kArray) {
      return OutOfRange("array index out of range");
    }
    return ResourceExhausted("map full");
  }
  return slot;
}

Status Map::Delete(ByteSpan key) {
  if (key.size() != spec_.key_size) {
    return InvalidArgument("key size mismatch");
  }
  if (spec_.type == MapType::kArray) {
    return InvalidArgument("array map entries cannot be deleted");
  }
  return Erase(key) ? Status::Ok() : NotFound("no such key");
}

Result<Bytes> Map::ValueByHandle(uint32_t handle) const {
  if (static_cast<size_t>(handle + 1) * spec_.value_size > values_.size()) {
    return OutOfRange("bad map handle");
  }
  const auto* begin = values_.data() + static_cast<size_t>(handle) * spec_.value_size;
  return Bytes(begin, begin + spec_.value_size);
}

MutableByteSpan Map::MutableValue(uint32_t handle) {
  CHECK_LE(static_cast<size_t>(handle + 1) * spec_.value_size, values_.size());
  return MutableByteSpan(values_.data() + static_cast<size_t>(handle) * spec_.value_size,
                         spec_.value_size);
}

uint32_t MapRegistry::Create(MapSpec spec) {
  maps_.push_back(std::make_unique<Map>(std::move(spec)));
  return static_cast<uint32_t>(maps_.size() - 1);
}

Map* MapRegistry::Get(uint32_t id) {
  return id < maps_.size() ? maps_[id].get() : nullptr;
}

const Map* MapRegistry::Get(uint32_t id) const {
  return id < maps_.size() ? maps_[id].get() : nullptr;
}

}  // namespace hyperion::ebpf
