// Byte-buffer utilities: little-endian encode/decode, checksums, hex dumps.
//
// Every on-"disk" and on-"wire" structure in Hyperion serializes through
// these helpers so the layout is explicit and endian-stable.

#ifndef HYPERION_SRC_COMMON_BYTES_H_
#define HYPERION_SRC_COMMON_BYTES_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "src/common/check.h"

namespace hyperion {

using Bytes = std::vector<uint8_t>;
using ByteSpan = std::span<const uint8_t>;
using MutableByteSpan = std::span<uint8_t>;

// True when [offset, offset + length) lies inside [0, size). Unlike
// `offset + length <= size`, the test cannot wrap.
constexpr bool RangeFits(uint64_t offset, uint64_t length, uint64_t size) {
  return offset <= size && length <= size - offset;
}

// -- Little-endian fixed-width append/read ---------------------------------
//
// Encode/decode are single memcpys on little-endian targets (every platform
// we build for); the shift loops remain as the big-endian fallback so the
// wire layout stays endian-stable.

namespace internal {

template <typename T>
inline void PutLittleEndian(Bytes& out, T v) {
  const size_t at = out.size();
  out.resize(at + sizeof(T));
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out.data() + at, &v, sizeof(T));
  } else {
    for (size_t i = 0; i < sizeof(T); ++i) {
      out[at + i] = static_cast<uint8_t>(v >> (8 * i));
    }
  }
}

template <typename T>
inline T GetLittleEndian(ByteSpan in, size_t offset) {
  DCHECK_LE(offset + sizeof(T), in.size());
  if constexpr (std::endian::native == std::endian::little) {
    T v;
    std::memcpy(&v, in.data() + offset, sizeof(T));
    return v;
  } else {
    T v = 0;
    for (size_t i = sizeof(T); i-- > 0;) {
      v = static_cast<T>((v << 8) | in[offset + i]);
    }
    return v;
  }
}

}  // namespace internal

inline void PutU16(Bytes& out, uint16_t v) { internal::PutLittleEndian(out, v); }
inline void PutU32(Bytes& out, uint32_t v) { internal::PutLittleEndian(out, v); }
inline void PutU64(Bytes& out, uint64_t v) { internal::PutLittleEndian(out, v); }

inline void PutBytes(Bytes& out, ByteSpan data) { out.insert(out.end(), data.begin(), data.end()); }

inline void PutString(Bytes& out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

inline uint16_t GetU16(ByteSpan in, size_t offset) {
  return internal::GetLittleEndian<uint16_t>(in, offset);
}

inline uint32_t GetU32(ByteSpan in, size_t offset) {
  return internal::GetLittleEndian<uint32_t>(in, offset);
}

inline uint64_t GetU64(ByteSpan in, size_t offset) {
  return internal::GetLittleEndian<uint64_t>(in, offset);
}

// -- Sequential reader ------------------------------------------------------

// Cursor over a byte span; Ok() goes false on overrun instead of crashing so
// parsers can reject truncated input gracefully.
class ByteReader {
 public:
  explicit ByteReader(ByteSpan data) : data_(data) {}

  bool Ok() const { return ok_; }
  size_t offset() const { return offset_; }
  size_t remaining() const { return ok_ ? data_.size() - offset_ : 0; }

  uint8_t ReadU8() {
    if (!Require(1)) {
      return 0;
    }
    return data_[offset_++];
  }
  uint16_t ReadU16() {
    if (!Require(2)) {
      return 0;
    }
    uint16_t v = GetU16(data_, offset_);
    offset_ += 2;
    return v;
  }
  uint32_t ReadU32() {
    if (!Require(4)) {
      return 0;
    }
    uint32_t v = GetU32(data_, offset_);
    offset_ += 4;
    return v;
  }
  uint64_t ReadU64() {
    if (!Require(8)) {
      return 0;
    }
    uint64_t v = GetU64(data_, offset_);
    offset_ += 8;
    return v;
  }
  std::string ReadString() {
    uint32_t n = ReadU32();
    if (!Require(n)) {
      return {};
    }
    std::string s(reinterpret_cast<const char*>(data_.data()) + offset_, n);
    offset_ += n;
    return s;
  }
  Bytes ReadBytes(size_t n) {
    if (!Require(n)) {
      return {};
    }
    Bytes b(data_.begin() + static_cast<ptrdiff_t>(offset_),
            data_.begin() + static_cast<ptrdiff_t>(offset_ + n));
    offset_ += n;
    return b;
  }
  void Skip(size_t n) { Require(n) ? (void)(offset_ += n) : (void)0; }

 private:
  bool Require(size_t n) {
    if (!ok_ || data_.size() - offset_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  ByteSpan data_;
  size_t offset_ = 0;
  bool ok_ = true;
};

// -- Sequential writer ------------------------------------------------------

// Append-side companion to ByteReader: owns the output vector and carries a
// reserve hint so fixed-layout headers and length-prefixed payloads are
// built with one allocation and memcpy-width stores.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(size_t reserve_hint) { buf_.reserve(reserve_hint); }

  // Pre-allocates room for `additional` more bytes.
  void Reserve(size_t additional) { buf_.reserve(buf_.size() + additional); }

  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU16(uint16_t v) { hyperion::PutU16(buf_, v); }
  void PutU32(uint32_t v) { hyperion::PutU32(buf_, v); }
  void PutU64(uint64_t v) { hyperion::PutU64(buf_, v); }
  void PutBytes(ByteSpan data) { hyperion::PutBytes(buf_, data); }
  void PutString(const std::string& s) { hyperion::PutString(buf_, s); }

  size_t size() const { return buf_.size(); }
  const Bytes& bytes() const { return buf_; }
  // Moves the accumulated bytes out; the writer is empty afterwards.
  Bytes Take() { return std::move(buf_); }

 private:
  Bytes buf_;
};

// -- Checksums & formatting -------------------------------------------------

// CRC32C (Castagnoli), bit-reflected. Dispatches once to the hardware
// instruction path (SSE4.2 / ARMv8 CRC) when the CPU has it, else the
// software table; both produce identical results (cross-checked in tests).
uint32_t Crc32c(ByteSpan data);

namespace internal {
// Test/bench hooks for the two CRC32C implementations.
uint32_t Crc32cSoftware(ByteSpan data);
bool Crc32cHardwareAvailable();
// Precondition: Crc32cHardwareAvailable().
uint32_t Crc32cHardware(ByteSpan data);
}  // namespace internal

// FNV-1a 64-bit, for hash indexes where crypto strength is irrelevant.
uint64_t Fnv1a64(ByteSpan data);

// "deadbeef"-style lowercase hex of a buffer (for logs and tests).
std::string ToHex(ByteSpan data);

// Convenience converters between std::string payloads and Bytes.
inline Bytes ToBytes(const std::string& s) { return Bytes(s.begin(), s.end()); }
inline std::string ToString(ByteSpan b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

}  // namespace hyperion

#endif  // HYPERION_SRC_COMMON_BYTES_H_
