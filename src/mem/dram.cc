#include "src/mem/dram.h"

#include <sys/mman.h>

#include <cerrno>
#include <cstring>

#include "src/common/check.h"

namespace hyperion::mem {

DramDevice::DramDevice(sim::Engine* engine, uint64_t capacity_bytes, DramParams params)
    : engine_(engine), params_(params), capacity_(capacity_bytes) {
  if (capacity_ == 0) {
    return;  // mmap rejects a zero length
  }
  void* mapped = mmap(nullptr, capacity_, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  CHECK(mapped != MAP_FAILED) << ": cannot reserve " << capacity_ << " bytes of device memory ("
                              << std::strerror(errno) << ")";
  data_ = static_cast<uint8_t*>(mapped);
}

DramDevice::~DramDevice() {
  if (data_ != nullptr) {
    munmap(data_, capacity_);
  }
}

Status DramDevice::Read(uint64_t addr, MutableByteSpan out) {
  if (!RangeFits(addr, out.size(), capacity_)) {
    return OutOfRange("DRAM read past end");
  }
  if (!out.empty()) {
    std::memcpy(out.data(), data_ + addr, out.size());
  }
  engine_->Advance(AccessTime(out.size()));
  return Status::Ok();
}

Status DramDevice::Write(uint64_t addr, ByteSpan data) {
  if (!RangeFits(addr, data.size(), capacity_)) {
    return OutOfRange("DRAM write past end");
  }
  if (!data.empty()) {
    std::memcpy(data_ + addr, data.data(), data.size());
  }
  engine_->Advance(AccessTime(data.size()));
  return Status::Ok();
}

}  // namespace hyperion::mem
