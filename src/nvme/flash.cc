#include "src/nvme/flash.h"

#include <algorithm>

#include "src/common/check.h"

namespace hyperion::nvme {

Status FlashDevice::ReadBlock(uint64_t lba, MutableByteSpan out) const {
  if (lba >= capacity_lbas_) {
    return OutOfRange("read past end of namespace");
  }
  if (out.size() != kLbaSize) {
    return InvalidArgument("read buffer must be one LBA");
  }
  auto it = blocks_.find(lba);
  if (it == blocks_.end()) {
    std::fill(out.begin(), out.end(), 0);
  } else {
    std::copy(it->second.begin(), it->second.end(), out.begin());
  }
  return Status::Ok();
}

Status FlashDevice::WriteBlock(uint64_t lba, ByteSpan data) {
  if (lba >= capacity_lbas_) {
    return OutOfRange("write past end of namespace");
  }
  if (data.size() != kLbaSize) {
    return InvalidArgument("write buffer must be one LBA");
  }
  // A rewrite lands in the block's existing storage (no reallocation).
  auto [it, inserted] = blocks_.try_emplace(lba);
  if (inserted) {
    it->second.assign(data.begin(), data.end());
  } else {
    std::copy(data.begin(), data.end(), it->second.begin());
  }
  return Status::Ok();
}

sim::Duration FlashDevice::ServiceTime(uint64_t lba, uint32_t count, bool is_write,
                                       sim::SimTime now) {
  CHECK_GT(count, 0u);
  const sim::Duration media = is_write ? latency_.program_ns : latency_.read_ns;
  sim::SimTime finish = now;
  for (uint32_t i = 0; i < count; ++i) {
    const size_t ch = static_cast<size_t>((lba + i) % latency_.channels);
    // The block starts when both the op has been issued (now) and its
    // channel is free; it occupies the channel for media + transfer time.
    const sim::SimTime start = std::max(now, channel_free_at_[ch]);
    const sim::SimTime done = start + media + latency_.channel_xfer_per_lba_ns;
    channel_free_at_[ch] = done;
    finish = std::max(finish, done);
  }
  return finish - now;
}

}  // namespace hyperion::nvme
