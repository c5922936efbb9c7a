// On-board DRAM/HBM model for the DPU (the U280 carries 32 GiB DDR4 and
// 8 GiB HBM2) and for the baseline host's DIMMs.
//
// Each device reserves its full modelled capacity as one anonymous,
// never-committed host mapping. The kernel materialises a zeroed page on the
// first write to it, so untouched bytes read as zero and host RSS tracks the
// bytes written, not the capacity: a rack of paper-sized nodes boots without
// touching host memory. Timing is a simple latency model: fixed access
// latency plus serialization at the device bandwidth. HBM trades slightly
// higher latency for much higher bandwidth, which is why the placement hints
// of §2.1 matter.

#ifndef HYPERION_SRC_MEM_DRAM_H_
#define HYPERION_SRC_MEM_DRAM_H_

#include <cstdint>

#include "src/common/bytes.h"
#include "src/common/result.h"
#include "src/sim/engine.h"

namespace hyperion::mem {

struct DramParams {
  sim::Duration access_latency = 90;  // row activate + CAS, ns
  double bandwidth_gbps = 153.6;      // 19.2 GB/s DDR4-2400 channel
};

inline DramParams HbmParams() {
  return DramParams{.access_latency = 120, .bandwidth_gbps = 3680.0};  // 460 GB/s
}

class DramDevice {
 public:
  // CHECK-fails if the host cannot reserve `capacity_bytes` of address space.
  // A capacity-0 device maps nothing and rejects every non-empty access.
  DramDevice(sim::Engine* engine, uint64_t capacity_bytes, DramParams params = DramParams());
  DramDevice(const DramDevice&) = delete;
  DramDevice& operator=(const DramDevice&) = delete;
  ~DramDevice();

  uint64_t capacity() const { return capacity_; }

  Status Read(uint64_t addr, MutableByteSpan out);
  Status Write(uint64_t addr, ByteSpan data);

  // Latency model only (no data movement), for planners.
  sim::Duration AccessTime(uint64_t bytes) const {
    return params_.access_latency + sim::TransferTime(bytes, params_.bandwidth_gbps);
  }

 private:
  sim::Engine* engine_;
  DramParams params_;
  uint64_t capacity_;
  uint8_t* data_ = nullptr;  // null iff capacity_ == 0
};

}  // namespace hyperion::mem

#endif  // HYPERION_SRC_MEM_DRAM_H_
