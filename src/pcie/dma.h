// DMA engine over a PCIe topology.
//
// Transfers advance the simulation clock by the modelled bus latency and
// feed the experiment counters (hops, bytes, transfers) that experiment E1
// (Table 1 reproduction) reports. A transfer between two endpoints that
// must bounce through host DRAM (the CPU-centric pattern) is modelled as
// two DMA legs plus a configurable CPU touch cost charged by the caller.

#ifndef HYPERION_SRC_PCIE_DMA_H_
#define HYPERION_SRC_PCIE_DMA_H_

#include <cstdint>

#include "src/common/buffer.h"
#include "src/common/result.h"
#include "src/obs/trace.h"
#include "src/pcie/topology.h"
#include "src/sim/engine.h"
#include "src/sim/fault.h"
#include "src/sim/stats.h"

namespace hyperion::pcie {

// Scatter-gather DMA descriptor: the transfer references the payload's
// buffer segments (SGL-style) — no staging copy is made to launch it.
struct DmaDescriptor {
  NodeId src = 0;
  NodeId dst = 0;
  BufferChain data;
  bool peer_to_peer = false;
};

class DmaEngine {
 public:
  // LTSSM Recovery: a dropped link retrains and the data-link layer replays
  // outstanding TLPs, so a transfer survives a drop with added latency.
  static constexpr sim::Duration kRetrainLatency = 20 * sim::kMicrosecond;
  // Consecutive failed retrains before the link is declared down and the
  // transfer surfaces kUnavailable to the caller.
  static constexpr int kMaxRetrains = 8;

  DmaEngine(sim::Engine* engine, const Topology* topology)
      : engine_(engine), topology_(topology) {}

  // Hooks this engine to a fault injector (null detaches). Injected fault:
  // link drops, absorbed by retrain + replay up to kMaxRetrains.
  void SetFaultInjector(sim::FaultInjector* injector) { injector_ = injector; }

  // Attaches a tracer (null detaches): transfers emit pcie.dma spans, and
  // each injected link drop adds a pcie.retrain recovery span.
  void SetTracer(obs::Tracer* tracer) { tracer_ = tracer; }

  // Synchronous transfer of `bytes` from node `src` to node `dst`:
  // advances virtual time by the modelled latency and returns it.
  Result<sim::Duration> Transfer(NodeId src, NodeId dst, uint64_t bytes);

  // Peer-to-peer transfer. Identical cost model to Transfer but recorded
  // under a separate counter so experiments can distinguish P2P DMA (e.g.
  // NVMe CMB-based designs) from root-complex-mediated flows.
  Result<sim::Duration> TransferPeerToPeer(NodeId src, NodeId dst, uint64_t bytes);

  // Scatter-gather transfer: identical cost model to Transfer for the
  // chain's total byte count (segmentation never changes modelled latency),
  // with dma_sg_transfers / dma_sg_segments accounting on top.
  Result<sim::Duration> TransferDescriptor(const DmaDescriptor& descriptor);

  const sim::Counters& counters() const { return counters_; }

 private:
  Result<sim::Duration> DoTransfer(NodeId src, NodeId dst, uint64_t bytes, const char* kind);

  sim::Engine* engine_;
  const Topology* topology_;
  sim::FaultInjector* injector_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  sim::Counters counters_;
};

}  // namespace hyperion::pcie

#endif  // HYPERION_SRC_PCIE_DMA_H_
