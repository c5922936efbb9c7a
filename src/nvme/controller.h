// NVMe controller: namespaces, queue pairs, command execution.
//
// On Hyperion the controller sits behind the FPGA-hosted PCIe root complex
// (the "NVMe Host IP Core" of Figure 2); on the baseline it hangs off the
// host root complex and is driven by the kernel. Both use this same model —
// what differs between the architectures is who issues the doorbells and
// how many bus/software hops the data crosses on the way here.

#ifndef HYPERION_SRC_NVME_CONTROLLER_H_
#define HYPERION_SRC_NVME_CONTROLLER_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/result.h"
#include "src/nvme/command.h"
#include "src/nvme/flash.h"
#include "src/nvme/queue.h"
#include "src/obs/trace.h"
#include "src/sim/engine.h"
#include "src/sim/fault.h"
#include "src/sim/stats.h"

namespace hyperion::nvme {

class Controller {
 public:
  explicit Controller(sim::Engine* engine) : engine_(engine) {}

  // Attaches a namespace; returns its 1-based nsid.
  uint32_t AddNamespace(uint64_t capacity_lbas, FlashLatency latency = FlashLatency());

  uint32_t NamespaceCount() const { return static_cast<uint32_t>(namespaces_.size()); }
  Result<uint64_t> NamespaceCapacity(uint32_t nsid) const;

  // -- Queue-pair interface (asynchronous, spec-shaped) ---------------------

  // Creates an I/O queue pair; returns its qid (1-based; qid 0 is admin,
  // which this model does not expose).
  uint16_t CreateQueuePair(uint16_t entries);

  // Producer: post a command to queue `qid` (rings the SQ doorbell).
  Status Submit(uint16_t qid, Command cmd);

  // Controller side: drain all submission queues, executing each command
  // against the media model and posting completions. Returns the number of
  // commands executed. Virtual time advances to the completion time of the
  // latest command.
  uint32_t ProcessSubmissions();

  // Consumer: reap one completion from queue `qid`.
  std::optional<Completion> Reap(uint16_t qid);

  // -- Submission batching (doorbell coalescing, PR 5) ----------------------
  // SQEs staged via SubmitCoalesced accumulate host-side; one doorbell ring
  // publishes up to `max_batch` of them and charges the MMIO doorbell cost
  // once, amortizing it across the batch. With the default max_batch of 1
  // every staged command rings immediately (no coalescing).

  void SetDoorbellCoalescing(uint16_t max_batch) {
    doorbell_batch_ = std::max<uint16_t>(1, max_batch);
  }
  void SetDoorbellCost(sim::Duration cost) { doorbell_cost_ = cost; }

  // Stages a command for `qid`; rings automatically when the stage reaches
  // the batch bound or the SQ cannot hold another staged entry. Returns
  // ResourceExhausted (nothing staged) when SQ free slots are exhausted by
  // the entries already staged — the backpressure signal callers propagate.
  Status SubmitCoalesced(uint16_t qid, Command cmd);
  // Publishes whatever is staged for `qid` (no-op when empty). Callers
  // enforce their own max-delay bound by invoking this from a timer.
  Status RingDoorbell(uint16_t qid);
  size_t StagedCount(uint16_t qid) const;

  // -- Synchronous convenience facade ---------------------------------------
  // Issues through an internal queue pair and advances virtual time by the
  // full command latency. Used by the storage/fs layers, which care about
  // the cost model, not doorbell mechanics.

  Result<Bytes> Read(uint32_t nsid, uint64_t slba, uint32_t block_count);
  // Same command, cost and accounting as Read, but the blocks land straight
  // in `out` (a whole number of LBAs starting at `slba`): no completion
  // buffer is allocated or copied.
  Status ReadInto(uint32_t nsid, uint64_t slba, MutableByteSpan out);
  Status Write(uint32_t nsid, uint64_t slba, ByteSpan data);  // data = N * kLbaSize
  // Scatter-gather write: the command references `data`'s segments (no
  // staging copy). Same size contract as Write.
  Status WriteChain(uint32_t nsid, uint64_t slba, BufferChain data);
  Status Flush(uint32_t nsid);

  // -- Fault injection & recovery -------------------------------------------

  // Hooks this controller to a fault injector (null detaches). Injected
  // faults: unrecovered media read errors and command timeouts. Queue-pair
  // consumers see the raw spec-shaped completion status; the synchronous
  // facade reissues transient failures up to the retry budget.
  void SetFaultInjector(sim::FaultInjector* injector) { injector_ = injector; }

  // Attaches a tracer (null detaches). The synchronous facade emits
  // nvme.read / nvme.write / nvme.flush spans; recovery paths add
  // nvme.retry (each reissue) and nvme.timeout (watchdog expiry).
  void SetTracer(obs::Tracer* tracer) { tracer_ = tracer; }

  // Bounded reissue budget for the synchronous facade (reissues, not total
  // attempts: 3 means up to 4 submissions of the same command).
  void SetRetryLimit(uint32_t retries) { retry_limit_ = retries; }
  uint32_t retry_limit() const { return retry_limit_; }

  // Host-side watchdog: how long an injected command hang costs before the
  // abort completion is posted.
  void SetCommandTimeout(sim::Duration timeout) { command_timeout_ = timeout; }
  sim::Duration command_timeout() const { return command_timeout_; }

  const sim::Counters& counters() const { return counters_; }

 private:
  // A read's blocks go to `read_into` when it is non-empty (it must hold
  // exactly the command's blocks), else to the completion's data.
  Completion Execute(const Command& cmd, MutableByteSpan read_into = {});
  FlashDevice* GetNamespace(uint32_t nsid);
  // Executes `cmd` and reissues it (fresh cid) on transient failure until
  // it succeeds, fails deterministically, or exhausts the retry budget.
  Completion ExecuteWithRetry(Command cmd, MutableByteSpan read_into = {});
  // The synchronous read both Read and ReadInto issue.
  Completion SyncRead(uint32_t nsid, uint64_t slba, uint32_t block_count,
                      MutableByteSpan read_into);

  sim::Engine* engine_;
  std::vector<std::unique_ptr<FlashDevice>> namespaces_;
  std::vector<std::unique_ptr<QueuePair>> queues_;
  std::vector<std::vector<Command>> staged_;  // parallel to queues_
  uint16_t doorbell_batch_ = 1;
  sim::Duration doorbell_cost_ = 500;  // one MMIO write, ns
  uint16_t next_cid_ = 1;
  sim::FaultInjector* injector_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  uint32_t retry_limit_ = 3;
  sim::Duration command_timeout_ = 5 * sim::kMillisecond;
  sim::Counters counters_;
  // Reused 1-block staging buffer for writes whose SG chain straddles a
  // segment boundary (was a fresh zeroed 4 KiB heap block per command).
  Bytes write_scratch_;
  // Counter slots, interned at first bump (see sim::Counters::Slot).
  sim::Counters::Slot reads_slot_{"nvme_reads"};
  sim::Counters::Slot read_bytes_slot_{"nvme_read_bytes"};
  sim::Counters::Slot writes_slot_{"nvme_writes"};
  sim::Counters::Slot write_bytes_slot_{"nvme_write_bytes"};
  sim::Counters::Slot doorbells_slot_{"nvme_doorbells"};
  sim::Counters::Slot doorbell_sqes_slot_{"nvme_doorbell_sqes"};
};

}  // namespace hyperion::nvme

#endif  // HYPERION_SRC_NVME_CONTROLLER_H_
