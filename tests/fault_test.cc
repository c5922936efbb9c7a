// Fault injection and recovery across layer boundaries.
//
// A CPU-free DPU has no OS underneath to absorb a misbehaving device, so
// the data path itself must: NVMe reissues failed commands under a bounded
// retry budget, PCIe retrains and replays, the RPC client retries with
// exponential backoff under a deadline, and the slot scheduler migrates
// off a failed FPGA region. These tests drive each fault -> recovery path
// end to end and pin the determinism contract: the same seeded workload
// through sim::Engine is bit-stable, with and without an active FaultPlan.
//
// PR 4 adds trace coverage on the same paths: every injected fault must
// leave a recovery span behind (nvme.retry / nvme.timeout, pcie.retrain,
// rpc.backoff, fpga.migrate), so an operator reading a trace sees not just
// the latency cliff but the recovery machinery that caused it.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/dpu/hyperion.h"
#include "src/dpu/rpc.h"
#include "src/dpu/services.h"
#include "src/fpga/fabric.h"
#include "src/fpga/scheduler.h"
#include "src/mem/object_store.h"
#include "src/nvme/controller.h"
#include "src/obs/trace.h"
#include "src/pcie/dma.h"
#include "src/pcie/topology.h"
#include "src/sim/fault.h"
#include "src/storage/kv.h"
#include "tests/testutil.h"

namespace hyperion {
namespace {

using sim::FaultPlan;
using sim::FaultRule;
using sim::FaultSite;
using testutil::CountSpans;

// -- FaultInjector mechanics ----------------------------------------------

TEST(FaultInjector, IdlePlanInjectsNothingAndTouchesNothing) {
  sim::Engine engine;
  sim::FaultInjector injector(&engine, FaultPlan());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(injector.ShouldInject(FaultSite::kNvmeReadError));
    EXPECT_FALSE(injector.ShouldInject(FaultSite::kNetLoss));
  }
  EXPECT_EQ(injector.TotalInjected(), 0u);
  EXPECT_TRUE(injector.counters().Snapshot().empty());
}

TEST(FaultInjector, BudgetBoundsInjections) {
  sim::Engine engine;
  FaultPlan plan;
  plan.Always(FaultSite::kNetLoss, /*count=*/3);
  sim::FaultInjector injector(&engine, plan);
  int injected = 0;
  for (int i = 0; i < 100; ++i) {
    if (injector.ShouldInject(FaultSite::kNetLoss)) {
      ++injected;
    }
  }
  EXPECT_EQ(injected, 3);
  EXPECT_EQ(injector.InjectedCount(FaultSite::kNetLoss), 3u);
  EXPECT_EQ(injector.counters().Get("fault_net_loss"), 3u);
}

TEST(FaultInjector, WindowGatesOnVirtualClock) {
  sim::Engine engine;
  FaultPlan plan;
  plan.Add(FaultRule{FaultSite::kNetLoss, 1.0, /*active_from=*/1 * sim::kMillisecond,
                     /*active_until=*/2 * sim::kMillisecond, FaultRule::kUnlimited});
  sim::FaultInjector injector(&engine, plan);
  EXPECT_FALSE(injector.ShouldInject(FaultSite::kNetLoss));  // before window
  engine.Advance(1 * sim::kMillisecond);
  EXPECT_TRUE(injector.ShouldInject(FaultSite::kNetLoss));   // inside
  engine.Advance(1 * sim::kMillisecond);
  EXPECT_FALSE(injector.ShouldInject(FaultSite::kNetLoss));  // past the end
}

TEST(FaultInjector, ProbabilityStreamsAreDeterministic) {
  FaultPlan plan;
  plan.WithProbability(FaultSite::kNetLoss, 0.3).WithProbability(FaultSite::kNetCorrupt, 0.1);
  auto draw = [&plan](uint64_t seed) {
    sim::Engine engine;
    sim::FaultInjector injector(&engine, plan, seed);
    std::vector<bool> decisions;
    for (int i = 0; i < 256; ++i) {
      decisions.push_back(injector.ShouldInject(FaultSite::kNetLoss));
      decisions.push_back(injector.ShouldInject(FaultSite::kNetCorrupt));
    }
    return decisions;
  };
  EXPECT_EQ(draw(42), draw(42));
  EXPECT_NE(draw(42), draw(43));
}

// -- NVMe: media errors and timeouts -> bounded reissue -------------------

// Controller + one namespace + sentinel block at LBA 7 (testutil fixture).
using NvmeFaultTest = testutil::NvmeFixture;

TEST_F(NvmeFaultTest, ReadErrorRetriesThenSucceeds) {
  FaultPlan plan;
  plan.Always(FaultSite::kNvmeReadError, /*count=*/2);
  sim::FaultInjector injector(&engine_, plan);
  controller_.SetFaultInjector(&injector);
  obs::Tracer tracer;
  controller_.SetTracer(&tracer);

  auto data = controller_.Read(nsid_, 7, 1);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ((*data)[0], 0xab);
  EXPECT_EQ(injector.InjectedCount(FaultSite::kNvmeReadError), 2u);
  EXPECT_EQ(controller_.counters().Get("nvme_media_errors"), 2u);
  EXPECT_EQ(controller_.counters().Get("nvme_retries"), 2u);
  EXPECT_EQ(controller_.counters().Get("nvme_retry_recoveries"), 1u);
  // The recovery left a trace: one read span wrapping two retry attempts,
  // each with nonzero duration (the media access was re-paid), all nested
  // under the facade's nvme.read.
  EXPECT_EQ(CountSpans(tracer, "nvme.read"), 1u);
  EXPECT_EQ(CountSpans(tracer, "nvme.retry"), 2u);
  EXPECT_EQ(tracer.open_depth(), 0u);
  for (const obs::SpanRecord& span : tracer.spans()) {
    ASSERT_NE(span.end, obs::SpanRecord::kOpen) << span.name;
    if (span.name == "nvme.retry") {
      EXPECT_GT(span.duration(), 0u);
      EXPECT_NE(span.parent, 0u);  // nested in the read
    }
  }
}

TEST_F(NvmeFaultTest, RetryBudgetExhaustedSurfacesDataLoss) {
  FaultPlan plan;
  plan.Always(FaultSite::kNvmeReadError);  // every read fails, forever
  sim::FaultInjector injector(&engine_, plan);
  controller_.SetFaultInjector(&injector);
  controller_.SetRetryLimit(2);

  const sim::SimTime before = engine_.Now();
  auto data = controller_.Read(nsid_, 7, 1);
  ASSERT_FALSE(data.ok());
  EXPECT_EQ(data.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(controller_.counters().Get("nvme_retries"), 2u);
  EXPECT_EQ(controller_.counters().Get("nvme_retries_exhausted"), 1u);
  // Each of the three attempts paid the media access before failing ECC.
  EXPECT_GT(engine_.Now(), before);
}

TEST_F(NvmeFaultTest, CommandTimeoutCostsWatchdogThenRecovers) {
  FaultPlan plan;
  plan.Always(FaultSite::kNvmeCmdTimeout, /*count=*/1);
  sim::FaultInjector injector(&engine_, plan);
  controller_.SetFaultInjector(&injector);

  obs::Tracer tracer;
  controller_.SetTracer(&tracer);

  const sim::SimTime before = engine_.Now();
  auto data = controller_.Read(nsid_, 7, 1);
  ASSERT_TRUE(data.ok());
  EXPECT_GE(engine_.Now() - before, controller_.command_timeout());
  EXPECT_EQ(controller_.counters().Get("nvme_cmd_timeouts"), 1u);
  EXPECT_EQ(controller_.counters().Get("nvme_retry_recoveries"), 1u);
  // The watchdog wait shows up as a timeout span covering the full budget.
  ASSERT_EQ(CountSpans(tracer, "nvme.timeout"), 1u);
  for (const obs::SpanRecord& span : tracer.spans()) {
    if (span.name == "nvme.timeout") {
      EXPECT_EQ(span.duration(), controller_.command_timeout());
    }
  }
}

TEST_F(NvmeFaultTest, QueuePairPathSurfacesRawStatus) {
  // Spec-shaped consumers see the completion status; no hidden retry.
  FaultPlan plan;
  plan.Always(FaultSite::kNvmeReadError, /*count=*/1);
  sim::FaultInjector injector(&engine_, plan);
  controller_.SetFaultInjector(&injector);

  const uint16_t qid = controller_.CreateQueuePair(8);
  nvme::Command cmd;
  cmd.cid = 99;
  cmd.opcode = nvme::Opcode::kRead;
  cmd.nsid = nsid_;
  cmd.slba = 7;
  ASSERT_TRUE(controller_.Submit(qid, std::move(cmd)).ok());
  EXPECT_EQ(controller_.ProcessSubmissions(), 1u);
  auto cqe = controller_.Reap(qid);
  ASSERT_TRUE(cqe.has_value());
  EXPECT_EQ(cqe->status, nvme::CmdStatus::kMediaError);
}

// -- KV: a failed spilled put leaves no orphan value segment ----------------

// The segment table owns KV spill state, so a spilled put whose index write
// fails must delete the segment it created. An orphan segment behind the
// old inline entry would make the next same-size put rewrite it in place
// and leave the index serving the stale inline value.
TEST_F(NvmeFaultTest, FailedLeafWriteLeavesNoOrphanSpillSegment) {
  mem::ObjectStoreConfig config;
  config.dram_bytes = 1u << 20;
  config.hbm_bytes = 1u << 20;
  config.nvme_nsid = nsid_;
  config.boot_area_lbas = 16;
  mem::ObjectStore store(&engine_, &controller_, config);
  auto kv = storage::KvStore::Create(&store, 1, storage::KvBackend::kBTree);
  ASSERT_TRUE(kv.ok());
  const Bytes old_value(16, 0x11);
  ASSERT_TRUE(kv->Put(1, ByteSpan(old_value)).ok());
  // A spilled put of a fresh key has the same command shape as the one
  // below; its last NVMe command is the B+ tree leaf write.
  const Bytes spilled(storage::KvStore::kInlineMax + 56, 0x22);
  auto commands = [&] {
    return controller_.counters().Get("nvme_reads") + controller_.counters().Get("nvme_writes");
  };
  const uint64_t before = commands();
  ASSERT_TRUE(kv->Put(2, ByteSpan(spilled)).ok());
  const uint64_t put_commands = commands() - before;
  ASSERT_GE(put_commands, 2u);

  FaultPlan plan;
  plan.AtQuery(FaultSite::kNvmeCmdTimeout, /*skip=*/put_commands - 1);
  sim::FaultInjector injector(&engine_, plan);
  controller_.SetFaultInjector(&injector);
  controller_.SetRetryLimit(0);
  const size_t segments = store.SegmentCount();
  EXPECT_FALSE(kv->Put(1, ByteSpan(spilled)).ok());
  EXPECT_EQ(injector.InjectedCount(FaultSite::kNvmeCmdTimeout), 1u);
  EXPECT_EQ(store.SegmentCount(), segments);
  EXPECT_FALSE(store.Describe(storage::KvValueSegment(1, 1)).ok());
  EXPECT_EQ(*kv->Get(1), old_value);  // the leaf never took the new ref

  const Bytes newest(spilled.size(), 0x33);
  ASSERT_TRUE(kv->Put(1, ByteSpan(newest)).ok());
  auto got = kv->Get(1);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, newest);
  EXPECT_EQ(store.SegmentCount(), segments + 1);
}

// -- PCIe: link drops -> retrain + replay ---------------------------------

class PcieFaultTest : public ::testing::Test {
 protected:
  PcieFaultTest() {
    const pcie::NodeId root = topology_.AddRootComplex("rc");
    src_ = topology_.AddEndpoint("nic", root, {3, 4});
    dst_ = topology_.AddEndpoint("nvme", root, {3, 4});
  }

  sim::Engine engine_;
  pcie::Topology topology_;
  pcie::NodeId src_ = 0;
  pcie::NodeId dst_ = 0;
};

TEST_F(PcieFaultTest, LinkDropRetrainsAndReplays) {
  pcie::DmaEngine clean(&engine_, &topology_);
  auto clean_latency = clean.Transfer(src_, dst_, 4096);
  ASSERT_TRUE(clean_latency.ok());

  FaultPlan plan;
  plan.Always(FaultSite::kPcieLinkDrop, /*count=*/2);
  sim::FaultInjector injector(&engine_, plan);
  pcie::DmaEngine dma(&engine_, &topology_);
  dma.SetFaultInjector(&injector);
  obs::Tracer tracer;
  dma.SetTracer(&tracer);

  auto latency = dma.Transfer(src_, dst_, 4096);
  ASSERT_TRUE(latency.ok());
  EXPECT_EQ(*latency, *clean_latency + 2 * pcie::DmaEngine::kRetrainLatency);
  EXPECT_EQ(dma.counters().Get("pcie_link_drops"), 2u);
  EXPECT_EQ(dma.counters().Get("pcie_replays"), 1u);
  EXPECT_EQ(dma.counters().Get("dma_transfers"), 1u);
  // Each drop retrained the link under the transfer's pcie.dma span.
  EXPECT_EQ(CountSpans(tracer, "pcie.dma"), 1u);
  EXPECT_EQ(CountSpans(tracer, "pcie.retrain"), 2u);
  for (const obs::SpanRecord& span : tracer.spans()) {
    if (span.name == "pcie.retrain") {
      EXPECT_EQ(span.duration(), pcie::DmaEngine::kRetrainLatency);
    }
  }
}

TEST_F(PcieFaultTest, LinkStayingDownSurfacesUnavailable) {
  FaultPlan plan;
  plan.Always(FaultSite::kPcieLinkDrop);  // the link never comes back
  sim::FaultInjector injector(&engine_, plan);
  pcie::DmaEngine dma(&engine_, &topology_);
  dma.SetFaultInjector(&injector);

  auto latency = dma.Transfer(src_, dst_, 4096);
  ASSERT_FALSE(latency.ok());
  EXPECT_EQ(latency.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(dma.counters().Get("pcie_link_down"), 1u);
  EXPECT_EQ(dma.counters().Get("dma_transfers"), 0u);
}

// -- FPGA: slot failure -> migration --------------------------------------

TEST(FpgaFaultTest, SlotFailureMigratesToAnotherRegion) {
  sim::Engine engine;
  fpga::FabricConfig config;
  config.regions = 3;
  fpga::Fabric fabric(&engine, config);
  fpga::SlotScheduler scheduler(&engine, &fabric);

  FaultPlan plan;
  plan.Always(FaultSite::kFpgaReconfigFail, /*count=*/1);
  sim::FaultInjector injector(&engine, plan);
  fabric.SetFaultInjector(&injector);
  obs::Tracer tracer;
  fabric.SetTracer(&tracer);
  scheduler.SetTracer(&tracer);

  fpga::Bitstream bs;
  bs.name = "kv_accel";
  auto placement = scheduler.Acquire(bs);
  ASSERT_TRUE(placement.ok()) << placement.status().ToString();
  // Region 0 failed mid-reconfiguration; the request landed on region 1.
  EXPECT_EQ(placement->region, 1u);
  EXPECT_TRUE(placement->reconfigured);
  EXPECT_TRUE(fabric.IsFailed(0));
  EXPECT_TRUE(fabric.IsLoaded(1));
  EXPECT_EQ(scheduler.migrations(), 1u);
  EXPECT_EQ(scheduler.counters().Get("slot_migrations"), 1u);
  EXPECT_EQ(fabric.counters().Get("reconfig_failures"), 1u);
  EXPECT_EQ(fabric.counters().Get("reconfigurations"), 1u);
  // One acquire span containing the aborted + successful reconfigurations
  // and an instant migration marker between them.
  EXPECT_EQ(CountSpans(tracer, "fpga.acquire"), 1u);
  EXPECT_EQ(CountSpans(tracer, "fpga.reconfig"), 2u);
  EXPECT_EQ(CountSpans(tracer, "fpga.migrate"), 1u);
  EXPECT_EQ(tracer.open_depth(), 0u);

  // A failed slot rejects new work until repaired.
  EXPECT_EQ(fabric.Reconfigure(0, bs).status().code(), StatusCode::kUnavailable);
  ASSERT_TRUE(fabric.Repair(0).ok());
  EXPECT_FALSE(fabric.IsFailed(0));
  EXPECT_TRUE(fabric.Reconfigure(0, bs).ok());
}

TEST(FpgaFaultTest, AllSlotsFailedSurfacesResourceExhausted) {
  sim::Engine engine;
  fpga::FabricConfig config;
  config.regions = 2;
  fpga::Fabric fabric(&engine, config);
  fpga::SlotScheduler scheduler(&engine, &fabric);

  FaultPlan plan;
  plan.Always(FaultSite::kFpgaReconfigFail);  // every reconfiguration aborts
  sim::FaultInjector injector(&engine, plan);
  fabric.SetFaultInjector(&injector);

  fpga::Bitstream bs;
  bs.name = "doomed";
  auto placement = scheduler.Acquire(bs);
  ASSERT_FALSE(placement.ok());
  EXPECT_EQ(placement.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(scheduler.migrations(), 2u);
  EXPECT_TRUE(fabric.IsFailed(0));
  EXPECT_TRUE(fabric.IsFailed(1));
}

// -- RPC: loss -> backoff -> deadline, response drop -> reissue -----------

class RpcFaultTest : public testutil::DpuFixture {
 protected:
  RpcFaultTest() : testutil::DpuFixture(/*seed=*/21) { BootAndInstall(); }

  // Lossy-UDP client with the injector wired into both the transport and
  // the client's own injection points.
  void MakeClient(sim::FaultInjector* injector, const dpu::RetryPolicy& policy) {
    net::TransportParams params;
    params.sender_sw_overhead = 1500;
    params.receiver_sw_overhead = 1500;
    params.fault_injector = injector;
    ConnectClient(net::TransportKind::kUdp, params);
    rpc_client_->set_retry_policy(policy);
    rpc_client_->SetFaultInjector(injector);
  }

  dpu::RpcRequest PutRequest(uint64_t key, uint32_t value_bytes) {
    return testutil::KvPutRequest(key, value_bytes);
  }
};

TEST_F(RpcFaultTest, LossRetriesWithBackoffThenRecovers) {
  FaultPlan plan;
  plan.Always(FaultSite::kNetLoss, /*count=*/2);
  sim::FaultInjector injector(&engine_, plan);
  MakeClient(&injector, dpu::RetryPolicy{.max_attempts = 5});
  obs::Tracer tracer;
  rpc_client_->SetTracer(&tracer);

  auto response = rpc_client_->Call(PutRequest(1, 64));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->status.ok());
  EXPECT_EQ(rpc_client_->counters().Get("rpc_retries"), 2u);
  EXPECT_EQ(rpc_client_->counters().Get("rpc_recoveries"), 1u);
  // Exponential backoff: first sleep 50us, second 100us.
  EXPECT_EQ(rpc_client_->counters().Get("rpc_backoff_ns"),
            150 * static_cast<uint64_t>(sim::kMicrosecond));
  // The call span wraps three attempts with a backoff span after each of
  // the two lost ones; the backoff durations are the policy's sleeps.
  EXPECT_EQ(CountSpans(tracer, "rpc.call"), 1u);
  EXPECT_EQ(CountSpans(tracer, "rpc.attempt"), 3u);
  EXPECT_EQ(CountSpans(tracer, "rpc.backoff"), 2u);
  EXPECT_EQ(tracer.open_depth(), 0u);
  uint64_t backoff_ns = 0;
  for (const obs::SpanRecord& span : tracer.spans()) {
    if (span.name == "rpc.backoff") {
      backoff_ns += span.duration();
    }
  }
  EXPECT_EQ(backoff_ns, rpc_client_->counters().Get("rpc_backoff_ns"));
}

TEST_F(RpcFaultTest, PersistentLossHitsDeadlineNotAHang) {
  FaultPlan plan;
  plan.Always(FaultSite::kNetLoss);  // the wire eats every datagram, forever
  sim::FaultInjector injector(&engine_, plan);
  // An absurd attempt budget: only the deadline can stop this call.
  MakeClient(&injector, dpu::RetryPolicy{.max_attempts = 1u << 20});

  const sim::SimTime deadline = engine_.Now() + 20 * sim::kMillisecond;
  auto response = rpc_client_->CallWithDeadline(PutRequest(2, 64), deadline);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(engine_.Now(), deadline);
  EXPECT_EQ(rpc_client_->counters().Get("rpc_deadline_exceeded"), 1u);
  EXPECT_GT(rpc_client_->counters().Get("rpc_retries"), 0u);
  // Backoff sleeps are truncated at the deadline, so the clock cannot have
  // run far past it (bounded by one attempt's wire time).
  EXPECT_LT(engine_.Now(), deadline + 1 * sim::kMillisecond);
}

TEST_F(RpcFaultTest, DeadlineRacingIntoBackoffWindowNeverOversleeps) {
  // Regression: when an attempt itself burned the remaining budget, the old
  // backoff path skipped deadline truncation entirely (it only truncated
  // while Now() < deadline) and slept the *full* backoff — with a large
  // policy, overshooting the deadline by seconds of virtual time.
  FaultPlan plan;
  plan.Always(FaultSite::kNetLoss);
  sim::FaultInjector injector(&engine_, plan);
  dpu::RetryPolicy policy;
  policy.max_attempts = 1u << 20;
  policy.initial_backoff = 5 * sim::kSecond;  // absurd: any full sleep is visible
  policy.max_backoff = 50 * sim::kSecond;
  MakeClient(&injector, policy);

  // 1us deadline vs 1.5us of sender software overhead: the first attempt
  // alone crosses the deadline, so the pre-backoff check sees Now() past it.
  const sim::SimTime deadline = engine_.Now() + 1 * sim::kMicrosecond;
  auto response = rpc_client_->CallWithDeadline(PutRequest(10, 64), deadline);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(rpc_client_->counters().Get("rpc_deadline_exceeded"), 1u);
  EXPECT_EQ(rpc_client_->counters().Get("rpc_backoff_ns"), 0u);  // no sleep at all
  // The clock stops at the deadline plus at most one attempt's wire time —
  // never a backoff sleep past it.
  EXPECT_GE(engine_.Now(), deadline);
  EXPECT_LT(engine_.Now(), deadline + 1 * sim::kMillisecond);
}

TEST_F(RpcFaultTest, BackoffMultiplierOverflowClampsToMaxBackoff) {
  // Regression: the backoff update multiplied in uint64 space; a large
  // multiplier pushed the product past 2^64 (and float->integer conversion
  // of an out-of-range value is UB). The growth must clamp to max_backoff.
  FaultPlan plan;
  plan.Always(FaultSite::kNetLoss, /*count=*/2);
  sim::FaultInjector injector(&engine_, plan);
  dpu::RetryPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff = 50 * sim::kMicrosecond;
  policy.backoff_multiplier = 1e18;  // one growth step leaves uint64 range
  policy.max_backoff = 200 * sim::kMicrosecond;
  MakeClient(&injector, policy);

  auto response = rpc_client_->Call(PutRequest(11, 64));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->status.ok());
  EXPECT_EQ(rpc_client_->counters().Get("rpc_retries"), 2u);
  // First sleep is the initial 50us; the grown value clamps to 200us.
  EXPECT_EQ(rpc_client_->counters().Get("rpc_backoff_ns"),
            250 * static_cast<uint64_t>(sim::kMicrosecond));
}

TEST_F(RpcFaultTest, ExhaustedAttemptsSurfaceLastError) {
  FaultPlan plan;
  plan.Always(FaultSite::kNetLoss);
  sim::FaultInjector injector(&engine_, plan);
  MakeClient(&injector, dpu::RetryPolicy{.max_attempts = 3});

  auto response = rpc_client_->Call(PutRequest(3, 64));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(rpc_client_->counters().Get("rpc_attempts"), 3u);
  EXPECT_EQ(rpc_client_->counters().Get("rpc_retries_exhausted"), 1u);
}

TEST_F(RpcFaultTest, DroppedResponseIsReissuedAtLeastOnce) {
  FaultPlan plan;
  plan.Always(FaultSite::kRpcResponseDrop, /*count=*/1);
  sim::FaultInjector injector(&engine_, plan);
  MakeClient(&injector, dpu::RetryPolicy{.max_attempts = 3});

  auto response = rpc_client_->Call(PutRequest(4, 64));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->status.ok());
  // The server executed twice (at-least-once); the put is idempotent.
  EXPECT_EQ(dpu_.rpc().counters().Get("rpcs"), 2u);
  EXPECT_EQ(rpc_client_->counters().Get("rpc_recoveries"), 1u);

  auto got = rpc_client_->Call(testutil::KvGetRequest(4));
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->status.ok());
  EXPECT_EQ(got->payload.size(), 64u);
}

// -- Determinism regression ------------------------------------------------

// A fig2-style datapath scenario driven from scheduled events: KV puts and
// gets plus raw block I/O over lossy UDP, with retries and deadlines. The
// result captures everything observable: final clock, events run, success
// counts, and every counter snapshot.
struct ScenarioResult {
  sim::SimTime final_time = 0;
  uint64_t events_run = 0;
  uint64_t ok_ops = 0;
  uint64_t failed_ops = 0;
  std::vector<std::pair<std::string, uint64_t>> nvme;
  std::vector<std::pair<std::string, uint64_t>> rpc_client;
  std::vector<std::pair<std::string, uint64_t>> rpc_server;
  std::vector<std::pair<std::string, uint64_t>> fpga;
  std::vector<std::pair<std::string, uint64_t>> injected;

  bool operator==(const ScenarioResult&) const = default;
};

ScenarioResult RunScenario(uint64_t seed, const FaultPlan& plan, bool with_injector = true) {
  sim::Engine engine;
  net::Fabric fabric(&engine);
  dpu::Hyperion dpu(&engine, &fabric);
  const net::HostId client_host = fabric.AddHost("client");
  CHECK_OK(dpu.Boot().status());
  auto services = dpu::HyperionServices::Install(&dpu);
  CHECK_OK(services.status());

  sim::FaultInjector injector(&engine, plan, seed);
  Rng rng(seed);
  net::TransportParams params;
  params.loss_probability = 0.02;
  params.sender_sw_overhead = 1500;
  params.receiver_sw_overhead = 1500;
  if (with_injector) {
    params.fault_injector = &injector;
    dpu.InstallFaultInjector(&injector);
  }
  auto transport = net::MakeTransport(net::TransportKind::kUdp, &fabric, &rng, params);
  dpu::RpcClient client(transport.get(), client_host, dpu.host_id(), &dpu.rpc());
  client.set_retry_policy(dpu::RetryPolicy{.max_attempts = 4});
  if (with_injector) {
    client.SetFaultInjector(&injector);
  }

  ScenarioResult result;
  constexpr int kOps = 24;
  // Generous spacing: even a worst-case op (NVMe timeouts on every RPC
  // attempt plus backoffs) finishes well inside one slot, so an event never
  // has to advance past its successor.
  constexpr sim::Duration kSpacing = 500 * sim::kMillisecond;
  const sim::SimTime base = engine.Now();
  for (int i = 0; i < kOps; ++i) {
    engine.ScheduleAt(base + static_cast<sim::Duration>(i + 1) * kSpacing, [&, i] {
      const uint64_t key = rng.Uniform(16);
      const sim::SimTime deadline = engine.Now() + 200 * sim::kMillisecond;
      dpu::RpcRequest request;
      if (i % 3 == 2) {  // raw block write (NVMe-oF datapath)
        Bytes payload;
        PutU32(payload, 2);
        PutU64(payload, key * 8);
        Bytes data(nvme::kLbaSize, static_cast<uint8_t>(i));
        PutBytes(payload, ByteSpan(data.data(), data.size()));
        request = {dpu::ServiceId::kBlock, dpu::BlockOp::kWrite, std::move(payload)};
      } else if (i % 3 == 1) {  // KV get
        request = testutil::KvGetRequest(key);
      } else {  // KV put
        const uint32_t value_bytes = static_cast<uint32_t>(64 + rng.Uniform(4096));
        request = testutil::KvPutRequest(key, value_bytes);
      }
      auto response = client.CallWithDeadline(request, deadline);
      if (response.ok() && response->status.ok()) {
        ++result.ok_ops;
      } else {
        ++result.failed_ops;
      }
    });
  }
  result.events_run = engine.Run();
  result.final_time = engine.Now();
  result.nvme = dpu.nvme().counters().Snapshot();
  result.rpc_client = client.counters().Snapshot();
  result.rpc_server = dpu.rpc().counters().Snapshot();
  result.fpga = dpu.fabric().counters().Snapshot();
  result.injected = injector.counters().Snapshot();
  return result;
}

FaultPlan ChaosPlan() {
  FaultPlan plan;
  plan.WithProbability(FaultSite::kNvmeReadError, 0.2)
      .WithProbability(FaultSite::kNvmeCmdTimeout, 0.05)
      .WithProbability(FaultSite::kNetLoss, 0.1)
      .WithProbability(FaultSite::kNetCorrupt, 0.05)
      .WithProbability(FaultSite::kRpcResponseDrop, 0.05);
  return plan;
}

TEST(DeterminismTest, SeededWorkloadIsBitStableWithoutFaults) {
  const ScenarioResult a = RunScenario(17, FaultPlan());
  const ScenarioResult b = RunScenario(17, FaultPlan());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.events_run, 24u);
  EXPECT_EQ(a.ok_ops + a.failed_ops, 24u);
}

TEST(DeterminismTest, SeededWorkloadIsBitStableUnderFaults) {
  const ScenarioResult a = RunScenario(17, ChaosPlan());
  const ScenarioResult b = RunScenario(17, ChaosPlan());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.events_run, 24u);
  // The chaos plan actually fired — this is not vacuous.
  EXPECT_FALSE(a.injected.empty());
}

TEST(DeterminismTest, IdleInjectionPointsAreFree) {
  // A wired-up injector with an empty plan leaves the run byte-identical
  // to one with no injector anywhere: the injection points cost nothing
  // when idle (the acceptance bar for keeping them in the hot path).
  const ScenarioResult with_idle_injector = RunScenario(17, FaultPlan(), /*with_injector=*/true);
  const ScenarioResult without_injector = RunScenario(17, FaultPlan(), /*with_injector=*/false);
  EXPECT_EQ(with_idle_injector, without_injector);
}

TEST(DeterminismTest, DifferentSeedsDiverge) {
  const ScenarioResult a = RunScenario(17, ChaosPlan());
  const ScenarioResult b = RunScenario(18, ChaosPlan());
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace hyperion
