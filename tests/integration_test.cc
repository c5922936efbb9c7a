// Full-system integration tests: multiple Hyperion DPUs on one fabric,
// distributed clients, multi-tenancy, crash/recovery across the stack, and
// the block service — the scenarios that cut across every module.

#include <gtest/gtest.h>

#include "src/apps/fail2ban.h"
#include "src/apps/load_balancer.h"
#include "src/dpu/distributed.h"
#include "src/dpu/hyperion.h"
#include "src/dpu/services.h"
#include "src/ebpf/assembler.h"

namespace hyperion {
namespace {

using dpu::BlockOp;
using dpu::Hyperion;
using dpu::HyperionServices;
using dpu::RpcClient;
using dpu::ServiceId;

// A small cluster: N DPUs and one client host on a shared fabric.
class Cluster {
 public:
  explicit Cluster(size_t dpu_count) : fabric_(&engine_) {
    client_host_ = fabric_.AddHost("client");
    transport_ = net::MakeTransport(net::TransportKind::kRdma, &fabric_, &rng_);
    for (size_t d = 0; d < dpu_count; ++d) {
      dpus_.push_back(std::make_unique<Hyperion>(&engine_, &fabric_));
      CHECK_OK(dpus_.back()->Boot());
      auto services = HyperionServices::Install(dpus_.back().get());
      CHECK_OK(services.status());
      services_.push_back(std::move(*services));
      rpcs_.push_back(std::make_unique<RpcClient>(transport_.get(), client_host_,
                                                  dpus_.back()->host_id(),
                                                  &dpus_.back()->rpc()));
    }
  }

  std::vector<RpcClient*> RpcPointers() {
    std::vector<RpcClient*> out;
    for (auto& rpc : rpcs_) {
      out.push_back(rpc.get());
    }
    return out;
  }

  sim::Engine engine_;
  net::Fabric fabric_;
  net::HostId client_host_ = 0;
  Rng rng_{55};
  std::unique_ptr<net::Transport> transport_;
  std::vector<std::unique_ptr<Hyperion>> dpus_;
  std::vector<std::unique_ptr<HyperionServices>> services_;
  std::vector<std::unique_ptr<RpcClient>> rpcs_;
};

// -- Distributed KV -----------------------------------------------------

TEST(IntegrationTest, DistributedKvPartitionsAndServes) {
  Cluster cluster(3);
  dpu::DistributedKvClient kv(cluster.RpcPointers());

  // Write 300 keys; they must spread over all three partitions.
  std::vector<size_t> per_partition(3, 0);
  for (uint64_t k = 0; k < 300; ++k) {
    Bytes value;
    PutU64(value, k * 11);
    ASSERT_TRUE(kv.Put(k, ByteSpan(value.data(), value.size())).ok()) << k;
    ++per_partition[kv.PartitionOf(k)];
  }
  for (size_t p = 0; p < 3; ++p) {
    EXPECT_GT(per_partition[p], 50u) << "partition " << p << " starved";
  }
  // Every key reads back from its owner.
  for (uint64_t k = 0; k < 300; ++k) {
    auto value = kv.Get(k);
    ASSERT_TRUE(value.ok()) << k;
    EXPECT_EQ(GetU64(*value, 0), k * 11);
  }
  ASSERT_TRUE(kv.Delete(7).ok());
  EXPECT_EQ(kv.Get(7).status().code(), StatusCode::kNotFound);
}

TEST(IntegrationTest, DistributedKvPartitionsAreIndependent) {
  Cluster cluster(2);
  dpu::DistributedKvClient kv(cluster.RpcPointers());
  // Data landing on partition 0 is invisible to partition 1's local store.
  uint64_t key_on_p0 = 0;
  while (kv.PartitionOf(key_on_p0) != 0) {
    ++key_on_p0;
  }
  Bytes value = ToBytes("partitioned");
  ASSERT_TRUE(kv.Put(key_on_p0, ByteSpan(value.data(), value.size())).ok());
  EXPECT_TRUE(cluster.services_[0]->kv().Get(key_on_p0).ok());
  EXPECT_FALSE(cluster.services_[1]->kv().Get(key_on_p0).ok());
}

// -- Multi-tenancy -----------------------------------------------------

TEST(IntegrationTest, TenantCannotReferenceForeignMaps) {
  Cluster cluster(1);
  Hyperion& dpu = *cluster.dpus_[0];
  const uint32_t tenant_a_map =
      dpu.maps().Create({ebpf::MapType::kHash, 4, 8, 64, "a_secrets", /*tenant=*/1});
  const uint32_t shared_map =
      dpu.maps().Create({ebpf::MapType::kArray, 4, 8, 16, "shared_config", ebpf::kSharedMap});

  const std::string source = R"(
      stw [r10-4], 0
      ld_map_fd r1, )" + std::to_string(tenant_a_map) + R"(
      mov r2, r10
      add r2, -4
      call map_lookup
      mov r0, 0
      exit
  )";
  auto prog = ebpf::Assemble(source, "snoop", 64);
  ASSERT_TRUE(prog.ok());
  // Tenant 1 (the owner) deploys fine.
  EXPECT_TRUE(dpu.DeployAccelerator(dpu.config().control_token, *prog, /*tenant=*/1).ok());
  // Tenant 2 referencing tenant 1's map is rejected before verification.
  auto denied = dpu.DeployAccelerator(dpu.config().control_token, *prog, /*tenant=*/2);
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), StatusCode::kPermissionDenied);

  // Shared maps are fine for anyone.
  const std::string shared_source = R"(
      stw [r10-4], 0
      ld_map_fd r1, )" + std::to_string(shared_map) + R"(
      mov r2, r10
      add r2, -4
      call map_lookup
      mov r0, 0
      exit
  )";
  auto shared_prog = ebpf::Assemble(shared_source, "reader", 64);
  ASSERT_TRUE(shared_prog.ok());
  EXPECT_TRUE(dpu.DeployAccelerator(dpu.config().control_token, *shared_prog, 2).ok());
}

// -- Block service (NVMe-oF style) ---------------------------------------

TEST(IntegrationTest, BlockServiceReadsAndWritesRawLbas) {
  Cluster cluster(1);
  RpcClient& rpc = *cluster.rpcs_[0];

  // Identify: 4 namespaces of the configured capacity.
  auto identify = rpc.Call({ServiceId::kBlock, BlockOp::kIdentify, {}});
  ASSERT_TRUE(identify.ok());
  ASSERT_TRUE(identify->status.ok());
  EXPECT_EQ(GetU32(identify->payload, 0), 4u);

  // Write two blocks to namespace 2 (unused by the object store) and read
  // them back over the wire.
  Bytes data(2 * nvme::kLbaSize);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 13);
  }
  Bytes write;
  PutU32(write, 2);
  PutU64(write, 100);
  PutBytes(write, ByteSpan(data.data(), data.size()));
  auto wrote = rpc.Call({ServiceId::kBlock, BlockOp::kWrite, std::move(write)});
  ASSERT_TRUE(wrote.ok());
  ASSERT_TRUE(wrote->status.ok());

  Bytes read;
  PutU32(read, 2);
  PutU64(read, 100);
  PutU32(read, 2);
  auto got = rpc.Call({ServiceId::kBlock, BlockOp::kRead, std::move(read)});
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got->status.ok());
  EXPECT_EQ(got->payload, data);

  Bytes flush;
  PutU32(flush, 2);
  EXPECT_TRUE(rpc.Call({ServiceId::kBlock, BlockOp::kFlush, std::move(flush)})->status.ok());
}

// -- Promotion ------------------------------------------------------------

TEST(IntegrationTest, HotFlashSegmentsPromoteToDram) {
  sim::Engine engine;
  nvme::Controller ctrl(&engine);
  mem::ObjectStoreConfig config;
  config.dram_bytes = 1 << 20;
  config.hbm_bytes = 0;
  config.nvme_nsid = ctrl.AddNamespace(65536);
  mem::ObjectStore store(&engine, &ctrl, config);

  // Fill DRAM so new ephemeral segments spill to flash.
  ASSERT_TRUE(store.Create(1 << 20, {}).ok());
  auto hot = store.Create(4096, {});
  auto cold = store.Create(4096, {});
  ASSERT_TRUE(hot.ok());
  ASSERT_TRUE(cold.ok());
  ASSERT_EQ(store.Describe(*hot)->location, mem::Location::kNvme);

  // Heat up one segment.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(store.Read(*hot, 0, 64).ok());
  }
  ASSERT_TRUE(store.Read(*cold, 0, 64).ok());

  // DRAM is full: promotion stalls.
  auto promoted_full = store.PromoteHot(10, 8);
  ASSERT_TRUE(promoted_full.ok());
  EXPECT_EQ(*promoted_full, 0u);

  // Free DRAM, re-heat (counters were reset), promote: only the hot one moves.
  auto entries_before = store.SegmentCount();
  (void)entries_before;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(store.Read(*hot, 0, 64).ok());
  }
  // Delete the DRAM hog.
  const mem::SegmentId hog(0xC0FFEEull, 1);
  ASSERT_TRUE(store.Delete(hog).ok());
  auto promoted = store.PromoteHot(10, 8);
  ASSERT_TRUE(promoted.ok());
  EXPECT_EQ(*promoted, 1u);
  EXPECT_EQ(store.Describe(*hot)->location, mem::Location::kDram);
  EXPECT_EQ(store.Describe(*cold)->location, mem::Location::kNvme);
}

// -- Whole-stack crash consistency -----------------------------------------

TEST(IntegrationTest, FullStackPowerCycle) {
  Cluster cluster(1);
  Hyperion& dpu = *cluster.dpus_[0];
  HyperionServices& services = *cluster.services_[0];

  // Durable state from three different subsystems.
  Bytes value = ToBytes("kv-survives");
  ASSERT_TRUE(services.kv().Put(99, ByteSpan(value.data(), value.size())).ok());
  Bytes entry = ToBytes("log-survives");
  ASSERT_TRUE(services.log().Append(ByteSpan(entry.data(), entry.size())).ok());
  auto f2b = apps::Fail2Ban::Create(&dpu, {.max_failures = 1});
  ASSERT_TRUE(f2b.ok());
  ASSERT_TRUE((*f2b)->OnAuthAttempt(0xDEAD, true).ok());
  ASSERT_TRUE((*f2b)->PersistBanList().ok());
  ASSERT_TRUE(dpu.store().Checkpoint().ok());

  // Power cycle: recover the single-level store.
  auto recovered = dpu.store().Recover();
  ASSERT_TRUE(recovered.ok());
  EXPECT_GT(*recovered, 0u);

  // KV (durable B+ index on flash) still serves. Note: the in-memory
  // KvStore object survives here; what we verify is that its *data*
  // (durable segments) does.
  auto read = services.kv().Get(99);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, value);
  // The audit/ban state restores into a fresh app instance.
  auto fresh = apps::Fail2Ban::Create(&dpu, {.max_failures = 1});
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE((*fresh)->RestoreBanList().ok());
  EXPECT_TRUE((*fresh)->IsBanned(0xDEAD));
}

}  // namespace
}  // namespace hyperion

namespace file_service {

using namespace hyperion;  // NOLINT
using dpu::FileOp;
using dpu::ServiceId;

TEST(IntegrationTest, FileServiceServesAnnotatedVolume) {
  sim::Engine engine;
  net::Fabric fabric(&engine);
  const net::HostId client = fabric.AddHost("client");
  dpu::Hyperion dpu(&engine, &fabric);
  CHECK_OK(dpu.Boot());
  // Prepare a volume on namespace 3 (outside the object store's namespace 1).
  auto extfs = fs::ExtFs::Format(&dpu.nvme(), 3);
  ASSERT_TRUE(extfs.ok());
  ASSERT_TRUE(extfs->Mkdir("/exports").ok());
  auto inode = extfs->CreateFile("/exports/data.bin");
  ASSERT_TRUE(inode.ok());
  Bytes contents(10000);
  for (size_t i = 0; i < contents.size(); ++i) {
    contents[i] = static_cast<uint8_t>(i * 31);
  }
  ASSERT_TRUE(extfs->WriteFile(*inode, 0, ByteSpan(contents.data(), contents.size())).ok());

  auto services = dpu::HyperionServices::Install(&dpu);
  ASSERT_TRUE(services.ok());
  ASSERT_TRUE((*services)->ServeVolume(3).ok());

  Rng rng(1);
  auto transport = net::MakeTransport(net::TransportKind::kRdma, &fabric, &rng);
  dpu::RpcClient rpc(transport.get(), client, dpu.host_id(), &dpu.rpc());

  // Resolve over the wire.
  Bytes resolve;
  PutString(resolve, "/exports/data.bin");
  auto resolved = rpc.Call({ServiceId::kFile, FileOp::kResolve, std::move(resolve)});
  ASSERT_TRUE(resolved.ok());
  ASSERT_TRUE(resolved->status.ok());
  EXPECT_EQ(GetU32(resolved->payload, 0), *inode);

  // Ranged read over the wire, byte-identical with what the FS wrote.
  Bytes read;
  PutString(read, "/exports/data.bin");
  PutU64(read, 5000);
  PutU64(read, 200);
  auto data = rpc.Call({ServiceId::kFile, FileOp::kRead, std::move(read)});
  ASSERT_TRUE(data.ok());
  ASSERT_TRUE(data->status.ok());
  EXPECT_EQ(data->payload, Bytes(contents.begin() + 5000, contents.begin() + 5200));

  // Missing paths surface as NotFound through the RPC boundary.
  Bytes missing;
  PutString(missing, "/exports/nope");
  auto absent = rpc.Call({ServiceId::kFile, FileOp::kResolve, std::move(missing)});
  ASSERT_TRUE(absent.ok());
  EXPECT_EQ(absent->status.code(), StatusCode::kNotFound);
}

}  // namespace file_service

namespace app_rpc {

using namespace hyperion;  // NOLINT
using dpu::ControlOp;
using dpu::ServiceId;

// The Willow pattern end-to-end: a client ships verified logic to the DPU
// over the control path, then invokes it remotely as an RPC — near-data
// execution of application-provided code with no CPU at the device.
TEST(IntegrationTest, UserProgramInvocableAsRpc) {
  sim::Engine engine;
  net::Fabric fabric(&engine);
  const net::HostId client = fabric.AddHost("client");
  dpu::Hyperion dpu(&engine, &fabric);
  CHECK_OK(dpu.Boot());
  auto services = dpu::HyperionServices::Install(&dpu);
  ASSERT_TRUE(services.ok());
  Rng rng(2);
  auto transport = net::MakeTransport(net::TransportKind::kRdma, &fabric, &rng);
  dpu::RpcClient rpc(transport.get(), client, dpu.host_id(), &dpu.rpc());

  // Logic: sum the first four u16 fields of the record and write the sum
  // back into the record's tail — a tiny near-data aggregation.
  auto prog = ebpf::Assemble(R"(
      ldxh r3, [r1+0]
      ldxh r4, [r1+2]
      ldxh r5, [r1+4]
      ldxh r6, [r1+6]
      add r3, r4
      add r3, r5
      add r3, r6
      stxw [r1+8], r3
      mov r0, r3
      exit
  )", "sum4", 16);
  ASSERT_TRUE(prog.ok());

  // Ship it over the control RPC.
  Bytes deploy;
  PutString(deploy, std::string(dpu.config().control_token));
  PutU32(deploy, /*tenant=*/9);
  Bytes program_bytes = ebpf::SerializeProgram(*prog);
  PutBytes(deploy, ByteSpan(program_bytes.data(), program_bytes.size()));
  auto deployed = rpc.Call({ServiceId::kControl, ControlOp::kDeploy, std::move(deploy)});
  ASSERT_TRUE(deployed.ok());
  ASSERT_TRUE(deployed->status.ok());
  const auto accel = static_cast<uint16_t>(GetU32(deployed->payload, 0));

  // Invoke it as an RPC with a record as the context.
  Bytes record(16, 0);
  PutU16(record, 100);  // overwrites first bytes... build explicitly:
  record.clear();
  record.resize(16, 0);
  record[0] = 100;
  record[2] = 20;
  record[4] = 3;
  record[6] = 1;
  auto invoked = rpc.Call({ServiceId::kApp, accel, record});
  ASSERT_TRUE(invoked.ok());
  ASSERT_TRUE(invoked->status.ok());
  EXPECT_EQ(GetU64(invoked->payload, 0), 124u);  // r0 = the sum
  // The mutated record comes back too (sum written at offset 8).
  EXPECT_EQ(GetU32(invoked->payload, 8 + 8), 124u);

  // Unknown accelerator ids fail cleanly.
  auto bogus = rpc.Call({ServiceId::kApp, 99, record});
  ASSERT_TRUE(bogus.ok());
  EXPECT_EQ(bogus->status.code(), StatusCode::kInvalidArgument);
}

}  // namespace app_rpc

namespace transport_resilience {

using namespace hyperion;  // NOLINT
using dpu::KvOp;
using dpu::RpcClient;
using dpu::ServiceId;

// The RPC layer exposes transport semantics honestly: over lossy UDP a call
// can fail with kUnavailable (the caller retries); over TCP the transport
// itself retransmits and every call completes.
TEST(IntegrationTest, RpcOverLossyTransports) {
  sim::Engine engine;
  net::Fabric fabric(&engine);
  const net::HostId client = fabric.AddHost("client");
  dpu::Hyperion dpu(&engine, &fabric);
  CHECK_OK(dpu.Boot());
  auto services = dpu::HyperionServices::Install(&dpu);
  ASSERT_TRUE(services.ok());
  Bytes value = ToBytes("v");
  ASSERT_TRUE((*services)->kv().Put(1, ByteSpan(value.data(), value.size())).ok());

  Rng rng(17);
  net::TransportParams lossy;
  lossy.loss_probability = 0.3;

  // UDP: some calls are lost; the failure surfaces cleanly as a Status.
  auto udp = net::MakeTransport(net::TransportKind::kUdp, &fabric, &rng, lossy);
  RpcClient udp_rpc(udp.get(), client, dpu.host_id(), &dpu.rpc());
  int ok = 0;
  int lost = 0;
  for (int i = 0; i < 200; ++i) {
    Bytes get;
    PutU64(get, 1);
    auto response = udp_rpc.Call({ServiceId::kKv, KvOp::kGet, std::move(get)});
    if (response.ok()) {
      EXPECT_TRUE(response->status.ok());
      ++ok;
    } else {
      EXPECT_EQ(response.status().code(), StatusCode::kUnavailable);
      ++lost;
    }
  }
  EXPECT_GT(ok, 50);
  EXPECT_GT(lost, 20);

  // TCP at the same loss rate: the transport retransmits; no call fails.
  auto tcp = net::MakeTransport(net::TransportKind::kTcp, &fabric, &rng, lossy);
  RpcClient tcp_rpc(tcp.get(), client, dpu.host_id(), &dpu.rpc());
  for (int i = 0; i < 200; ++i) {
    Bytes get;
    PutU64(get, 1);
    auto response = tcp_rpc.Call({ServiceId::kKv, KvOp::kGet, std::move(get)});
    ASSERT_TRUE(response.ok());
    EXPECT_TRUE(response->status.ok());
  }
}

}  // namespace transport_resilience
