#include "src/dpu/hyperion.h"

#include "src/common/check.h"
#include "src/common/log.h"

namespace hyperion::dpu {

namespace {
// Power-on sequence costs (§2: "boots in a stand-alone mode without any CPU
// when power is applied and FPGA JTAG self-tests are passed").
constexpr sim::Duration kJtagSelfTest = 180 * sim::kMillisecond;
constexpr sim::Duration kShellConfiguration = 2600 * sim::kMillisecond;  // QSPI static image

// Bus-address map (Figure 2 / §2.1: "statically divide FPGA AXI-streaming
// bus address ranges to map to FPGA DRAM addresses, and others to NVMe PCIe
// BAR addresses").
constexpr uint64_t kDramBase = 0x0000'0000'0000ull;
constexpr uint64_t kHbmBase = 0x1000'0000'0000ull;
constexpr uint64_t kNvmeBase = 0x2000'0000'0000ull;
constexpr uint64_t kNvmeStride = 0x0100'0000'0000ull;
}  // namespace

Hyperion::Hyperion(sim::Engine* engine, net::Fabric* net, HyperionConfig config)
    : engine_(engine), net_(net), config_(config), energy_(sim::MakeDpuEnergyModel()) {
  host_id_ = net_->AddHost("hyperion", config_.link_gbps);

  // FPGA-hosted PCIe hierarchy: the root complex *is* the FPGA; the x16
  // lanes bifurcate into 4 x4 links, one per NVMe device.
  const pcie::NodeId root = pcie_.AddRootComplex("fpga_root_complex");
  for (uint32_t d = 0; d < config_.nvme_devices; ++d) {
    pcie_.AddEndpoint("nvme" + std::to_string(d), root, {3, 4});
  }
  dma_ = std::make_unique<pcie::DmaEngine>(engine_, &pcie_);

  nvme_ = std::make_unique<nvme::Controller>(engine_);
  for (uint32_t d = 0; d < config_.nvme_devices; ++d) {
    nvme_->AddNamespace(config_.lbas_per_device);
  }

  mem::ObjectStoreConfig store_config;
  store_config.dram_bytes = config_.dram_bytes;
  store_config.hbm_bytes = config_.hbm_bytes;
  store_config.nvme_nsid = 1;  // namespace 1 carries the boot area
  store_ = std::make_unique<mem::ObjectStore>(engine_, nvme_.get(), store_config);

  fabric_ = std::make_unique<fpga::Fabric>(engine_, config_.fabric);
  scheduler_ = std::make_unique<fpga::SlotScheduler>(engine_, fabric_.get());

  // Static address-range routing.
  CHECK_OK(axi_.AddRoute(kDramBase, kDramBase + config_.dram_bytes, fpga::Port::kDram));
  CHECK_OK(axi_.AddRoute(kHbmBase, kHbmBase + config_.hbm_bytes, fpga::Port::kHbm));
  for (uint32_t d = 0; d < config_.nvme_devices && d < 4; ++d) {
    const uint64_t base = kNvmeBase + d * kNvmeStride;
    CHECK_OK(axi_.AddRoute(base, base + config_.lbas_per_device * nvme::kLbaSize,
                           static_cast<fpga::Port>(static_cast<uint8_t>(fpga::Port::kNvme0) + d)));
  }

  vm_ = std::make_unique<ebpf::Vm>(&maps_, engine_);
}

Result<sim::Duration> Hyperion::Boot() {
  if (booted_) {
    return sim::Duration{0};
  }
  const sim::SimTime start = engine_->Now();
  engine_->Advance(kJtagSelfTest);
  engine_->Advance(kShellConfiguration);
  // Recover the single-level store; a fresh device has no snapshot yet.
  Result<uint64_t> recovered = store_->Recover();
  if (recovered.ok()) {
    LOG_INFO << "hyperion: recovered " << *recovered << " durable segments";
  } else if (recovered.status().code() == StatusCode::kNotFound) {
    LOG_INFO << "hyperion: fresh device, no segment table snapshot";
  } else {
    return recovered.status();
  }
  booted_ = true;
  return engine_->Now() - start;
}

Result<fpga::RegionId> Hyperion::LoadBitstream(std::string_view token,
                                               fpga::Bitstream bitstream) {
  if (token != config_.control_token) {
    return PermissionDenied("control path: bad authorization token");
  }
  if (!booted_) {
    return Unavailable("DPU not booted");
  }
  ASSIGN_OR_RETURN(fpga::SlotScheduler::Placement placement,
                   scheduler_->Acquire(bitstream));
  return placement.region;
}

Result<AcceleratorId> Hyperion::DeployAccelerator(std::string_view token, ebpf::Program program,
                                                  fpga::TenantId tenant) {
  if (token != config_.control_token) {
    return PermissionDenied("control path: bad authorization token");
  }
  if (!booted_) {
    return Unavailable("DPU not booted");
  }
  // Multi-tenant isolation, stage 1: a tenant's program may only reference
  // maps it owns (or explicitly shared ones). Checked statically, before
  // verification — cross-tenant state never becomes reachable.
  for (size_t i = 0; i < program.insns.size(); ++i) {
    const ebpf::Insn& insn = program.insns[i];
    if (insn.IsLdImm64() && insn.src == ebpf::kPseudoMapFd) {
      const auto map_id = static_cast<uint32_t>(insn.imm);
      const ebpf::Map* map = maps_.Get(map_id);
      if (map == nullptr) {
        return NotFound("program references unknown map");
      }
      const uint32_t owner = map->spec().tenant;
      if (owner != ebpf::kSharedMap && owner != tenant) {
        return PermissionDenied("program references another tenant's map");
      }
      ++i;  // skip the second LD_IMM64 slot
    }
  }
  // Compiler-as-OS: no verifier pass, no fabric placement.
  RETURN_IF_ERROR(ebpf::Verify(program, maps_).status());
  ASSIGN_OR_RETURN(ebpf::PipelinePlan plan, ebpf::CompileToPipeline(program));
  fpga::Bitstream bitstream;
  bitstream.name = program.name;
  bitstream.tenant = tenant;
  bitstream.fmax_mhz = plan.options.fmax_mhz;
  // Partial bitstream size scales with design size in this model.
  bitstream.size_bytes = 1 * 1024 * 1024 + static_cast<uint64_t>(plan.total_insns) * 24 * 1024;
  ASSIGN_OR_RETURN(fpga::SlotScheduler::Placement placement, scheduler_->Acquire(bitstream));
  Accelerator accel;
  accel.program = std::move(program);
  accel.plan = std::move(plan);
  accel.region = placement.region;
  accel.tenant = tenant;
  accelerators_.push_back(std::move(accel));
  return static_cast<AcceleratorId>(accelerators_.size() - 1);
}

Result<uint64_t> Hyperion::ProcessPacket(AcceleratorId accel_id, MutableByteSpan packet) {
  if (accel_id >= accelerators_.size()) {
    return InvalidArgument("no such accelerator");
  }
  Accelerator& accel = accelerators_[accel_id];
  if (accel.retired) {
    return InvalidArgument("accelerator was undeployed");
  }
  // Functional execution (instrumented), then hardware-time charging.
  std::vector<uint64_t> counts(accel.program.insns.size(), 0);
  vm_->set_exec_counts(&counts);
  auto run = vm_->Run(accel.program, packet);
  vm_->set_exec_counts(nullptr);
  RETURN_IF_ERROR(run.status());
  const uint64_t cycles = ebpf::EstimateCycles(accel.plan, counts);
  RETURN_IF_ERROR(ChargeFabric(accel.region, cycles));
  ++accel.packets;
  return run->return_value;
}

Status Hyperion::UndeployAccelerator(std::string_view token, AcceleratorId accel_id) {
  if (token != config_.control_token) {
    return PermissionDenied("control path: bad authorization token");
  }
  if (accel_id >= accelerators_.size()) {
    return InvalidArgument("no such accelerator");
  }
  Accelerator& accel = accelerators_[accel_id];
  if (accel.retired) {
    return InvalidArgument("accelerator already undeployed");
  }
  RETURN_IF_ERROR(scheduler_->Release(accel.region));
  accel.retired = true;
  return Status::Ok();
}

Result<uint32_t> Hyperion::CreateMap(std::string_view token, ebpf::MapSpec spec) {
  if (token != config_.control_token) {
    return PermissionDenied("control path: bad authorization token");
  }
  if (!booted_) {
    return Unavailable("DPU not booted");
  }
  RETURN_IF_ERROR(ebpf::ValidateMapSpec(spec));
  return maps_.Create(std::move(spec));
}

Result<Hyperion::AcceleratorInfo> Hyperion::DescribeAccelerator(AcceleratorId accel_id) const {
  if (accel_id >= accelerators_.size()) {
    return InvalidArgument("no such accelerator");
  }
  const Accelerator& accel = accelerators_[accel_id];
  AcceleratorInfo info;
  info.region = accel.region;
  info.pipeline_stages = accel.plan.CriticalPathCycles();
  info.mean_ilp = accel.plan.MeanIlp();
  info.packets_processed = accel.packets;
  return info;
}

Status Hyperion::ChargeFabric(fpga::RegionId region, uint64_t cycles) {
  ASSIGN_OR_RETURN(sim::Duration t, fabric_->Execute(region, cycles));
  energy_.Busy(sim::DpuPowerIds::kFabric, t);
  return Status::Ok();
}

void Hyperion::InstallFaultInjector(sim::FaultInjector* injector) {
  nvme_->SetFaultInjector(injector);
  dma_->SetFaultInjector(injector);
  fabric_->SetFaultInjector(injector);
}

void Hyperion::InstallTracer(obs::Tracer* tracer) {
  nvme_->SetTracer(tracer);
  dma_->SetTracer(tracer);
  fabric_->SetTracer(tracer);
  scheduler_->SetTracer(tracer);
  rpc_.SetTracer(tracer, engine_);
}

}  // namespace hyperion::dpu
