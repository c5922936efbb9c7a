#include "src/dpu/services.h"

#include "src/common/check.h"

namespace hyperion::dpu {

namespace {
// Shell datapath cost per request: header parse, dispatch, response build
// in the always-resident shell pipeline (~300 cycles at 250 MHz).
constexpr sim::Duration kShellCost = 1200;

constexpr uint64_t kKvStoreId = 0x100;
constexpr uint64_t kTreeId = 0x200;
constexpr uint64_t kLogId = 0x300;
}  // namespace

Result<std::unique_ptr<HyperionServices>> HyperionServices::Install(
    Hyperion* dpu, storage::KvBackend kv_backend) {
  if (!dpu->booted()) {
    return Unavailable("install services after Boot()");
  }
  auto services = std::unique_ptr<HyperionServices>(new HyperionServices(dpu));
  ASSIGN_OR_RETURN(storage::KvStore kv,
                   storage::KvStore::Create(&dpu->store(), kKvStoreId, kv_backend));
  services->kv_ = std::make_unique<storage::KvStore>(std::move(kv));
  // The tree service backs §2.4's latency-sensitive pointer chasing: its
  // nodes are placement-hinted to the fast tier (HBM/DRAM), so lookups are
  // network-bound — the regime where offloading the walk pays.
  ASSIGN_OR_RETURN(storage::BPlusTree tree,
                   storage::BPlusTree::Create(&dpu->store(), kTreeId,
                                              {.performance_critical = true}));
  services->tree_ = std::make_unique<storage::BPlusTree>(std::move(tree));
  services->log_ = std::make_unique<storage::CorfuLog>(&dpu->store(), kLogId);
  services->Register();
  return services;
}

void HyperionServices::Register() {
  dpu_->rpc().RegisterService(ServiceId::kKv, [this](uint16_t opcode, const Buffer& payload) {
    return HandleKv(opcode, payload);
  });
  dpu_->rpc().RegisterService(ServiceId::kTree, [this](uint16_t opcode, const Buffer& payload) {
    return HandleTree(opcode, payload);
  });
  dpu_->rpc().RegisterService(ServiceId::kLog, [this](uint16_t opcode, const Buffer& payload) {
    return HandleLog(opcode, payload);
  });
  dpu_->rpc().RegisterService(ServiceId::kControl, [this](uint16_t opcode, const Buffer& payload) {
    return HandleControl(opcode, payload);
  });
  dpu_->rpc().RegisterService(ServiceId::kBlock, [this](uint16_t opcode, const Buffer& payload) {
    return HandleBlock(opcode, payload);
  });
  dpu_->rpc().RegisterService(ServiceId::kApp, [this](uint16_t opcode, const Buffer& payload) {
    return HandleApp(opcode, payload);
  });
}

void HyperionServices::ChargeShell() { dpu_->engine()->Advance(kShellCost); }

RpcResponse HyperionServices::HandleKv(uint16_t opcode, const Buffer& payload) {
  ChargeShell();
  ByteReader reader(payload);
  switch (opcode) {
    case KvOp::kPut: {
      const uint64_t key = reader.ReadU64();
      const uint32_t len = reader.ReadU32();
      if (!reader.Ok() || reader.remaining() < len) {
        return RpcResponse::Fail(InvalidArgument("malformed put"));
      }
      // The value is referenced straight out of the request payload; the
      // copy happens inside Put at the store boundary.
      Buffer value = payload.Slice(reader.offset(), len);
      Status st = kv_->Put(key, value);
      return st.ok() ? RpcResponse::Ok() : RpcResponse::Fail(st);
    }
    case KvOp::kGet: {
      const uint64_t key = reader.ReadU64();
      if (!reader.Ok()) {
        return RpcResponse::Fail(InvalidArgument("malformed get"));
      }
      Result<Buffer> value = kv_->GetBuffer(key);
      if (!value.ok()) {
        return RpcResponse::Fail(value.status());
      }
      return RpcResponse::Ok(std::move(value).value());
    }
    case KvOp::kDelete: {
      const uint64_t key = reader.ReadU64();
      if (!reader.Ok()) {
        return RpcResponse::Fail(InvalidArgument("malformed delete"));
      }
      Status st = kv_->Delete(key);
      return st.ok() ? RpcResponse::Ok() : RpcResponse::Fail(st);
    }
    case KvOp::kScan: {
      const uint64_t lo = reader.ReadU64();
      const uint64_t hi = reader.ReadU64();
      if (!reader.Ok()) {
        return RpcResponse::Fail(InvalidArgument("malformed scan"));
      }
      Result<std::vector<std::pair<uint64_t, Bytes>>> rows = kv_->Scan(lo, hi);
      if (!rows.ok()) {
        return RpcResponse::Fail(rows.status());
      }
      // A scan response is an inherent gather: rows from many blocks merge
      // into one payload.
      ByteWriter out;
      out.PutU32(static_cast<uint32_t>(rows->size()));
      for (const auto& [key, value] : *rows) {
        out.PutU64(key);
        out.PutU32(static_cast<uint32_t>(value.size()));
        out.PutBytes(ByteSpan(value.data(), value.size()));
      }
      return RpcResponse::Ok(out.Take());
    }
    default:
      return RpcResponse::Fail(Unimplemented("unknown KV opcode"));
  }
}

RpcResponse HyperionServices::HandleTree(uint16_t opcode, const Buffer& payload) {
  ChargeShell();
  ByteReader reader(payload);
  switch (opcode) {
    case TreeOp::kGet: {
      const uint64_t key = reader.ReadU64();
      if (!reader.Ok()) {
        return RpcResponse::Fail(InvalidArgument("malformed tree get"));
      }
      Result<Bytes> value = tree_->Get(key);
      if (!value.ok()) {
        return RpcResponse::Fail(value.status());
      }
      return RpcResponse::Ok(std::move(value).value());
    }
    case TreeOp::kReadNode: {
      const uint64_t node_id = reader.ReadU64();
      if (!reader.Ok()) {
        return RpcResponse::Fail(InvalidArgument("malformed node read"));
      }
      Result<Bytes> raw = dpu_->store().Read(
          storage::BPlusNodeSegment(tree_->tree_id(), node_id), 0, storage::BPlusTree::kNodeBytes);
      if (!raw.ok()) {
        return RpcResponse::Fail(raw.status());
      }
      return RpcResponse::Ok(std::move(raw).value());
    }
    case TreeOp::kInfo: {
      ByteWriter out(20);
      out.PutU64(tree_->tree_id());
      out.PutU64(tree_->root_node_id());
      out.PutU32(tree_->Height());
      return RpcResponse::Ok(out.Take());
    }
    default:
      return RpcResponse::Fail(Unimplemented("unknown tree opcode"));
  }
}

RpcResponse HyperionServices::HandleLog(uint16_t opcode, const Buffer& payload) {
  ChargeShell();
  ByteReader reader(payload);
  switch (opcode) {
    case LogOp::kAppend: {
      // The entry bytes go straight from the request payload into the log's
      // framed write — no intermediate staging copy.
      Result<uint64_t> position = log_->Append(payload);
      if (!position.ok()) {
        return RpcResponse::Fail(position.status());
      }
      Bytes out;
      PutU64(out, *position);
      return RpcResponse::Ok(std::move(out));
    }
    case LogOp::kRead: {
      const uint64_t position = reader.ReadU64();
      if (!reader.Ok()) {
        return RpcResponse::Fail(InvalidArgument("malformed log read"));
      }
      Result<Bytes> data = log_->Read(position);
      if (!data.ok()) {
        return RpcResponse::Fail(data.status());
      }
      return RpcResponse::Ok(std::move(data).value());
    }
    case LogOp::kTail: {
      Bytes out;
      PutU64(out, log_->Tail());
      return RpcResponse::Ok(std::move(out));
    }
    case LogOp::kFill: {
      const uint64_t position = reader.ReadU64();
      Status st = log_->Fill(position);
      return st.ok() ? RpcResponse::Ok() : RpcResponse::Fail(st);
    }
    case LogOp::kTrim: {
      const uint64_t prefix = reader.ReadU64();
      Status st = log_->Trim(prefix);
      return st.ok() ? RpcResponse::Ok() : RpcResponse::Fail(st);
    }
    default:
      return RpcResponse::Fail(Unimplemented("unknown log opcode"));
  }
}

RpcResponse HyperionServices::HandleBlock(uint16_t opcode, const Buffer& payload) {
  ChargeShell();
  ByteReader reader(payload);
  switch (opcode) {
    case BlockOp::kRead: {
      const uint32_t nsid = reader.ReadU32();
      const uint64_t slba = reader.ReadU64();
      const uint32_t blocks = reader.ReadU32();
      if (!reader.Ok()) {
        return RpcResponse::Fail(InvalidArgument("malformed block read"));
      }
      Result<Bytes> data = dpu_->nvme().Read(nsid, slba, blocks);
      if (!data.ok()) {
        return RpcResponse::Fail(data.status());
      }
      return RpcResponse::Ok(std::move(data).value());
    }
    case BlockOp::kWrite: {
      const uint32_t nsid = reader.ReadU32();
      const uint64_t slba = reader.ReadU64();
      if (!reader.Ok()) {
        return RpcResponse::Fail(InvalidArgument("malformed block write"));
      }
      // SG write straight out of the request payload: the NVMe command's
      // descriptor references this slice of the wire buffer.
      Status st = dpu_->nvme().WriteChain(nsid, slba,
                                          BufferChain(payload.Slice(reader.offset())));
      return st.ok() ? RpcResponse::Ok() : RpcResponse::Fail(st);
    }
    case BlockOp::kFlush: {
      const uint32_t nsid = reader.ReadU32();
      Status st = dpu_->nvme().Flush(nsid);
      return st.ok() ? RpcResponse::Ok() : RpcResponse::Fail(st);
    }
    case BlockOp::kIdentify: {
      const uint32_t count = dpu_->nvme().NamespaceCount();
      ByteWriter out(4 + 8 * static_cast<size_t>(count));
      out.PutU32(count);
      for (uint32_t ns = 1; ns <= count; ++ns) {
        out.PutU64(*dpu_->nvme().NamespaceCapacity(ns));
      }
      return RpcResponse::Ok(out.Take());
    }
    default:
      return RpcResponse::Fail(Unimplemented("unknown block opcode"));
  }
}

RpcResponse HyperionServices::HandleApp(uint16_t opcode, const Buffer& payload) {
  ChargeShell();
  // opcode = accelerator id from a prior kDeploy; payload = the program's
  // context buffer. The eBPF program mutates the context in place, so this
  // is a genuine copy-on-write boundary — the one honest copy on this path.
  Bytes ctx = payload.ToBytes();
  Result<uint64_t> r0 = dpu_->ProcessPacket(static_cast<AcceleratorId>(opcode),
                                            MutableByteSpan(ctx));
  if (!r0.ok()) {
    return RpcResponse::Fail(r0.status());
  }
  ByteWriter out(8 + ctx.size());
  out.PutU64(*r0);
  out.PutBytes(ByteSpan(ctx.data(), ctx.size()));
  return RpcResponse::Ok(out.Take());
}

Status HyperionServices::ServeVolume(uint32_t nsid) {
  ASSIGN_OR_RETURN(fs::ExtFs volume, fs::ExtFs::Mount(&dpu_->nvme(), nsid));
  volume_ = std::make_unique<fs::AnnotatedReader>(&dpu_->nvme(), nsid,
                                                  fs::GenerateAnnotation(volume));
  dpu_->rpc().RegisterService(ServiceId::kFile, [this](uint16_t opcode, const Buffer& payload) {
    return HandleFile(opcode, payload);
  });
  return Status::Ok();
}

RpcResponse HyperionServices::HandleFile(uint16_t opcode, const Buffer& payload) {
  ChargeShell();
  if (volume_ == nullptr) {
    return RpcResponse::Fail(Unavailable("no volume served"));
  }
  ByteReader reader(payload);
  switch (opcode) {
    case FileOp::kResolve: {
      const std::string path = reader.ReadString();
      if (!reader.Ok()) {
        return RpcResponse::Fail(InvalidArgument("malformed resolve"));
      }
      Result<uint32_t> inode = volume_->ResolvePath(path);
      if (!inode.ok()) {
        return RpcResponse::Fail(inode.status());
      }
      Bytes out;
      PutU32(out, *inode);
      return RpcResponse::Ok(std::move(out));
    }
    case FileOp::kRead: {
      const std::string path = reader.ReadString();
      const uint64_t offset = reader.ReadU64();
      const uint64_t length = reader.ReadU64();
      if (!reader.Ok()) {
        return RpcResponse::Fail(InvalidArgument("malformed file read"));
      }
      Result<Bytes> data = volume_->ReadPath(path, offset, length);
      if (!data.ok()) {
        return RpcResponse::Fail(data.status());
      }
      return RpcResponse::Ok(std::move(data).value());
    }
    default:
      return RpcResponse::Fail(Unimplemented("unknown file opcode"));
  }
}

RpcResponse HyperionServices::HandleControl(uint16_t opcode, const Buffer& payload) {
  ChargeShell();
  ByteReader reader(payload);
  switch (opcode) {
    case ControlOp::kDeploy: {
      const std::string token = reader.ReadString();
      const uint32_t tenant = reader.ReadU32();
      if (!reader.Ok()) {
        return RpcResponse::Fail(InvalidArgument("malformed deploy"));
      }
      Result<ebpf::Program> program =
          ebpf::ParseProgram(payload.span().subspan(reader.offset()));
      if (!program.ok()) {
        return RpcResponse::Fail(program.status());
      }
      Result<AcceleratorId> accel =
          dpu_->DeployAccelerator(token, std::move(program).value(), tenant);
      if (!accel.ok()) {
        return RpcResponse::Fail(accel.status());
      }
      Bytes out;
      PutU32(out, *accel);
      return RpcResponse::Ok(std::move(out));
    }
    case ControlOp::kUndeploy: {
      const std::string token = reader.ReadString();
      const uint32_t accel = reader.ReadU32();
      if (!reader.Ok()) {
        return RpcResponse::Fail(InvalidArgument("malformed undeploy"));
      }
      Status st = dpu_->UndeployAccelerator(token, accel);
      return st.ok() ? RpcResponse::Ok() : RpcResponse::Fail(st);
    }
    case ControlOp::kCreateMap: {
      const std::string token = reader.ReadString();
      const uint32_t tenant = reader.ReadU32();
      ebpf::MapSpec spec;
      spec.type = static_cast<ebpf::MapType>(reader.ReadU8());
      spec.key_size = reader.ReadU32();
      spec.value_size = reader.ReadU32();
      spec.max_entries = reader.ReadU32();
      spec.name = reader.ReadString();
      spec.tenant = tenant;
      if (!reader.Ok()) {
        return RpcResponse::Fail(InvalidArgument("malformed create-map"));
      }
      Result<uint32_t> map_id = dpu_->CreateMap(token, std::move(spec));
      if (!map_id.ok()) {
        return RpcResponse::Fail(map_id.status());
      }
      Bytes out;
      PutU32(out, *map_id);
      return RpcResponse::Ok(std::move(out));
    }
    case ControlOp::kLoadBitstream: {
      const std::string token = reader.ReadString();
      const uint32_t tenant = reader.ReadU32();
      fpga::Bitstream bitstream;
      bitstream.name = reader.ReadString();
      bitstream.size_bytes = reader.ReadU64();
      bitstream.slices = reader.ReadU32();
      bitstream.fmax_mhz = static_cast<double>(reader.ReadU32()) / 10.0;
      bitstream.tenant = tenant;
      if (!reader.Ok()) {
        return RpcResponse::Fail(InvalidArgument("malformed bitstream load"));
      }
      Result<fpga::RegionId> region = dpu_->LoadBitstream(token, std::move(bitstream));
      if (!region.ok()) {
        return RpcResponse::Fail(region.status());
      }
      Bytes out;
      PutU32(out, *region);
      return RpcResponse::Ok(std::move(out));
    }
    case ControlOp::kBoot: {
      Result<sim::Duration> boot = dpu_->Boot();
      if (!boot.ok()) {
        return RpcResponse::Fail(boot.status());
      }
      Bytes out;
      PutU64(out, *boot);
      return RpcResponse::Ok(std::move(out));
    }
    default:
      return RpcResponse::Fail(Unimplemented("unknown control opcode"));
  }
}

}  // namespace hyperion::dpu
