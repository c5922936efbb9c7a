#include "src/load/harness.h"

#include <algorithm>

#include "src/common/bytes.h"
#include "src/common/check.h"

namespace hyperion::load {

namespace {

// Closed loop: concurrent requests per client node.
constexpr uint32_t kClosedClients = 4;
// Blocks per BlockOp::kRead.
constexpr uint32_t kReadBlocks = 1;
// FPGA regions behind the analytics tenant's scan kernels.
constexpr uint32_t kScanFabricRegions = 2;

}  // namespace

OverloadCluster::ServerNode::ServerNode(dpu::Fleet::Node& node, OverloadWorkload workload)
    : clock(&node.clock) {
  auto installed = dpu::HyperionServices::Install(node.dpu.get(), storage::KvBackend::kBTree);
  CHECK(installed.ok());
  services = std::move(*installed);
  if (workload == OverloadWorkload::kLsmKv) {
    CHECK_OK(services->ServeLsm());
  }
}

OverloadCluster::AnalyticsTenant::AnalyticsTenant(OverloadCluster* cluster)
    : exec(cluster->options_.analytics_spatial ? &clock : cluster->server_->clock) {
  const OverloadClusterOptions& opts = cluster->options_;
  if (!opts.scan_faults.empty()) {
    injector = std::make_unique<sim::FaultInjector>(exec, opts.scan_faults);
  }
  nvme = std::make_unique<nvme::Controller>(exec);
  if (injector) {
    nvme->SetFaultInjector(injector.get());
  }
  fpga::FabricConfig fabric_config;
  fabric_config.regions = kScanFabricRegions;
  fabric = std::make_unique<fpga::Fabric>(exec, fabric_config);
  if (injector) {
    fabric->SetFaultInjector(injector.get());
  }
  scheduler = std::make_unique<fpga::SlotScheduler>(exec, fabric.get());

  // Deterministic Parquet table: sequential order ids (tight per-group zone
  // maps, so range predicates prune), mixed-sign amounts, 7 regions.
  table_rows = opts.scan_table_rows;
  std::vector<int64_t> order_id(table_rows);
  std::vector<int64_t> amount(table_rows);
  std::vector<std::string> region(table_rows);
  for (uint64_t i = 0; i < table_rows; ++i) {
    order_id[i] = static_cast<int64_t>(i);
    amount[i] = static_cast<int64_t>((i * 0x9e3779b9ull + 12345) % 100000) - 50000;
    region[i] = std::string("r") + static_cast<char>('0' + (i * 2654435761ull >> 7) % 7);
  }
  format::Schema schema = {{"order_id", format::ColumnType::kInt64},
                           {"amount", format::ColumnType::kInt64},
                           {"region", format::ColumnType::kString}};
  std::vector<format::ColumnData> columns;
  columns.emplace_back(std::move(order_id));
  columns.emplace_back(std::move(amount));
  columns.emplace_back(std::move(region));
  auto batch = format::RecordBatch::Make(std::move(schema), std::move(columns));
  CHECK_OK(batch.status());
  format::ParquetWriteOptions write_options;
  write_options.rows_per_group = opts.scan_rows_per_group;
  auto file = format::WriteParquet(*batch, write_options);
  CHECK_OK(file.status());
  table_groups = static_cast<uint32_t>((table_rows + opts.scan_rows_per_group - 1) /
                                       opts.scan_rows_per_group);
  const uint64_t lbas = (file->size() + nvme::kLbaSize - 1) / nvme::kLbaSize + 8;
  const uint32_t nsid = nvme->AddNamespace(lbas);
  auto stored = format::NvmeParquetFile::Store(nvme.get(), nsid, 0, *file);
  CHECK_OK(stored.status());
  table = std::make_unique<format::NvmeParquetFile>(std::move(*stored));
  kernel = std::make_unique<format::FpgaScanKernel>(exec, fabric.get(), scheduler.get());

  auto handler = [this](uint16_t opcode, const Buffer& payload) {
    return HandleScan(opcode, payload);
  };
  if (opts.analytics_spatial) {
    // Spatial multiplexing: the analytics tenant is its own pipeline (own
    // RpcServer, own node clock) on node 0's shard — KV head-of-line
    // behaviour cannot leak into it, nor it into KV.
    rpc.RegisterService(dpu::ServiceId::kScan, handler);
    endpoint = cluster->fleet_.AddEndpoint(0, &rpc, &clock);
  } else {
    // Time-shared contrast arm: scans ride the KV pipeline and advance the
    // KV server's clock — every queued KV request behind a scan waits.
    cluster->fleet_.node(0).dpu->rpc().RegisterService(dpu::ServiceId::kScan, handler);
  }
}

dpu::RpcResponse OverloadCluster::AnalyticsTenant::HandleScan(uint16_t opcode,
                                                              const Buffer& payload) {
  exec->Advance(1200);  // shell datapath cost, same as the plain services
  switch (opcode) {
    case dpu::ScanOp::kQuery: {
      auto query = format::ParseScanQuery(payload);
      if (!query.ok()) {
        return dpu::RpcResponse::Fail(query.status());
      }
      auto result = kernel->Execute(*table, *query);
      if (!result.ok()) {
        return dpu::RpcResponse::Fail(result.status());
      }
      return dpu::RpcResponse::Ok(Buffer(format::SerializeScanResult(*result)));
    }
    case dpu::ScanOp::kTableInfo: {
      ByteWriter out(20);
      out.PutU64(table_rows);
      out.PutU64(table->file_size());
      out.PutU32(table_groups);
      return dpu::RpcResponse::Ok(Buffer(out.Take()));
    }
    default:
      return dpu::RpcResponse::Fail(Unimplemented("unknown scan opcode"));
  }
}

OverloadCluster::OverloadCluster(const OverloadClusterOptions& options)
    : options_(options),
      fleet_(options.num_clients + options.analytics_clients + 1, options.num_shards,
             options.use_threads) {
  CHECK_GT(options_.num_clients, 0u);
  CHECK_GT(options_.requests_per_client, 0u);

  // Id-ordered construction pins the cross-shard source order: server is
  // node 0 (KV endpoint first, analytics endpoint second on the same
  // shard), clients 1..N, analytics clients N+1..N+M.
  fleet_.AddDpu(dpu::Fleet::NodeConfig(), [this](dpu::Fleet::Node& node) {
    server_ = std::make_unique<ServerNode>(node, options_.workload);
  });
  fleet_.node(0).endpoint->SetOverloadPolicy(options_.policy);
  if (options_.analytics_clients > 0) {
    analytics_ = std::make_unique<AnalyticsTenant>(this);
  }
  const uint32_t total_clients = options_.num_clients + options_.analytics_clients;
  clients_.reserve(total_clients);
  for (uint32_t id = 1; id <= total_clients; ++id) {
    clients_.push_back(std::make_unique<ClientNode>(id, /*analytics=*/id > options_.num_clients,
                                                    fleet_.AddClient().endpoint.get()));
  }
}

OverloadCluster::~OverloadCluster() = default;

OverloadResult OverloadCluster::Run() {
  CHECK(!ran_);
  ran_ = true;
  if (options_.workload == OverloadWorkload::kLsmKv) {
    // Warm dataset, installed directly (no wire) before the measured phase.
    for (uint64_t key = 0; key < options_.kv_key_space; ++key) {
      Bytes value(options_.kv_value_bytes, static_cast<uint8_t>(key * 131 + 17));
      CHECK_OK(server_->services->lsm().Put(key, ByteSpan(value.data(), value.size())).status());
    }
    CHECK_OK(server_->services->lsm().Sync());
  }
  // Clients start once the server has drained boot from its pipeline.
  const sim::SimTime start_base = fleet_.StartBase();
  const uint64_t node_stride = 7ull * (options_.open_loop ? 1 : kClosedClients);
  for (auto& owned : clients_) {
    ClientNode* client = owned.get();
    if (client->analytics) {
      StartScanClient(client, start_base, node_stride);
    } else {
      StartKvClient(client, start_base, node_stride);
    }
  }
  fleet_.engine().Run();
  return Collect(start_base);
}

void OverloadCluster::StartKvClient(ClientNode* client, sim::SimTime start_base,
                                    uint64_t node_stride) {
  const uint64_t max_slba = dpu::Fleet::kLbasPerDevice - kReadBlocks;
  {
    LoadGenOptions gopts;
    gopts.open_loop = options_.open_loop;
    gopts.interarrival = options_.interarrival;
    gopts.clients = kClosedClients;
    gopts.total_requests = options_.requests_per_client;
    gopts.deadline = options_.deadline;
    gopts.start = start_base + (client->id - 1) * node_stride;
    client->gen = std::make_unique<LoadGen>(
        &fleet_.shard_engine(client->id), gopts,
        [this, client, max_slba](uint64_t seq, sim::SimTime deadline, LoadGen::DoneFn done) {
          dpu::RpcRequest request;
          if (options_.workload == OverloadWorkload::kLsmKv) {
            // Deterministic per-(client, seq) key and op mix: layout cannot
            // change what any client issues.
            const uint64_t h =
                (seq * 0x9e3779b97f4a7c15ull) ^ (uint64_t{client->id} << 32);
            const uint64_t key = h % options_.kv_key_space;
            const bool write = (h >> 33) % 100 < options_.kv_write_pct;
            request.service = dpu::ServiceId::kLsmKv;
            ByteWriter payload;
            if (write) {
              request.opcode = dpu::KvOp::kPut;
              Bytes value(options_.kv_value_bytes,
                          static_cast<uint8_t>(h >> 56 | 1));
              payload.PutU64(key);
              payload.PutU32(static_cast<uint32_t>(value.size()));
              payload.PutBytes(ByteSpan(value.data(), value.size()));
            } else {
              request.opcode = dpu::KvOp::kGet;
              payload.PutU64(key);
            }
            request.payload = Buffer(payload.Take());
          } else {
            request.service = dpu::ServiceId::kBlock;
            request.opcode = dpu::BlockOp::kRead;
            ByteWriter payload(16);
            payload.PutU32(1);  // nsid
            payload.PutU64((seq * 97 + uint64_t{client->id} * 7919) % max_slba);
            payload.PutU32(kReadBlocks);
            request.payload = Buffer(payload.Take());
          }
          request.deadline = deadline;  // kNever == kNoDeadline: none
          client->endpoint->CallAsync(
              &server_endpoint(), request,
              [done = std::move(done)](Result<dpu::RpcResponse> result) {
                if (!result.ok()) {
                  done(Outcome::kFailed);
                  return;
                }
                if (result->status.ok()) {
                  done(Outcome::kOk);
                  return;
                }
                done(result->status.code() == StatusCode::kResourceExhausted
                         ? Outcome::kRejected
                         : Outcome::kFailed);
              });
        });
    client->gen->Start();
  }
}

void OverloadCluster::StartScanClient(ClientNode* client, sim::SimTime start_base,
                                      uint64_t node_stride) {
  LoadGenOptions gopts;
  gopts.open_loop = true;
  gopts.interarrival = options_.scan_interarrival;
  gopts.total_requests = options_.scan_requests_per_client;
  gopts.start = start_base + (client->id - 1) * node_stride;
  dpu::ShardedRpcNode* target =
      options_.analytics_spatial ? analytics_->endpoint.get() : &server_endpoint();
  const uint64_t table_rows = options_.scan_table_rows;
  client->gen = std::make_unique<LoadGen>(
      &fleet_.shard_engine(client->id), gopts,
      [client, target, table_rows](uint64_t seq, sim::SimTime deadline,
                                         LoadGen::DoneFn done) {
        // Deterministic per-(client, seq) query: the kernel kind rotates
        // (forcing ICAP swaps on a small fabric) and the predicate range
        // walks the order-id space (zone maps prune most groups).
        const uint64_t h = (seq * 0x9e3779b97f4a7c15ull) ^ (uint64_t{client->id} << 32);
        format::ScanQuery query;
        query.kind = static_cast<format::ScanKernelKind>(h % format::kScanKernelKindCount);
        query.filter_column = "order_id";
        const uint64_t span = std::max<uint64_t>(1, table_rows / 8);
        const uint64_t lo = (h >> 8) % (table_rows - span + 1);
        query.lo = static_cast<int64_t>(lo);
        query.hi = static_cast<int64_t>(lo + span - 1);
        query.value_column = "amount";
        query.group_column = "region";
        dpu::RpcRequest request;
        request.service = dpu::ServiceId::kScan;
        request.opcode = dpu::ScanOp::kQuery;
        request.payload = Buffer(format::SerializeScanQuery(query));
        request.deadline = deadline;
        client->endpoint->CallAsync(
            target, request,
            [client, h, done = std::move(done)](Result<dpu::RpcResponse> result) {
              if (!result.ok()) {
                done(Outcome::kFailed);
                return;
              }
              if (!result->status.ok()) {
                done(result->status.code() == StatusCode::kResourceExhausted
                         ? Outcome::kRejected
                         : Outcome::kFailed);
                return;
              }
              auto scan = format::ParseScanResult(result->payload);
              if (!scan.ok()) {
                done(Outcome::kFailed);
                return;
              }
              // Commutative folds only: completion order across clients is
              // not layout-pinned, per-(client, seq) salting keeps the
              // fingerprint sensitive to which query produced what.
              client->scan_fingerprint ^=
                  scan->output.Fingerprint() ^ (h * 0x2545f4914f6cdd1dull);
              client->scan_rows_matched += scan->output.rows_matched;
              client->scan_chunk_bytes += scan->stats.chunk_bytes_fetched;
              client->scan_device_bytes += scan->stats.device_bytes_moved;
              client->scan_groups_skipped += scan->stats.groups_skipped;
              if (scan->stats.reconfigured) {
                ++client->scan_reconfigs;
                client->reconfig_latency.Record(scan->stats.reconfig_ns);
              }
              done(Outcome::kOk);
            });
      });
  client->gen->Start();
}

OverloadResult OverloadCluster::Collect(sim::SimTime start_base) {
  OverloadResult result;
  sim::Histogram reconfig;
  for (auto& client : clients_) {
    const LoadStats& stats = client->gen->stats();
    if (stats.last_completion > start_base) {
      result.makespan_ns = std::max(result.makespan_ns, stats.last_completion - start_base);
    }
    if (client->analytics) {
      result.scan_issued += stats.issued;
      result.scan_ok += stats.ok;
      result.scan_rejected += stats.rejected;
      result.scan_failed += stats.failed + stats.deadline_missed;
      result.scan_fingerprint ^= client->scan_fingerprint;
      result.scan_rows_matched += client->scan_rows_matched;
      result.scan_chunk_bytes += client->scan_chunk_bytes;
      result.scan_device_bytes += client->scan_device_bytes;
      result.scan_groups_skipped += client->scan_groups_skipped;
      result.scan_reconfigs += client->scan_reconfigs;
      reconfig.Merge(client->reconfig_latency);
      merged_scan_latency_.Merge(client->gen->latency());
    } else {
      result.issued += stats.issued;
      result.ok += stats.ok;
      result.rejected += stats.rejected;
      result.failed += stats.failed;
      result.deadline_missed += stats.deadline_missed;
      merged_latency_.Merge(client->gen->latency());
    }
  }
  const sim::Counters& server = server_endpoint().counters();
  result.served = server.Get("rpc_async_served");
  result.admitted = server.Get("rpc_admitted");
  result.shed_queue = server.Get("rpc_shed_queue");
  result.shed_deadline = server.Get("rpc_shed_deadline");
  result.messages = fleet_.engine().stats().messages;
  result.server_clock_ns = server_->clock->Now();
  result.latency_count = merged_latency_.count();
  result.latency_p50_ns = merged_latency_.P50();
  result.latency_p99_ns = merged_latency_.P99();
  result.latency_max_ns = merged_latency_.max();
  result.scan_reconfig_p50_ns = reconfig.P50();
  result.scan_reconfig_max_ns = reconfig.max();
  result.scan_latency_count = merged_scan_latency_.count();
  result.scan_latency_p50_ns = merged_scan_latency_.P50();
  result.scan_latency_p99_ns = merged_scan_latency_.P99();
  result.scan_latency_max_ns = merged_scan_latency_.max();
  return result;
}

void OverloadCluster::SnapshotMetrics(obs::MetricsRegistry* registry) const {
  fleet_.SnapshotMetrics(registry);
  if (const sim::AdmissionController* admission = fleet_.node(0).endpoint->admission()) {
    registry->ImportCounters(obs::Subsystem::kRpc, admission->counters());
    registry->Record(obs::Subsystem::kRpc, "admission_depth_p99", admission->depth().P99());
  }
  if (analytics_) {
    registry->ImportCounters(obs::Subsystem::kFpga, analytics_->scheduler->counters());
    registry->ImportCounters(obs::Subsystem::kFpga, analytics_->fabric->counters());
    registry->ImportCounters(obs::Subsystem::kNvme, analytics_->nvme->counters());
  }
}

}  // namespace hyperion::load
