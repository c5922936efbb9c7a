// perfbench_harness: runs one benchmark workload against the simulator's
// public entry points and prints one JSON object on its last line.
//
//   perfbench_harness --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench_harness --workload <name> --seed <n> --setup-only 1
//
// Every workload reports two kinds of number:
//   * simulator cost: host wall time and memory spent producing the run
//     (noisy; depends on the machine);
//   * modelled service: sim-time results of the modelled DPU, which repeat
//     bit for bit for a fixed seed.
//
// With --trace 0 the harness builds and runs the workload repeatedly for
// --seconds and reports the host throughput of the median run, in seconds of
// a reference host (see ReferencePassSeconds; xdp_ingress times its run in
// slices and takes the median of each). With --trace 1 it alternates
// untraced runs with traced ones (kv_fleet also one-shard and threaded ones)
// and reports the per-layer breakdown. With --setup-only it constructs the
// workload once and reports what that cost: set-up is timed in fresh
// processes because a process that has already built and freed a cluster
// builds the next one from memory the allocator kept, several times faster.
// Each workload runs in its own process so the peak RSS belongs to that
// workload alone.
//
// A run whose correctness check fails prints {"correct": false, ...} and
// no metrics.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/dpu/cluster.h"
#include "src/dpu/hyperion.h"
#include "src/dpu/replication.h"
#include "src/load/harness.h"
#include "src/load/xdp.h"
#include "src/net/fabric.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/engine.h"

namespace {

using namespace hyperion;  // NOLINT
using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> values) {
  CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Nearest-rank percentile over raw samples (exact, unlike the simulator's
// log-bucketed sim::Histogram).
double Percentile(std::vector<uint64_t> samples, double q) {
  CHECK(!samples.empty());
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(samples.size())));
  return static_cast<double>(samples[std::clamp<size_t>(rank, 1, samples.size()) - 1]);
}

// splitmix64: derives independent workload parameters from the one seed.
uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + salt * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Order-sensitive FNV-1a fold of every field of a harness' result snapshot.
struct Digest {
  uint64_t value = 0xcbf29ce484222325ull;
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      value = (value ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ull;
    }
  }
};

double CurrentRssMib() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size_pages = 0;
  uint64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return static_cast<double>(resident_pages) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double Pct(double part, double whole) { return whole > 0 ? 100.0 * part / whole : 0.0; }
double Per(double part, double whole) { return whole > 0 ? part / whole : 0.0; }

// Each workload yields at least this many latency samples (and lsm_scan as
// many scan queries), enough for a p99 with ten samples beyond it.
constexpr uint64_t kMinSamples = 1000;

// One execution of a workload: harness construction, then the measured run.
struct Run {
  double setup_s = 0;       // wall: harness construction (boot, backing, Create)
  double run_s = 0;         // wall: the measured run
  // Wall of consecutive slices of the measured run, each the same simulated
  // work on every run of one seed (empty when the run is one opaque call).
  std::vector<double> slice_s;
  // Reference seconds per wall second while the run executed (see
  // ReferencePassSeconds); 1 for runs that are not timed against it.
  double host_scale = 1;
  uint64_t attempted = 0;   // simulated operations issued (XDP: rx frames)
  uint64_t failed = 0;      // issued but not an in-deadline success
  uint64_t events = 0;      // simulated events executed (0 when not event driven)
  double setup_rss_mib = 0; // RSS after construction, before the run
  // Sim-time results; identical on every run of one seed.
  std::map<std::string, double> modelled;
  // Per-layer counts and sim-time self times (also seed-deterministic).
  std::map<std::string, double> layer;
  std::map<std::string, double> setup_layer;  // wall split of the set-up
  uint64_t digest = 0;      // fold of the harness' full result snapshot
  std::string error;        // set when the workload's correctness check fails
};

// kPlain is the measured configuration. The others exist for the per-layer
// breakdown and the correctness checks; each must reproduce kPlain's
// modelled results exactly.
enum class Mode {
  kPlain,     // untraced
  kTraced,    // obs spans on
  kOneShard,  // kv_fleet: all nodes on one shard
  kThreaded,  // kv_fleet: one worker thread per shard
  kSetupOnly, // kPlain's construction alone (set-up cost of a fresh process)
};

// Client-observed latency of in-deadline successes from raw samples (ns).
void ExactLatency(Run* run, const std::vector<uint64_t>& samples) {
  double sum = 0;
  for (uint64_t sample : samples) {
    sum += static_cast<double>(sample);
  }
  run->modelled["latency_exact"] = 1;
  run->modelled["latency_samples"] = static_cast<double>(samples.size());
  run->modelled["sim_mean_us"] = Per(sum, static_cast<double>(samples.size())) / 1e3;
  run->modelled["sim_p50_us"] = samples.empty() ? 0 : Percentile(samples, 0.50) / 1e3;
  run->modelled["sim_p99_us"] = samples.empty() ? 0 : Percentile(samples, 0.99) / 1e3;
}

// The same from a harness that keeps only a merged sim::Histogram: the mean
// is exact, p50/p99 are bucket upper bounds (within ~3%).
void BucketedLatency(Run* run, const sim::Histogram& latency) {
  run->modelled["latency_exact"] = 0;
  run->modelled["latency_samples"] = static_cast<double>(latency.count());
  run->modelled["sim_mean_us"] = latency.Mean() / 1e3;
  run->modelled["sim_p50_us"] = static_cast<double>(latency.P50()) / 1e3;
  run->modelled["sim_p99_us"] = static_cast<double>(latency.P99()) / 1e3;
}

// Goodput (successes per simulated second of `window_ns`) and success share.
void Outcome(Run* run, uint64_t successes, sim::SimTime window_ns) {
  run->modelled["sim_goodput_ops_s"] =
      Per(static_cast<double>(successes) * 1e9, static_cast<double>(window_ns));
  run->modelled["ok_pct"] = Pct(static_cast<double>(run->attempted - run->failed),
                                static_cast<double>(run->attempted));
}

// Per-subsystem sim-time self time per operation from closed spans.
void SpanLayers(Run* run, const std::vector<obs::SpanRecord>& spans, uint64_t ops) {
  const obs::CriticalPathReport report = obs::BuildCriticalPathReport(spans);
  const std::pair<obs::Subsystem, const char*> layers[] = {
      {obs::Subsystem::kNet, "net"},   {obs::Subsystem::kRpc, "rpc"},
      {obs::Subsystem::kNvme, "nvme"}, {obs::Subsystem::kStore, "store"},
      {obs::Subsystem::kFpga, "fpga"}, {obs::Subsystem::kApp, "app"}};
  for (const auto& [subsystem, name] : layers) {
    run->layer[std::string(name) + ".sim_ns_per_op"] =
        Per(static_cast<double>(report.totals[static_cast<size_t>(subsystem)]),
            static_cast<double>(ops));
  }
  run->layer["obs.trace_roots"] = static_cast<double>(report.rows.size());
}

void NvmeLayers(Run* run, const obs::MetricsRegistry& registry, uint64_t ops) {
  const auto nvme = [&](const char* name) {
    return static_cast<double>(registry.CounterValue(obs::Subsystem::kNvme, name));
  };
  const double commands = nvme("nvme_reads") + nvme("nvme_writes") + nvme("nvme_flushes");
  run->layer["nvme.commands_per_op"] = Per(commands, static_cast<double>(ops));
  run->layer["nvme.doorbells_per_op"] = Per(nvme("nvme_doorbells"), static_cast<double>(ops));
}

// -- kv_fleet: the E11 8-node KvCluster row ----------------------------------

constexpr uint32_t kFleetNodes = 8;
constexpr uint32_t kFleetShards = 4;
constexpr uint32_t kFleetOpsPerClient = 512;

// The measured configuration runs the four shards' windows round-robin on
// one thread: on a VM whose vCPUs are oversubscribed, worker threads that
// meet at a barrier every epoch ran the same cluster 1x to 5x slower from
// one minute to the next, which no bound can absorb. The threaded run is a
// per-layer variant (sim.threaded_wall_ns_per_event, sim.barrier_ns_per_event).
dpu::ClusterOptions FleetOptions(uint64_t seed, Mode mode) {
  dpu::ClusterOptions options;
  options.num_nodes = kFleetNodes;
  options.num_shards = mode == Mode::kOneShard ? 1 : kFleetShards;
  options.use_threads = mode == Mode::kThreaded;
  options.backend = storage::KvBackend::kBTree;
  options.trace = mode == Mode::kTraced;
  options.workload.clients_per_node = 8;
  options.workload.ops_per_client = kFleetOpsPerClient;
  options.workload.value_bytes = 256;
  options.workload.key_space = 4096;
  options.workload.write_pct = 50;  // YCSB-A
  options.workload.seed = seed;
  return options;
}

uint64_t ClusterDigest(const dpu::ClusterResult& r) {
  Digest d;
  for (uint64_t v : {r.ok_ops, r.failed_ops, r.events_run, r.messages, r.start_ns, r.makespan_ns,
                     r.latency_count, r.latency_p50_ns, r.latency_p99_ns, r.latency_max_ns}) {
    d.Add(v);
  }
  for (const auto& node : r.nodes) {
    d.Add(node.node_clock_ns);
    d.Add(node.rpcs_served);
    d.Add(node.ok_ops);
    d.Add(node.failed_ops);
  }
  return d.value;
}

Run RunKvFleet(uint64_t seed, Mode mode) {
  Run run;
  const bool traced = mode == Mode::kTraced;
  const auto t0 = Clock::now();
  dpu::KvCluster cluster(FleetOptions(seed, mode));
  run.setup_s = Since(t0);
  run.setup_rss_mib = CurrentRssMib();
  if (mode == Mode::kSetupOnly) {
    return run;
  }
  const auto t1 = Clock::now();
  const dpu::ClusterResult result = cluster.Run();
  run.run_s = Since(t1);

  run.attempted = result.ok_ops + result.failed_ops;
  run.failed = result.failed_ops;
  run.events = result.events_run;
  run.digest = ClusterDigest(result);
  if (result.failed_ops != 0) {
    run.error = "kv_fleet: " + std::to_string(result.failed_ops) + " failed ops";
  }
  BucketedLatency(&run, cluster.merged_latency());
  Outcome(&run, result.ok_ops, result.makespan_ns);

  const sim::ParallelEngineStats& stats = cluster.engine().stats();
  const double ops = static_cast<double>(run.attempted);
  run.layer["sim.ops"] = ops;
  run.layer["sim.events"] = static_cast<double>(stats.events_run);
  run.layer["sim.events_per_op"] = Per(static_cast<double>(stats.events_run), ops);
  run.layer["sim.epochs"] = static_cast<double>(stats.epochs);
  run.layer["sim.cross_shard_msgs"] = static_cast<double>(stats.cross_shard_messages);
  run.layer["sim.windows"] = static_cast<double>(stats.windows_run + stats.windows_skipped);
  run.layer["sim.windows_skipped_pct"] =
      Pct(static_cast<double>(stats.windows_skipped),
          static_cast<double>(stats.windows_run + stats.windows_skipped));
  run.layer["dpu.rpc_frames_per_op"] = Per(static_cast<double>(result.messages), ops);
  obs::MetricsRegistry registry;
  cluster.SnapshotMetrics(&registry);
  NvmeLayers(&run, registry, run.attempted);
  if (traced) {
    SpanLayers(&run, cluster.MergedTrace(), run.attempted);
  }
  return run;
}

// -- kv_replicated: Corfu chain replication, one shard, no threads -----------

constexpr uint32_t kReplOpsPerClient = 512;

Run RunKvReplicated(uint64_t seed, Mode mode) {
  dpu::RepClusterOptions options;
  options.groups = 2;
  options.replicas_per_group = 3;
  options.num_shards = 1;
  options.use_threads = false;
  options.backend = storage::KvBackend::kBTree;
  options.workload.clients_per_node = 4;
  options.workload.ops_per_client = kReplOpsPerClient;
  options.workload.value_bytes = 256;
  options.workload.key_space = 1024;
  options.workload.write_pct = 50;  // YCSB-A
  options.workload.seed = seed;

  Run run;
  const auto t0 = Clock::now();
  dpu::ReplicatedKvCluster cluster(options);
  run.setup_s = Since(t0);
  run.setup_rss_mib = CurrentRssMib();
  if (mode == Mode::kSetupOnly) {
    return run;
  }
  const auto t1 = Clock::now();
  const dpu::RepClusterResult result = cluster.Run();
  run.run_s = Since(t1);

  run.attempted = result.ok_puts + result.ok_gets + result.failed_ops;
  run.failed = result.failed_ops;
  run.events = result.events_run;
  const dpu::RepAudit audit = cluster.AuditAckedWrites();
  if (result.failed_ops != 0) {
    run.error = "kv_replicated: " + std::to_string(result.failed_ops) + " failed ops";
  } else if (!audit.ok() || audit.acked == 0) {
    run.error = "kv_replicated: acked-write audit failed (lost " + std::to_string(audit.lost) +
                ", mismatched " + std::to_string(audit.mismatched) + ", divergent " +
                std::to_string(audit.divergent) + ")";
  }
  std::vector<uint64_t> latency;
  for (const dpu::RepHistOp& op : cluster.History()) {
    if (op.ok) {
      latency.push_back(op.return_ns - op.invoke_ns);
    }
  }
  ExactLatency(&run, latency);
  Outcome(&run, result.ok_puts + result.ok_gets, result.makespan_ns);

  Digest d;
  for (uint64_t v :
       {result.ok_puts, result.ok_gets, result.failed_ops, result.failovers, result.seals,
        result.repair_copies, result.repair_fills, result.stale_epoch, result.retries,
        result.partial_abandons, result.killed_nodes, result.events_run, result.messages,
        result.start_ns, result.makespan_ns, result.latency_count, result.latency_p50_ns,
        result.latency_p99_ns, result.latency_max_ns, result.state_digest,
        result.history_digest, audit.acked}) {
    d.Add(v);
  }
  for (uint32_t epoch : result.group_epochs) {
    d.Add(epoch);
  }
  run.digest = d.value;

  const double ops = static_cast<double>(run.attempted);
  run.layer["sim.ops"] = ops;
  run.layer["sim.events"] = static_cast<double>(result.events_run);
  run.layer["sim.events_per_op"] = Per(static_cast<double>(result.events_run), ops);
  run.layer["sim.epochs"] = static_cast<double>(cluster.engine().stats().epochs);
  run.layer["sim.cross_shard_msgs"] =
      static_cast<double>(cluster.engine().stats().cross_shard_messages);
  run.layer["dpu.rpc_frames_per_op"] = Per(static_cast<double>(result.messages), ops);
  run.layer["dpu.repl_retries"] = static_cast<double>(result.retries);
  run.layer["dpu.repl_stale_epoch"] = static_cast<double>(result.stale_epoch);
  return run;
}

// -- lsm_scan: LsmKv + spatial analytics on one OverloadCluster shard --------

// 3 clients x 210,000 requests at ~50 us: a 10.5 s KV window that outlasts
// the 1,024 scans at ~10 ms, so the makespan (goodput's denominator) is the
// KV window's.
constexpr uint32_t kLsmRequestsPerClient = 210000;
constexpr uint32_t kScanQueries = 1024;
constexpr uint64_t kScanTableRows = 32768;
constexpr uint64_t kScanRowsPerGroup = 2048;

load::OverloadClusterOptions LsmOptions(uint64_t seed) {
  load::OverloadClusterOptions options;
  options.workload = load::OverloadWorkload::kLsmKv;
  options.num_clients = 3;
  options.num_shards = 1;
  options.use_threads = false;
  options.open_loop = true;
  options.requests_per_client = kLsmRequestsPerClient;
  // The request stream is a fixed hash of (client, seq), so the seed reaches
  // the workload through its shape: key-set size and a sub-1% arrival
  // jitter that keeps the offered load just under the 25-35 us knee.
  options.interarrival = 50 * sim::kMicrosecond - 250 + Mix(seed, 1) % 501;
  options.kv_key_space = 192 + Mix(seed, 2) % 128;
  options.kv_write_pct = 50;
  options.kv_value_bytes = 64;
  options.deadline = 1 * sim::kMillisecond;
  options.analytics_clients = 1;
  options.analytics_spatial = true;
  options.scan_interarrival = 10 * sim::kMillisecond - 5000 + Mix(seed, 3) % 10001;
  options.scan_requests_per_client = kScanQueries;
  options.scan_table_rows = kScanTableRows;
  options.scan_rows_per_group = kScanRowsPerGroup;
  return options;
}

Run RunLsmScan(uint64_t seed, Mode mode) {
  const load::OverloadClusterOptions options = LsmOptions(seed);
  Run run;
  const auto t0 = Clock::now();
  load::OverloadCluster cluster(options);
  run.setup_s = Since(t0);
  run.setup_rss_mib = CurrentRssMib();
  if (mode == Mode::kSetupOnly) {
    return run;
  }
  const auto t1 = Clock::now();
  const load::OverloadResult r = cluster.Run();
  run.run_s = Since(t1);

  // Known defect, reported rather than sized around: OverloadCluster never
  // pumps LsmEngine compaction, so with per-put Sync the WAL never flushes,
  // the 48 x 128-LBA zones are never reclaimed, and every put after the
  // first few thousand fails with RESOURCE_EXHAUSTED. ok_pct shows it.
  run.attempted = r.issued;
  run.failed = r.failed + r.rejected + r.deadline_missed;
  if (r.scan_issued < kMinSamples || r.scan_ok != r.scan_issued || r.scan_failed != 0) {
    run.error = "lsm_scan: scans ok " + std::to_string(r.scan_ok) + " of " +
                std::to_string(r.scan_issued) + ", failed " + std::to_string(r.scan_failed);
  }
  BucketedLatency(&run, cluster.merged_latency());
  Outcome(&run, r.ok, r.makespan_ns);
  run.modelled["scan_queries"] = static_cast<double>(r.scan_latency_count);
  run.modelled["scan_mean_us"] = cluster.merged_scan_latency().Mean() / 1e3;
  run.modelled["scan_p50_us"] = static_cast<double>(r.scan_latency_p50_ns) / 1e3;
  run.modelled["scan_p99_us"] = static_cast<double>(r.scan_latency_p99_ns) / 1e3;
  run.modelled["scan_reconfig_p50_ms"] = static_cast<double>(r.scan_reconfig_p50_ns) / 1e6;

  Digest d;
  for (uint64_t v :
       {r.issued, r.ok, r.rejected, r.failed, r.deadline_missed, r.served, r.admitted,
        r.shed_queue, r.shed_deadline, r.messages, r.server_clock_ns, r.makespan_ns,
        r.latency_count, r.latency_p50_ns, r.latency_p99_ns, r.latency_max_ns, r.scan_issued,
        r.scan_ok, r.scan_rejected, r.scan_failed, r.scan_rows_matched, r.scan_fingerprint,
        r.scan_chunk_bytes, r.scan_device_bytes, r.scan_groups_skipped, r.scan_reconfigs,
        r.scan_reconfig_p50_ns, r.scan_reconfig_max_ns, r.scan_latency_count,
        r.scan_latency_p50_ns, r.scan_latency_p99_ns, r.scan_latency_max_ns}) {
    d.Add(v);
  }
  run.digest = d.value;

  obs::MetricsRegistry registry;
  cluster.SnapshotMetrics(&registry);
  run.events = registry.CounterValue(obs::Subsystem::kEngine, "events_run");
  const double ops = static_cast<double>(r.issued);
  const double queries = static_cast<double>(r.scan_ok);
  const double groups = static_cast<double>((kScanTableRows + kScanRowsPerGroup - 1) /
                                            kScanRowsPerGroup);
  run.layer["sim.ops"] = ops;
  run.layer["sim.events"] = static_cast<double>(run.events);
  run.layer["sim.events_per_op"] = Per(static_cast<double>(run.events), ops + queries);
  NvmeLayers(&run, registry, r.issued + r.scan_ok);
  run.layer["scan.queries"] = queries;
  run.layer["format.device_bytes_per_query"] =
      Per(static_cast<double>(r.scan_device_bytes), queries);
  run.layer["format.groups_skipped_pct"] =
      Pct(static_cast<double>(r.scan_groups_skipped), queries * groups);
  run.layer["fpga.reconfigs_per_query"] = Per(static_cast<double>(r.scan_reconfigs), queries);
  run.layer["scan.mean_us"] = run.modelled["scan_mean_us"];
  return run;
}

// -- xdp_ingress: eBPF -> FPGA match/action on a single engine ----------------

constexpr uint32_t kXdpFlows = 1u << 18;
// The xdp_ingress run is timed in this many slices of its frame trace.
constexpr uint64_t kRunSlices = 32;
constexpr uint64_t kXdpSteadyPackets = 1u << 18;

load::XdpOptions XdpOptionsFor(uint64_t seed) {
  // E16's shape (bench_packet_path.cc) at a quarter of its flows.
  load::XdpOptions options;
  options.trace.benign_flows = kXdpFlows;
  options.trace.hot_flows = kXdpFlows / 16;
  options.trace.attacker_ips = 64;
  options.trace.attack_packets_per_ip = 8;
  options.trace.steady_packets = kXdpSteadyPackets;
  options.trace.hot_per_myriad = 9800;
  // The trace is a pure function of its seed, but at line rate every steady
  // batch sees the same service time; a seeded frame size (1024 +- 8 B) makes
  // the latency and packet rate depend on the input as well.
  options.trace.frame_bytes = 1016 + static_cast<uint32_t>(Mix(seed, 4) % 17);
  options.trace.ramp_interarrival = 4 * sim::kMicrosecond;
  options.trace.seed = seed;
  options.front_entries = options.trace.hot_flows;
  options.flow_buckets = kXdpFlows / 64;
  options.lb_resident = kXdpFlows;
  options.lb_spill_buckets = 256;
  options.backends = 4;
  options.codegen.mem_ports = 2;
  options.codegen.helper_cycles = 4;
  options.use_fpga = true;
  return options;
}

struct XdpRig {
  sim::Engine engine;
  net::Fabric fabric{&engine, {}};
  dpu::Hyperion dpu;

  explicit XdpRig(uint64_t hbm_bytes)
      : dpu(&engine, &fabric, [&] {
          dpu::HyperionConfig config;
          config.nvme_devices = 1;
          config.lbas_per_device = 65536;
          config.hbm_bytes = hbm_bytes;
          config.dram_bytes = 128ull << 20;
          return config;
        }()) {}
};

Run RunXdp(uint64_t seed, Mode mode) {
  const load::XdpOptions options = XdpOptionsFor(seed);
  // Flow-table directory plus overflow-chain headroom, floor of 64 MiB.
  const uint64_t hbm = std::max<uint64_t>(64ull << 20, uint64_t{options.flow_buckets} * 4096 * 4);

  Run run;
  const auto t0 = Clock::now();
  XdpRig rig(hbm);
  CHECK_OK(rig.dpu.Boot().status());
  const double boot_s = Since(t0);
  const auto t_create = Clock::now();
  auto created = load::XdpPipeline::Create(&rig.dpu, options);
  CHECK_OK(created.status());
  load::XdpPipeline& pipeline = **created;
  run.setup_layer["load.xdp_create_s"] = Since(t_create);
  run.setup_layer["dpu.boot_s"] = boot_s;
  run.setup_s = Since(t0);
  run.setup_rss_mib = CurrentRssMib();
  if (mode == Mode::kSetupOnly) {
    return run;
  }
  obs::Tracer tracer(0);
  if (mode == Mode::kTraced) {
    pipeline.set_tracer(&tracer);
  }

  // The XdpPipeline::Run() loop, driven batch by batch so each serviced
  // steady-phase batch yields one latency sample: first-frame arrival to
  // batch service done (fabric chain and slow path both finished).
  const load::PacketTrace& trace = pipeline.trace();
  sim::Engine* clock = rig.dpu.engine();
  const uint32_t batch = options.rx_batch;
  std::vector<uint64_t> latency;
  latency.reserve(kXdpSteadyPackets / batch + 1);
  const auto t1 = Clock::now();
  const sim::SimTime base = clock->Now() + 1000;
  const uint64_t total = trace.total_packets();
  uint64_t overflow_seen = 0;
  uint64_t slice = 0;
  auto slice_start = t1;
  for (uint64_t first = 0; first < total; first += batch) {
    const auto count = static_cast<uint32_t>(std::min<uint64_t>(batch, total - first));
    const sim::SimTime arrival = base + trace.ArrivalOf(first);
    const Status status = pipeline.ProcessBatch(first, count, arrival);
    if (!status.ok()) {
      run.error = "xdp_ingress: ProcessBatch: " + status.ToString();
      break;
    }
    const uint64_t overflow = pipeline.counters().Get("xdp_rx_overflow");
    if (first >= trace.ramp_packets() && overflow == overflow_seen) {
      latency.push_back(std::max(pipeline.fabric_busy(), clock->Now()) - arrival);
    }
    overflow_seen = overflow;
    const uint64_t next_slice = (first + count) * kRunSlices / total;
    if (next_slice != slice) {
      const auto now = Clock::now();
      run.slice_s.push_back(std::chrono::duration<double>(now - slice_start).count());
      slice_start = now;
      slice = next_slice;
    }
  }
  run.run_s = Since(t1);

  const load::XdpStats s = pipeline.Snapshot();
  run.attempted = s.rx_frames;
  run.failed = s.rx_overflow + s.slow_shed + s.auth_shed;
  if (run.error.empty() && (s.verdict_hash == 0 || s.rx_frames != total)) {
    run.error = "xdp_ingress: verdict hash " + std::to_string(s.verdict_hash) + ", rx " +
                std::to_string(s.rx_frames) + " of " + std::to_string(total) + " frames";
  }
  ExactLatency(&run, latency);
  Outcome(&run, s.steady_delivered, s.steady_window_ns);

  Digest d;
  for (uint64_t v :
       {s.rx_frames, s.rx_batches, s.rx_overflow, s.drop_banned, s.auth_reports, s.auth_shed,
        s.bans, s.fast_hits, s.fast_tx, s.slow_packets, s.slow_admitted, s.slow_shed,
        s.flow_inserts, s.flow_updates, s.teardowns, s.sprayed, s.flow_entries,
        uint64_t{s.flow_max_chain}, s.flow_overflow_buckets, s.lb_new_flows, s.lb_spills,
        s.lb_spill_hits, s.lb_spill_entries, s.fabric_busy_ns, s.clock_ns, s.steady_offered,
        s.steady_delivered, s.steady_window_ns, s.verdict_hash,
        std::bit_cast<uint64_t>(s.flow_mean_chain), std::bit_cast<uint64_t>(s.flow_occupancy)}) {
    d.Add(v);
  }
  run.digest = d.value;

  const double frames = static_cast<double>(s.rx_frames);
  const double flow_attempts =
      static_cast<double>(s.fast_hits + pipeline.counters().Get("xdp_front_miss"));
  run.layer["sim.ops"] = frames;
  run.layer["fpga.fast_hit_pct"] = Pct(static_cast<double>(s.fast_hits), flow_attempts);
  run.layer["fpga.flow_stage_frames"] = flow_attempts;
  run.layer["load.slow_path_pct"] = Pct(static_cast<double>(s.slow_packets), frames);
  run.layer["storage.flow_max_chain"] = static_cast<double>(s.flow_max_chain);
  if (mode == Mode::kTraced) {
    SpanLayers(&run, tracer.spans(), s.rx_frames);
  }
  return run;
}

// -- measurement loop ---------------------------------------------------------

// On a VM whose cores are shared with other guests, host speed changes by up
// to 1.7x over minutes as the other guests come and go (measured on a 4-vCPU
// VM), and every workload, set-up too, speeds up and slows down with it. So
// each measured run is also timed against a fixed reference pass, run right
// before and right after it: a 4,096-entry binary heap fed by splitmix64, the
// kind of work an event queue does. A reference host does one pass in
// kReferencePass_s; the run's wall time is converted to reference seconds by
// the passes around it. The pass calls no simulator code, so a faster
// simulator shows in full.
constexpr double kReferencePass_s = 0.04;
constexpr int kReferencePassOps = 1 << 20;
uint64_t reference_sink = 0;  // keeps the pass from being optimised away

double ReferencePassSeconds() {
  const auto start = Clock::now();
  std::vector<uint64_t> heap;
  heap.reserve(4097);
  uint64_t acc = 1;
  for (int i = 0; i < kReferencePassOps; ++i) {
    heap.push_back(Mix(acc, static_cast<uint64_t>(i)));
    std::push_heap(heap.begin(), heap.end());
    if (heap.size() > 4096) {
      acc += heap.front();
      std::pop_heap(heap.begin(), heap.end());
      heap.pop_back();
    }
  }
  reference_sink += acc;
  return Since(start);
}

// Reference seconds of the median run. A run timed in slices is assembled
// from the median of each slice over the runs, so host contention that slows
// part of one run moves one sample of a few slices instead of the whole run's.
double MedianReferenceRunSeconds(const std::vector<Run>& runs) {
  std::vector<double> values;
  for (const Run& run : runs) {
    values.push_back(run.run_s * run.host_scale);
  }
  const size_t slices = runs.front().slice_s.size();
  if (slices == 0) {
    return Median(values);
  }
  double total = 0;
  for (size_t k = 0; k < slices; ++k) {
    values.clear();
    for (const Run& run : runs) {
      CHECK(run.slice_s.size() == slices);
      values.push_back(run.slice_s[k] * run.host_scale);
    }
    total += Median(values);
  }
  return total;
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = 0;
  bool setup_only = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && args->seconds > 0;
    } else if (flag == "--trace") {
      args->trace = value == "1" ? 1 : 0;
    } else if (flag == "--setup-only") {
      args->setup_only = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && (have_seconds || args->setup_only);
}

std::string Json(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string JsonMap(const std::map<std::string, double>& values) {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [name, value] : values) {
    out << (first ? "" : ", ") << "\"" << name << "\": " << Json(value);
    first = false;
  }
  out << "}";
  return out.str();
}

std::string JsonList(const std::vector<Run>& runs, double Run::*field) {
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < runs.size(); ++i) {
    out << (i == 0 ? "" : ", ") << Json(runs[i].*field);
  }
  out << "]";
  return out.str();
}

// Compares the deterministic parts of two runs of one seed.
std::string SameModelled(const Run& a, const Run& b, const char* what) {
  if (a.digest != b.digest || a.modelled != b.modelled) {
    return std::string("modelled results differ between ") + what;
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_harness --workload <name> --seed <n> "
                 "(--seconds <s> --trace <0|1> | --setup-only 1)\n");
    return 2;
  }
  std::function<Run(Mode)> once;
  // Variants run once per round with --trace 1, and those in `checks` once
  // per process with --trace 0.
  std::vector<Mode> variants;
  std::vector<Mode> checks;
  if (args.workload == "kv_fleet") {
    once = [&](Mode mode) { return RunKvFleet(args.seed, mode); };
    variants = {Mode::kTraced, Mode::kOneShard, Mode::kThreaded};
    checks = {Mode::kOneShard};
  } else if (args.workload == "kv_replicated") {
    once = [&](Mode mode) { return RunKvReplicated(args.seed, mode); };
  } else if (args.workload == "lsm_scan") {
    once = [&](Mode mode) { return RunLsmScan(args.seed, mode); };
  } else if (args.workload == "xdp_ingress") {
    once = [&](Mode mode) { return RunXdp(args.seed, mode); };
    variants = {Mode::kTraced};
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }

  if (args.setup_only) {
    const double pass_before = ReferencePassSeconds();
    const Run run = once(Mode::kSetupOnly);
    const double host_scale = 2 * kReferencePass_s / (pass_before + ReferencePassSeconds());
    std::map<std::string, double> setup = run.setup_layer;
    setup["setup_s"] = run.setup_s * host_scale;  // reference seconds, like the runs
    setup["setup_wall_s"] = run.setup_s;
    setup["dpu.setup_rss_mib"] = run.setup_rss_mib;
    std::printf("{\"correct\": true, \"setup\": %s}\n", JsonMap(setup).c_str());
    return 0;
  }

  // Keep freed memory in the process (no mmap'd chunks, no trimming), so
  // every run after the warm-up reuses pages it has already faulted in: the
  // timed runs then measure the simulator, not how fast the host backs fresh
  // pages, which swings by tens of percent on a shared VM.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());

  const bool per_layer = args.trace == 1;
  // The first plain run warms the caches and the heap: it is checked
  // like the others but left out of every timing.
  const size_t min_rounds = per_layer ? 4 : 6;
  std::vector<Run> plain;
  std::map<Mode, std::vector<Run>> extra;
  std::string error;
  const auto start = Clock::now();
  while (error.empty() && (plain.size() < min_rounds || Since(start) < args.seconds)) {
    const double pass_before = ReferencePassSeconds();
    plain.push_back(once(Mode::kPlain));
    plain.back().host_scale = 2 * kReferencePass_s / (pass_before + ReferencePassSeconds());
    error = plain.back().error;
    if (error.empty() && plain.back().modelled.at("latency_samples") < kMinSamples) {
      error = "fewer than 1000 latency samples";
    }
    if (error.empty()) {
      error = SameModelled(plain.front(), plain.back(), "repeated runs of one seed");
    }
    const std::vector<Mode> round =
        per_layer ? variants : (plain.size() == 1 ? checks : std::vector<Mode>{});
    for (Mode mode : round) {
      if (!error.empty()) {
        break;
      }
      Run run = once(mode);
      error = run.error;
      if (error.empty()) {
        error = SameModelled(plain.front(), run, "the measured run and a variant");
      }
      extra[mode].push_back(std::move(run));
    }
  }

  if (!error.empty()) {
    std::replace(error.begin(), error.end(), '"', '\'');
    std::printf("{\"correct\": false, \"error\": \"%s\"}\n", error.c_str());
    return 1;
  }

  const Run& ref = plain.front();
  const std::vector<Run> timed(plain.begin() + 1, plain.end());
  const auto median = [](const std::vector<Run>& runs, const std::function<double(const Run&)>& f) {
    std::vector<double> values;
    for (const Run& run : runs) {
      values.push_back(f(run));
    }
    return Median(values);
  };
  const auto wall_per_event = [&](const std::vector<Run>& runs) {
    return median(runs, [](const Run& r) {
      return r.events > 0 ? r.run_s * 1e9 / static_cast<double>(r.events) : 0.0;
    });
  };

  std::map<std::string, double> e2e;
  e2e["host_ops_per_ref_s"] =
      static_cast<double>(ref.attempted) / MedianReferenceRunSeconds(timed);
  e2e["peak_rss_mib"] = PeakRssMib();
  for (const char* name : {"sim_mean_us", "sim_goodput_ops_s", "ok_pct"}) {
    e2e[name] = ref.modelled.at(name);
  }

  std::map<std::string, double> layer = ref.layer;
  if (per_layer && extra.count(Mode::kTraced) > 0) {
    const std::vector<Run>& traced = extra[Mode::kTraced];
    layer = traced.front().layer;
    const double plain_s = median(timed, [](const Run& r) { return r.run_s; });
    const double traced_s = median(traced, [](const Run& r) { return r.run_s; });
    layer["obs.trace_overhead_pct"] = 100.0 * (traced_s / plain_s - 1.0);
  }
  if (ref.events > 0) {
    layer["sim.wall_ns_per_event"] = wall_per_event(timed);
  }
  if (per_layer && extra.count(Mode::kOneShard) > 0 && extra.count(Mode::kThreaded) > 0) {
    const double one_shard = wall_per_event(extra[Mode::kOneShard]);
    const double threaded = wall_per_event(extra[Mode::kThreaded]);
    layer["sim.threaded_wall_ns_per_event"] = threaded;
    layer["sim.barrier_ns_per_event"] = threaded - one_shard;
    layer["sim.epoch_ns_per_event"] = layer["sim.wall_ns_per_event"] - one_shard;
  }

  // Unscaled, for the report: wall throughput and the host's speed.
  const double wall_s = median(timed, [](const Run& r) { return r.run_s; });
  std::map<std::string, double> host = {
      {"wall_ops_per_s", static_cast<double>(ref.attempted) / wall_s},
      {"host_scale", median(timed, [](const Run& r) { return r.host_scale; })}};

  size_t variant_runs = 0;
  for (const auto& [mode, runs] : extra) {
    variant_runs += runs.size();
  }
  std::printf(
      "{\"correct\": true, \"workload\": \"%s\", \"seed\": %llu, \"runs\": %zu, "
      "\"variant_runs\": %zu, \"attempted\": %llu, \"failed\": %llu, "
      "\"optimised\": %s, \"build_type\": \"%s\", \"compiler\": \"%s\", "
      "\"run_s\": %s, \"host\": %s, \"e2e\": %s, \"modelled\": %s, \"layer\": %s}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed), timed.size(),
      variant_runs, static_cast<unsigned long long>(ref.attempted),
      static_cast<unsigned long long>(ref.failed),
#ifdef __OPTIMIZE__
      "true",
#else
      "false",
#endif
      PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, JsonList(timed, &Run::run_s).c_str(),
      JsonMap(host).c_str(), JsonMap(e2e).c_str(), JsonMap(ref.modelled).c_str(),
      JsonMap(layer).c_str());
  return 0;
}
