// Pinned results across commits: one small run per cluster harness, folded
// field by field into a 64-bit FNV digest and compared with a constant.
//
// The cross-layout oracles (cluster_test, load_test, replication_test,
// scan_test, xdp_test) compare shard layouts within one build, so a change
// that shifts every layout the same way — a different client start base, a
// different endpoint registration order, a resized node — passes them. These
// digests catch exactly that: any change to a modelled result moves them.
// A change that is meant to move a result re-records the constant and says
// so in its description.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <initializer_list>

#include "tests/testutil.h"

namespace hyperion {
namespace {

struct Digest {
  uint64_t value = 0xcbf29ce484222325ull;
  void Add(uint64_t v) { value = (value ^ v) * 0x100000001b3ull; }
  void Add(double v) { Add(std::bit_cast<uint64_t>(v)); }
  void Add(std::initializer_list<uint64_t> values) {
    for (uint64_t v : values) {
      Add(v);
    }
  }
};

TEST(PinnedResult, KvCluster) {
  dpu::KvCluster cluster(testutil::SmallClusterOptions());
  const dpu::ClusterResult r = cluster.Run();
  Digest d;
  d.Add({r.ok_ops, r.failed_ops, r.events_run, r.messages, r.start_ns, r.makespan_ns,
         r.latency_count, r.latency_p50_ns, r.latency_p99_ns, r.latency_max_ns});
  for (const dpu::ClusterNodeResult& node : r.nodes) {
    d.Add({node.node_clock_ns, node.rpcs_served, node.ok_ops, node.failed_ops});
  }
  EXPECT_EQ(r.failed_ops, 0u);
  EXPECT_EQ(d.value, 0x75af5b95bcbdf11eull) << std::hex << d.value;
}

TEST(PinnedResult, ReplicatedKvCluster) {
  dpu::RepClusterOptions options = testutil::SmallRepOptions();
  options.kill_node = 0;
  options.kill_at_boundary = 9;
  dpu::ReplicatedKvCluster cluster(options);
  const dpu::RepClusterResult r = cluster.Run();
  const dpu::RepAudit audit = cluster.AuditAckedWrites();
  Digest d;
  d.Add({r.ok_puts, r.ok_gets, r.failed_ops, r.failovers, r.seals, r.repair_copies,
         r.repair_fills, r.stale_epoch, r.retries, r.partial_abandons, r.killed_nodes,
         r.events_run, r.messages, r.start_ns, r.makespan_ns, r.latency_count,
         r.latency_p50_ns, r.latency_p99_ns, r.latency_max_ns, r.state_digest,
         r.history_digest});
  for (uint32_t epoch : r.group_epochs) {
    d.Add(uint64_t{epoch});
  }
  d.Add({audit.acked, audit.lost, audit.mismatched, audit.divergent});
  for (const dpu::RepHistOp& op : cluster.History()) {
    d.Add({op.kind, op.client, op.key, op.tag, op.invoke_ns, op.return_ns,
           uint64_t{op.ok}});
  }
  EXPECT_EQ(r.killed_nodes, 1u);
  EXPECT_TRUE(audit.ok());
  EXPECT_EQ(d.value, 0xdaa3d30d5dab11bdull) << std::hex << d.value;
}

TEST(PinnedResult, OverloadCluster) {
  load::OverloadCluster cluster(testutil::SmallMixedOptions());
  const load::OverloadResult r = cluster.Run();
  Digest d;
  d.Add({r.issued, r.ok, r.rejected, r.failed, r.deadline_missed, r.served, r.admitted,
         r.shed_queue, r.shed_deadline, r.messages, r.server_clock_ns, r.makespan_ns,
         r.latency_count, r.latency_p50_ns, r.latency_p99_ns, r.latency_max_ns, r.scan_issued,
         r.scan_ok, r.scan_rejected, r.scan_failed, r.scan_rows_matched, r.scan_fingerprint,
         r.scan_chunk_bytes, r.scan_device_bytes, r.scan_groups_skipped, r.scan_reconfigs,
         r.scan_reconfig_p50_ns, r.scan_reconfig_max_ns, r.scan_latency_count,
         r.scan_latency_p50_ns, r.scan_latency_p99_ns, r.scan_latency_max_ns});
  EXPECT_EQ(r.scan_ok, 4u);
  EXPECT_EQ(d.value, 0xad611b1ae9801bc8ull) << std::hex << d.value;
}

TEST(PinnedResult, XdpCluster) {
  load::XdpCluster cluster(testutil::SmallXdpClusterOptions());
  const load::XdpClusterResult r = cluster.Run();
  const load::XdpStats& x = r.xdp;
  Digest d;
  d.Add({x.rx_frames, x.rx_batches, x.rx_overflow, x.drop_banned, x.auth_reports, x.auth_shed,
         x.bans, x.fast_hits, x.fast_tx, x.slow_packets, x.slow_admitted, x.slow_shed,
         x.flow_inserts, x.flow_updates, x.teardowns, x.sprayed, x.flow_entries,
         x.flow_max_chain});
  d.Add(x.flow_mean_chain);
  d.Add(x.flow_overflow_buckets);
  d.Add(x.flow_occupancy);
  d.Add({x.lb_new_flows, x.lb_spills, x.lb_spill_hits, x.lb_spill_entries, x.fabric_busy_ns,
         x.clock_ns, x.steady_offered, x.steady_delivered, x.steady_window_ns, x.verdict_hash});
  d.Add({r.spray_issued, r.spray_ok, r.spray_rejected, r.spray_failed, r.backend_served,
         r.backend_shed, r.messages, r.ingress_clock_ns, r.makespan_ns});
  EXPECT_GT(r.spray_ok, 0u);
  EXPECT_EQ(d.value, 0x8a0ebf4381f077dcull) << std::hex << d.value;
}

}  // namespace
}  // namespace hyperion
