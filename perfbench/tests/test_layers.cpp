// Per-layer ratios derived from hand-built telemetry snapshots.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "layers.hpp"

namespace perfbench {
namespace {

TEST(LayerMetrics, NamesAreUniqueAndAllZeroByDefault) {
  std::set<std::string> names;
  for (const MetricSpec& s : kLayerMetrics) EXPECT_TRUE(names.insert(s.name).second) << s.name;
  const MetricSet m = zero_layer_metrics();
  EXPECT_EQ(m.all().size(), kLayerMetrics.size());
  for (const Metric& metric : m.all()) EXPECT_EQ(metric.value, 0.0);
  MetricSet copy = m;
  EXPECT_THROW(set_layer(copy, "backend.not_a_metric", 1.0), std::logic_error);
}

TEST(LayerMetrics, StructureRatios) {
  slpq::TelemetrySnapshot snap;
  snap.set("insert_retries", 50);
  snap.set("delete_retries", 30);
  snap.set("failed_cas", 40);
  snap.set("claim_wins", 300);
  snap.set("claim_losses", 100);
  snap.set("prefix_nodes_walked", 600);
  snap.set("pool_refills", 250);
  snap.set("pool_reused", 750);
  MetricSet m = zero_layer_metrics();
  derive_structure(m, "backend", snap, OpCounts{800, 500, 300});
  EXPECT_DOUBLE_EQ(m.get("backend.insert_retries_per_insert"), 0.1);
  EXPECT_DOUBLE_EQ(m.get("backend.delete_retries_per_delete"), 0.1);
  EXPECT_DOUBLE_EQ(m.get("backend.claim_win_ratio"), 0.75);
  EXPECT_DOUBLE_EQ(m.get("backend.failed_cas_per_op"), 0.05);
  EXPECT_DOUBLE_EQ(m.get("backend.prefix_nodes_per_delete"), 2.0);
  EXPECT_DOUBLE_EQ(m.get("backend.pool_reuse_ratio"), 0.75);
  // The sim prefix fills the simq.* twins and leaves backend.* alone.
  MetricSet s = zero_layer_metrics();
  derive_structure(s, "simq", snap, OpCounts{800, 500, 300});
  EXPECT_DOUBLE_EQ(s.get("simq.claim_win_ratio"), 0.75);
  EXPECT_DOUBLE_EQ(s.get("backend.claim_win_ratio"), 0.0);
}

TEST(LayerMetrics, IdleLayerReadsZeroNotNaN) {
  MetricSet m = zero_layer_metrics();
  derive_structure(m, "backend", slpq::TelemetrySnapshot{}, OpCounts{});
  derive_reclaim(m, slpq::TelemetrySnapshot{}, OpCounts{});
  derive_service(m, slpq::TelemetrySnapshot{}, OpCounts{});
  derive_sim(m, slpq::TelemetrySnapshot{}, OpCounts{});
  for (const Metric& metric : m.all()) EXPECT_EQ(metric.value, 0.0) << metric.name;
}

TEST(LayerMetrics, ReclaimRatios) {
  slpq::TelemetrySnapshot snap;
  snap.set("reclaim.retired", 1000);
  snap.set("reclaim.freed", 900);
  snap.set("reclaim.scans", 20);
  snap.set("reclaim.stalls", 5);
  snap.set("reclaim.pending", 100);
  MetricSet m = zero_layer_metrics();
  derive_reclaim(m, snap, OpCounts{4000, 2000, 2000});
  EXPECT_DOUBLE_EQ(m.get("reclaim.freed_ratio"), 0.9);
  EXPECT_DOUBLE_EQ(m.get("reclaim.scans_per_kop"), 5.0);
  EXPECT_DOUBLE_EQ(m.get("reclaim.stalls_per_scan"), 0.25);
  EXPECT_DOUBLE_EQ(m.get("reclaim.pending_end"), 100.0);
}

TEST(LayerMetrics, ServiceRatios) {
  slpq::TelemetrySnapshot snap;
  snap.set("pqd.batch", 8);
  snap.set("pqd.shard_acquisitions", 250);
  snap.set("pqd.insert_batches", 125);
  snap.set("pqd.window_refills", 130);
  snap.set("pqd.empty_refills", 5);
  snap.set("pqd.shard_imbalance", 104);
  MetricSet m = zero_layer_metrics();
  derive_service(m, snap, OpCounts{2000, 1000, 800});
  EXPECT_DOUBLE_EQ(m.get("session.batch_fill"), 1.0);  // 1000 / (125 x 8)
  EXPECT_DOUBLE_EQ(m.get("service.shard_acquisitions"), 250.0);
  EXPECT_DOUBLE_EQ(m.get("service.acquisitions_per_op"), 0.125);
  EXPECT_DOUBLE_EQ(m.get("service.refills_per_delete"), 130.0 / 800.0);
  EXPECT_DOUBLE_EQ(m.get("service.refill_fill"), 0.8);  // 800 / (125 x 8)
  EXPECT_DOUBLE_EQ(m.get("service.empty_refills"), 5.0);
  EXPECT_DOUBLE_EQ(m.get("service.shard_imbalance_pct"), 104.0);
}

TEST(LayerMetrics, SimRatios) {
  slpq::TelemetrySnapshot snap;
  snap.set("sim.cache_hits", 600);
  snap.set("sim.miss_cold", 100);
  snap.set("sim.miss_shared", 100);
  snap.set("sim.miss_remote_dirty", 150);
  snap.set("sim.miss_upgrade", 50);
  snap.set("sim.invalidations_sent", 300);
  snap.set("sim.dir_queue_cycles", 5000);
  snap.set("sim.lock_acquires", 200);
  snap.set("sim.lock_contended", 50);
  snap.set("sim.fiber_switches", 300);
  snap.set("sim.runahead_elided", 700);
  snap.set("sim.host_wall_ns", 50000);
  MetricSet m = zero_layer_metrics();
  derive_sim(m, snap, OpCounts{100, 50, 50});
  EXPECT_DOUBLE_EQ(m.get("sim.host_ns_per_event"), 50.0);
  EXPECT_DOUBLE_EQ(m.get("sim.fiber_switches_per_op"), 3.0);
  EXPECT_DOUBLE_EQ(m.get("sim.runahead_elided_ratio"), 0.7);
  EXPECT_DOUBLE_EQ(m.get("sim.cache_hit_ratio"), 0.6);
  EXPECT_DOUBLE_EQ(m.get("sim.misses_per_op"), 4.0);
  EXPECT_DOUBLE_EQ(m.get("sim.remote_dirty_per_op"), 1.5);
  EXPECT_DOUBLE_EQ(m.get("sim.invalidations_per_op"), 3.0);
  EXPECT_DOUBLE_EQ(m.get("sim.dir_queue_cycles_per_op"), 50.0);
  EXPECT_DOUBLE_EQ(m.get("sim.lock_contended_ratio"), 0.25);
}

}  // namespace
}  // namespace perfbench
