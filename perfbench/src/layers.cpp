#include "layers.hpp"

#include <stdexcept>

namespace perfbench {

void MetricSet::set(std::string_view name, double value,
                    std::string_view unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = std::string(unit);
      return;
    }
  }
  metrics_.push_back(Metric{std::string(name), value, std::string(unit)});
}

double MetricSet::get(std::string_view name, double fallback) const {
  for (const Metric& m : metrics_)
    if (m.name == name) return m.value;
  return fallback;
}

const std::vector<MetricSpec> kLayerMetrics = {
    // transport and session batching (src/pqd/transport.*)
    {"transport.self_ns_per_op", "ns"},
    {"session.batch_fill", "ratio"},
    // service: shard lock, claim window, min-of-shards (src/pqd/service.*)
    {"service.self_ns_per_op", "ns"},
    {"service.shard_acquisitions", "count"},
    {"service.acquisitions_per_op", "1/op"},
    {"service.refills_per_delete", "1/op"},
    {"service.refill_fill", "ratio"},
    {"service.empty_refills", "count"},
    {"service.shard_imbalance_pct", "%"},
    {"service.rank_error_mean", "items"},
    {"service.rank_error_p99", "items"},
    // backend structure and node pool (src/slpq/*queue*, node_pool.hpp)
    {"backend.insert_ns_mean", "ns"},
    {"backend.insert_ns_p99", "ns"},
    {"backend.delete_min_ns_mean", "ns"},
    {"backend.delete_min_ns_p99", "ns"},
    {"backend.calls_per_op", "1/op"},
    {"backend.insert_retries_per_insert", "1/op"},
    {"backend.delete_retries_per_delete", "1/op"},
    {"backend.claim_win_ratio", "ratio"},
    {"backend.failed_cas_per_op", "1/op"},
    {"backend.prefix_nodes_per_delete", "1/op"},
    {"backend.pool_reuse_ratio", "ratio"},
    // reclaimer (src/slpq/reclaim*, ts_reclaimer.hpp)
    {"reclaim.freed_ratio", "ratio"},
    {"reclaim.scans_per_kop", "1/kop"},
    {"reclaim.stalls_per_scan", "1/scan"},
    {"reclaim.pending_end", "count"},
    // set-up (trace, construction, prefill, prime)
    {"setup.trace_s", "s"},
    {"setup.construct_s", "s"},
    {"setup.prefill_s", "s"},
    {"setup.prime_s", "s"},
    // simulator engine and fibers (src/sim engine)
    {"sim.host_ns_per_event", "ns"},
    {"sim.fiber_switches_per_op", "1/op"},
    {"sim.runahead_elided_ratio", "ratio"},
    // simulated memory and coherence (src/sim/memory.*)
    {"sim.cache_hit_ratio", "ratio"},
    {"sim.misses_per_op", "1/op"},
    {"sim.remote_dirty_per_op", "1/op"},
    {"sim.invalidations_per_op", "1/op"},
    {"sim.dir_queue_cycles_per_op", "cycles/op"},
    {"sim.lock_contended_ratio", "ratio"},
    // simulated structure and GC (src/simq)
    {"simq.insert_cycles_mean", "cycles"},
    {"simq.delete_cycles_mean", "cycles"},
    {"simq.insert_retries_per_insert", "1/op"},
    {"simq.delete_retries_per_delete", "1/op"},
    {"simq.claim_win_ratio", "ratio"},
    {"simq.failed_cas_per_op", "1/op"},
    {"simq.prefix_nodes_per_delete", "1/op"},
    {"simq.pool_reuse_ratio", "ratio"},
    {"simq.gc_deferred_end", "count"},
    // the trace itself
    {"trace.spans", "count"},
    {"trace.overhead_pct", "%"},
    {"trace.layer_sum_gap_pct", "%"},
};

MetricSet zero_layer_metrics() {
  MetricSet m;
  for (const MetricSpec& s : kLayerMetrics) m.set(s.name, 0.0, s.unit);
  return m;
}

void set_layer(MetricSet& m, std::string_view name, double value) {
  for (const MetricSpec& s : kLayerMetrics) {
    if (name == s.name) {
      m.set(name, value, s.unit);
      return;
    }
  }
  throw std::logic_error("undeclared per-layer metric " + std::string(name));
}

double ratio(double num, double den) noexcept {
  return den == 0.0 ? 0.0 : num / den;
}

namespace {

double key(const slpq::TelemetrySnapshot& snap, std::string_view name) {
  return static_cast<double>(snap.get(name));
}

}  // namespace

void derive_structure(MetricSet& m, std::string_view prefix,
                      const slpq::TelemetrySnapshot& snap,
                      const OpCounts& counts) {
  const std::string p(prefix);
  const double wins = key(snap, "claim_wins");
  const double reused = key(snap, "pool_reused");
  set_layer(m, p + ".insert_retries_per_insert",
            ratio(key(snap, "insert_retries"), counts.inserts));
  set_layer(m, p + ".delete_retries_per_delete",
            ratio(key(snap, "delete_retries"), counts.deletes));
  set_layer(m, p + ".claim_win_ratio",
            ratio(wins, wins + key(snap, "claim_losses")));
  set_layer(m, p + ".failed_cas_per_op",
            ratio(key(snap, "failed_cas"), counts.ops));
  set_layer(m, p + ".prefix_nodes_per_delete",
            ratio(key(snap, "prefix_nodes_walked"), counts.deletes));
  set_layer(m, p + ".pool_reuse_ratio",
            ratio(reused, reused + key(snap, "pool_refills")));
}

void derive_reclaim(MetricSet& m, const slpq::TelemetrySnapshot& snap,
                    const OpCounts& counts) {
  const double scans = key(snap, "reclaim.scans");
  set_layer(m, "reclaim.freed_ratio",
            ratio(key(snap, "reclaim.freed"), key(snap, "reclaim.retired")));
  set_layer(m, "reclaim.scans_per_kop", ratio(1000.0 * scans, counts.ops));
  set_layer(m, "reclaim.stalls_per_scan",
            ratio(key(snap, "reclaim.stalls"), scans));
  set_layer(m, "reclaim.pending_end", key(snap, "reclaim.pending"));
}

void derive_service(MetricSet& m, const slpq::TelemetrySnapshot& snap,
                    const OpCounts& counts) {
  const double batch = key(snap, "pqd.batch");
  const double acquisitions = key(snap, "pqd.shard_acquisitions");
  const double refills = key(snap, "pqd.window_refills");
  const double empty = key(snap, "pqd.empty_refills");
  set_layer(m, "session.batch_fill",
            ratio(counts.inserts, key(snap, "pqd.insert_batches") * batch));
  set_layer(m, "service.shard_acquisitions", acquisitions);
  set_layer(m, "service.acquisitions_per_op", ratio(acquisitions, counts.ops));
  set_layer(m, "service.refills_per_delete", ratio(refills, counts.deletes));
  // Items a refill published, approximated by the deletes they served
  // (off by the at most shards x batch items left in windows at the end).
  set_layer(m, "service.refill_fill",
            ratio(counts.deletes, (refills - empty) * batch));
  set_layer(m, "service.empty_refills", empty);
  set_layer(m, "service.shard_imbalance_pct", key(snap, "pqd.shard_imbalance"));
}

void derive_sim(MetricSet& m, const slpq::TelemetrySnapshot& snap,
                const OpCounts& counts) {
  const double switches = key(snap, "sim.fiber_switches");
  const double elided = key(snap, "sim.runahead_elided");
  const double hits = key(snap, "sim.cache_hits");
  const double misses = key(snap, "sim.miss_cold") +
                        key(snap, "sim.miss_shared") +
                        key(snap, "sim.miss_remote_dirty") +
                        key(snap, "sim.miss_upgrade");
  set_layer(m, "sim.host_ns_per_event",
            ratio(key(snap, "sim.host_wall_ns"), switches + elided));
  set_layer(m, "sim.fiber_switches_per_op", ratio(switches, counts.ops));
  set_layer(m, "sim.runahead_elided_ratio", ratio(elided, switches + elided));
  set_layer(m, "sim.cache_hit_ratio", ratio(hits, hits + misses));
  set_layer(m, "sim.misses_per_op", ratio(misses, counts.ops));
  set_layer(m, "sim.remote_dirty_per_op",
            ratio(key(snap, "sim.miss_remote_dirty"), counts.ops));
  set_layer(m, "sim.invalidations_per_op",
            ratio(key(snap, "sim.invalidations_sent"), counts.ops));
  set_layer(m, "sim.dir_queue_cycles_per_op",
            ratio(key(snap, "sim.dir_queue_cycles"), counts.ops));
  set_layer(m, "sim.lock_contended_ratio",
            ratio(key(snap, "sim.lock_contended"), key(snap, "sim.lock_acquires")));
}

}  // namespace perfbench
