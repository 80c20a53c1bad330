// Metrics and the per-layer derivations.
//
// Every per-layer metric the traced run can print is declared once, in
// kLayerMetrics, with its unit; a workload fills the ones its layers
// produce and the rest print as 0 (the layer is idle in that workload).
// The counter-based metrics are ratios over the components' telemetry()
// snapshots (docs/TELEMETRY.md names the keys), computed here so the
// arithmetic can be checked on hand-built snapshots.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "slpq/telemetry.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Ordered name → value set with the units fixed by the declaring table.
class MetricSet {
 public:
  void set(std::string_view name, double value, std::string_view unit);
  /// Value of `name`, or `fallback` when unset.
  double get(std::string_view name, double fallback = 0.0) const;
  const std::vector<Metric>& all() const noexcept { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in print order.
extern const std::vector<MetricSpec> kLayerMetrics;

/// A MetricSet holding every kLayerMetrics entry at 0.
MetricSet zero_layer_metrics();

/// Sets a per-layer metric by name, taking its unit from kLayerMetrics;
/// throws std::logic_error for a name the table does not declare.
void set_layer(MetricSet& m, std::string_view name, double value);

/// Client-visible op counts a ratio is taken over.
struct OpCounts {
  double ops = 0;      ///< all operations
  double inserts = 0;
  double deletes = 0;  ///< successful delete-mins
};

/// Quotient that reads 0 when the base is 0 (an idle layer).
double ratio(double num, double den) noexcept;

/// Backend-structure counters (insert_retries, delete_retries, failed_cas,
/// claim_wins/losses, prefix_nodes_walked, pool_refills/reused) as
/// `<prefix>.*` ratios. `prefix` is "backend" (native) or "simq" (sim).
void derive_structure(MetricSet& m, std::string_view prefix,
                      const slpq::TelemetrySnapshot& snap,
                      const OpCounts& counts);

/// reclaim.* ratios from the reclaim.{retired,freed,scans,stalls,pending}
/// keys.
void derive_reclaim(MetricSet& m, const slpq::TelemetrySnapshot& snap,
                    const OpCounts& counts);

/// service.* and session.* ratios from pqd::Service::telemetry()'s pqd.*
/// keys (pqd.batch is the insert batch and claim-window size).
void derive_service(MetricSet& m, const slpq::TelemetrySnapshot& snap,
                    const OpCounts& counts);

/// sim.* ratios from the simulator's machine counters (the sim.* keys the
/// harness sim driver emits: cache_hits, miss_*, invalidations_sent,
/// dir_queue_cycles, lock_*, fiber_switches, runahead_elided, host_wall_ns).
void derive_sim(MetricSet& m, const slpq::TelemetrySnapshot& snap,
                const OpCounts& counts);

}  // namespace perfbench
