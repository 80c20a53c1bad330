// The benchmark's three workloads.
//
//   pqd_hold    2 closed-loop clients, each a pqd::Session over the
//               in-process transport, replay a hold-model trace against a
//               pqd::Service built from the ServiceConfig defaults.
//   lib_uniform 2 worker threads run the paper's mixed benchmark (50%
//               inserts, uniform keys over 2^31) straight on the `skip`
//               registry backend holding about 1M items.
//   sim_fig4    the paper's Fig. 4 point on the simulator: the simulated
//               `skip` queue with its GC processor at 128 processors.
//
// A run repeats whole passes (set-up, timed phase, output checks) with the
// same inputs until its time is used, and reports the median of each
// metric over the passes. A traced run (RunOptions::trace) instead prints
// the per-layer metrics from separate traced passes; see perfbench/README.md.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/trace.hpp"
#include "harness/workload.hpp"
#include "layers.hpp"
#include "pqd/service.hpp"
#include "spans.hpp"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_dir;  ///< traced runs write their spans here ("": don't)
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;  ///< client operations issued, all passes
  std::uint64_t failed = 0;     ///< operations whose output check failed
  MetricSet metrics;
  std::vector<std::string> notes;  ///< human-readable lines (sample counts, failures)
};

/// Runs one workload; throws std::invalid_argument for an unknown name.
Outcome run_workload(const std::string& name, const RunOptions& opt);

// ---- pqd_hold building blocks (exposed for the benchmark's tests) --------

struct HoldConfig {
  std::uint64_t ops = 1'000'000;
  std::uint64_t warm = 20'000;
  double insert_ratio = 0.5;
  int clients = 2;
};

/// The value every pqd_hold insert carries for `key` (trace keys are
/// unique, so a dequeued value must equal value_of(its key)).
pqd::Value value_of(pqd::Key key) noexcept;

/// The service pqd_hold runs: ServiceConfig defaults, sized and seeded
/// for `trace`.
pqd::ServiceConfig hold_service_config(const harness::Trace& trace,
                                       std::uint64_t seed);

enum class PqdMode {
  kSessions,  ///< clients call pqd::Session (the measured path)
  kDirect,    ///< clients call Service::insert_batch / delete_min with the
              ///< sessions' batch grouping (the traced run's second pass)
};

struct PqdOp {
  std::uint64_t t0 = 0;  ///< now_cycles() before the call
  std::uint64_t t1 = 0;  ///< now_cycles() after the call
  pqd::Key key = 0;      ///< inserted key, popped key, or kNoKey (empty)
  bool insert = false;
};

inline constexpr pqd::Key kNoKey = -1;

struct PqdPass {
  std::vector<std::vector<PqdOp>> ops;  ///< per client, in replay order
  std::vector<SpanLog> logs;            ///< per client (traced passes only)
  std::uint64_t wall_ns = 0;            ///< timed phase, first op to last flush
  double construct_s = 0, prefill_s = 0, prime_s = 0;
  std::uint64_t bad_values = 0;  ///< dequeued value != value_of(key)
  std::size_t held = 0;          ///< Service::size() after the final flush
  slpq::TelemetrySnapshot telemetry;
};

/// Builds the service, seeds the trace's warm set, primes, and replays the
/// trace's ops split into `clients` contiguous blocks, one per thread (the
/// split of harness::spec::trace_loop and pqd_loadgen).
PqdPass run_pqd_pass(const harness::Trace& trace, const pqd::ServiceConfig& cfg,
                     int clients, PqdMode mode, bool traced);

/// Output checks of one pass: conservation against Service::size(), value
/// fidelity, no key dequeued twice, every dequeued key one that was
/// inserted, no empty dequeue. Returns the failed-op count; appends a note
/// per violated check.
std::uint64_t check_pqd_pass(const harness::Trace& trace, const PqdPass& pass,
                             std::vector<std::string>& notes);

/// Service-level rank error of every successful dequeue: how many smaller
/// items had been enqueued (a client counts an insert from the moment its
/// enqueue starts) and not yet dequeued (until the dequeue returned).
std::vector<std::uint64_t> rank_errors(const harness::Trace& trace,
                                       const PqdPass& pass);

// ---- sim_fig4 building blocks ---------------------------------------------

/// The paper's Fig. 4 point: simulated `skip` at 128 processors, 1000
/// items, 70000 ops, 50% inserts, 100 cycles of work between ops.
harness::BenchmarkConfig sim_config(std::uint64_t seed);

struct SimPass {
  double construct_s = 0, prefill_s = 0, host_s = 0;
  std::vector<std::uint64_t> insert_cycles, delete_cycles;  ///< per op
  std::uint64_t inserts = 0, deletes = 0, empties = 0;
  std::uint64_t held = 0;     ///< QueueHandle::final_size() after the run
  std::uint64_t repeats = 0;  ///< inserted keys equal to an earlier one
  slpq::TelemetrySnapshot telemetry;  ///< structure counters + sim.* keys
};

/// The harness sim driver (harness/sim_driver.cpp) on the mixed scenario,
/// keeping every op's simulated latency so its quantiles are exact.
SimPass run_sim_pass(const harness::BenchmarkConfig& cfg);

// ---- statistics -----------------------------------------------------------

/// Exact q-quantile of integer samples: element k = floor(q * (n - 1)) of
/// the sorted samples, v, refined by k's position among the samples equal
/// to v as if those were spread evenly over [v - 0.5, v + 0.5).
double quantile(std::vector<std::uint64_t> samples, double q);
double median(std::vector<double> values);
double mean(const std::vector<std::uint64_t>& samples);

}  // namespace perfbench
