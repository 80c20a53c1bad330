// pqd_loadgen: trace-replay load generator for the pqd service tier.
//
// Drives per-client Sessions (src/pqd/transport.hpp) with the ops of a
// recorded trace (docs/TRACES.md): the warm set seeds the service, the op
// schedule is block-partitioned across client threads exactly like the
// harness trace_loop, and every enqueue/dequeue is timed client-side —
// so the reported pqd.latency.* quantiles include session batching and
// shard-acquisition effects, not just the backend's critical section.
// Delete-min quality is sampled through the shared RankErrorProbe and
// reported as pqd.rank_error.* (across clients the service is relaxed:
// other sessions' pending inserts and ops racing the min-of-shards peek
// show up here, on top of whatever the shard backend relaxes).
//
// Also the trace recorder: --emit-trace writes a hold-model trace
// (Trace::record_hold_model) instead of running the service.
//
// --stats-json emits slpq-telemetry/1 with service="pqd" runs
// (validated by tools/check_stats_json.py); --pqd-backend accepts a
// comma-separated list so one invocation can replay the same trace
// through several shard backends into a single report.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness/report.hpp"
#include "harness/trace.hpp"
#include "harness/workload.hpp"
#include "harness/workload_spec.hpp"
#include "pqd/service.hpp"
#include "pqd/transport.hpp"
#include "slpq/detail/histogram.hpp"

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Options {
  std::string trace_file;
  std::string emit_trace;
  std::uint64_t ops = 20000;       // --emit-trace only
  std::uint64_t initial = 1000;    // --emit-trace only
  double insert_ratio = 0.5;       // --emit-trace only
  std::vector<std::string> backends{pqd::ServiceConfig{}.backend};
  int shards = 4;
  int batch = 8;
  std::string transport = "inproc";
  int clients = 8;
  std::uint64_t seed = 1;
  slpq::ReclaimPolicy reclaim = slpq::ReclaimPolicy::kTimestamp;
  int max_level = 16;
  bool stats = false;
  std::string stats_json;
};

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg) std::cerr << "pqd_loadgen: " << msg << "\n";
  std::cerr <<
      "usage: pqd_loadgen --trace-file PATH [options]\n"
      "       pqd_loadgen --emit-trace PATH [--ops N --initial N"
      " --insert-ratio R --seed S]\n"
      "  --trace-file PATH     slpq-trace/1 file to replay\n"
      "  --emit-trace PATH     record a hold-model trace and exit\n"
      "  --ops N               ops to record (emit mode) [20000]\n"
      "  --initial N           warm-set size (emit mode) [1000]\n"
      "  --insert-ratio R      insert probability (emit mode) [0.5]\n"
      "  --pqd-backend LIST    comma-separated native backends ["
      << pqd::ServiceConfig{}.backend << "]\n"
      "  --pqd-shards N        service shards [4]\n"
      "  --pqd-batch N         session insert batch and shard window [8]\n"
      "  --pqd-transport T     inproc | uds [inproc]\n"
      "  --clients N           client threads (sessions) [8]\n"
      "  --reclaim P           shard reclaim policy (ts|hp|epoch|leaky),\n"
      "                        node-based shard backends only\n"
      "  --max-level N         shard skiplist max level [16]\n"
      "  --seed S              [1]\n"
      "  --stats               print the telemetry table\n"
      "  --stats-json PATH     write slpq-telemetry/1 JSON\n";
  std::exit(2);
}

struct ClientTally {
  slpq::detail::LogHistogram insert_latency;
  slpq::detail::LogHistogram delete_latency;
  slpq::detail::LogHistogram rank_error;
  std::uint64_t empties = 0;
  std::uint64_t deletes_ok = 0;
};

struct ReplayOutcome {
  harness::StatsRun run;
  bool conserved = true;
};

ReplayOutcome replay(const Options& opt, const std::string& backend,
                     const harness::Trace& trace) {
  pqd::ServiceConfig scfg;
  scfg.backend = backend;
  scfg.shards = opt.shards;
  scfg.batch = opt.batch;
  scfg.queue.reclaim = opt.reclaim;
  scfg.queue.max_level = opt.max_level;
  scfg.queue.seed = opt.seed;
  scfg.queue.initial_size = trace.initial_size();
  scfg.queue.total_ops = trace.ops.size() + trace.initial_size();
  pqd::Service service(scfg);

  std::unique_ptr<pqd::Transport> transport;
  if (opt.transport == "inproc")
    transport = std::make_unique<pqd::InProcTransport>(
        service, static_cast<std::size_t>(opt.clients) + 1);
  else if (opt.transport == "uds")
    transport = std::make_unique<pqd::UdsTransport>(
        service, static_cast<std::size_t>(opt.clients) + 1);
  else
    usage("unknown --pqd-transport (expected inproc|uds)");

  harness::spec::RankErrorProbe probe;

  const std::uint64_t t_prefill_start = now_ns();
  for (const harness::TraceOp& item : trace.warm) {
    const pqd::Key key = harness::spec::scenario_key(item.tick, item.tie);
    service.seed(key, static_cast<pqd::Value>(key));
    probe.on_insert(key);
  }
  service.prime();
  const std::uint64_t t_prefill_end = now_ns();

  const int clients = opt.clients;
  std::vector<ClientTally> tallies(static_cast<std::size_t>(clients));
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  const std::size_t n_ops = trace.ops.size();

  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      // Same contiguous block split as the harness trace_loop: an
      // interleaved split would hand alternating-trace clients all
      // deletes or all inserts.
      const std::size_t begin =
          n_ops * static_cast<std::size_t>(c) /
          static_cast<std::size_t>(clients);
      const std::size_t end =
          n_ops * (static_cast<std::size_t>(c) + 1) /
          static_cast<std::size_t>(clients);
      ClientTally& tally = tallies[static_cast<std::size_t>(c)];
      pqd::Session session(*transport);
      std::uint64_t deletes = 0;
      ready.fetch_add(1, std::memory_order_release);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::size_t i = begin; i < end; ++i) {
        const harness::TraceOp& op = trace.ops[i];
        if (op.kind == harness::TraceOp::Kind::kInsert) {
          const pqd::Key key =
              harness::spec::scenario_key(op.tick, op.tie);
          probe.on_insert(key);
          const std::uint64_t t0 = now_ns();
          session.enqueue(key, static_cast<pqd::Value>(key));
          tally.insert_latency.record(now_ns() - t0);
        } else {
          const std::uint64_t t0 = now_ns();
          const std::optional<pqd::Item> got = session.dequeue();
          tally.delete_latency.record(now_ns() - t0);
          if (!got) {
            ++tally.empties;
          } else {
            ++tally.deletes_ok;
            if (++deletes %
                    harness::spec::RankErrorProbe::kSamplePeriod ==
                0)
              tally.rank_error.record(probe.on_delete(got->first));
            else
              probe.on_delete_unsampled(got->first);
          }
        }
      }
      session.flush();
    });
  }

  while (ready.load(std::memory_order_acquire) < clients)
    std::this_thread::yield();
  const std::uint64_t t_start = now_ns();
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  const std::uint64_t t_end = now_ns();

  ClientTally total;
  for (const ClientTally& t : tallies) {
    total.insert_latency.merge(t.insert_latency);
    total.delete_latency.merge(t.delete_latency);
    total.rank_error.merge(t.rank_error);
    total.empties += t.empties;
    total.deletes_ok += t.deletes_ok;
  }

  // Conservation: warm + applied inserts - successful deletes must equal
  // what the service still holds (sessions were flushed before exit).
  const std::size_t expected =
      static_cast<std::size_t>(trace.initial_size() + trace.inserts() -
                               total.deletes_ok);
  const std::size_t held = service.size();
  const std::uint64_t t_quiesce_end = now_ns();

  slpq::detail::LogHistogram latency;
  latency.merge(total.insert_latency);
  latency.merge(total.delete_latency);

  harness::StatsRun run;
  run.machine = "native";
  run.structure = backend;
  run.workload = "trace";
  run.reclaim = slpq::to_string(opt.reclaim);
  run.service = "pqd";
  run.shards = opt.shards;
  run.processors = clients;
  run.total_ops = n_ops;
  run.unit = "ns";
  run.makespan = t_end - t_start;
  run.inserts = total.insert_latency.count();
  run.deletes = total.deletes_ok;
  run.empties = total.empties;
  run.mean_insert = total.insert_latency.mean();
  run.mean_delete = total.delete_latency.mean();
  const std::uint64_t op_count = latency.count();
  run.mean_op = op_count ? static_cast<double>(latency.sum()) /
                               static_cast<double>(op_count)
                         : 0.0;

  run.counters = service.telemetry();
  run.counters.set("native.prefill_ns", t_prefill_end - t_prefill_start);
  run.counters.set("native.run_ns", t_end - t_start);
  run.counters.set("native.quiesce_ns", t_quiesce_end - t_end);
  run.counters.set("pqd.latency.samples", latency.count());
  run.counters.set("pqd.latency.p50", latency.quantile(0.50));
  run.counters.set("pqd.latency.p90", latency.quantile(0.90));
  run.counters.set("pqd.latency.p99", latency.quantile(0.99));
  run.counters.set("pqd.latency.max", latency.max());
  run.counters.set("pqd.rank_error.samples", total.rank_error.count());
  run.counters.set("pqd.rank_error.mean",
                   static_cast<std::uint64_t>(total.rank_error.mean()));
  run.counters.set("pqd.rank_error.p99", total.rank_error.quantile(0.99));
  run.counters.set("pqd.rank_error.max", total.rank_error.max());

  ReplayOutcome out;
  out.run = std::move(run);
  out.conserved = held == expected;
  if (!out.conserved)
    std::cerr << "pqd_loadgen: CONSERVATION VIOLATION backend=" << backend
              << " expected " << expected << " items, service holds "
              << held << "\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  auto next = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage("missing argument value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    try {
      if (arg == "--trace-file") opt.trace_file = next(i);
      else if (arg == "--emit-trace") opt.emit_trace = next(i);
      else if (arg == "--ops") opt.ops = std::strtoull(next(i), nullptr, 10);
      else if (arg == "--initial") opt.initial = std::strtoull(next(i), nullptr, 10);
      else if (arg == "--insert-ratio") opt.insert_ratio = std::strtod(next(i), nullptr);
      else if (arg == "--pqd-backend") {
        opt.backends.clear();
        std::string list = next(i);
        std::size_t pos = 0;
        while (pos <= list.size()) {
          const std::size_t comma = list.find(',', pos);
          const std::string name = list.substr(
              pos, comma == std::string::npos ? std::string::npos
                                              : comma - pos);
          if (!name.empty()) opt.backends.push_back(name);
          if (comma == std::string::npos) break;
          pos = comma + 1;
        }
        if (opt.backends.empty()) usage("empty --pqd-backend list");
      }
      else if (arg == "--pqd-shards") opt.shards = std::atoi(next(i));
      else if (arg == "--pqd-batch") opt.batch = std::atoi(next(i));
      else if (arg == "--pqd-transport") opt.transport = next(i);
      else if (arg == "--clients") opt.clients = std::atoi(next(i));
      else if (arg == "--seed") opt.seed = std::strtoull(next(i), nullptr, 10);
      else if (arg == "--reclaim") {
        if (!slpq::parse_reclaim_policy(next(i), opt.reclaim))
          usage("bad --reclaim (expected ts|hp|epoch|leaky)");
      }
      else if (arg == "--max-level") opt.max_level = std::atoi(next(i));
      else if (arg == "--stats") opt.stats = true;
      else if (arg == "--stats-json") opt.stats_json = next(i);
      else if (arg == "--help" || arg == "-h") usage();
      else usage(("unknown option " + arg).c_str());
    } catch (const std::exception& e) {
      usage(e.what());
    }
  }
  if (opt.clients < 1) usage("--clients must be >= 1");

  if (!opt.emit_trace.empty()) {
    const harness::Trace trace = harness::Trace::record_hold_model(
        opt.ops, opt.initial, opt.insert_ratio, opt.seed);
    try {
      trace.save(opt.emit_trace);
    } catch (const std::exception& e) {
      std::cerr << "pqd_loadgen: " << e.what() << "\n";
      return 1;
    }
    std::cout << "recorded " << trace.ops.size() << " ops (warm set "
              << trace.initial_size() << ", " << trace.inserts()
              << " inserts / " << trace.deletes() << " deletes) to "
              << opt.emit_trace << "\n";
    return 0;
  }

  if (opt.trace_file.empty()) usage("--trace-file is required");
  harness::Trace trace;
  try {
    trace = harness::Trace::load(opt.trace_file);
  } catch (const std::exception& e) {
    std::cerr << "pqd_loadgen: " << e.what() << "\n";
    return 1;
  }

  harness::StatsReport report;
  bool ok = true;
  for (const std::string& backend : opt.backends) {
    ReplayOutcome outcome;
    try {
      outcome = replay(opt, backend, trace);
    } catch (const std::exception& e) {
      std::cerr << "pqd_loadgen: backend " << backend << ": " << e.what()
                << "\n";
      return 1;
    }
    ok = ok && outcome.conserved;
    const harness::StatsRun& r = outcome.run;
    std::cout << "pqd " << backend << " x" << opt.shards << " shards, batch "
              << opt.batch << ", " << opt.clients << " clients ("
              << opt.transport << "): " << r.total_ops << " ops in "
              << r.makespan / 1000000.0 << " ms, p99 "
              << r.counters.get("pqd.latency.p99") << " ns, acquisitions "
              << r.counters.get("pqd.shard_acquisitions") << "\n";
    if (opt.stats) harness::print_telemetry(std::cout, r);
    report.runs.push_back(outcome.run);
  }
  if (!opt.stats_json.empty()) {
    try {
      harness::write_stats_json(opt.stats_json, report);
    } catch (const std::exception& e) {
      std::cerr << "pqd_loadgen: " << e.what() << "\n";
      return 1;
    }
  }
  return ok ? 0 : 1;
}
