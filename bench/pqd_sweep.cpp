// pqd_sweep: service-tier geometry sweep — shards x batch x clients, per
// shard backend, over one deterministic hold-model trace.
//
// The quantity under test is insert-side lock amortization: every delete
// takes one shard acquisition, and sessions batch inserts so one
// acquisition applies up to `batch` of them. The sweep reports how many
// ops one acquisition serves (ops / pqd.shard_acquisitions) as the batch
// knob grows, and what that does to client-observed tail latency and to
// delete-min quality (pqd.rank_error.*, sampled through the shared
// probe). batch=1 rows are the unamortized baseline
// (bench/run_native.sh distills pqd_sweep.csv into
// bench_results/BENCH_pqd.json).
//
// Every run replays the SAME trace (record_hold_model, fixed seed), so
// rows differ only in service geometry, never in logical work.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <optional>
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

struct SweepRow {
  std::string backend;
  int shards, batch, clients;
  std::uint64_t ops, makespan_ns;
  double ops_per_sec;
  std::uint64_t p50, p90, p99, max;
  std::uint64_t acquisitions;
  double ops_per_acq;
  std::uint64_t insert_batches, window_refills, imbalance;
  std::uint64_t rank_mean, rank_p99;
};

SweepRow run_one(const std::string& backend, int shards, int batch,
                 int clients, const harness::Trace& trace) {
  pqd::ServiceConfig scfg;
  scfg.backend = backend;
  scfg.shards = shards;
  scfg.batch = batch;
  scfg.queue.initial_size = trace.initial_size();
  scfg.queue.total_ops = trace.ops.size() + trace.initial_size();
  pqd::Service service(scfg);
  pqd::InProcTransport transport(service,
                                 static_cast<std::size_t>(clients) + 1);
  harness::spec::RankErrorProbe probe;

  for (const harness::TraceOp& item : trace.warm) {
    const pqd::Key key = harness::spec::scenario_key(item.tick, item.tie);
    service.seed(key, static_cast<pqd::Value>(key));
    probe.on_insert(key);
  }
  service.prime();

  struct Tally {
    slpq::detail::LogHistogram latency;
    slpq::detail::LogHistogram rank_error;
  };
  std::vector<Tally> tallies(static_cast<std::size_t>(clients));
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  const std::size_t n_ops = trace.ops.size();

  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const std::size_t begin = n_ops * static_cast<std::size_t>(c) /
                                static_cast<std::size_t>(clients);
      const std::size_t end = n_ops * (static_cast<std::size_t>(c) + 1) /
                              static_cast<std::size_t>(clients);
      Tally& tally = tallies[static_cast<std::size_t>(c)];
      pqd::Session session(transport);
      std::uint64_t deletes = 0;
      ready.fetch_add(1, std::memory_order_release);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::size_t i = begin; i < end; ++i) {
        const harness::TraceOp& op = trace.ops[i];
        const std::uint64_t t0 = now_ns();
        if (op.kind == harness::TraceOp::Kind::kInsert) {
          const pqd::Key key =
              harness::spec::scenario_key(op.tick, op.tie);
          probe.on_insert(key);
          session.enqueue(key, static_cast<pqd::Value>(key));
          tally.latency.record(now_ns() - t0);
        } else {
          const std::optional<pqd::Item> got = session.dequeue();
          tally.latency.record(now_ns() - t0);
          if (got) {
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

  slpq::detail::LogHistogram latency, rank_error;
  for (const Tally& t : tallies) {
    latency.merge(t.latency);
    rank_error.merge(t.rank_error);
  }
  const slpq::TelemetrySnapshot snap = service.telemetry();

  SweepRow row;
  row.backend = backend;
  row.shards = shards;
  row.batch = batch;
  row.clients = clients;
  row.ops = n_ops;
  row.makespan_ns = t_end - t_start;
  row.ops_per_sec = row.makespan_ns
                        ? static_cast<double>(n_ops) * 1e9 /
                              static_cast<double>(row.makespan_ns)
                        : 0.0;
  row.p50 = latency.quantile(0.50);
  row.p90 = latency.quantile(0.90);
  row.p99 = latency.quantile(0.99);
  row.max = latency.max();
  row.acquisitions = snap.get("pqd.shard_acquisitions");
  row.ops_per_acq = row.acquisitions
                        ? static_cast<double>(n_ops) /
                              static_cast<double>(row.acquisitions)
                        : 0.0;
  row.insert_batches = snap.get("pqd.insert_batches");
  row.window_refills = snap.get("pqd.window_refills");
  row.imbalance = snap.get("pqd.shard_imbalance");
  row.rank_mean = static_cast<std::uint64_t>(rank_error.mean());
  row.rank_p99 = rank_error.quantile(0.99);
  return row;
}

}  // namespace

int main() {
  const std::uint64_t ops = harness::scaled_ops(20000);
  const harness::Trace trace =
      harness::Trace::record_hold_model(ops, 1000, 0.5, 42);

  const std::vector<std::string> backends{"globallock", "skip", "multiqueue"};
  const std::vector<int> shard_counts{2, 4, 8};
  const std::vector<int> batches{1, 4, 16};
  const std::vector<int> client_counts{4, 8};

  harness::Table table;
  table.title = "pqd geometry sweep (hold-model trace, " +
                std::to_string(ops) + " ops, warm 1000)";
  table.columns = {"backend",  "shards",   "batch",       "clients",
                   "ops/s",    "p50 ns",   "p99 ns",      "acq",
                   "ops/acq",  "refills",  "imbalance%",  "rank p99"};

  harness::Table csv;
  csv.columns = {"backend",       "shards",        "batch",
                 "clients",       "ops",           "makespan_ns",
                 "ops_per_sec",   "lat_p50",       "lat_p90",
                 "lat_p99",       "lat_max",       "acquisitions",
                 "ops_per_acq",   "insert_batches", "window_refills",
                 "imbalance",     "rank_mean",     "rank_p99"};

  for (const std::string& backend : backends) {
    for (int shards : shard_counts) {
      for (int batch : batches) {
        for (int clients : client_counts) {
          const SweepRow r = run_one(backend, shards, batch, clients, trace);
          table.add_row({r.backend, std::to_string(r.shards),
                         std::to_string(r.batch), std::to_string(r.clients),
                         harness::fmt(r.ops_per_sec, 0),
                         std::to_string(r.p50), std::to_string(r.p99),
                         std::to_string(r.acquisitions),
                         harness::fmt(r.ops_per_acq, 2),
                         std::to_string(r.window_refills),
                         std::to_string(r.imbalance),
                         std::to_string(r.rank_p99)});
          csv.add_row({r.backend, std::to_string(r.shards),
                       std::to_string(r.batch), std::to_string(r.clients),
                       std::to_string(r.ops), std::to_string(r.makespan_ns),
                       harness::fmt(r.ops_per_sec, 1),
                       std::to_string(r.p50), std::to_string(r.p90),
                       std::to_string(r.p99), std::to_string(r.max),
                       std::to_string(r.acquisitions),
                       harness::fmt(r.ops_per_acq, 3),
                       std::to_string(r.insert_batches),
                       std::to_string(r.window_refills),
                       std::to_string(r.imbalance),
                       std::to_string(r.rank_mean),
                       std::to_string(r.rank_p99)});
        }
      }
    }
  }

  harness::print_table(std::cout, table);
  harness::write_csv("pqd_sweep.csv", csv);
  std::cout << "wrote pqd_sweep.csv\n";
  return 0;
}
