#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "harness/backend.hpp"
#include "harness/workload.hpp"
#include "harness/workload_spec.hpp"
#include "pqd/transport.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "timed_backend.hpp"

namespace perfbench {

using harness::Key;
using harness::TraceOp;

// ---- statistics -------------------------------------------------------------

double quantile(std::vector<std::uint64_t> samples, double q) {
  if (samples.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(
      q * static_cast<double>(samples.size() - 1));
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(k),
                   samples.end());
  const std::uint64_t v = samples[k];
  // Integer samples tie heavily (a 55 ns insert repeats thousands of
  // times), so spread the ties of v evenly over [v - 0.5, v + 0.5) and
  // read the quantile's position among them: a shift in the distribution
  // then moves the result smoothly instead of by whole units.
  std::size_t below = 0, equal = 0;
  for (const std::uint64_t s : samples) {
    below += s < v;
    equal += s == v;
  }
  return static_cast<double>(v) - 0.5 +
         (static_cast<double>(k - below) + 0.5) / static_cast<double>(equal);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double mean(const std::vector<std::uint64_t>& samples) {
  if (samples.empty()) return 0.0;
  long double sum = 0;
  for (const std::uint64_t v : samples) sum += static_cast<long double>(v);
  return static_cast<double>(sum / static_cast<long double>(samples.size()));
}

namespace {

double seconds_between(std::uint64_t t0, std::uint64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Two-phase start: threads do their own set-up, check in, and spin until
/// released, so the timed phase starts on every thread at once.
class StartGate {
 public:
  explicit StartGate(int parties) : parties_(parties) {}
  void arrive_and_wait() {
    ready_.fetch_add(1, std::memory_order_release);
    while (!go_.load(std::memory_order_acquire)) std::this_thread::yield();
  }
  std::uint64_t release() {
    while (ready_.load(std::memory_order_acquire) < parties_)
      std::this_thread::yield();
    const std::uint64_t t = now_ns();
    go_.store(true, std::memory_order_release);
    return t;
  }

 private:
  const int parties_;
  std::atomic<int> ready_{0};
  std::atomic<bool> go_{false};
};

/// Runs body(i, gate) on n threads; returns the ns from the gate's release
/// until every thread has been joined. An exception from a body is
/// rethrown here after all threads are joined.
template <typename Body>
std::uint64_t run_threads(int n, Body&& body) {
  StartGate gate(n);
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(n));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      bool arrived = false;
      auto wait = [&] {
        arrived = true;
        gate.arrive_and_wait();
      };
      try {
        body(i, wait);
      } catch (...) {
        errors[static_cast<std::size_t>(i)] = std::current_exception();
        if (!arrived) gate.arrive_and_wait();
      }
    });
  }
  const std::uint64_t t0 = gate.release();
  for (std::thread& t : threads) t.join();
  const std::uint64_t t1 = now_ns();
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
  return t1 - t0;
}

/// Repeats `pass` until `seconds` are used (a pass is not started when the
/// median pass so far would overrun) and at least `min_passes` ran.
template <typename Pass>
void repeat_passes(double seconds, int min_passes, Pass&& pass) {
  const std::uint64_t start = now_ns();
  std::vector<double> took;
  for (;;) {
    const std::uint64_t t = now_ns();
    pass();
    took.push_back(seconds_between(t, now_ns()));
    const double used = seconds_between(start, now_ns());
    if (static_cast<int>(took.size()) >= min_passes &&
        used + median(took) > seconds)
      return;
  }
}

/// Per-pass values of a workload's end-to-end metrics. Each metric is
/// reported as its median over the passes, with the values in a note.
class Series {
 public:
  void add(const std::string& name, const char* unit, double value) {
    for (Entry& e : entries_) {
      if (e.name == name) {
        e.values.push_back(value);
        return;
      }
    }
    entries_.push_back(Entry{name, unit, {value}});
  }

  void report(Outcome& out) const {
    for (const Entry& e : entries_) {
      out.metrics.set(e.name, median(e.values), e.unit);
      std::string note = "  per pass ";
      note += e.name;
      note += ":";
      for (const double v : e.values) {
        note += ' ';
        note += std::to_string(v);
      }
      out.notes.push_back(note);
    }
  }

 private:
  struct Entry {
    std::string name;
    const char* unit;
    std::vector<double> values;
  };
  std::vector<Entry> entries_;
};

/// Mean of every op's latency, inserts and deletes together.
double op_mean(const std::vector<std::uint64_t>& inserts,
               const std::vector<std::uint64_t>& deletes) {
  long double sum = 0;
  for (const std::uint64_t c : inserts) sum += c;
  for (const std::uint64_t c : deletes) sum += c;
  const std::size_t n = inserts.size() + deletes.size();
  return n ? static_cast<double>(sum / static_cast<long double>(n)) : 0.0;
}

/// The latency metrics every workload reports, from the cycles each call
/// took: counted by the processor (now_cycles) natively, by the simulated
/// clock on the simulator.
void add_latencies(Series& series, std::vector<std::uint64_t> inserts,
                   std::vector<std::uint64_t> deletes) {
  series.add("op_mean_cycles", "cycles", op_mean(inserts, deletes));
  series.add("insert_p50_cycles", "cycles", quantile(std::move(inserts), 0.50));
  series.add("delete_p50_cycles", "cycles", quantile(deletes, 0.50));
  series.add("delete_p99_cycles", "cycles", quantile(std::move(deletes), 0.99));
}

/// Forwards seed() to a queue and records the seeded keys (so the
/// conservation checks can allow for update-in-place on equal keys).
class SeedRecorder final : public harness::QueueHandle {
 public:
  SeedRecorder(harness::QueueHandle& inner, std::vector<Key>& keys)
      : inner_(inner), keys_(keys) {}
  void seed(Key key, harness::Value value) override {
    keys_.push_back(key);
    inner_.seed(key, value);
  }
  void insert(harness::OpContext& ctx, Key key, harness::Value value) override {
    inner_.insert(ctx, key, value);
  }
  std::optional<Key> delete_min(harness::OpContext& ctx) override {
    return inner_.delete_min(ctx);
  }
  std::size_t final_size() const override { return inner_.final_size(); }

 private:
  harness::QueueHandle& inner_;
  std::vector<Key>& keys_;
};

/// Number of draws that repeat an earlier draw: the most items a queue
/// with update-in-place on equal keys can hold fewer than were inserted.
std::uint64_t repeated_keys(std::vector<Key> keys) {
  std::sort(keys.begin(), keys.end());
  const auto unique_end = std::unique(keys.begin(), keys.end());
  return static_cast<std::uint64_t>(keys.end() - unique_end);
}

/// Conservation with update-in-place allowed: the queue may hold up to
/// `repeats` fewer items than inserted minus deleted, never more.
std::uint64_t check_conservation(const char* what, std::uint64_t expected,
                                 std::uint64_t held, std::uint64_t repeats,
                                 std::vector<std::string>& notes) {
  if (held <= expected && expected - held <= repeats) return 0;
  notes.push_back(std::string("CHECK FAILED ") + what + ": holds " +
                  std::to_string(held) + " items, expected " +
                  std::to_string(expected) + " (" + std::to_string(repeats) +
                  " repeated keys allowed)");
  return held > expected ? held - expected : expected - held - repeats;
}

/// The native driver's local work period (harness/native_driver.cpp).
void spin_work(std::uint64_t iters) {
  for (std::uint64_t i = 0; i < iters; ++i) asm volatile("");
}

// pqd::InProcTransport seeds session i's shard-rotation tag at i times
// this golden-ratio stride; the direct pass reproduces that grouping.
constexpr std::uint64_t kTagStride = 0x9E3779B97F4A7C15ULL;

std::vector<Key> hold_keys(const harness::Trace& trace) {
  std::vector<Key> keys;
  keys.reserve(trace.warm.size() + trace.ops.size());
  for (const TraceOp& w : trace.warm)
    keys.push_back(harness::spec::scenario_key(w.tick, w.tie));
  for (const TraceOp& op : trace.ops)
    if (op.kind == TraceOp::Kind::kInsert)
      keys.push_back(harness::spec::scenario_key(op.tick, op.tie));
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace

// ---- pqd_hold ----------------------------------------------------------------

pqd::Value value_of(pqd::Key key) noexcept {
  return static_cast<pqd::Value>(key) * 0x9E3779B97F4A7C15ULL ^
         0xD1B54A32D192ED03ULL;
}

pqd::ServiceConfig hold_service_config(const harness::Trace& trace,
                                       std::uint64_t seed) {
  pqd::ServiceConfig cfg;  // shard engine, shards, batch, ring: defaults
  cfg.queue.seed = seed;
  cfg.queue.initial_size = trace.initial_size();
  cfg.queue.total_ops = trace.ops.size() + trace.initial_size();
  return cfg;
}

PqdPass run_pqd_pass(const harness::Trace& trace, const pqd::ServiceConfig& cfg,
                     int clients, PqdMode mode, bool traced) {
  PqdPass out;
  out.ops.resize(static_cast<std::size_t>(clients));
  if (traced) out.logs.resize(static_cast<std::size_t>(clients));

  const std::uint64_t t0 = now_ns();
  pqd::Service service(cfg);
  pqd::InProcTransport transport(service,
                                 static_cast<std::size_t>(clients) + 1);
  const std::uint64_t t1 = now_ns();
  for (const TraceOp& w : trace.warm) {
    const Key key = harness::spec::scenario_key(w.tick, w.tie);
    service.seed(key, value_of(key));
  }
  const std::uint64_t t2 = now_ns();
  service.prime();
  const std::uint64_t t3 = now_ns();
  out.construct_s = seconds_between(t0, t1);
  out.prefill_s = seconds_between(t1, t2);
  out.prime_s = seconds_between(t2, t3);

  const std::size_t n = trace.ops.size();
  const auto batch = static_cast<std::size_t>(cfg.batch);
  std::atomic<std::uint64_t> bad_values{0};

  out.wall_ns = run_threads(clients, [&](int c, auto&& wait) {
    const auto cu = static_cast<std::size_t>(c);
    const std::size_t begin = n * cu / static_cast<std::size_t>(clients);
    const std::size_t end = n * (cu + 1) / static_cast<std::size_t>(clients);
    std::vector<PqdOp>& rec = out.ops[cu];
    rec.resize(end - begin);
    SpanLog* log = traced ? &out.logs[cu] : nullptr;
    if (log) log->reserve(3 * (end - begin));
    std::optional<pqd::Session> session;
    if (mode == PqdMode::kSessions) session.emplace(transport);
    std::vector<pqd::Item> pending;
    pending.reserve(batch);
    std::uint64_t tag = cu * kTagStride;
    std::uint64_t bad = 0;

    // Direct mode: one span per service call, backend spans under it.
    auto apply_pending = [&](std::uint64_t op) {
      if (pending.empty()) return;
      std::int64_t id = kNoParent;
      if (log) {
        id = log->open(SpanName::kServiceInsertBatch, kNoParent, op, now_ns());
        trace_backend_calls(log, id, op);
      }
      service.insert_batch(pending.data(), pending.size(), tag++);
      if (log) log->close(id, now_ns());
      pending.clear();
    };
    auto direct_delete = [&](std::uint64_t op) {
      std::int64_t id = kNoParent;
      if (log) {
        id = log->open(SpanName::kServiceDeleteMin, kNoParent, op, now_ns());
        trace_backend_calls(log, id, op);
      }
      std::optional<pqd::Item> got = service.delete_min();
      if (log) log->close(id, now_ns());
      return got;
    };

    wait();
    for (std::size_t i = begin; i < end; ++i) {
      const TraceOp& op = trace.ops[i];
      PqdOp& r = rec[i - begin];
      r.insert = op.kind == TraceOp::Kind::kInsert;
      if (r.insert) r.key = harness::spec::scenario_key(op.tick, op.tie);
      std::optional<pqd::Item> got;
      r.t0 = now_cycles();
      if (mode == PqdMode::kSessions) {
        std::int64_t id = kNoParent;
        if (log) {
          id = log->open(r.insert ? SpanName::kClientInsert
                                  : SpanName::kClientDeleteMin,
                         kNoParent, i, now_ns());
          trace_backend_calls(log, id, i);
        }
        if (r.insert)
          session->enqueue(r.key, value_of(r.key));
        else
          got = session->dequeue();
        if (log) log->close(id, now_ns());
        r.t1 = now_cycles();
      } else {
        if (r.insert) {
          pending.emplace_back(r.key, value_of(r.key));
          if (pending.size() >= batch) apply_pending(i);
        } else {
          apply_pending(i);
          got = direct_delete(i);
        }
        r.t1 = now_cycles();
      }
      if (!r.insert) {
        r.key = got ? got->first : kNoKey;
        if (got && got->second != value_of(got->first)) ++bad;
      }
    }
    if (session) {
      trace_backend_calls(log, kNoParent, end);
      session->flush();
      session.reset();
    } else {
      apply_pending(end);
    }
    trace_backend_calls(nullptr);
    bad_values.fetch_add(bad, std::memory_order_relaxed);
  });

  out.bad_values = bad_values.load();
  out.held = service.size();
  out.telemetry = service.telemetry();
  return out;
}

std::uint64_t check_pqd_pass(const harness::Trace& trace, const PqdPass& pass,
                             std::vector<std::string>& notes) {
  const std::vector<Key> known = hold_keys(trace);
  std::uint64_t inserts = 0, empties = 0;
  std::vector<Key> popped;
  for (const auto& client : pass.ops) {
    for (const PqdOp& op : client) {
      if (op.insert)
        ++inserts;
      else if (op.key == kNoKey)
        ++empties;
      else
        popped.push_back(op.key);
    }
  }
  std::sort(popped.begin(), popped.end());
  std::uint64_t twice = 0, unknown = 0;
  for (std::size_t i = 0; i < popped.size(); ++i) {
    if (i > 0 && popped[i] == popped[i - 1]) ++twice;
    if (!std::binary_search(known.begin(), known.end(), popped[i])) ++unknown;
  }

  std::uint64_t failed = 0;
  auto fail = [&](std::uint64_t count, const std::string& what) {
    if (count == 0) return;
    failed += count;
    notes.push_back("CHECK FAILED pqd_hold: " + std::to_string(count) + " " +
                    what);
  };
  fail(empties, "dequeues found the service empty");
  fail(pass.bad_values, "dequeued values differ from the enqueued value");
  fail(twice, "keys dequeued twice");
  fail(unknown, "dequeued keys were never enqueued");
  const std::uint64_t expected =
      trace.initial_size() + inserts - static_cast<std::uint64_t>(popped.size());
  failed += check_conservation("pqd_hold conservation", expected, pass.held, 0,
                               notes);
  return failed;
}

std::vector<std::uint64_t> rank_errors(const harness::Trace& trace,
                                       const PqdPass& pass) {
  const std::vector<Key> known = hold_keys(trace);
  // Fenwick tree over the ranks of every key the run can hold.
  std::vector<std::int64_t> tree(known.size() + 1, 0);
  auto add = [&](std::size_t rank, std::int64_t d) {
    for (std::size_t i = rank + 1; i < tree.size(); i += i & (~i + 1))
      tree[i] += d;
  };
  auto below = [&](std::size_t rank) {  // resident items of smaller rank
    std::int64_t sum = 0;
    for (std::size_t i = rank; i > 0; i -= i & (~i + 1)) sum += tree[i];
    return sum;
  };
  auto rank_of = [&](Key key) -> std::optional<std::size_t> {
    const auto it = std::lower_bound(known.begin(), known.end(), key);
    if (it == known.end() || *it != key) return std::nullopt;
    return static_cast<std::size_t>(it - known.begin());
  };

  for (const TraceOp& w : trace.warm)
    add(*rank_of(harness::spec::scenario_key(w.tick, w.tie)), 1);

  struct Event {
    std::uint64_t t;
    bool is_delete;  // inserts first on equal stamps
    std::size_t rank;
    bool operator<(const Event& o) const {
      return t != o.t ? t < o.t : is_delete < o.is_delete;
    }
  };
  std::vector<Event> events;
  for (const auto& client : pass.ops) {
    for (const PqdOp& op : client) {
      if (op.key == kNoKey) continue;
      const std::optional<std::size_t> rank = rank_of(op.key);
      if (!rank) continue;  // reported by check_pqd_pass
      events.push_back(op.insert ? Event{op.t0, false, *rank}
                                 : Event{op.t1, true, *rank});
    }
  }
  std::sort(events.begin(), events.end());
  std::vector<std::uint64_t> errors;
  errors.reserve(events.size() / 2 + 1);
  for (const Event& e : events) {
    if (e.is_delete) {
      errors.push_back(static_cast<std::uint64_t>(
          std::max<std::int64_t>(0, below(e.rank))));
      add(e.rank, -1);
    } else {
      add(e.rank, 1);
    }
  }
  return errors;
}

namespace {

std::uint64_t count_ops(const PqdPass& pass) {
  std::uint64_t n = 0;
  for (const auto& client : pass.ops) n += client.size();
  return n;
}

double ops_per_s(const PqdPass& pass) {
  return static_cast<double>(count_ops(pass)) * 1e9 /
         static_cast<double>(pass.wall_ns);
}

Outcome run_pqd_hold(const RunOptions& opt) {
  const HoldConfig hc;
  Outcome out;
  std::vector<double> setup, trace_s, construct_s, prefill_s, prime_s;
  std::size_t ins_samples = 0, del_samples = 0;

  // One pass: generate the trace, build and prime the service, replay.
  auto measured_pass = [&](PqdMode mode, bool traced, bool with_rank_errors,
                           int clients) {
    const std::uint64_t t0 = now_ns();
    const harness::Trace trace = harness::Trace::record_hold_model(
        hc.ops, hc.warm, hc.insert_ratio, opt.seed);
    const double trace_gen = seconds_between(t0, now_ns());
    PqdPass pass = run_pqd_pass(
        trace,
        [&] {
          pqd::ServiceConfig cfg = hold_service_config(trace, opt.seed);
          if (traced) cfg.backend = timed_backend_name();
          return cfg;
        }(),
        clients, mode, traced);
    out.attempted += count_ops(pass);
    const std::uint64_t bad = check_pqd_pass(trace, pass, out.notes);
    out.failed += bad;
    if (bad) out.correct = false;
    trace_s.push_back(trace_gen);
    construct_s.push_back(pass.construct_s);
    prefill_s.push_back(pass.prefill_s);
    prime_s.push_back(pass.prime_s);
    setup.push_back(trace_gen + pass.construct_s + pass.prefill_s + pass.prime_s);
    std::vector<std::uint64_t> errors;
    if (with_rank_errors) errors = rank_errors(trace, pass);
    return std::make_pair(std::move(pass), std::move(errors));
  };

  if (!opt.trace) {
    Series series;
    repeat_passes(opt.seconds, 3, [&] {
      const PqdPass pass =
          measured_pass(PqdMode::kSessions, false, false, hc.clients).first;
      std::vector<std::uint64_t> insert_cycles, delete_cycles;
      for (const auto& client : pass.ops)
        for (const PqdOp& op : client)
          (op.insert ? insert_cycles : delete_cycles).push_back(op.t1 - op.t0);
      ins_samples = insert_cycles.size();
      del_samples = delete_cycles.size();
      series.add("setup_s", "s", setup.back());
      series.add("ops_per_s", "1/s", ops_per_s(pass));
      add_latencies(series, std::move(insert_cycles), std::move(delete_cycles));
    });
    out.notes.push_back("pqd_hold: per pass " + std::to_string(ins_samples) +
                        " insert and " + std::to_string(del_samples) +
                        " delete latency samples");
    series.report(out);
    out.metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
  }

  // Traced: rounds of four passes over the same trace. The workload's two
  // clients, untraced and traced, give the tracing overhead, the backend
  // spans and the counters. The transport/service split takes a traced
  // pass through Sessions and a traced pass calling the Service directly,
  // both with one client: with two, the service's time includes waiting
  // on the other client, which differs between any two passes by more
  // than the whole transport costs.
  MetricSet layers = zero_layer_metrics();
  std::vector<double> overhead, transport_self, service_self, gap, ins_mean,
      ins_p99, dmin_mean, dmin_p99, rank_mean, rank_p99;
  PqdPass last_traced, last_split_sessions, last_split_direct;
  repeat_passes(opt.seconds, 1, [&] {
    auto [plain, errors] =
        measured_pass(PqdMode::kSessions, false, true, hc.clients);
    rank_mean.push_back(mean(errors));
    rank_p99.push_back(quantile(std::move(errors), 0.99));
    PqdPass traced = measured_pass(PqdMode::kSessions, true, false, hc.clients).first;
    PqdPass split_sessions = measured_pass(PqdMode::kSessions, true, false, 1).first;
    PqdPass split_direct = measured_pass(PqdMode::kDirect, true, false, 1).first;
    overhead.push_back(100.0 * (1.0 - ops_per_s(traced) / ops_per_s(plain)));

    std::vector<std::uint64_t> ins_ns, dmin_ns;
    for (const SpanLog& log : traced.logs) {
      append_durations(log.spans(), SpanName::kBackendInsert, ins_ns);
      append_durations(log.spans(), SpanName::kBackendDeleteMin, dmin_ns);
    }
    set_layer(layers, "backend.calls_per_op",
              static_cast<double>(ins_ns.size() + dmin_ns.size()) /
                  static_cast<double>(count_ops(traced)));
    ins_mean.push_back(mean(ins_ns));
    ins_p99.push_back(quantile(std::move(ins_ns), 0.99));
    dmin_mean.push_back(mean(dmin_ns));
    dmin_p99.push_back(quantile(std::move(dmin_ns), 0.99));

    SpanTotals s1, s2;
    for (const SpanLog& log : split_sessions.logs) s1.add(log.spans());
    for (const SpanLog& log : split_direct.logs) s2.add(log.spans());
    const double ops = static_cast<double>(count_ops(split_sessions));
    const double client = static_cast<double>(
        s1.total(SpanName::kClientInsert) + s1.total(SpanName::kClientDeleteMin));
    const double service = static_cast<double>(
        s2.total(SpanName::kServiceInsertBatch) +
        s2.total(SpanName::kServiceDeleteMin));
    const double service_own = static_cast<double>(
        s2.self(SpanName::kServiceInsertBatch) +
        s2.self(SpanName::kServiceDeleteMin));
    const double backend = static_cast<double>(
        s1.total(SpanName::kBackendInsert) + s1.total(SpanName::kBackendDeleteMin));
    const double backend_direct = static_cast<double>(
        s2.total(SpanName::kBackendInsert) + s2.total(SpanName::kBackendDeleteMin));
    // Both passes make the same backend calls, so the ratio of their
    // backend times is the ratio of the machine's speed during the two
    // passes (it drifts by ~10% from pass to pass); scaling the direct pass
    // by it keeps that drift out of the subtraction. The backend spans nest
    // in the service spans, so transport + service + backend is then
    // exactly the client total, and the passes' disagreement on the
    // identical backend work is what bounds the split's accuracy.
    const double speed = backend_direct > 0 ? backend / backend_direct : 1.0;
    transport_self.push_back((client - service * speed) / ops);
    service_self.push_back(service_own * speed / ops);
    gap.push_back(100.0 * std::fabs(backend - backend_direct) / client);

    last_traced = std::move(traced);
    last_split_sessions = std::move(split_sessions);
    last_split_direct = std::move(split_direct);
  });

  OpCounts counts;
  for (const auto& client : last_traced.ops) {
    for (const PqdOp& op : client) {
      counts.ops += 1;
      if (op.insert)
        counts.inserts += 1;
      else if (op.key != kNoKey)
        counts.deletes += 1;
    }
  }
  // The backend sees the shards' own op mix: refills pop, batches insert.
  OpCounts backend_counts;
  backend_counts.inserts = counts.inserts;
  backend_counts.deletes = counts.deletes;
  backend_counts.ops = counts.inserts + counts.deletes;
  derive_service(layers, last_traced.telemetry, counts);
  derive_structure(layers, "backend", last_traced.telemetry, backend_counts);
  derive_reclaim(layers, last_traced.telemetry, backend_counts);
  set_layer(layers, "transport.self_ns_per_op", median(transport_self));
  set_layer(layers, "service.self_ns_per_op", median(service_self));
  set_layer(layers, "service.rank_error_mean", median(rank_mean));
  set_layer(layers, "service.rank_error_p99", median(rank_p99));
  set_layer(layers, "backend.insert_ns_mean", median(ins_mean));
  set_layer(layers, "backend.insert_ns_p99", median(ins_p99));
  set_layer(layers, "backend.delete_min_ns_mean", median(dmin_mean));
  set_layer(layers, "backend.delete_min_ns_p99", median(dmin_p99));
  set_layer(layers, "setup.trace_s", median(trace_s));
  set_layer(layers, "setup.construct_s", median(construct_s));
  set_layer(layers, "setup.prefill_s", median(prefill_s));
  set_layer(layers, "setup.prime_s", median(prime_s));
  std::uint64_t spans = 0;
  for (const PqdPass* pass :
       {&last_traced, &last_split_sessions, &last_split_direct})
    for (const SpanLog& log : pass->logs) spans += log.spans().size();
  set_layer(layers, "trace.spans", static_cast<double>(spans));
  set_layer(layers, "trace.overhead_pct", median(overhead));
  set_layer(layers, "trace.layer_sum_gap_pct", median(gap));
  out.metrics = std::move(layers);
  out.notes.push_back("pqd_hold traced: " + std::to_string(overhead.size()) +
                      " rounds of {untraced, traced} x 2 clients and "
                      "{traced sessions, traced direct} x 1 client");
  if (!opt.spans_dir.empty()) {
    const std::pair<const char*, const PqdPass*> files[] = {
        {"pqd_hold.traced.spans", &last_traced},
        {"pqd_hold.split_sessions.spans", &last_split_sessions},
        {"pqd_hold.split_direct.spans", &last_split_direct}};
    for (const auto& [name, pass] : files) {
      std::vector<const SpanLog*> logs;
      for (const SpanLog& log : pass->logs) logs.push_back(&log);
      write_spans(opt.spans_dir + "/" + name, logs);
    }
  }
  return out;
}

// ---- lib_uniform -------------------------------------------------------------

harness::BenchmarkConfig lib_config(std::uint64_t seed) {
  harness::BenchmarkConfig cfg;
  cfg.structure = "skip";
  cfg.flavor = harness::Flavor::Native;
  cfg.workload = harness::WorkloadKind::Mixed;
  cfg.processors = 2;
  cfg.initial_size = 1'000'000;
  cfg.total_ops = 2'000'000;
  cfg.insert_ratio = 0.5;
  cfg.work_cycles = 100;
  cfg.max_level = 20;  // log2 of the resident set
  cfg.reclaim = slpq::ReclaimPolicy::kTimestamp;
  cfg.seed = seed;
  return cfg;
}

struct LibPass {
  double construct_s = 0, prefill_s = 0;
  std::uint64_t wall_ns = 0;
  std::vector<std::uint64_t> insert_cycles, delete_cycles;  ///< untraced only
  std::vector<SpanLog> logs;
  std::uint64_t inserts = 0, deletes = 0, empties = 0;
  std::uint64_t held = 0, repeats = 0;
  slpq::TelemetrySnapshot telemetry;
};

LibPass run_lib_pass(const harness::BenchmarkConfig& cfg, bool traced) {
  LibPass out;
  const harness::Backend& backend =
      harness::BackendRegistry::instance().require(harness::Flavor::Native,
                                                   cfg.structure);
  const std::uint64_t t0 = now_ns();
  std::unique_ptr<harness::QueueHandle> queue =
      backend.make(harness::BackendInit{cfg, nullptr});
  const std::uint64_t t1 = now_ns();
  std::vector<Key> keys;
  keys.reserve(cfg.initial_size + cfg.total_ops);
  SeedRecorder recorder(*queue, keys);
  harness::spec::prefill(recorder, cfg);
  const std::uint64_t t2 = now_ns();
  out.construct_s = seconds_between(t0, t1);
  out.prefill_s = seconds_between(t1, t2);

  const auto workers = static_cast<std::size_t>(cfg.processors);
  struct Tally {
    std::vector<std::uint64_t> insert_cycles, delete_cycles;
    std::vector<Key> keys;
    std::uint64_t empties = 0;
  };
  std::vector<Tally> tallies(workers);
  if (traced) out.logs.resize(workers);

  // The harness worker_loop's mixed scenario, timing each call exactly:
  // in cycles, or in ns for a span when traced.
  auto clock = [traced] { return traced ? now_ns() : now_cycles(); };
  out.wall_ns = run_threads(cfg.processors, [&](int p, auto&& wait) {
    Tally& t = tallies[static_cast<std::size_t>(p)];
    SpanLog* log = traced ? &out.logs[static_cast<std::size_t>(p)] : nullptr;
    harness::OpContext ctx;
    ctx.thread = p;
    auto rng = harness::spec::worker_rng(cfg, p);
    const std::uint64_t ops = harness::spec::quota(cfg, p);
    t.insert_cycles.reserve(ops);
    t.delete_cycles.reserve(ops);
    t.keys.reserve(ops);
    if (log) log->reserve(ops);
    wait();
    for (std::uint64_t i = 0; i < ops; ++i) {
      spin_work(cfg.work_cycles);
      if (rng.bernoulli(cfg.insert_ratio)) {
        const Key key =
            static_cast<Key>(rng.below(harness::spec::kKeySpace)) + 1;
        const std::uint64_t a = clock();
        queue->insert(ctx, key, static_cast<harness::Value>(i));
        const std::uint64_t b = clock();
        t.keys.push_back(key);
        if (log)
          log->close(log->open(SpanName::kBackendInsert, kNoParent, i, a), b);
        else
          t.insert_cycles.push_back(b - a);
      } else {
        const std::uint64_t a = clock();
        const std::optional<Key> got = queue->delete_min(ctx);
        const std::uint64_t b = clock();
        if (!got) ++t.empties;
        if (log)
          log->close(log->open(SpanName::kBackendDeleteMin, kNoParent, i, a), b);
        else
          t.delete_cycles.push_back(b - a);
      }
    }
  });
  queue->quiesce();

  for (Tally& t : tallies) {
    out.inserts += t.keys.size();
    out.empties += t.empties;
    keys.insert(keys.end(), t.keys.begin(), t.keys.end());
    out.insert_cycles.insert(out.insert_cycles.end(), t.insert_cycles.begin(),
                             t.insert_cycles.end());
    out.delete_cycles.insert(out.delete_cycles.end(), t.delete_cycles.begin(),
                             t.delete_cycles.end());
  }
  out.deletes = cfg.total_ops - out.inserts - out.empties;
  out.held = queue->final_size();
  out.repeats = repeated_keys(std::move(keys));
  out.telemetry = queue->telemetry();
  slpq::fill_reclaim_zero(out.telemetry);
  return out;
}

std::uint64_t check_lib_pass(const harness::BenchmarkConfig& cfg,
                             const LibPass& pass,
                             std::vector<std::string>& notes) {
  std::uint64_t failed = 0;
  if (pass.empties) {
    failed += pass.empties;
    notes.push_back("CHECK FAILED lib_uniform: " + std::to_string(pass.empties) +
                    " delete_min calls found the queue empty");
  }
  failed += check_conservation("lib_uniform conservation",
                               cfg.initial_size + pass.inserts - pass.deletes,
                               pass.held, pass.repeats, notes);
  return failed;
}

Outcome run_lib_uniform(const RunOptions& opt) {
  const harness::BenchmarkConfig cfg = lib_config(opt.seed);
  Outcome out;
  std::vector<double> setup, construct_s, prefill_s;
  std::size_t ins_samples = 0, del_samples = 0;

  auto pass = [&](bool traced) {
    LibPass p = run_lib_pass(cfg, traced);
    out.attempted += cfg.total_ops;
    const std::uint64_t bad = check_lib_pass(cfg, p, out.notes);
    out.failed += bad;
    if (bad) out.correct = false;
    construct_s.push_back(p.construct_s);
    prefill_s.push_back(p.prefill_s);
    setup.push_back(p.construct_s + p.prefill_s);
    return p;
  };
  auto rate = [&](const LibPass& p) {
    return static_cast<double>(cfg.total_ops) * 1e9 /
           static_cast<double>(p.wall_ns);
  };

  if (!opt.trace) {
    Series series;
    repeat_passes(opt.seconds, 3, [&] {
      LibPass p = pass(false);
      ins_samples = p.insert_cycles.size();
      del_samples = p.delete_cycles.size();
      series.add("setup_s", "s", setup.back());
      series.add("ops_per_s", "1/s", rate(p));
      add_latencies(series, std::move(p.insert_cycles), std::move(p.delete_cycles));
    });
    out.notes.push_back("lib_uniform: per pass " + std::to_string(ins_samples) +
                        " insert and " + std::to_string(del_samples) +
                        " delete latency samples");
    series.report(out);
    out.metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
  }

  MetricSet layers = zero_layer_metrics();
  std::vector<double> overhead, ins_mean, ins_p99, dmin_mean, dmin_p99;
  LibPass last;
  repeat_passes(opt.seconds, 1, [&] {
    const LibPass plain = pass(false);
    LibPass traced = pass(true);
    overhead.push_back(100.0 * (1.0 - rate(traced) / rate(plain)));
    std::vector<std::uint64_t> ins_ns, dmin_ns;
    for (const SpanLog& log : traced.logs) {
      append_durations(log.spans(), SpanName::kBackendInsert, ins_ns);
      append_durations(log.spans(), SpanName::kBackendDeleteMin, dmin_ns);
    }
    ins_mean.push_back(mean(ins_ns));
    ins_p99.push_back(quantile(std::move(ins_ns), 0.99));
    dmin_mean.push_back(mean(dmin_ns));
    dmin_p99.push_back(quantile(std::move(dmin_ns), 0.99));
    last = std::move(traced);
  });
  OpCounts counts;
  counts.ops = static_cast<double>(cfg.total_ops);
  counts.inserts = static_cast<double>(last.inserts);
  counts.deletes = static_cast<double>(last.deletes);
  derive_structure(layers, "backend", last.telemetry, counts);
  derive_reclaim(layers, last.telemetry, counts);
  set_layer(layers, "backend.calls_per_op", 1.0);
  set_layer(layers, "backend.insert_ns_mean", median(ins_mean));
  set_layer(layers, "backend.insert_ns_p99", median(ins_p99));
  set_layer(layers, "backend.delete_min_ns_mean", median(dmin_mean));
  set_layer(layers, "backend.delete_min_ns_p99", median(dmin_p99));
  set_layer(layers, "setup.construct_s", median(construct_s));
  set_layer(layers, "setup.prefill_s", median(prefill_s));
  std::uint64_t spans = 0;
  for (const SpanLog& log : last.logs) spans += log.spans().size();
  set_layer(layers, "trace.spans", static_cast<double>(spans));
  set_layer(layers, "trace.overhead_pct", median(overhead));
  out.metrics = std::move(layers);
  out.notes.push_back("lib_uniform traced: " + std::to_string(overhead.size()) +
                      " rounds of {untraced, traced}");
  if (!opt.spans_dir.empty()) {
    std::vector<const SpanLog*> logs;
    for (const SpanLog& log : last.logs) logs.push_back(&log);
    write_spans(opt.spans_dir + "/lib_uniform.spans", logs);
  }
  return out;
}

}  // namespace

// ---- sim_fig4 ----------------------------------------------------------------

harness::BenchmarkConfig sim_config(std::uint64_t seed) {
  harness::BenchmarkConfig cfg;
  cfg.structure = "skip";
  cfg.flavor = harness::Flavor::Sim;
  cfg.workload = harness::WorkloadKind::Mixed;
  cfg.processors = 128;
  cfg.initial_size = 1000;
  cfg.total_ops = 70000;
  cfg.insert_ratio = 0.5;
  cfg.work_cycles = 100;
  cfg.seed = seed;
  return cfg;
}

namespace {

/// A simulated machine ready to run: everything before Engine::run.
struct SimRig {
  struct Tally {
    std::vector<std::uint64_t> insert_cycles, delete_cycles;
    std::vector<Key> keys;
    std::uint64_t empties = 0;
  };

  explicit SimRig(const psim::MachineConfig& machine) : eng(machine) {}

  psim::Engine eng;
  std::unique_ptr<harness::QueueHandle> queue;
  std::vector<Key> keys;  ///< seeded keys
  std::vector<Tally> tallies;
  std::unique_ptr<psim::Barrier> start;
  double construct_s = 0, prefill_s = 0;
};

/// The harness sim driver's set-up (harness/sim_driver.cpp), with worker
/// bodies that keep every op's simulated latency.
std::unique_ptr<SimRig> build_sim(const harness::BenchmarkConfig& cfg) {
  const harness::Backend& backend =
      harness::BackendRegistry::instance().require(harness::Flavor::Sim,
                                                   cfg.structure);
  const bool gc_proc = backend.has(harness::Backend::kGcDaemon) && cfg.use_gc;
  psim::MachineConfig machine = cfg.machine;
  machine.processors = cfg.processors + (gc_proc ? 1 : 0);
  machine.seed = cfg.seed;

  const std::uint64_t t0 = now_ns();
  auto rig = std::make_unique<SimRig>(machine);
  rig->queue = backend.make(harness::BackendInit{cfg, &rig->eng});
  rig->queue->register_daemons();
  const std::uint64_t t1 = now_ns();
  rig->keys.reserve(cfg.initial_size + cfg.total_ops);
  SeedRecorder recorder(*rig->queue, rig->keys);
  harness::spec::prefill(recorder, cfg);
  const std::uint64_t t2 = now_ns();

  rig->tallies.resize(static_cast<std::size_t>(cfg.processors));
  rig->start = std::make_unique<psim::Barrier>(rig->eng, cfg.processors);
  SimRig* r = rig.get();
  for (int p = 0; p < cfg.processors; ++p) {
    rig->eng.add_processor([r, &cfg, p](psim::Cpu& cpu) {
      SimRig::Tally& t = r->tallies[static_cast<std::size_t>(p)];
      harness::OpContext ctx;
      ctx.cpu = &cpu;
      ctx.thread = p;
      r->start->arrive_and_wait(cpu);
      // harness::spec::worker_loop's mixed scenario, latencies kept.
      auto rng = harness::spec::worker_rng(cfg, p);
      const std::uint64_t ops = harness::spec::quota(cfg, p);
      for (std::uint64_t i = 0; i < ops; ++i) {
        cpu.advance(cfg.work_cycles);
        if (rng.bernoulli(cfg.insert_ratio)) {
          const Key key =
              static_cast<Key>(rng.below(harness::spec::kKeySpace)) + 1;
          const std::uint64_t a = cpu.now();
          r->queue->insert(ctx, key, static_cast<harness::Value>(i));
          t.insert_cycles.push_back(cpu.now() - a);
          t.keys.push_back(key);
        } else {
          const std::uint64_t a = cpu.now();
          const std::optional<Key> got = r->queue->delete_min(ctx);
          t.delete_cycles.push_back(cpu.now() - a);
          if (!got) ++t.empties;
        }
      }
    });
  }
  const std::uint64_t t3 = now_ns();
  rig->construct_s = seconds_between(t0, t1) + seconds_between(t2, t3);
  rig->prefill_s = seconds_between(t1, t2);
  return rig;
}

}  // namespace

SimPass run_sim_pass(const harness::BenchmarkConfig& cfg) {
  SimPass out;
  const std::unique_ptr<SimRig> rig = build_sim(cfg);
  const std::uint64_t t0 = now_ns();
  rig->eng.run();
  const std::uint64_t t1 = now_ns();
  rig->queue->quiesce();
  out.construct_s = rig->construct_s;
  out.prefill_s = rig->prefill_s;
  out.host_s = seconds_between(t0, t1);

  std::vector<Key>& keys = rig->keys;
  for (SimRig::Tally& t : rig->tallies) {
    out.inserts += t.keys.size();
    out.empties += t.empties;
    keys.insert(keys.end(), t.keys.begin(), t.keys.end());
    out.insert_cycles.insert(out.insert_cycles.end(), t.insert_cycles.begin(),
                             t.insert_cycles.end());
    out.delete_cycles.insert(out.delete_cycles.end(), t.delete_cycles.begin(),
                             t.delete_cycles.end());
  }
  out.deletes = cfg.total_ops - out.inserts - out.empties;
  out.held = rig->queue->final_size();
  out.repeats = repeated_keys(std::move(keys));

  out.telemetry = rig->queue->telemetry();
  const psim::SimStats& st = rig->eng.stats();
  slpq::TelemetrySnapshot& snap = out.telemetry;
  snap.set("sim.cache_hits", st.cache_hits);
  snap.set("sim.miss_cold", st.miss_cold);
  snap.set("sim.miss_shared", st.miss_shared);
  snap.set("sim.miss_remote_dirty", st.miss_remote_dirty);
  snap.set("sim.miss_upgrade", st.miss_upgrade);
  snap.set("sim.invalidations_sent", st.invalidations_sent);
  snap.set("sim.dir_queue_cycles", st.dir_queue_cycles);
  snap.set("sim.lock_acquires", st.lock_acquires);
  snap.set("sim.lock_contended", st.lock_contended);
  snap.set("sim.fiber_switches", st.fiber_switches);
  snap.set("sim.runahead_elided", st.runahead_elided);
  snap.set("sim.host_wall_ns", st.host_wall_ns);
  return out;
}

namespace {

constexpr int kExtraSimSetups = 49;

Outcome run_sim_fig4(const RunOptions& opt) {
  const harness::BenchmarkConfig cfg = sim_config(opt.seed);
  Outcome out;
  Series series;
  std::vector<double> construct_s, prefill_s;
  std::optional<std::vector<std::uint64_t>> first;  // every op's cycles
  SimPass last;

  repeat_passes(opt.seconds, opt.trace ? 1 : 3, [&] {
    SimPass p = run_sim_pass(cfg);
    out.attempted += cfg.total_ops;
    if (p.empties) {
      out.failed += p.empties;
      out.notes.push_back("CHECK FAILED sim_fig4: " + std::to_string(p.empties) +
                          " delete_min calls found the queue empty");
    }
    const std::uint64_t lost = check_conservation(
        "sim_fig4 conservation", cfg.initial_size + p.inserts - p.deletes,
        p.held, p.repeats, out.notes);
    out.failed += lost;
    std::vector<std::uint64_t> cycles = p.insert_cycles;
    cycles.insert(cycles.end(), p.delete_cycles.begin(), p.delete_cycles.end());
    if (!first) first = cycles;
    if (cycles != *first) {
      out.correct = false;
      out.notes.push_back("CHECK FAILED sim_fig4 determinism: pass gave " +
                          std::to_string(op_mean(p.insert_cycles, p.delete_cycles)) +
                          " cycles/op, its ops' cycles differ from the first pass");
    }
    if (p.empties || lost) out.correct = false;
    construct_s.push_back(p.construct_s);
    prefill_s.push_back(p.prefill_s);
    series.add("setup_s", "s", p.construct_s + p.prefill_s);
    // Set-up takes milliseconds; time a few more to steady its median.
    for (int i = 0; i < kExtraSimSetups; ++i) {
      const std::unique_ptr<SimRig> rig = build_sim(cfg);
      construct_s.push_back(rig->construct_s);
      prefill_s.push_back(rig->prefill_s);
      series.add("setup_s", "s", rig->construct_s + rig->prefill_s);
    }
    // The simulator's user waits for Engine::run: simulated ops per host
    // second is its speed.
    series.add("ops_per_s", "1/s", static_cast<double>(cfg.total_ops) / p.host_s);
    add_latencies(series, p.insert_cycles, p.delete_cycles);
    last = std::move(p);
  });

  if (!opt.trace) {
    out.notes.push_back("sim_fig4: per pass " +
                        std::to_string(last.insert_cycles.size()) +
                        " insert and " +
                        std::to_string(last.delete_cycles.size()) +
                        " delete latency samples");
    series.report(out);
    out.metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
  }

  // The simulator's counters are always on, so the traced run is the
  // measured run: no spans, no overhead.
  MetricSet layers = zero_layer_metrics();
  OpCounts counts;
  counts.ops = static_cast<double>(cfg.total_ops);
  counts.inserts = static_cast<double>(last.inserts);
  counts.deletes = static_cast<double>(last.deletes);
  derive_sim(layers, last.telemetry, counts);
  derive_structure(layers, "simq", last.telemetry, counts);
  set_layer(layers, "simq.insert_cycles_mean", mean(last.insert_cycles));
  set_layer(layers, "simq.delete_cycles_mean", mean(last.delete_cycles));
  set_layer(layers, "simq.gc_deferred_end",
            static_cast<double>(last.telemetry.get("gc_deferred")));
  set_layer(layers, "setup.construct_s", median(construct_s));
  set_layer(layers, "setup.prefill_s", median(prefill_s));
  out.metrics = std::move(layers);
  out.notes.push_back("sim_fig4 traced: " +
                      std::to_string(construct_s.size() / (1 + kExtraSimSetups)) +
                      " passes; counters are exact, no spans recorded");
  return out;
}

}  // namespace

Outcome run_workload(const std::string& name, const RunOptions& opt) {
  if (name == "pqd_hold") return run_pqd_hold(opt);
  if (name == "lib_uniform") return run_lib_uniform(opt);
  if (name == "sim_fig4") return run_sim_fig4(opt);
  throw std::invalid_argument("unknown workload " + name);
}

}  // namespace perfbench
