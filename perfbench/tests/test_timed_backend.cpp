// The benchmark's drivers do the same work as the code they measure: the
// backend timing wrapper forwards calls unchanged, and the sim pass is the
// harness sim driver with its latencies kept.
#include <gtest/gtest.h>

#include <algorithm>

#include "harness/backend.hpp"
#include "harness/workload.hpp"
#include "timed_backend.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

harness::Trace small_hold_trace() {
  return harness::Trace::record_hold_model(20000, 1000, 0.5, 7);
}

std::vector<pqd::Key> popped(const PqdPass& pass) {
  std::vector<pqd::Key> keys;
  for (const auto& client : pass.ops)
    for (const PqdOp& op : client)
      if (!op.insert) keys.push_back(op.key);
  return keys;
}

TEST(TimedBackend, RegistersOnceUnderItsOwnName) {
  const std::string& name = timed_backend_name();
  EXPECT_EQ(&name, &timed_backend_name());
  EXPECT_NE(harness::BackendRegistry::instance().find(harness::Flavor::Native,
                                                      name),
            nullptr);
}

TEST(TimedBackend, SingleClientPassPopsTheSameKeys) {
  const harness::Trace trace = small_hold_trace();
  pqd::ServiceConfig plain_cfg = hold_service_config(trace, 7);
  pqd::ServiceConfig timed_cfg = plain_cfg;
  timed_cfg.backend = timed_backend_name();

  const PqdPass plain = run_pqd_pass(trace, plain_cfg, 1, PqdMode::kSessions, false);
  const PqdPass timed = run_pqd_pass(trace, timed_cfg, 1, PqdMode::kSessions, true);
  EXPECT_EQ(popped(plain), popped(timed));
  EXPECT_EQ(plain.held, timed.held);

  std::vector<std::string> notes;
  EXPECT_EQ(check_pqd_pass(trace, plain, notes), 0u);
  EXPECT_EQ(check_pqd_pass(trace, timed, notes), 0u);
  EXPECT_TRUE(notes.empty());

  // Every backend span hangs off a client span of the same op.
  ASSERT_EQ(timed.logs.size(), 1u);
  const std::vector<Span>& spans = timed.logs[0].spans();
  std::size_t backend = 0;
  for (const Span& s : spans) {
    if (s.name != SpanName::kBackendInsert && s.name != SpanName::kBackendDeleteMin)
      continue;
    ++backend;
    if (s.parent == kNoParent) continue;  // the closing flush
    const Span& parent = spans[static_cast<std::size_t>(s.parent)];
    EXPECT_TRUE(parent.name == SpanName::kClientInsert ||
                parent.name == SpanName::kClientDeleteMin);
    EXPECT_EQ(parent.op, s.op);
    EXPECT_LE(parent.start, s.start);
    EXPECT_GE(parent.end, s.end);
  }
  EXPECT_GT(backend, trace.ops.size() / 2);
}

TEST(TimedBackend, DirectPassKeepsTheSessionsBatchGrouping) {
  const harness::Trace trace = small_hold_trace();
  pqd::ServiceConfig cfg = hold_service_config(trace, 7);
  const PqdPass sessions = run_pqd_pass(trace, cfg, 1, PqdMode::kSessions, false);
  const PqdPass direct = run_pqd_pass(trace, cfg, 1, PqdMode::kDirect, false);
  EXPECT_EQ(popped(sessions), popped(direct));
  EXPECT_EQ(sessions.telemetry.get("pqd.shard_acquisitions"),
            direct.telemetry.get("pqd.shard_acquisitions"));
  EXPECT_EQ(sessions.telemetry.get("pqd.insert_batches"),
            direct.telemetry.get("pqd.insert_batches"));
}

TEST(RankErrors, SingleClientExactServiceErrorIsSmall) {
  const harness::Trace trace = small_hold_trace();
  const PqdPass pass = run_pqd_pass(trace, hold_service_config(trace, 7), 1,
                                    PqdMode::kSessions, false);
  const std::vector<std::uint64_t> errors = rank_errors(trace, pass);
  EXPECT_EQ(errors.size(), trace.deletes());
  // One client: only its own unflushed batch (< batch items) and the
  // other shards' windows can hold smaller keys.
  const pqd::ServiceConfig cfg;
  const auto bound = static_cast<std::uint64_t>(cfg.shards * cfg.batch + cfg.batch);
  EXPECT_LE(*std::max_element(errors.begin(), errors.end()), bound);
  EXPECT_GT(mean(errors), 0.0);
}

TEST(SimPass, MatchesTheHarnessSimDriver) {
  harness::BenchmarkConfig cfg = sim_config(3);
  cfg.processors = 16;
  cfg.total_ops = 4000;
  const SimPass mine = run_sim_pass(cfg);
  const harness::BenchmarkResult ref = harness::run_sim_benchmark(cfg);
  EXPECT_EQ(mine.inserts, ref.inserts);
  EXPECT_EQ(mine.deletes, ref.deletes);
  EXPECT_EQ(mine.held, ref.final_size);
  std::uint64_t sum = 0;
  for (std::uint64_t c : mine.insert_cycles) sum += c;
  for (std::uint64_t c : mine.delete_cycles) sum += c;
  EXPECT_EQ(sum, ref.insert_latency.sum() + ref.delete_latency.sum());
  EXPECT_EQ(mine.telemetry.get("sim.cache_hits"), ref.machine_stats.cache_hits);
}

TEST(Statistics, QuantileAndMedian) {
  EXPECT_EQ(quantile({5, 1, 3, 2, 4}, 0.5), 3.0);
  EXPECT_EQ(quantile({5, 1, 3, 2, 4}, 0.99), 4.0);  // floor(0.99 * 4) = 3
  // Ties: k = 2 is the 2nd of the two 7s in {1, 7, 7, 9, 9}.
  EXPECT_DOUBLE_EQ(quantile({9, 7, 1, 9, 7}, 0.5), 7.0 - 0.5 + 1.5 / 2.0);
  EXPECT_DOUBLE_EQ(quantile({7, 7, 7, 7}, 0.0), 7.0 - 0.5 + 0.5 / 4.0);
  EXPECT_EQ(quantile({}, 0.5), 0.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0, 10.0}), 2.5);
  EXPECT_EQ(mean({1, 2, 3, 4}), 2.5);
}

}  // namespace
}  // namespace perfbench
