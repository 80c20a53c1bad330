// Transport/session tests: in-process batching semantics, per-session
// ordering, one-client exactness against a resident-set oracle,
// conservation under concurrent clients, and the UDS stub.
#include "pqd/transport.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "harness/trace.hpp"
#include "harness/workload_spec.hpp"

namespace {

using pqd::InProcTransport;
using pqd::Item;
using pqd::Key;
using pqd::Service;
using pqd::ServiceConfig;
using pqd::Session;
using pqd::UdsTransport;
using pqd::Value;

ServiceConfig make_config(int shards, int batch,
                          const std::string& backend = "skip") {
  ServiceConfig cfg;
  cfg.backend = backend;
  cfg.shards = shards;
  cfg.batch = batch;
  cfg.queue.initial_size = 256;
  cfg.queue.total_ops = 1 << 16;
  return cfg;
}

TEST(InProc, EnqueueIsDeferredUntilBatchBoundary) {
  Service svc(make_config(2, 4));
  InProcTransport transport(svc, 4);
  Session session(transport);
  // Three enqueues: below the batch threshold, nothing applied yet.
  for (Key k = 0; k < 3; ++k) session.enqueue(k, 0);
  EXPECT_EQ(svc.size(), 0u);
  // Fourth completes the batch: all four land under one acquisition.
  session.enqueue(3, 0);
  EXPECT_EQ(svc.size(), 4u);
  EXPECT_EQ(svc.telemetry().get("pqd.insert_batches"), 1u);
}

TEST(InProc, FlushForcesPartialBatch) {
  Service svc(make_config(2, 8));
  InProcTransport transport(svc, 4);
  Session session(transport);
  session.enqueue(1, 10);
  session.enqueue(2, 20);
  EXPECT_EQ(svc.size(), 0u);
  session.flush();
  EXPECT_EQ(svc.size(), 2u);
}

TEST(InProc, DequeueSeesOwnPendingInserts) {
  // Per-session ordering: a dequeue applies the session's pending
  // inserts first, so it can never miss its own prior enqueue.
  Service svc(make_config(4, 64));
  InProcTransport transport(svc, 4);
  Session session(transport);
  session.enqueue(5, 55);
  const std::optional<Item> got = session.dequeue();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->first, 5);
  EXPECT_EQ(got->second, 55u);
}

TEST(InProc, DequeueOnEmptyReturnsNullopt) {
  Service svc(make_config(2, 4));
  InProcTransport transport(svc, 4);
  Session session(transport);
  EXPECT_FALSE(session.dequeue().has_value());
}

TEST(InProc, CloseFlushesPending) {
  Service svc(make_config(2, 8));
  InProcTransport transport(svc, 4);
  {
    Session session(transport);
    session.enqueue(7, 0);
  }  // destructor closes the session
  EXPECT_EQ(svc.size(), 1u);
}

TEST(InProc, SessionTableRecyclesSlots) {
  Service svc(make_config(2, 4));
  InProcTransport transport(svc, 2);
  const int a = transport.open_session();
  const int b = transport.open_session();
  EXPECT_NE(a, b);
  EXPECT_THROW(transport.open_session(), std::runtime_error);
  transport.close_session(a);
  EXPECT_EQ(transport.open_session(), a);
}

// One client sees the service as an exact priority queue: its own pending
// inserts are applied before each dequeue and nothing else runs, so every
// dequeue of the committed sample trace must return the exact resident
// minimum, for any shard count and window size, over the default backend
// and `skip`.
TEST(InProc, OneClientReplayDequeuesExactMinimum) {
  const harness::Trace trace = harness::Trace::load(
      std::string(SLPQ_SOURCE_DIR) + "/bench/traces/sample_des.trace");
  for (const std::string& backend : {ServiceConfig{}.backend,
                                     std::string("skip")}) {
    for (int shards : {1, 4}) {
      for (int batch : {1, 8}) {
        Service svc(make_config(shards, batch, backend));
        std::multiset<Key> resident;
        for (const harness::TraceOp& w : trace.warm) {
          const Key key = harness::spec::scenario_key(w.tick, w.tie);
          svc.seed(key, static_cast<Value>(key) + 1);
          resident.insert(key);
        }
        svc.prime();
        InProcTransport transport(svc, 2);
        Session session(transport);
        std::size_t dequeues = 0, misses = 0;
        for (const harness::TraceOp& op : trace.ops) {
          if (op.kind == harness::TraceOp::Kind::kInsert) {
            const Key key = harness::spec::scenario_key(op.tick, op.tie);
            session.enqueue(key, static_cast<Value>(key) + 1);
            resident.insert(key);
            continue;
          }
          ++dequeues;
          const std::optional<Item> got = session.dequeue();
          if (resident.empty()) {
            EXPECT_FALSE(got.has_value());
            continue;
          }
          ASSERT_TRUE(got.has_value());
          EXPECT_EQ(got->second, static_cast<Value>(got->first) + 1);
          if (got->first != *resident.begin()) ++misses;
          const auto it = resident.find(got->first);
          ASSERT_NE(it, resident.end()) << "unknown key " << got->first;
          resident.erase(it);
        }
        EXPECT_EQ(misses, 0u) << backend << " shards=" << shards
                              << " batch=" << batch << ": " << misses << " of "
                              << dequeues << " dequeues missed the minimum";
      }
    }
  }
}

TEST(InProc, ConservationUnderConcurrentClients) {
  // C clients each push K items and pop D: afterwards the service must
  // hold exactly C*(K-D) items and every popped key must be one that was
  // pushed (shard windows must not duplicate or invent items).
  constexpr int kClients = 8;
  constexpr int kPush = 600;
  constexpr int kPop = 400;
  Service svc(make_config(4, 8));
  InProcTransport transport(svc, kClients);
  std::atomic<std::uint64_t> popped_total{0};
  std::atomic<bool> duplicate{false};
  std::vector<std::vector<Key>> popped(kClients);

  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Session session(transport);
      for (int i = 0; i < kPush; ++i) {
        const Key key = static_cast<Key>(c) * kPush + i;
        session.enqueue(key, static_cast<Value>(key) + 1);
      }
      for (int i = 0; i < kPop; ++i) {
        const std::optional<Item> got = session.dequeue();
        if (got) {
          popped[static_cast<std::size_t>(c)].push_back(got->first);
          if (got->second != static_cast<Value>(got->first) + 1)
            duplicate.store(true);  // value fidelity doubles as a check
          popped_total.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_FALSE(duplicate.load());
  // Interleaving can hit EMPTY transiently (a client may pop before
  // others push), so popped_total <= kClients * kPop; conservation is
  // exact regardless: held + popped == pushed.
  EXPECT_EQ(svc.size() + popped_total.load(),
            static_cast<std::size_t>(kClients) * kPush);
  // No key may be delivered twice across all clients.
  std::set<Key> seen;
  for (const auto& v : popped)
    for (Key k : v) EXPECT_TRUE(seen.insert(k).second) << "dup key " << k;
}

TEST(Uds, RoundTripAndConservation) {
  Service svc(make_config(2, 4));
  UdsTransport transport(svc, 4);
  Session session(transport);
  for (Key k = 10; k > 0; --k) session.enqueue(k, static_cast<Value>(k) * 2);
  session.flush();
  EXPECT_EQ(svc.size(), 10u);
  const std::optional<Item> got = session.dequeue();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->first, 1);
  EXPECT_EQ(got->second, 2u);
  EXPECT_EQ(svc.size(), 9u);
}

TEST(Uds, CloseLandsTrailingPartialBatch) {
  Service svc(make_config(2, 64));
  {
    UdsTransport transport(svc, 4);
    Session session(transport);
    session.enqueue(3, 0);
    session.enqueue(1, 0);
  }  // session close half-closes; server applies the partial batch
  EXPECT_EQ(svc.size(), 2u);
}

TEST(Uds, ConcurrentClients) {
  constexpr int kClients = 4;
  constexpr int kPush = 200;
  Service svc(make_config(4, 8));
  UdsTransport transport(svc, kClients);
  std::atomic<std::uint64_t> popped{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Session session(transport);
      for (int i = 0; i < kPush; ++i) {
        session.enqueue(static_cast<Key>(c) * kPush + i, 0);
        if (i % 3 == 0 && session.dequeue()) popped.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(svc.size() + popped.load(),
            static_cast<std::size_t>(kClients) * kPush);
}

}  // namespace
