// Stress tests for the pqd batching path (labelled `stress`, so the tsan
// preset's `ctest -L stress` runs them under TSan): many clients hammer
// sessions over the locked shard windows and insert batches, then
// conservation and uniqueness are checked exactly.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "pqd/service.hpp"
#include "pqd/transport.hpp"

namespace {

using pqd::Item;
using pqd::Key;
using pqd::Value;

void hammer(const std::string& backend, int shards, int batch, int clients,
            int rounds) {
  pqd::ServiceConfig cfg;
  cfg.backend = backend;
  cfg.shards = shards;
  cfg.batch = batch;
  cfg.queue.initial_size = 1024;
  cfg.queue.total_ops = static_cast<std::uint64_t>(clients) * rounds * 2 +
                        4096;
  pqd::Service svc(cfg);
  // Warm set so delete-heavy phases have something to fight over.
  for (Key k = 0; k < 512; ++k)
    svc.seed(k * 4 + 3, static_cast<Value>(k * 4 + 3) ^ 0x5555);
  svc.prime();

  pqd::InProcTransport transport(svc, static_cast<std::size_t>(clients));
  std::atomic<std::uint64_t> pushed{512}, popped{0};
  std::atomic<bool> value_mismatch{false};
  std::vector<std::vector<Key>> taken(static_cast<std::size_t>(clients));

  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      pqd::Session session(transport);
      std::uint64_t local_pushed = 0;
      for (int i = 0; i < rounds; ++i) {
        // 2 pushes : 1 pop keeps the queue growing but contended.
        for (int j = 0; j < 2; ++j) {
          const Key key =
              (static_cast<Key>(c) * rounds * 2 + i * 2 + j) * 4 + 1;
          session.enqueue(key, static_cast<Value>(key) ^ 0x5555);
          ++local_pushed;
        }
        if (const std::optional<Item> got = session.dequeue()) {
          if (got->second != (static_cast<Value>(got->first) ^ 0x5555))
            value_mismatch.store(true);
          taken[static_cast<std::size_t>(c)].push_back(got->first);
          popped.fetch_add(1);
        }
      }
      pushed.fetch_add(local_pushed);
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_FALSE(value_mismatch.load()) << backend;
  EXPECT_EQ(svc.size() + popped.load(), pushed.load()) << backend;
  std::set<Key> seen;
  for (const auto& v : taken)
    for (Key k : v)
      EXPECT_TRUE(seen.insert(k).second) << backend << " dup key " << k;
}

TEST(PqdStress, ExactBackendManyClients) {
  for (const std::string& backend : {pqd::ServiceConfig{}.backend,
                                     std::string("skip")})
    hammer(backend, 4, 8, 8, 2000);
}

TEST(PqdStress, RelaxedBackendManyClients) {
  hammer("multiqueue", 4, 8, 8, 2000);
}

TEST(PqdStress, TinyWindowMaximizesRefillRaces) {
  // batch=1 degenerates every window to a single slot: refills and
  // window evictions run constantly, and every published head changes
  // on almost every op.
  hammer("skip", 2, 1, 8, 1000);
}

}  // namespace
