// pqd::Service tests: configuration validation, single-threaded drain
// exactness, value fidelity, batching telemetry, and the min-of-shards
// front end across backends.
#include "pqd/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace {

using pqd::Item;
using pqd::Key;
using pqd::Service;
using pqd::ServiceConfig;
using pqd::Value;

ServiceConfig make_config(const std::string& backend, int shards,
                          int batch) {
  ServiceConfig cfg;
  cfg.backend = backend;
  cfg.shards = shards;
  cfg.batch = batch;
  cfg.queue.initial_size = 256;
  cfg.queue.total_ops = 8192;
  return cfg;
}

TEST(PqdService, RejectsBadGeometry) {
  EXPECT_THROW(Service(make_config("skip", 0, 8)), std::invalid_argument);
  EXPECT_THROW(Service(make_config("skip", 4, 0)), std::invalid_argument);
  EXPECT_THROW(Service(make_config("no-such-backend", 4, 8)),
               std::invalid_argument);
}

TEST(PqdService, RejectsOutOfRangeKeys) {
  Service svc(make_config("skip", 2, 4));
  EXPECT_THROW(svc.seed(pqd::kEmptyKey, 0), std::invalid_argument);
  const Item bad{pqd::kMaxUserKey, 1};
  EXPECT_THROW(svc.insert_batch(&bad, 1, 0), std::invalid_argument);
}

TEST(PqdService, EmptyServiceReportsEmpty) {
  Service svc(make_config("skip", 4, 8));
  svc.prime();
  EXPECT_EQ(svc.size(), 0u);
  EXPECT_FALSE(svc.delete_min().has_value());
}

// Single-threaded, each shard's published head is that shard's true
// minimum at every unlock (the window holds the shard's smallest items,
// sorted, and smaller inserts merge into it), so the min-of-shards front
// end must produce a globally sorted drain — for any geometry and for
// exact backends (the default and `skip`), including when inserts after
// prime() undercut every window.
TEST(PqdService, SingleThreadedDrainIsSorted) {
  for (const std::string& backend : {ServiceConfig{}.backend,
                                     std::string("skip")}) {
    for (int shards : {1, 3, 4}) {
      for (int batch : {1, 4, 8}) {
        for (bool late_small_inserts : {false, true}) {
          Service svc(make_config(backend, shards, batch));
          // Seed a scrambled key set (all >= 100).
          std::vector<Key> keys;
          for (Key k = 0; k < 200; ++k)
            keys.push_back(100 + (k * 7919) % 1000 * 4 + (k & 3));
          for (Key k : keys) svc.seed(k, static_cast<Value>(k) + 1);
          svc.prime();
          if (late_small_inserts) {
            // Keys below every primed window, in small batches that rotate
            // over the shards.
            std::vector<Item> small;
            for (Key k = 0; k < 50; ++k) {
              const Key key = (k * 37) % 50 * 2;
              small.emplace_back(key, static_cast<Value>(key) + 1);
              keys.push_back(key);
            }
            for (std::size_t i = 0; i < small.size(); i += 3)
              svc.insert_batch(small.data() + i,
                               std::min<std::size_t>(3, small.size() - i), i);
          }
          EXPECT_EQ(svc.size(), keys.size());

          std::vector<Key> drained;
          while (const std::optional<Item> got = svc.delete_min()) {
            EXPECT_EQ(got->second, static_cast<Value>(got->first) + 1);
            drained.push_back(got->first);
          }

          const std::string where =
              backend + " shards=" + std::to_string(shards) +
              " batch=" + std::to_string(batch) +
              " late=" + std::to_string(late_small_inserts);
          ASSERT_EQ(drained.size(), keys.size()) << where;
          EXPECT_TRUE(std::is_sorted(drained.begin(), drained.end())) << where;
          std::sort(keys.begin(), keys.end());
          EXPECT_EQ(drained, keys) << where;
          EXPECT_EQ(svc.size(), 0u);
        }
      }
    }
  }
}

// Values must come back attached to their own keys (the shard-side value
// table reunites them after the backend, which only reports keys). Keys
// are unique here by design; DuplicateKeysFollowTheBackend covers equal
// keys.
TEST(PqdService, ValuesStayWithTheirKeys) {
  Service svc(make_config("skip", 4, 4));
  std::map<Key, Value> expect;
  std::vector<Item> batch;
  for (Key k = 0; k < 120; ++k) {
    const Key key = k * 31 + (k % 7);  // unique, scrambled spacing
    const Value v = static_cast<Value>(k) * 1000 + 7;
    batch.emplace_back(key, v);
    expect[key] = v;
  }
  for (std::size_t i = 0; i < batch.size(); i += 8)
    svc.insert_batch(batch.data() + i, std::min<std::size_t>(8, batch.size() - i),
                     i);
  std::map<Key, Value> got;
  while (const std::optional<Item> item = svc.delete_min())
    got[item->first] = item->second;
  EXPECT_EQ(got, expect);
}

// Equal keys are the backend's business. `globallock` keeps each copy as
// its own item; `skip` and `relaxed` merge an insert into an equal key
// already in the backend and keep the newest value, so the shard's
// value table must follow the merge and not count a second item. Here
// (10,1) sits in the backend when (10,2) arrives: with one shard and a
// one-item window, (5,100) evicts it from the window.
TEST(PqdService, DuplicateKeysFollowTheBackend) {
  const auto insert_each = [](Service& svc, const std::vector<Item>& items) {
    for (const Item& item : items) svc.insert_batch(&item, 1, 0);
  };
  const auto drain = [](Service& svc) {
    std::vector<Item> out;
    while (const std::optional<Item> got = svc.delete_min())
      out.push_back(*got);
    return out;
  };
  const std::vector<Item> items{{10, 1}, {5, 100}, {10, 2}};

  for (const char* merging : {"skip", "relaxed"}) {
    Service svc(make_config(merging, 1, 1));
    insert_each(svc, items);
    EXPECT_EQ(svc.size(), 2u) << merging;
    EXPECT_EQ(drain(svc), (std::vector<Item>{{5, 100}, {10, 2}})) << merging;
    EXPECT_EQ(svc.size(), 0u) << merging;
    insert_each(svc, {{10, 3}});
    EXPECT_EQ(drain(svc), (std::vector<Item>{{10, 3}})) << merging;
  }

  Service svc(make_config("globallock", 1, 1));
  insert_each(svc, items);
  EXPECT_EQ(svc.size(), 3u);
  std::vector<Item> got = drain(svc);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], (Item{5, 100}));
  // The order among equal keys is unspecified.
  std::sort(got.begin() + 1, got.end());
  EXPECT_EQ(got[1], (Item{10, 1}));
  EXPECT_EQ(got[2], (Item{10, 2}));
  EXPECT_EQ(svc.size(), 0u);
}

TEST(PqdService, InsertBatchAmortizesAcquisitions) {
  // One insert_batch call of n items must cost one shard acquisition.
  Service svc(make_config("skip", 2, 8));
  std::vector<Item> batch;
  for (Key k = 0; k < 8; ++k) batch.emplace_back(k, 0);
  const std::uint64_t before =
      svc.telemetry().get("pqd.shard_acquisitions");
  svc.insert_batch(batch.data(), batch.size(), 0);
  const slpq::TelemetrySnapshot snap = svc.telemetry();
  EXPECT_EQ(snap.get("pqd.shard_acquisitions"), before + 1);
  EXPECT_EQ(snap.get("pqd.insert_batches"), 1u);
  EXPECT_EQ(snap.get("pqd.batch_occupancy.max"), 8u);
}

TEST(PqdService, TelemetryHasServiceKeysAndAggregatedBackend) {
  Service svc(make_config("multiqueue", 4, 8));
  for (Key k = 0; k < 100; ++k) svc.seed(k, 0);
  svc.prime();
  for (int i = 0; i < 50; ++i) (void)svc.delete_min();
  const slpq::TelemetrySnapshot snap = svc.telemetry();
  for (const char* key :
       {"pqd.shards", "pqd.batch", "pqd.shard_acquisitions",
        "pqd.insert_batches", "pqd.window_refills",
        "pqd.batch_occupancy.mean", "pqd.batch_occupancy.p50",
        "pqd.batch_occupancy.p90", "pqd.batch_occupancy.max",
        "pqd.shard_imbalance"})
    EXPECT_NE(snap.find(key), nullptr) << key;
  EXPECT_EQ(snap.get("pqd.shards"), 4u);
  EXPECT_EQ(snap.get("pqd.batch"), 8u);
  // Shard-backend counters ride along (core counter set at minimum),
  // and every run carries the reclaim.* block.
  EXPECT_NE(snap.find("claim_wins"), nullptr);
  EXPECT_NE(snap.find("reclaim.pending"), nullptr);
}

// The service is backend-agnostic: a relaxed backend underneath still
// conserves items through windows and batches.
TEST(PqdService, RelaxedBackendConservesItems) {
  Service svc(make_config("multiqueue", 4, 8));
  for (Key k = 0; k < 300; ++k) svc.seed(k * 2, static_cast<Value>(k));
  svc.prime();
  std::size_t popped = 0;
  while (svc.delete_min()) ++popped;
  EXPECT_EQ(popped, 300u);
  EXPECT_EQ(svc.size(), 0u);
}

}  // namespace
