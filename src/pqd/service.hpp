// pqd::Service — the sharded priority-queue service core.
//
// N independent shards, each wrapping one registry-backed QueueHandle
// (a sequential binary heap by default, or any native structure: exact
// skiplists, relaxed MultiQueues, ...) behind a single-byte spinlock.
// Every shard operation runs under that lock. A shard keeps its smallest
// items — up to `batch` of them, sorted — in a window in front of the
// backend:
//
//   * insert side — sessions batch enqueues (transport.hpp) and the
//     service applies each batch under one lock hold; an item smaller
//     than the window's largest goes straight into the window;
//   * delete side — a delete pops the window head under the lock and
//     refills the window from the backend when it empties.
//
// Each shard publishes its window head after every operation, so at
// every unlock the published key is the shard's minimum (exactly so over
// an exact backend). The front-end delete_min is min-of-shards: read
// each shard's published head, lock the best shard and pop its head. A
// concurrent op can change the heads between the read and the lock, so
// across shards the order is relaxed by the in-flight ops and by inserts
// still pending in sessions (docs/SERVICE.md gives the bound).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness/backend.hpp"
#include "harness/workload.hpp"
#include "pqd/request.hpp"
#include "slpq/detail/cache_line.hpp"
#include "slpq/detail/histogram.hpp"
#include "slpq/detail/spinlock.hpp"
#include "slpq/telemetry.hpp"

namespace pqd {

struct ServiceConfig {
  /// Native BackendRegistry name (--pqd-backend). The shard lock already
  /// serializes every backend call, so the default is a sequential heap.
  std::string backend = "globallock";
  int shards = 4;  ///< independent shard count (--pqd-shards)
  int batch = 8;   ///< session insert batch size AND shard window size
                   ///< (--pqd-batch)
  /// Backend knobs for the per-shard queues (max_level, reclaim, mq_*,
  /// total_ops/initial_size for capacity sizing of bounded backends).
  /// processors is overridden to 1: all shard-queue access happens under
  /// the shard lock, so each backend sees a single logical thread.
  harness::BenchmarkConfig queue;
};

class Service {
 public:
  explicit Service(const ServiceConfig& cfg);
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  const ServiceConfig& config() const noexcept { return cfg_; }
  int shards() const noexcept { return static_cast<int>(shards_.size()); }

  /// Host-side pre-population (round-robin over shards); call before any
  /// client traffic, then prime() once to fill the shard windows.
  void seed(Key key, Value value);
  void prime();

  /// Applies one session's insert batch to a single shard, chosen by
  /// `tag` (sessions advance the tag per batch to rotate shards). One
  /// lock acquisition for the whole batch. Keys must be < kMaxUserKey
  /// (throws std::invalid_argument otherwise).
  void insert_batch(const Item* items, std::size_t n, std::uint64_t tag);

  /// Min-of-shards pop: read every shard's published window head, lock
  /// the best shard and pop its head. nullopt iff every shard published
  /// empty.
  std::optional<Item> delete_min();

  /// Items across windows and shard backlogs. Quiescent-state accurate;
  /// a snapshot under concurrent traffic.
  std::size_t size() const;

  /// pqd.* service counters plus the aggregated shard-backend telemetry
  /// (additive keys summed; .mean/.p50/.p90/.p99/.max keys max-merged —
  /// see docs/TELEMETRY.md).
  slpq::TelemetrySnapshot telemetry() const;

 private:
  struct Shard;

  Shard& shard_for(std::uint64_t tag) noexcept;

  ServiceConfig cfg_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> seed_rr_{0};
};

}  // namespace pqd
