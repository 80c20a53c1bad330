// pqd::Service implementation: locked shards, windows, min-of-shards.
#include "pqd/service.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

namespace pqd {

namespace {

/// Suffix set of non-additive telemetry keys (quantiles/means emitted by
/// e.g. MultiQueue's mq.shard_hops.*). Summing shard copies would invent
/// numbers; the max across shards is the honest aggregate.
bool is_stat_key(std::string_view name) {
  for (const char* suffix :
       {".mean", ".p50", ".p90", ".p99", ".max", ".min"}) {
    std::string_view s(suffix);
    if (name.size() >= s.size() &&
        name.substr(name.size() - s.size()) == s)
      return true;
  }
  return false;
}

bool key_less(const Item& a, const Item& b) noexcept {
  return a.first < b.first;
}

}  // namespace

struct Service::Shard {
  /// The window head (kEmptyKey when the shard holds nothing). Written
  /// only under `lock`, after every change to the window; the front end's
  /// min-of-shards peek reads only this word per shard. Relaxed accesses
  /// suffice: the peek only picks a shard, and the pop happens under its
  /// lock.
  alignas(slpq::detail::kCacheLineSize) std::atomic<Key> published_min{
      kEmptyKey};

  // ---- guarded by `lock` -------------------------------------------------
  alignas(slpq::detail::kCacheLineSize) mutable slpq::detail::TinySpinLock
      lock;
  harness::BenchmarkConfig qcfg;  ///< kept alive for the factory's reference
  std::unique_ptr<harness::QueueHandle> queue;
  /// Value side-table: QueueHandle::delete_min reports only the key, so
  /// the shard keeps one node per backend item, keyed by its priority, and
  /// reunites key and value when the item leaves the backend. Which value
  /// an equal key gets back is unspecified.
  std::unordered_multimap<Key, Value> values;
  std::size_t backlog = 0;  ///< items inside `queue`
  /// The shard's smallest items in ascending key order; the live ones are
  /// window[head..]. At most `capacity` are live. Over an exact backend,
  /// no backlog item is smaller than a live window item.
  std::vector<Item> window;
  std::size_t head = 0;
  std::size_t capacity = 0;
  std::uint64_t acquisitions = 0;
  std::uint64_t insert_batches = 0;
  std::uint64_t refills = 0;
  std::uint64_t empty_refills = 0;
  std::uint64_t served = 0;  ///< inserts + deletes applied (load balance)
  slpq::detail::LogHistogram occupancy;  ///< client ops per acquisition

  std::size_t live() const noexcept { return window.size() - head; }

  /// Stores an item in the backend (`seeding` before any client traffic).
  /// Backends that update an equal key in place (skip, relaxed) keep the
  /// newest value and no new item, so neither does the value table; the
  /// size check runs only when the key is already present.
  void to_backend(const Item& item, bool seeding = false) {
    const auto same = values.find(item.first);
    const std::size_t before = same == values.end() ? 0 : queue->final_size();
    harness::OpContext ctx;
    if (seeding)
      queue->seed(item.first, item.second);
    else
      queue->insert(ctx, item.first, item.second);
    if (same != values.end() && queue->final_size() == before) {
      same->second = item.second;
      return;
    }
    values.insert(item);
    ++backlog;
  }

  /// Places one inserted item: into the window when it holds the
  /// shard's whole content and has room, or when the item beats its
  /// largest live key (which then goes back to the backend if the window
  /// overflows); otherwise into the backend.
  void admit(const Item& item) {
    const bool fits = live() < capacity && backlog == 0;
    if (!fits && (live() == 0 || item.first >= window.back().first)) {
      to_backend(item);
      return;
    }
    window.erase(window.begin(), window.begin() + static_cast<long>(head));
    head = 0;
    window.insert(std::upper_bound(window.begin(), window.end(), item, key_less),
                  item);
    if (live() > capacity) {
      to_backend(window.back());
      window.pop_back();
    }
  }

  /// Moves up to `capacity` items from the backend into the (drained)
  /// window.
  void refill() {
    harness::OpContext ctx;
    window.clear();
    head = 0;
    while (window.size() < capacity) {
      const std::optional<Key> k = queue->delete_min(ctx);
      if (!k) break;
      const auto it = values.find(*k);
      window.emplace_back(*k, it->second);
      values.erase(it);
      --backlog;
    }
    // Relaxed backends pop near-minimal, not sorted.
    std::sort(window.begin(), window.end(), key_less);
    ++refills;
    if (window.empty()) ++empty_refills;
  }

  /// Ends every locked operation: a drained window with items behind it
  /// refills, then the head is published.
  void settle() {
    if (live() == 0 && backlog > 0) refill();
    published_min.store(live() > 0 ? window[head].first : kEmptyKey,
                        std::memory_order_relaxed);
  }
};

Service::Service(const ServiceConfig& cfg) : cfg_(cfg) {
  if (cfg_.shards < 1) throw std::invalid_argument("pqd: shards must be >= 1");
  if (cfg_.batch < 1) throw std::invalid_argument("pqd: batch must be >= 1");
  const harness::Backend& backend = harness::BackendRegistry::instance()
                                        .require(harness::Flavor::Native,
                                                 cfg_.backend);
  shards_.reserve(static_cast<std::size_t>(cfg_.shards));
  for (int i = 0; i < cfg_.shards; ++i) {
    auto s = std::make_unique<Shard>();
    s->qcfg = cfg_.queue;
    s->qcfg.structure = cfg_.backend;
    s->qcfg.flavor = harness::Flavor::Native;
    // All shard-queue access happens under the shard lock from whatever
    // client thread holds it, always as logical thread 0.
    s->qcfg.processors = 1;
    // Bounded backends (Hunt heap) size their capacity from these; give
    // each shard headroom for a skewed split plus its window.
    s->qcfg.initial_size =
        cfg_.queue.initial_size / static_cast<std::size_t>(cfg_.shards) +
        static_cast<std::size_t>(cfg_.batch) + 1;
    const harness::BackendInit init{s->qcfg, nullptr};
    s->queue = backend.make(init);
    s->capacity = static_cast<std::size_t>(cfg_.batch);
    s->window.reserve(s->capacity + 1);
    shards_.push_back(std::move(s));
  }
}

Service::~Service() = default;

Service::Shard& Service::shard_for(std::uint64_t tag) noexcept {
  return *shards_[tag % shards_.size()];
}

void Service::seed(Key key, Value value) {
  if (key >= kMaxUserKey) throw std::invalid_argument("pqd: key out of range");
  Shard& s = shard_for(seed_rr_.fetch_add(1, std::memory_order_relaxed));
  std::lock_guard<slpq::detail::TinySpinLock> g(s.lock);
  s.to_backend({key, value}, /*seeding=*/true);
}

void Service::prime() {
  for (auto& s : shards_) {
    std::lock_guard<slpq::detail::TinySpinLock> g(s->lock);
    ++s->acquisitions;
    s->settle();
  }
}

void Service::insert_batch(const Item* items, std::size_t n,
                           std::uint64_t tag) {
  if (n == 0) return;
  for (std::size_t i = 0; i < n; ++i)
    if (items[i].first >= kMaxUserKey)
      throw std::invalid_argument("pqd: key out of range");
  Shard& s = shard_for(tag);
  std::lock_guard<slpq::detail::TinySpinLock> g(s.lock);
  for (std::size_t i = 0; i < n; ++i) s.admit(items[i]);
  s.settle();
  ++s.acquisitions;
  ++s.insert_batches;
  s.occupancy.record(n);
  s.served += n;
}

std::optional<Item> Service::delete_min() {
  for (;;) {
    // Min-of-shards peek: one relaxed load per shard.
    Shard* best = nullptr;
    Key best_key = kEmptyKey;
    for (auto& s : shards_) {
      const Key k = s->published_min.load(std::memory_order_relaxed);
      if (k < best_key) {
        best_key = k;
        best = s.get();
      }
    }
    if (best == nullptr) return std::nullopt;
    std::lock_guard<slpq::detail::TinySpinLock> g(best->lock);
    ++best->acquisitions;
    if (best->live() == 0) continue;  // drained since the peek
    const Item item = best->window[best->head++];
    best->settle();
    best->occupancy.record(1);
    ++best->served;
    return item;
  }
}

std::size_t Service::size() const {
  std::size_t total = 0;
  for (const auto& s : shards_) {
    std::lock_guard<slpq::detail::TinySpinLock> g(s->lock);
    total += s->backlog + s->live();
  }
  return total;
}

slpq::TelemetrySnapshot Service::telemetry() const {
  slpq::TelemetrySnapshot snap;
  std::uint64_t acquisitions = 0, insert_batches = 0, refills = 0,
                empty_refills = 0;
  slpq::detail::LogHistogram occupancy;
  std::vector<std::uint64_t> served;
  slpq::TelemetrySnapshot agg;

  for (const auto& s : shards_) {
    std::lock_guard<slpq::detail::TinySpinLock> g(s->lock);
    acquisitions += s->acquisitions;
    insert_batches += s->insert_batches;
    refills += s->refills;
    empty_refills += s->empty_refills;
    occupancy.merge(s->occupancy);
    served.push_back(s->served);
    const slpq::TelemetrySnapshot shard_snap = s->queue->telemetry();
    for (const auto& e : shard_snap.entries) {
      if (is_stat_key(e.first))
        agg.set(e.first, std::max(agg.get(e.first), e.second));
      else
        agg.add(e.first, e.second);
    }
  }

  snap.set("pqd.shards", static_cast<std::uint64_t>(shards_.size()));
  snap.set("pqd.batch", static_cast<std::uint64_t>(cfg_.batch));
  snap.set("pqd.shard_acquisitions", acquisitions);
  snap.set("pqd.insert_batches", insert_batches);
  snap.set("pqd.window_refills", refills);
  snap.set("pqd.empty_refills", empty_refills);
  snap.set("pqd.batch_occupancy.mean",
           static_cast<std::uint64_t>(std::llround(occupancy.mean())));
  snap.set("pqd.batch_occupancy.p50", occupancy.quantile(0.50));
  snap.set("pqd.batch_occupancy.p90", occupancy.quantile(0.90));
  snap.set("pqd.batch_occupancy.max", occupancy.max());

  // Load balance across shards: max/mean in percent (100 == perfectly
  // even). Ops counted are inserts applied plus deletes served.
  std::uint64_t max_served = 0, sum_served = 0;
  for (const std::uint64_t v : served) {
    max_served = std::max(max_served, v);
    sum_served += v;
  }
  const double mean_served =
      served.empty() ? 0.0
                     : static_cast<double>(sum_served) /
                           static_cast<double>(served.size());
  snap.set("pqd.shard_imbalance",
           mean_served > 0.0
               ? static_cast<std::uint64_t>(std::llround(
                     static_cast<double>(max_served) * 100.0 / mean_served))
               : 0);

  snap.merge(agg);
  slpq::fill_reclaim_zero(snap);
  return snap;
}

}  // namespace pqd
