// Spans: the traced run's in-memory record of calls into each layer.
//
// A span is one timed call at a layer boundary: which call (name), when it
// started and ended (steady_clock ns), the span that caused it (parent, an
// index into the same thread's log, or kNoParent) and the client operation
// it belongs to (op). Each thread appends to its own SpanLog, so recording
// is a vector push with no synchronisation; logs are merged only after the
// threads are joined.
//
// A span's self time is its duration minus the part of its interval that
// its children cover (the union of the child intervals, clipped to the
// parent), so overlapping children are not counted twice.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace perfbench {

enum class SpanName : std::uint8_t {
  kClientInsert,       ///< pqd::Session::enqueue
  kClientDeleteMin,    ///< pqd::Session::dequeue
  kServiceInsertBatch, ///< pqd::Service::insert_batch
  kServiceDeleteMin,   ///< pqd::Service::delete_min
  kBackendInsert,      ///< harness::QueueHandle::insert
  kBackendDeleteMin,   ///< harness::QueueHandle::delete_min
  kCount
};

const char* to_string(SpanName name) noexcept;

inline constexpr std::int64_t kNoParent = -1;

struct Span {
  SpanName name = SpanName::kClientInsert;
  std::uint64_t start = 0;  ///< ns, steady_clock
  std::uint64_t end = 0;    ///< ns, steady_clock
  std::int64_t parent = kNoParent;
  std::uint64_t op = 0;     ///< client op index (trace position)

  std::uint64_t duration() const noexcept { return end - start; }
};

inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The processor's constant-rate cycle counter (the x86 time-stamp
/// counter), which times single calls in the end-to-end runs: reading it
/// costs a few cycles, against ~20 ns for steady_clock. Elsewhere the
/// count is steady_clock ns.
inline std::uint64_t now_cycles() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return now_ns();
#endif
}

/// One thread's spans, in the order they were opened.
class SpanLog {
 public:
  void reserve(std::size_t n) { spans_.reserve(n); }

  /// Opens a span that started at `start` and returns its index (its id
  /// for children).
  std::int64_t open(SpanName name, std::int64_t parent, std::uint64_t op,
                    std::uint64_t start) {
    spans_.push_back(Span{name, start, start, parent, op});
    return static_cast<std::int64_t>(spans_.size() - 1);
  }
  void close(std::int64_t id, std::uint64_t end) noexcept {
    spans_[static_cast<std::size_t>(id)].end = end;
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Total length of the union of half-open intervals [first, second).
std::uint64_t union_length(std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals);

/// Self time of every span: its duration minus the union of its children's
/// intervals clipped to its own. Parents index into the same vector.
std::vector<std::uint64_t> self_times(const std::vector<Span>& spans);

/// Per-name totals over one or more logs.
struct SpanTotals {
  std::uint64_t count[static_cast<int>(SpanName::kCount)] = {};
  std::uint64_t total_ns[static_cast<int>(SpanName::kCount)] = {};
  std::uint64_t self_ns[static_cast<int>(SpanName::kCount)] = {};

  void add(const std::vector<Span>& spans);
  std::uint64_t n(SpanName s) const { return count[static_cast<int>(s)]; }
  std::uint64_t total(SpanName s) const { return total_ns[static_cast<int>(s)]; }
  std::uint64_t self(SpanName s) const { return self_ns[static_cast<int>(s)]; }
};

/// Appends the durations of the spans with the given name, in log order.
void append_durations(const std::vector<Span>& spans, SpanName name,
                      std::vector<std::uint64_t>& out);

/// Writes the logs as one binary file: a text header line, then one
/// fixed-size little-endian record per span (thread, name, start, end,
/// parent, op). Throws std::runtime_error on I/O failure.
void write_spans(const std::string& path, const std::vector<const SpanLog*>& logs);

}  // namespace perfbench
