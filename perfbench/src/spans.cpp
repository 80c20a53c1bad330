#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>

namespace perfbench {

const char* to_string(SpanName name) noexcept {
  switch (name) {
    case SpanName::kClientInsert: return "client.enqueue";
    case SpanName::kClientDeleteMin: return "client.dequeue";
    case SpanName::kServiceInsertBatch: return "service.insert_batch";
    case SpanName::kServiceDeleteMin: return "service.delete_min";
    case SpanName::kBackendInsert: return "backend.insert";
    case SpanName::kBackendDeleteMin: return "backend.delete_min";
    case SpanName::kCount: break;
  }
  return "?";
}

std::uint64_t union_length(
    std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::uint64_t total = 0;
  std::uint64_t cur_lo = 0, cur_hi = 0;
  bool open = false;
  for (const auto& [lo, hi] : intervals) {
    if (hi <= lo) continue;
    if (!open || lo > cur_hi) {
      if (open) total += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    } else {
      cur_hi = std::max(cur_hi, hi);
    }
  }
  if (open) total += cur_hi - cur_lo;
  return total;
}

std::vector<std::uint64_t> self_times(const std::vector<Span>& spans) {
  // Children grouped by parent, clipped to the parent's interval.
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent == kNoParent) continue;
    if (s.parent < 0 || static_cast<std::size_t>(s.parent) >= spans.size())
      throw std::out_of_range("span parent outside its log");
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    children[static_cast<std::size_t>(s.parent)].emplace_back(
        std::max(s.start, p.start), std::min(s.end, p.end));
  }
  std::vector<std::uint64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::uint64_t covered =
        children[i].empty() ? 0 : union_length(std::move(children[i]));
    self[i] = spans[i].duration() - covered;
  }
  return self;
}

void SpanTotals::add(const std::vector<Span>& spans) {
  const std::vector<std::uint64_t> self = self_times(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int k = static_cast<int>(spans[i].name);
    ++count[k];
    total_ns[k] += spans[i].duration();
    self_ns[k] += self[i];
  }
}

void append_durations(const std::vector<Span>& spans, SpanName name,
                      std::vector<std::uint64_t>& out) {
  for (const Span& s : spans)
    if (s.name == name) out.push_back(s.duration());
}

namespace {

void put_u64(unsigned char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}

}  // namespace

void write_spans(const std::string& path,
                 const std::vector<const SpanLog*>& logs) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "wb"), &std::fclose);
  if (!f) throw std::runtime_error("cannot open " + path);
  std::string header =
      "perfbench-spans/1 record=40B LE: u32 thread, u32 name, u64 start_ns, "
      "u64 end_ns, i64 parent, u64 op; names:";
  for (int i = 0; i < static_cast<int>(SpanName::kCount); ++i)
    header += std::string(" ") + std::to_string(i) + "=" +
              to_string(static_cast<SpanName>(i));
  header += "\n";
  bool ok = std::fwrite(header.data(), 1, header.size(), f.get()) ==
            header.size();
  std::vector<unsigned char> buf;
  for (std::size_t t = 0; t < logs.size() && ok; ++t) {
    const std::vector<Span>& spans = logs[t]->spans();
    buf.assign(spans.size() * 40, 0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      unsigned char* p = buf.data() + i * 40;
      const std::uint64_t head =
          static_cast<std::uint64_t>(t) |
          (static_cast<std::uint64_t>(spans[i].name) << 32);
      put_u64(p, head);
      put_u64(p + 8, spans[i].start);
      put_u64(p + 16, spans[i].end);
      put_u64(p + 24, static_cast<std::uint64_t>(spans[i].parent));
      put_u64(p + 32, spans[i].op);
    }
    ok = std::fwrite(buf.data(), 1, buf.size(), f.get()) == buf.size();
  }
  if (!ok || std::fflush(f.get()) != 0)
    throw std::runtime_error("write failed: " + path);
}

}  // namespace perfbench
