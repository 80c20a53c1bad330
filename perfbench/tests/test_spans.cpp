// Self-time arithmetic of the traced run.
#include <gtest/gtest.h>

#include "spans.hpp"

namespace perfbench {
namespace {

Span span(SpanName name, std::uint64_t start, std::uint64_t end,
          std::int64_t parent = kNoParent) {
  return Span{name, start, end, parent, 0};
}

TEST(UnionLength, MergesOverlapsAndSkipsEmpty) {
  EXPECT_EQ(union_length({}), 0u);
  EXPECT_EQ(union_length({{10, 20}}), 10u);
  EXPECT_EQ(union_length({{10, 20}, {30, 35}}), 15u);
  EXPECT_EQ(union_length({{10, 20}, {15, 25}}), 15u);        // overlap
  EXPECT_EQ(union_length({{15, 25}, {10, 20}, {12, 13}}), 15u);  // unsorted
  EXPECT_EQ(union_length({{10, 20}, {20, 30}}), 20u);        // touching
  EXPECT_EQ(union_length({{10, 10}, {5, 4}}), 0u);           // empty, inverted
}

TEST(SelfTimes, LeafSpanIsItsDuration) {
  const std::vector<Span> spans = {span(SpanName::kClientInsert, 100, 250)};
  EXPECT_EQ(self_times(spans), std::vector<std::uint64_t>({150}));
}

TEST(SelfTimes, NestedChildrenAreSubtractedOnce) {
  // client [0,100) > service [10,60) > backend [20,30) and [40,50)
  const std::vector<Span> spans = {
      span(SpanName::kClientDeleteMin, 0, 100),
      span(SpanName::kServiceDeleteMin, 10, 60, 0),
      span(SpanName::kBackendDeleteMin, 20, 30, 1),
      span(SpanName::kBackendDeleteMin, 40, 50, 1),
  };
  EXPECT_EQ(self_times(spans), std::vector<std::uint64_t>({50, 30, 10, 10}));
}

TEST(SelfTimes, OverlappingChildrenCountTheirUnion) {
  const std::vector<Span> spans = {
      span(SpanName::kClientInsert, 0, 100),
      span(SpanName::kBackendInsert, 10, 40, 0),
      span(SpanName::kBackendInsert, 30, 70, 0),  // overlaps the first
      span(SpanName::kBackendInsert, 35, 45, 0),  // inside both
  };
  EXPECT_EQ(self_times(spans)[0], 40u);  // 100 - |[10,70)|
}

TEST(SelfTimes, ChildrenAreClippedToTheParent) {
  const std::vector<Span> spans = {
      span(SpanName::kClientInsert, 50, 100),
      span(SpanName::kBackendInsert, 40, 60, 0),   // starts before
      span(SpanName::kBackendInsert, 90, 120, 0),  // ends after
  };
  EXPECT_EQ(self_times(spans)[0], 30u);  // 50 - 10 - 10
}

TEST(SelfTimes, RejectsAParentOutsideTheLog) {
  const std::vector<Span> spans = {span(SpanName::kBackendInsert, 0, 1, 7)};
  EXPECT_THROW(self_times(spans), std::out_of_range);
}

TEST(SpanTotals, SumsTotalsAndSelfPerName) {
  SpanTotals totals;
  totals.add({
      span(SpanName::kClientDeleteMin, 0, 100),
      span(SpanName::kBackendDeleteMin, 10, 30, 0),
      span(SpanName::kClientInsert, 200, 210),
  });
  EXPECT_EQ(totals.n(SpanName::kClientDeleteMin), 1u);
  EXPECT_EQ(totals.total(SpanName::kClientDeleteMin), 100u);
  EXPECT_EQ(totals.self(SpanName::kClientDeleteMin), 80u);
  EXPECT_EQ(totals.self(SpanName::kBackendDeleteMin), 20u);
  EXPECT_EQ(totals.total(SpanName::kClientInsert), 10u);
}

}  // namespace
}  // namespace perfbench
