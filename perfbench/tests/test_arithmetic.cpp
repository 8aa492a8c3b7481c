// Tests for the benchmark's own arithmetic: nearest-rank quantiles, the
// ">= 10 samples beyond" tail rule, error_rate accounting, and span
// self-time subtraction.

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

std::vector<double> iota_samples(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Quantile, NearestRankOnUnsortedInput) {
  const std::vector<double> v = {7, 3, 10, 1, 9, 2, 8, 4, 6, 5};
  EXPECT_EQ(quantile(v, 0.0), 1);
  EXPECT_EQ(quantile(v, 0.5), 5);
  EXPECT_EQ(quantile(v, 0.9), 9);
  EXPECT_EQ(quantile(v, 0.91), 10);
  EXPECT_EQ(quantile(v, 1.0), 10);
  EXPECT_EQ(median(v), 5);
  EXPECT_EQ(median({}), 0);
  EXPECT_EQ(median({42}), 42);
}

TEST(TailStat, NeedsTenSamplesBeyondThePercentile) {
  const TailStat ok = tail_stat(iota_samples(1000), 0.99);
  EXPECT_EQ(ok.value, 990);
  EXPECT_EQ(ok.samples, 1000u);
  EXPECT_EQ(ok.beyond, 10u);
  EXPECT_TRUE(ok.supported);

  const TailStat short_run = tail_stat(iota_samples(999), 0.99);
  EXPECT_EQ(short_run.value, 990);
  EXPECT_EQ(short_run.beyond, 9u);
  EXPECT_FALSE(short_run.supported);

  // Ties at the percentile do not count as beyond it.
  const TailStat flat = tail_stat(std::vector<double>(5000, 3.0), 0.99);
  EXPECT_EQ(flat.value, 3.0);
  EXPECT_EQ(flat.beyond, 0u);
  EXPECT_FALSE(flat.supported);

  EXPECT_FALSE(tail_stat({}, 0.99).supported);
}

TEST(TailStat, MinimumSampleCount) {
  EXPECT_EQ(min_samples_for_tail(0.99), 1000u);
  EXPECT_EQ(min_samples_for_tail(0.5), 20u);
  EXPECT_TRUE(tail_stat(iota_samples(static_cast<int>(min_samples_for_tail(0.999))), 0.999)
                  .supported);
}

TEST(ErrorTally, EveryNonOkOutcomeCountsAsFailed) {
  ErrorTally t;
  for (int i = 0; i < 10; ++i) t.record(Outcome::kOk);
  EXPECT_EQ(t.rate(), 0.0);
  EXPECT_EQ(t.describe(), "none");
  t.record(Outcome::kWrong);
  t.record(Outcome::kRefused);
  t.record(Outcome::kTransport);
  t.record(Outcome::kTimeout);
  EXPECT_EQ(t.attempted, 14u);
  EXPECT_EQ(t.failed, 4u);
  EXPECT_DOUBLE_EQ(t.rate(), 4.0 / 14.0);
  EXPECT_EQ(t.describe(), "wrong=1 refused=1 transport=1 timeout=1");

  ErrorTally other;
  other.record(Outcome::kOk);
  other.record(Outcome::kTransport);
  t += other;
  EXPECT_EQ(t.attempted, 16u);
  EXPECT_EQ(t.failed, 5u);
  EXPECT_EQ(t.describe(), "wrong=1 refused=1 transport=2 timeout=1");
  EXPECT_EQ(ErrorTally{}.rate(), 0.0);
}

TEST(SelfTime, SubtractsTheUnionOfChildrenClippedToTheParent) {
  SpanRecorder rec;
  const std::uint64_t root = rec.add("core.solve", 0, 1, 0.0, 10.0);
  const std::uint64_t a = rec.add("core.ecc", root, 1, 1.0, 3.0);
  rec.add("core.ecc", root, 1, 2.0, 5.0);        // overlaps a
  rec.add("core.eliminate", root, 1, 9.0, 12.0);  // runs past the parent
  rec.add("bfs.level", a, 1, 1.5, 2.0);           // grandchild
  rec.add("io.map", 0, 2, 20.0, 21.0);            // unrelated root

  const std::vector<Span> spans = rec.spans();
  const std::vector<double> self = self_times(spans);
  ASSERT_EQ(self.size(), 6u);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - (4.0 + 1.0));  // covered [1,5] + [9,10]
  EXPECT_DOUBLE_EQ(self[1], 2.0 - 0.5);           // grandchild subtracted
  EXPECT_DOUBLE_EQ(self[2], 3.0);
  EXPECT_DOUBLE_EQ(self[3], 3.0);
  EXPECT_DOUBLE_EQ(self[4], 0.5);
  EXPECT_DOUBLE_EQ(self[5], 1.0);

  const auto by_name = self_time_by_name(spans);
  EXPECT_DOUBLE_EQ(by_name.at("core.solve"), 5.0);
  EXPECT_DOUBLE_EQ(by_name.at("core.ecc"), 4.5);
}

TEST(SelfTime, ChildrenCoveringTheParentLeaveZero) {
  std::vector<Span> spans(3);
  spans[0] = Span{1, 0, 1, "p", 0.0, 4.0};
  spans[1] = Span{2, 1, 1, "c", 0.0, 2.0};
  spans[2] = Span{3, 1, 1, "c", 2.0, 4.0};
  const std::vector<double> self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 0.0);
  EXPECT_DOUBLE_EQ(self[1], 2.0);
}

}  // namespace
}  // namespace perfbench
