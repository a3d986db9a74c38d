// Checks the benchmark's own arithmetic: tail percentiles, failure
// accounting, open-loop latency, and span self time.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(PercentileTest, NearestRank) {
  EXPECT_EQ(Percentile(OneTo(100), 50), 50);
  EXPECT_EQ(Percentile(OneTo(100), 99), 99);
  EXPECT_EQ(Percentile(OneTo(10), 50), 5);
  EXPECT_EQ(Percentile(OneTo(1), 99), 1);
  EXPECT_EQ(Percentile({}, 50), 0);
}

TEST(PercentileTest, TailIsHighestWithTenSamplesBeyond) {
  // 1000 samples: p99 is rank 990, ten samples beyond it.
  EXPECT_EQ(SupportedTailPercentile(1000), 99);
  // 999 samples: p99 is rank 990 with nine beyond, so p98 (rank 980).
  EXPECT_EQ(SupportedTailPercentile(999), 98);
  EXPECT_EQ(SupportedTailPercentile(500), 98);
  EXPECT_EQ(SupportedTailPercentile(100), 90);
  EXPECT_EQ(SupportedTailPercentile(25), 60);
  // Too few samples for any tail: the median is reported.
  EXPECT_EQ(SupportedTailPercentile(19), 50);
  EXPECT_EQ(SupportedTailPercentile(0), 50);
  for (uint64_t n : {20u, 37u, 150u, 1234u, 5000u}) {
    const int pct = SupportedTailPercentile(n);
    const uint64_t rank = static_cast<uint64_t>(
        std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9));
    EXPECT_GE(n - rank, 10u) << n;
    if (pct < 99) {
      const uint64_t next = static_cast<uint64_t>(
          std::ceil((pct + 1) / 100.0 * static_cast<double>(n) - 1e-9));
      EXPECT_LT(n - next, 10u) << n;
    }
  }
}

TEST(PercentileTest, SummaryReportsWhichTail) {
  const LatencySummary s = Summarize(OneTo(100));
  EXPECT_EQ(s.samples, 100u);
  EXPECT_EQ(s.p50, 50);
  EXPECT_EQ(s.tail_pct, 90);
  EXPECT_EQ(s.tail, 90);
}

TEST(FailureLedgerTest, CountsEveryFailureKind) {
  FailureLedger l;
  for (int i = 0; i < 6; ++i) l.RecordSuccess();
  l.RecordRefused();
  l.RecordTimedOut();
  l.RecordMismatch();
  l.RecordFailure();
  l.RecordGap(5, 7);  // three events lost, no extra attempt
  EXPECT_EQ(l.attempted, 10u);
  EXPECT_EQ(l.succeeded, 6u);
  EXPECT_EQ(l.Failures(), 7u);
  EXPECT_DOUBLE_EQ(l.FailedFrac(), 0.7);
  l.RecordLateMismatch();
  EXPECT_EQ(l.attempted, 10u);
  EXPECT_EQ(l.Failures(), 8u);
}

TEST(FailureLedgerTest, CleanRunIsZeroAndEmptyRunIsFailure) {
  FailureLedger clean;
  clean.RecordSuccess();
  EXPECT_EQ(clean.FailedFrac(), 0.0);
  FailureLedger empty;
  EXPECT_EQ(empty.FailedFrac(), 1.0);
  FailureLedger merged;
  merged.Merge(clean);
  merged.Merge(clean);
  merged.RecordGap(1, 1);
  EXPECT_EQ(merged.attempted, 2u);
  EXPECT_DOUBLE_EQ(merged.FailedFrac(), 0.5);
}

TEST(OpenLoopTest, LatencyIsMeasuredFromDueTime) {
  OpenLoopSchedule sched(/*start_ns=*/1000, /*interval_ns=*/10'000'000);
  EXPECT_EQ(sched.Due(0), 1000);
  EXPECT_EQ(sched.Due(3), 1000 + 30'000'000);
  // Sent 5 ms late (a stall before it), answered 1 ms after the send: the
  // latency is 6 ms, not the 1 ms a send-to-reply timer would report.
  const int64_t due = sched.Due(2);
  const int64_t sent = due + 5'000'000;
  const int64_t done = sent + 1'000'000;
  EXPECT_EQ(sched.Latency(2, done), 6'000'000);
  EXPECT_EQ(sched.Latency(2, due + 250), 250);
}

TEST(SpanTest, SelfTimeSubtractsUnionOfChildren) {
  SpanLog log;
  const int32_t root = log.Open("request", Layer::kNet, 0);
  log.Close(root, 100);
  // Overlapping children cover [10, 40]; a child running past the parent
  // is clipped to [90, 100].
  int32_t a = log.Open("a", Layer::kService, 10, root);
  log.Close(a, 30);
  int32_t b = log.Open("b", Layer::kAct, 20, root);
  log.Close(b, 40);
  int32_t c = log.Open("c", Layer::kAct, 90, root);
  log.Close(c, 120);
  // A grandchild only reduces its own parent's self time.
  int32_t d = log.Open("d", Layer::kGeo, 12, a);
  log.Close(d, 18);
  const std::vector<int64_t> self = SelfTimes(log.spans());
  EXPECT_EQ(self[root], 60);
  EXPECT_EQ(self[a], 14);
  EXPECT_EQ(self[b], 20);
  EXPECT_EQ(self[c], 30);
  EXPECT_EQ(self[d], 6);
  const auto by_layer = SelfTimeByLayer(log.spans());
  EXPECT_EQ(by_layer[static_cast<int>(Layer::kNet)], 60);
  EXPECT_EQ(by_layer[static_cast<int>(Layer::kService)], 14);
  EXPECT_EQ(by_layer[static_cast<int>(Layer::kAct)], 50);
  EXPECT_EQ(by_layer[static_cast<int>(Layer::kGeo)], 6);
}

TEST(SpanTest, SyntheticStagesTileTheParent) {
  SpanLog log;
  const int32_t root = log.Open("call", Layer::kNet, 1000);
  log.Close(root, 1000 + 10'000);
  log.AddStages(root, {{"queue", Layer::kService, 2.0},
                       {"probe", Layer::kAct, 5.0},
                       {"respond", Layer::kNet, 1.0}});
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log.spans()[1].start_ns, 1000);
  EXPECT_EQ(log.spans()[2].start_ns, 3000);
  EXPECT_EQ(log.spans()[3].end_ns, 9000);
  EXPECT_TRUE(log.spans()[2].synthetic);
  const auto by_layer = SelfTimeByLayer(log.spans());
  EXPECT_EQ(by_layer[static_cast<int>(Layer::kNet)], 2000 + 1000);
  EXPECT_EQ(by_layer[static_cast<int>(Layer::kAct)], 5000);
  EXPECT_EQ(by_layer[static_cast<int>(Layer::kService)], 2000);
  // A range of whole trees is summed on its own.
  const int32_t second = log.Open("call", Layer::kNet, 50'000);
  log.Close(second, 51'000);
  const int32_t third = log.Open("call", Layer::kAct, 60'000);
  log.Close(third, 60'500);
  const auto mid = SelfTimeByLayer(log.spans(), static_cast<size_t>(second),
                                   static_cast<size_t>(third));
  EXPECT_EQ(mid[static_cast<int>(Layer::kNet)], 1000);
  EXPECT_EQ(mid[static_cast<int>(Layer::kAct)], 0);
  const auto tail = SelfTimeByLayer(log.spans(), static_cast<size_t>(third));
  EXPECT_EQ(tail[static_cast<int>(Layer::kAct)], 500);
}

}  // namespace
}  // namespace perfbench
