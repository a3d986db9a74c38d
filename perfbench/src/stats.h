// The benchmark's own arithmetic: percentiles with a sample-count floor,
// failure accounting, and open-loop latency. Kept free of actjoin
// dependencies so tests/stats_test.cc checks it in isolation.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile `pct` (0 < pct <= 100) of `values`, which need
/// not be sorted. 0 for an empty input.
double Percentile(std::vector<double> values, double pct);

/// The tail percentile a run may report: the highest whole percentile in
/// [50, wanted] that leaves at least `min_beyond` samples above it under
/// nearest rank. With fewer than 2 * min_beyond samples no tail is
/// supported and the median (50) is returned.
int SupportedTailPercentile(uint64_t num_samples, int wanted = 99,
                            uint64_t min_beyond = 10);

/// Median plus the supported tail of one latency series.
struct LatencySummary {
  uint64_t samples = 0;
  double p50 = 0;
  int tail_pct = 50;  // which percentile `tail` is
  double tail = 0;
};

LatencySummary Summarize(const std::vector<double>& values, int wanted_tail = 99);

/// Failure accounting for one run. Every operation the generator starts is
/// attempted; each outcome other than a verified success lands in exactly
/// one bucket. Events a subscription lost to EVENT_GAP are not operations
/// but count as failures too.
struct FailureLedger {
  uint64_t attempted = 0;
  uint64_t succeeded = 0;
  uint64_t failed = 0;      // transport errors and untyped failures
  uint64_t refused = 0;     // admission / queue / shutdown rejections
  uint64_t timed_out = 0;   // the client's receive deadline expired
  uint64_t mismatched = 0;  // a reply differed from the reference
  uint64_t events_lost = 0;  // events skipped by EVENT_GAP markers

  void RecordSuccess() { ++attempted; ++succeeded; }
  void RecordFailure() { ++attempted; ++failed; }
  void RecordRefused() { ++attempted; ++refused; }
  void RecordTimedOut() { ++attempted; ++timed_out; }
  void RecordMismatch() { ++attempted; ++mismatched; }
  void RecordGap(uint64_t first_seq, uint64_t last_seq) {
    events_lost += last_seq >= first_seq ? last_seq - first_seq + 1 : 0;
  }
  /// A mismatch found after the operation was already counted as a
  /// success (event streams are checked once the run has drained).
  void RecordLateMismatch() { ++mismatched; }

  /// The numerator of failed_frac.
  uint64_t Failures() const {
    return failed + refused + timed_out + mismatched + events_lost;
  }
  /// Failures() / attempted; 1 when nothing was attempted.
  double FailedFrac() const;
  void Merge(const FailureLedger& other);
};

/// Open-loop schedule: operation i is due at start_ns + i * interval_ns,
/// whether or not the generator managed to send it on time. Latency is
/// measured from the due time, so a late generator cannot hide queueing
/// (coordinated omission); how late it sent is reported separately as a
/// run-validity figure.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(int64_t start_ns, int64_t interval_ns)
      : start_ns_(start_ns), interval_ns_(interval_ns) {}

  int64_t Due(uint64_t i) const {
    return start_ns_ + static_cast<int64_t>(i) * interval_ns_;
  }
  /// Completion minus due time.
  int64_t Latency(uint64_t i, int64_t done_ns) const { return done_ns - Due(i); }

 private:
  int64_t start_ns_;
  int64_t interval_ns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
