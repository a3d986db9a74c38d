#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

// 1-based nearest rank of percentile pct over n samples.
uint64_t NearestRank(uint64_t n, double pct) {
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<uint64_t>(static_cast<uint64_t>(std::max(rank, 1.0)), 1, n);
}

}  // namespace

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0;
  const uint64_t rank = NearestRank(values.size(), pct);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

int SupportedTailPercentile(uint64_t num_samples, int wanted,
                            uint64_t min_beyond) {
  for (int pct = wanted; pct > 50; --pct) {
    if (num_samples == 0) break;
    const uint64_t rank = NearestRank(num_samples, pct);
    if (num_samples - rank >= min_beyond) return pct;
  }
  return 50;
}

LatencySummary Summarize(const std::vector<double>& values, int wanted_tail) {
  LatencySummary s;
  s.samples = values.size();
  s.p50 = Percentile(values, 50);
  s.tail_pct = SupportedTailPercentile(values.size(), wanted_tail);
  s.tail = Percentile(values, s.tail_pct);
  return s;
}

double FailureLedger::FailedFrac() const {
  if (attempted == 0) return 1.0;
  return static_cast<double>(Failures()) / static_cast<double>(attempted);
}

void FailureLedger::Merge(const FailureLedger& o) {
  attempted += o.attempted;
  succeeded += o.succeeded;
  failed += o.failed;
  refused += o.refused;
  timed_out += o.timed_out;
  mismatched += o.mismatched;
  events_lost += o.events_lost;
}

}  // namespace perfbench
