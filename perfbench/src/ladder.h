// The traced run's layer probes. Each probe calls one module's public API
// from benchmark code, on the workload's own data, and reports ns/point
// (or ms) as a median over repetitions:
//
//   geo      geo::Grid::CellAt over the subject batch's coordinates
//   L0 act   act::PolygonIndex::Join, 1 thread, the 1-shard index
//   L1       service::ShardedIndex::Join, 1 shard
//   L2       service::ShardedIndex::Join on the served index (phase times)
//   L3       service::JoinService::TrySubmit -> future
//   L4       net::AsyncJoinClient::Call, one request in flight
//   join2    IntervalView::FromIndex + join2::CrossMatch, in process and
//            over JOIN_DATASETS
//   mutate   ShardedIndex::ApplyDelta and JoinService::Add/RemovePolygons
//
// Every probe's result is checked against the other layers' results for
// the same input; a disagreement is a mismatch in the run's ledger.

#ifndef PERFBENCH_LADDER_H_
#define PERFBENCH_LADDER_H_

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "bench.h"
#include "geometry/polygon.h"
#include "geometry/rect.h"

namespace perfbench {

/// The point-join input a workload's ladder probes.
struct PointSubject {
  const std::vector<geom::Polygon>* polygons = nullptr;
  svc::ShardingOptions sharding;
  /// The index as first built (its per-shard build timings are reported).
  std::shared_ptr<const svc::ShardedIndex> initial;
  uint16_t dataset_id = 0;
  act::JoinMode mode = act::JoinMode::kExact;
  const svc::QueryBatch* batch = nullptr;
  geom::Rect mbr;
  uint64_t seed = 0;
};

/// geo, act (L0), sharded (L1, L2), service (L3), net (L4) probes plus
/// PING. Records traced L4 requests into `spans` and returns that range.
std::pair<size_t, size_t> PointLadder(const PointSubject& subject,
                                      Stack& stack, SpanLog* spans,
                                      MetricSet* layer, FailureLedger* ledger);

/// join2 probes for the crossmatch of dataset `id_a` with `id_b` (both
/// served by `stack`), each mode `wire_reps` times over the wire with the
/// trace flag. Returns the span range of those traced requests.
std::pair<size_t, size_t> Join2Ladder(uint16_t id_a, uint16_t id_b,
                                      int wire_reps, Stack& stack,
                                      SpanLog* spans, MetricSet* layer,
                                      FailureLedger* ledger);

/// ApplyDelta and in-process Add/RemovePolygons of one probe polygon on
/// the subject's served dataset. Publishes new epochs, so it runs last.
void MutationLadder(const PointSubject& subject, Stack& stack,
                    MetricSet* layer, FailureLedger* ledger);

/// Prints the self time per layer over the span trees in `range` and
/// returns each layer's share in percent (bench work excluded from shares).
std::array<double, kNumLayers> PrintSelfTime(const char* title,
                                             const SpanLog& spans,
                                             std::pair<size_t, size_t> range);

/// A small octagon at a seeded spot inside `mbr` (the mutation payload).
geom::Polygon ProbePolygon(const geom::Rect& mbr, uint64_t seed,
                           double radius_deg = 0.004);

}  // namespace perfbench

#endif  // PERFBENCH_LADDER_H_
