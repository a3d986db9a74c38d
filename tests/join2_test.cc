// Tests for the dual-trie crossmatch (src/join2/): the synchronized
// descent must agree byte-for-byte with two independent oracles — the
// index-free brute force and the R-tree × R-tree baseline — on random and
// adversarial fixtures (shared edges, containment nests, empty overlap),
// in both modes, at every thread width; and the dataset-level matcher must
// enforce the catalog's typed-rejection contract while pinning consistent
// epoch pairs across concurrent mutations. Suites are named Join2* so the
// TSan CI job's filter runs the concurrent ones under ThreadSanitizer.
//
// Seeding convention (full rationale in util_test.cc): random data comes
// only from the workload factories with explicit literal seeds.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "act/join.h"
#include "baselines/rtree.h"
#include "geo/grid.h"
#include "join2/cross_match.h"
#include "join2/dataset_cross_matcher.h"
#include "service/join_service.h"
#include "service/sharded_index.h"
#include "util/metrics.h"
#include "workloads/datasets.h"
#include "workloads/polygon_gen.h"

namespace actjoin::join2 {

/// Reaches IntervalView's coarsening steps so the test can rebuild the
/// linear-scan shift search the binary search replaced.
struct IntervalViewTestPeer {
  static size_t CountAtShift(const IntervalView& v, int shift) {
    return v.CountAtShift(shift);
  }
  static void MergeAt(IntervalView* v, int shift) { v->MergeAt(shift); }
};

namespace {

using geo::Grid;
using service::JoinService;
using service::ServiceOptions;
using service::ShardedIndex;

using Pairs = std::vector<std::pair<uint32_t, uint32_t>>;

service::ShardingOptions Sharding(int num_shards) {
  service::ShardingOptions opts;
  opts.num_shards = num_shards;
  return opts;
}

std::shared_ptr<const ShardedIndex> BuildShared(
    const std::vector<geom::Polygon>& polygons, const Grid& grid,
    int num_shards) {
  return std::make_shared<const ShardedIndex>(
      ShardedIndex::Build(polygons, grid, Sharding(num_shards)));
}

/// A jittered nx*ny partition of the NYC extent. dilation 0 keeps the
/// polygons tiling exactly (every neighboring pair shares a full edge —
/// the adversarial fixture for boundary predicates).
std::vector<geom::Polygon> Partition(int nx, int ny, uint64_t seed,
                                     double dilation = 0) {
  return wl::JitteredPartition({.mbr = wl::NycMbr(),
                                .nx = nx,
                                .ny = ny,
                                .edge_depth = 2,
                                .seed = seed,
                                .overlap_dilation = dilation});
}

/// Axis-aligned square ring centered in the NYC extent, side 2 * half.
geom::Polygon CenteredSquare(double half) {
  geom::Rect mbr = wl::NycMbr();
  const double cx = (mbr.lo.x + mbr.hi.x) / 2;
  const double cy = (mbr.lo.y + mbr.hi.y) / 2;
  return geom::Polygon({{cx - half, cy - half},
                        {cx + half, cy - half},
                        {cx + half, cy + half},
                        {cx - half, cy + half}});
}

/// The ordering contract shared by every pair producer in the repo.
template <typename PairVec>
void ExpectSortedUnique(const PairVec& pairs) {
  EXPECT_TRUE(std::is_sorted(pairs.begin(), pairs.end()));
  EXPECT_EQ(std::adjacent_find(pairs.begin(), pairs.end()), pairs.end());
}

/// Everything in CrossMatchStats except the wall clock.
void ExpectStatsEqual(const CrossMatchStats& got, const CrossMatchStats& want) {
  EXPECT_EQ(got.candidate_pairs, want.candidate_pairs);
  EXPECT_EQ(got.refined_pairs, want.refined_pairs);
  EXPECT_EQ(got.pruned_pairs, want.pruned_pairs);
  EXPECT_EQ(got.result_pairs, want.result_pairs);
  EXPECT_EQ(got.max_depth, want.max_depth);
}

/// Runs the dual-trie crossmatch at several widths plus the two oracles
/// and asserts all outputs are byte-identical (and stats width-invariant).
void ExpectAllImplementationsAgree(const std::vector<geom::Polygon>& pa,
                                   const std::vector<geom::Polygon>& pb,
                                   CrossMatchMode mode, int shards_a = 3,
                                   int shards_b = 5) {
  Grid grid;
  ShardedIndex ia = ShardedIndex::Build(pa, grid, Sharding(shards_a));
  ShardedIndex ib = ShardedIndex::Build(pb, grid, Sharding(shards_b));

  Pairs want = BruteForceCrossMatch(pa, pb, mode);
  ExpectSortedUnique(want);

  baselines::RTree ra = baselines::BuildPolygonRTree(pa);
  baselines::RTree rb = baselines::BuildPolygonRTree(pb);
  Pairs rtree = baselines::RTreeCrossMatch(
      ra, pa, rb, pb, mode == CrossMatchMode::kContains);
  ExpectSortedUnique(rtree);
  EXPECT_EQ(rtree, want);

  CrossMatchStats base_stats;
  bool have_base = false;
  for (int width : {1, 2, 4, 8}) {
    CrossMatchStats stats;
    Pairs got = CrossMatchIndexes(ia, ib, {.mode = mode, .threads = width},
                                  nullptr, &stats);
    ExpectSortedUnique(got);
    EXPECT_EQ(got, want) << "mode=" << ToString(mode) << " width=" << width;
    EXPECT_EQ(stats.result_pairs, want.size());
    if (!have_base) {
      base_stats = stats;
      have_base = true;
    } else {
      ExpectStatsEqual(stats, base_stats);
    }
  }
}

// --- Library-level crossmatch ----------------------------------------------

TEST(Join2CrossMatch, RandomPartitionsIntersects) {
  ExpectAllImplementationsAgree(Partition(6, 5, 101), Partition(4, 7, 202),
                                CrossMatchMode::kIntersects);
}

TEST(Join2CrossMatch, RandomPartitionsContains) {
  // Dilated cells of a coarse partition against a finer one: containment
  // actually occurs (a dilated coarse cell covers interior fine cells).
  ExpectAllImplementationsAgree(Partition(3, 3, 303, 0.4),
                                Partition(9, 9, 404),
                                CrossMatchMode::kContains);
}

TEST(Join2CrossMatch, SharedEdgeSelfJoin) {
  // A joined with itself: every polygon shares a full (jittered) edge
  // chain with each grid neighbor and is identical to itself — the
  // boundary-heavy adversarial case for both predicates.
  std::vector<geom::Polygon> pa = Partition(5, 4, 505);
  ExpectAllImplementationsAgree(pa, pa, CrossMatchMode::kIntersects);
  ExpectAllImplementationsAgree(pa, pa, CrossMatchMode::kContains);

  // Self-join sanity: the diagonal intersects and covers itself.
  Grid grid;
  ShardedIndex ia = ShardedIndex::Build(pa, grid, Sharding(2));
  for (CrossMatchMode mode :
       {CrossMatchMode::kIntersects, CrossMatchMode::kContains}) {
    Pairs got = CrossMatchIndexes(ia, ia, {.mode = mode});
    for (uint32_t i = 0; i < pa.size(); ++i) {
      EXPECT_TRUE(std::binary_search(got.begin(), got.end(),
                                     std::make_pair(i, i)))
          << "diagonal pair missing in mode " << ToString(mode);
    }
  }
}

TEST(Join2CrossMatch, ContainmentNest) {
  // Concentric squares: a_i covers b_j iff half_a(i) >= half_b(j). The
  // two sides interleave so both strict nesting and touching-containment
  // (equal halves) occur.
  std::vector<geom::Polygon> pa, pb;
  std::vector<double> halves_a = {0.05, 0.11, 0.17};
  std::vector<double> halves_b = {0.02, 0.05, 0.08, 0.14};
  for (double h : halves_a) pa.push_back(CenteredSquare(h));
  for (double h : halves_b) pb.push_back(CenteredSquare(h));

  ExpectAllImplementationsAgree(pa, pb, CrossMatchMode::kContains, 2, 3);
  ExpectAllImplementationsAgree(pa, pb, CrossMatchMode::kIntersects, 2, 3);

  Grid grid;
  ShardedIndex ia = ShardedIndex::Build(pa, grid, Sharding(2));
  ShardedIndex ib = ShardedIndex::Build(pb, grid, Sharding(2));
  Pairs covers =
      CrossMatchIndexes(ia, ib, {.mode = CrossMatchMode::kContains});
  Pairs want;
  for (uint32_t i = 0; i < halves_a.size(); ++i) {
    for (uint32_t j = 0; j < halves_b.size(); ++j) {
      if (halves_a[i] >= halves_b[j]) want.emplace_back(i, j);
    }
  }
  EXPECT_EQ(covers, want);
  // All squares are concentric, so every pair intersects.
  EXPECT_EQ(CrossMatchIndexes(ia, ib, {.mode = CrossMatchMode::kIntersects})
                .size(),
            pa.size() * pb.size());
}

TEST(Join2CrossMatch, EmptyOverlapPrunesEverything) {
  // Two dense partitions of disjoint extents: the top-level span pair is
  // range-disjoint, so the descent prunes without emitting any candidate
  // or running any refinement.
  geom::Rect left = geom::Rect::Of(-10, -10, -1, 10);
  geom::Rect right = geom::Rect::Of(1, -10, 10, 10);
  std::vector<geom::Polygon> pa = wl::JitteredPartition(
      {.mbr = left, .nx = 4, .ny = 4, .edge_depth = 1, .seed = 606});
  std::vector<geom::Polygon> pb = wl::JitteredPartition(
      {.mbr = right, .nx = 4, .ny = 4, .edge_depth = 1, .seed = 707});

  Grid grid;
  ShardedIndex ia = ShardedIndex::Build(pa, grid, Sharding(3));
  ShardedIndex ib = ShardedIndex::Build(pb, grid, Sharding(3));
  for (CrossMatchMode mode :
       {CrossMatchMode::kIntersects, CrossMatchMode::kContains}) {
    CrossMatchStats stats;
    Pairs got = CrossMatchIndexes(ia, ib, {.mode = mode}, nullptr, &stats);
    EXPECT_TRUE(got.empty());
    EXPECT_EQ(got, BruteForceCrossMatch(pa, pb, mode));
    EXPECT_EQ(stats.candidate_pairs, 0u);
    EXPECT_EQ(stats.refined_pairs, 0u);
    EXPECT_GT(stats.pruned_pairs, 0u);
  }
}

TEST(Join2CrossMatch, SharedExternalPoolMatchesTransient) {
  std::vector<geom::Polygon> pa = Partition(5, 5, 808);
  std::vector<geom::Polygon> pb = Partition(6, 4, 909);
  Grid grid;
  ShardedIndex ia = ShardedIndex::Build(pa, grid, Sharding(4));
  ShardedIndex ib = ShardedIndex::Build(pb, grid, Sharding(4));

  CrossMatchStats want_stats;
  Pairs want = CrossMatchIndexes(
      ia, ib, {.mode = CrossMatchMode::kIntersects, .threads = 1}, nullptr,
      &want_stats);

  util::WorkStealingPool pool(3);
  CrossMatchStats got_stats;
  Pairs got = CrossMatchIndexes(ia, ib, {.mode = CrossMatchMode::kIntersects},
                                &pool, &got_stats);
  EXPECT_EQ(got, want);
  ExpectStatsEqual(got_stats, want_stats);
}

TEST(Join2CrossMatch, IntervalViewIsSortedAndDisjoint) {
  std::vector<geom::Polygon> pa = Partition(6, 6, 111, 0.3);
  Grid grid;
  for (int shards : {1, 3, 8}) {
    ShardedIndex ia = ShardedIndex::Build(pa, grid, Sharding(shards));
    IntervalView view = IntervalView::FromIndex(ia);
    ASSERT_GT(view.size(), 0u);
    for (size_t i = 0; i < view.size(); ++i) {
      const IntervalView::Interval& iv = view.interval(i);
      EXPECT_LE(iv.lo, iv.hi);
      EXPECT_FALSE(view.refs(iv).empty());
      if (i > 0) {
        EXPECT_LT(view.interval(i - 1).hi, iv.lo);
      }
    }
    for (uint32_t gid = 0; gid < pa.size(); ++gid) {
      EXPECT_NE(view.polygon(gid), nullptr);
    }
  }
}

/// FromIndex's coarsening with the bucket shift found by the original
/// linear scan (shift 2, 4, ... until the budget fits; 62 if none does).
IntervalView LinearScanView(const ShardedIndex& index, uint32_t budget) {
  IntervalView v = IntervalView::FromIndex(index, 0);
  if (budget == 0) return v;
  size_t live = 0;
  for (uint32_t gid = 0; gid < v.num_polygons(); ++gid) {
    live += v.polygon(gid) != nullptr ? 1 : 0;
  }
  const uint64_t target = std::max<uint64_t>(live * budget, 64);
  if (v.size() <= target) return v;
  int shift = 2;
  while (shift < 62 && IntervalViewTestPeer::CountAtShift(v, shift) > target) {
    shift += 2;
  }
  IntervalViewTestPeer::MergeAt(&v, shift);
  return v;
}

void ExpectViewsIdentical(const IntervalView& got, const IntervalView& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    const IntervalView::Interval& g = got.interval(i);
    const IntervalView::Interval& w = want.interval(i);
    ASSERT_EQ(g.lo, w.lo) << "interval " << i;
    ASSERT_EQ(g.hi, w.hi) << "interval " << i;
    ASSERT_EQ(g.refs_begin, w.refs_begin) << "interval " << i;
    ASSERT_EQ(g.refs_end, w.refs_end) << "interval " << i;
    for (size_t r = 0; r < got.refs(g).size(); ++r) {
      ASSERT_EQ(got.refs(g)[r].gid, want.refs(w)[r].gid);
      ASSERT_EQ(got.refs(g)[r].interior, want.refs(w)[r].interior);
    }
  }
  ASSERT_EQ(got.num_polygons(), want.num_polygons());
  for (uint32_t gid = 0; gid < got.num_polygons(); ++gid) {
    EXPECT_EQ(got.polygon(gid), want.polygon(gid));
  }
}

TEST(Join2CrossMatch, CoarsenShiftSearchMatchesLinearScan) {
  // The budget's bucket shift is binary-searched (the per-shift interval
  // count never rises with the shift); the views must be byte-identical
  // to the linear scan's at full resolution (0), the tightest budget (1),
  // the default (16) and one looser than any covering here (1000).
  Grid grid;
  std::vector<geom::Polygon> tiny = {CenteredSquare(0.05),
                                     CenteredSquare(0.11)};
  struct Case {
    const char* name;
    std::vector<geom::Polygon> polygons;
  };
  const Case cases[] = {{"boroughs", wl::Boroughs(0.25).polygons},
                        {"census", wl::Census(0.02).polygons},
                        {"tiny", tiny}};
  for (const Case& c : cases) {
    ShardedIndex index = ShardedIndex::Build(c.polygons, grid, Sharding(4));
    const size_t full = IntervalView::FromIndex(index, 0).size();
    for (uint32_t budget : {0u, 1u, 16u, 1000u}) {
      SCOPED_TRACE(std::string(c.name) + " budget=" + std::to_string(budget));
      IntervalView got = IntervalView::FromIndex(index, budget);
      ExpectViewsIdentical(got, LinearScanView(index, budget));
      if (budget == 1 && c.polygons.size() > 64) {
        EXPECT_LT(got.size(), full) << "budget 1 must coarsen";
      }
    }
  }
}

// --- The shared ordering contract (see act::ExecuteJoinPairs) --------------

TEST(Join2OrderingContract, AllPairProducersSortedUnique) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.06);
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 2000, grid, 42);

  // Point-join producers: act::ExecuteJoinPairs (via PolygonIndex) and
  // the routed ShardedIndex::JoinPairs promise sorted unique pairs.
  act::PolygonIndex single = act::PolygonIndex::Build(ds.polygons, grid, {});
  auto single_pairs =
      single.JoinPairs(pts.AsJoinInput(), act::JoinMode::kExact);
  ExpectSortedUnique(single_pairs);

  ShardedIndex sharded =
      ShardedIndex::Build(ds.polygons, grid, Sharding(4));
  auto sharded_pairs =
      sharded.JoinPairs(pts.AsJoinInput(), act::JoinMode::kExact);
  ExpectSortedUnique(sharded_pairs);
  EXPECT_EQ(sharded_pairs, single_pairs);

  // Pair-join producers reuse the same contract — that is what makes the
  // three implementations byte-comparable in the tests above.
  std::vector<geom::Polygon> pb = Partition(4, 4, 212);
  ShardedIndex ib = ShardedIndex::Build(pb, grid, Sharding(2));
  ExpectSortedUnique(
      CrossMatchIndexes(sharded, ib, {.mode = CrossMatchMode::kIntersects}));
  ExpectSortedUnique(
      BruteForceCrossMatch(ds.polygons, pb, CrossMatchMode::kIntersects));
  baselines::RTree ra = baselines::BuildPolygonRTree(ds.polygons);
  baselines::RTree rb = baselines::BuildPolygonRTree(pb);
  ExpectSortedUnique(ra.CrossMatchCandidates(rb));
  ExpectSortedUnique(baselines::RTreeCrossMatch(ra, ds.polygons, rb, pb));
}

// --- Dataset-level matcher -------------------------------------------------

struct TwoDatasetService {
  std::vector<geom::Polygon> pa, pb;
  std::unique_ptr<JoinService> service;
  uint16_t id_a = 0, id_b = 0;

  explicit TwoDatasetService(const ServiceOptions& opts = {}) {
    pa = Partition(5, 4, 131);
    pb = Partition(3, 6, 242);
    Grid grid;
    service = std::make_unique<JoinService>(BuildShared(pa, grid, 3), opts);
    id_a = 0;
    // ASSERT_* cannot run in a constructor; Add only fails on id-space
    // exhaustion, which a two-dataset fixture cannot hit.
    id_b = service->catalog().Add("b", BuildShared(pb, grid, 2)).value();
  }
};

TEST(Join2Matcher, RunMatchesLibraryAndOracle) {
  TwoDatasetService fx;
  DatasetCrossMatcher matcher(fx.service.get());
  for (CrossMatchMode mode :
       {CrossMatchMode::kIntersects, CrossMatchMode::kContains}) {
    CrossMatchOutcome out = matcher.Run(
        {.dataset_a = fx.id_a, .dataset_b = fx.id_b, .mode = mode});
    ASSERT_EQ(out.status, CrossMatchStatus::kOk);
    EXPECT_EQ(out.pairs, BruteForceCrossMatch(fx.pa, fx.pb, mode));
    EXPECT_GT(out.epoch_a, 0u);
    EXPECT_GT(out.epoch_b, 0u);
    EXPECT_EQ(out.stats.result_pairs, out.pairs.size());
  }
}

TEST(Join2Matcher, TypedRejectionsNameTheOffendingSide) {
  TwoDatasetService fx;
  DatasetCrossMatcher matcher(fx.service.get());

  // Unknown ids, either side.
  CrossMatchOutcome out = matcher.Run({.dataset_a = 99, .dataset_b = fx.id_b});
  EXPECT_EQ(out.status, CrossMatchStatus::kUnknownDataset);
  EXPECT_EQ(out.offending_dataset, 99);
  out = matcher.Run({.dataset_a = fx.id_a, .dataset_b = 99});
  EXPECT_EQ(out.status, CrossMatchStatus::kUnknownDataset);
  EXPECT_EQ(out.offending_dataset, 99);

  // Offline reservation: assigned but never published.
  auto offline = fx.service->catalog().AddOffline("offline");
  ASSERT_TRUE(offline.has_value());
  out = matcher.Run({.dataset_a = fx.id_a, .dataset_b = *offline});
  EXPECT_EQ(out.status, CrossMatchStatus::kUnknownDataset);
  EXPECT_EQ(out.offending_dataset, *offline);

  // Tombstoned, either side.
  ASSERT_EQ(fx.service->DropDataset(fx.id_b).status,
            service::MutationStatus::kApplied);
  out = matcher.Run({.dataset_a = fx.id_a, .dataset_b = fx.id_b});
  EXPECT_EQ(out.status, CrossMatchStatus::kDatasetDropped);
  EXPECT_EQ(out.offending_dataset, fx.id_b);
  out = matcher.Run({.dataset_a = fx.id_b, .dataset_b = fx.id_a});
  EXPECT_EQ(out.status, CrossMatchStatus::kDatasetDropped);
  EXPECT_EQ(out.offending_dataset, fx.id_b);

  // A self-join of a live dataset still works after all that.
  out = matcher.Run({.dataset_a = fx.id_a, .dataset_b = fx.id_a});
  EXPECT_EQ(out.status, CrossMatchStatus::kOk);
}

TEST(Join2Matcher, AsyncMatchesRunAndFeedsObservability) {
  TwoDatasetService fx;
  DatasetCrossMatcher matcher(fx.service.get());
  CrossMatchRequest req{.dataset_a = fx.id_a,
                        .dataset_b = fx.id_b,
                        .mode = CrossMatchMode::kIntersects,
                        .request_id = 7777};
  CrossMatchOutcome want = matcher.Run(req);
  ASSERT_EQ(want.status, CrossMatchStatus::kOk);

  std::promise<CrossMatchOutcome> promise;
  std::future<CrossMatchOutcome> future = promise.get_future();
  ASSERT_EQ(matcher.TryCrossMatchAsync(
                req, [&](CrossMatchOutcome out) {
                  promise.set_value(std::move(out));
                }),
            service::SubmitStatus::kAccepted);
  CrossMatchOutcome got = future.get();
  ASSERT_EQ(got.status, CrossMatchStatus::kOk);
  EXPECT_EQ(got.pairs, want.pairs);
  ExpectStatsEqual(got.stats, want.stats);
  EXPECT_EQ(got.epoch_a, want.epoch_a);
  EXPECT_EQ(got.epoch_b, want.epoch_b);

  // Unknown a-side is rejected at the door (done dropped unrun).
  EXPECT_EQ(matcher.TryCrossMatchAsync({.dataset_a = 99},
                                       [](CrossMatchOutcome) { FAIL(); }),
            service::SubmitStatus::kUnknownDataset);

  // Metrics counted both executions; the slow-query log saw the request.
  util::MetricsRegistry* metrics = fx.service->metrics();
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->GetCounter("crossmatch_requests_total", "")->value(),
            2u);
  EXPECT_EQ(metrics->GetCounter("crossmatch_result_pairs_total", "")->value(),
            2 * want.pairs.size());
  bool logged = false;
  for (const auto& q : fx.service->slow_queries().TopK()) {
    logged |= q.request_id == 7777;
  }
  EXPECT_TRUE(logged);
}

TEST(Join2Matcher, MutationsChangeTheJoinedEpoch) {
  TwoDatasetService fx;
  DatasetCrossMatcher matcher(fx.service.get());
  CrossMatchRequest req{.dataset_a = fx.id_a, .dataset_b = fx.id_b};
  CrossMatchOutcome before = matcher.Run(req);
  ASSERT_EQ(before.status, CrossMatchStatus::kOk);

  // Grow the b-side: the next crossmatch pins the new epoch and matches
  // the oracle over the extended polygon set.
  std::vector<geom::Polygon> added = {CenteredSquare(0.07)};
  auto mut = fx.service->AddPolygons(fx.id_b, added);
  ASSERT_EQ(mut.status, service::MutationStatus::kApplied);
  std::vector<geom::Polygon> pb2 = fx.pb;
  pb2.push_back(added[0]);

  CrossMatchOutcome after = matcher.Run(req);
  ASSERT_EQ(after.status, CrossMatchStatus::kOk);
  EXPECT_GT(after.epoch_b, before.epoch_b);
  EXPECT_EQ(after.epoch_a, before.epoch_a);
  EXPECT_EQ(after.pairs, BruteForceCrossMatch(
                             fx.pa, pb2, CrossMatchMode::kIntersects));

  // Shrink the a-side: removed ids vanish from the output.
  ASSERT_EQ(fx.service->RemovePolygons(fx.id_a, {0, 3}).status,
            service::MutationStatus::kApplied);
  std::vector<uint32_t> skip = {0, 3};
  CrossMatchOutcome removed = matcher.Run(req);
  ASSERT_EQ(removed.status, CrossMatchStatus::kOk);
  EXPECT_EQ(removed.pairs,
            BruteForceCrossMatch(fx.pa, pb2, CrossMatchMode::kIntersects,
                                 skip, {}));
}

// --- Per-snapshot view memo ------------------------------------------------

uint64_t ViewBuilds(JoinService& service) {
  return service.metrics()
      ->GetCounter("crossmatch_view_builds_total", "")
      ->value();
}

/// A matcher reply must equal CrossMatchIndexes over the snapshots it
/// pinned, pairs and stats alike.
void ExpectMatchesReference(const CrossMatchOutcome& got,
                            const ShardedIndex& a, const ShardedIndex& b,
                            CrossMatchMode mode) {
  ASSERT_EQ(got.status, CrossMatchStatus::kOk);
  CrossMatchStats want_stats;
  const Pairs want = CrossMatchIndexes(a, b, {.mode = mode}, nullptr,
                                       &want_stats);
  EXPECT_EQ(got.pairs, want) << ToString(mode);
  ExpectStatsEqual(got.stats, want_stats);
}

TEST(Join2ViewMemo, RepeatedRequestsBuildEachSideOnce) {
  TwoDatasetService fx;
  DatasetCrossMatcher matcher(fx.service.get());
  uint64_t epoch_a = 0, epoch_b = 0;
  auto snap_a = fx.service->catalog().Find(fx.id_a)->Acquire(&epoch_a);
  auto snap_b = fx.service->catalog().Find(fx.id_b)->Acquire(&epoch_b);
  EXPECT_EQ(ViewBuilds(*fx.service), 0u) << "views are built lazily";
  for (int i = 0; i < 6; ++i) {
    const CrossMatchMode mode =
        i % 2 == 0 ? CrossMatchMode::kIntersects : CrossMatchMode::kContains;
    CrossMatchOutcome out = matcher.Run(
        {.dataset_a = fx.id_a, .dataset_b = fx.id_b, .mode = mode});
    ExpectMatchesReference(out, *snap_a, *snap_b, mode);
    EXPECT_EQ(out.epoch_a, epoch_a);
    EXPECT_EQ(out.epoch_b, epoch_b);
  }
  EXPECT_EQ(ViewBuilds(*fx.service), 2u);
  EXPECT_EQ(matcher.memoized_views(), 2u);

  // A self-join reuses the a-side view for both sides.
  CrossMatchOutcome self = matcher.Run(
      {.dataset_a = fx.id_a, .dataset_b = fx.id_a});
  ExpectMatchesReference(self, *snap_a, *snap_a, CrossMatchMode::kIntersects);
  EXPECT_EQ(ViewBuilds(*fx.service), 2u);
}

TEST(Join2ViewMemo, DeltaRebuildsOnlyTheMutatedSide) {
  TwoDatasetService fx;
  DatasetCrossMatcher matcher(fx.service.get());
  const service::ServiceCatalog& catalog = fx.service->catalog();
  CrossMatchRequest req{.dataset_a = fx.id_a, .dataset_b = fx.id_b};
  ASSERT_EQ(matcher.Run(req).status, CrossMatchStatus::kOk);
  ASSERT_EQ(ViewBuilds(*fx.service), 2u);

  ASSERT_EQ(fx.service->AddPolygons(fx.id_b, {CenteredSquare(0.07)}).status,
            service::MutationStatus::kApplied);
  for (CrossMatchMode mode :
       {CrossMatchMode::kIntersects, CrossMatchMode::kContains}) {
    req.mode = mode;
    CrossMatchOutcome out = matcher.Run(req);
    ExpectMatchesReference(out, *catalog.Find(fx.id_a)->Acquire(),
                           *catalog.Find(fx.id_b)->Acquire(), mode);
  }
  EXPECT_EQ(ViewBuilds(*fx.service), 3u) << "only the b-side rebuilds";

  ASSERT_EQ(fx.service->RemovePolygons(fx.id_a, {0, 3}).status,
            service::MutationStatus::kApplied);
  for (CrossMatchMode mode :
       {CrossMatchMode::kIntersects, CrossMatchMode::kContains}) {
    req.mode = mode;
    CrossMatchOutcome out = matcher.Run(req);
    ExpectMatchesReference(out, *catalog.Find(fx.id_a)->Acquire(),
                           *catalog.Find(fx.id_b)->Acquire(), mode);
  }
  EXPECT_EQ(ViewBuilds(*fx.service), 4u) << "only the a-side rebuilds";
}

TEST(Join2ViewMemo, DropReleasesTheSlotAndResurrectionRebuilds) {
  TwoDatasetService fx;
  DatasetCrossMatcher matcher(fx.service.get());
  CrossMatchRequest req{.dataset_a = fx.id_a, .dataset_b = fx.id_b};
  ASSERT_EQ(matcher.Run(req).status, CrossMatchStatus::kOk);
  ASSERT_EQ(matcher.memoized_views(), 2u);

  ASSERT_EQ(fx.service->DropDataset(fx.id_b).status,
            service::MutationStatus::kApplied);
  CrossMatchOutcome out = matcher.Run(req);
  EXPECT_EQ(out.status, CrossMatchStatus::kDatasetDropped);
  EXPECT_EQ(out.offending_dataset, fx.id_b);
  EXPECT_EQ(matcher.memoized_views(), 1u) << "dropped side's slot released";
  EXPECT_EQ(ViewBuilds(*fx.service), 2u);

  // A full publish resurrects the id with a new snapshot: a fresh build.
  Grid grid;
  std::vector<geom::Polygon> pb2 = Partition(4, 4, 353);
  fx.service->SwapIndex(fx.id_b, BuildShared(pb2, grid, 2));
  out = matcher.Run(req);
  ASSERT_EQ(out.status, CrossMatchStatus::kOk);
  EXPECT_EQ(out.pairs,
            BruteForceCrossMatch(fx.pa, pb2, CrossMatchMode::kIntersects));
  EXPECT_EQ(ViewBuilds(*fx.service), 3u);
  EXPECT_EQ(matcher.memoized_views(), 2u);
}

// --- Concurrency (runs under TSan in CI) -----------------------------------

TEST(Join2Concurrency, ConcurrentMissesShareOneBuild) {
  // Every thread's first request misses together; the late arrivals wait
  // on the in-flight build instead of repeating it.
  TwoDatasetService fx;
  DatasetCrossMatcher matcher(fx.service.get());
  CrossMatchRequest req{.dataset_a = fx.id_a, .dataset_b = fx.id_b};
  std::atomic<bool> go{false};
  std::vector<CrossMatchOutcome> outs(4);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < outs.size(); ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      outs[t] = matcher.Run(req);
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  EXPECT_EQ(ViewBuilds(*fx.service), 2u);
  const CrossMatchOutcome want = matcher.Run(req);
  for (const CrossMatchOutcome& out : outs) {
    ASSERT_EQ(out.status, CrossMatchStatus::kOk);
    EXPECT_EQ(out.pairs, want.pairs);
  }
}

TEST(Join2Concurrency, MemoizedViewsRaceWithSwapsAndDeltas) {
  // Crossmatches race a seeded sequence of full swaps and deltas on both
  // sides. Every retired snapshot is released by the service while its
  // view may still sit in a memo slot, so a stale-view reuse would read
  // freed geometry (ASan) or a torn slot (TSan). The test keeps each
  // published epoch's polygon state, not its snapshot — holding snapshots
  // would keep retired ones alive and hide that use-after-free — and
  // checks every reply against the brute-force oracle (which
  // CrossMatchIndexes matches, asserted above) over the states of the
  // epoch pair the reply reports.
  TwoDatasetService fx;
  DatasetCrossMatcher matcher(fx.service.get());
  service::ServiceCatalog& catalog = fx.service->catalog();
  using EpochKey = std::pair<uint16_t, uint64_t>;
  std::map<EpochKey, std::vector<geom::Polygon>> states;
  std::map<EpochKey, std::vector<uint32_t>> removed;
  auto record = [&](uint16_t id, const std::vector<geom::Polygon>& polys,
                    const std::vector<uint32_t>& skip) {
    uint64_t epoch = 0;
    catalog.Find(id)->Acquire(&epoch);
    states[{id, epoch}] = polys;
    removed[{id, epoch}] = skip;
  };
  std::vector<geom::Polygon> pa = fx.pa, pb = fx.pb;
  std::vector<uint32_t> skip_a, skip_b;
  record(fx.id_a, pa, skip_a);
  record(fx.id_b, pb, skip_b);

  struct Observed {
    std::vector<CrossMatchOutcome> outs;
    std::vector<CrossMatchMode> modes;
  };
  std::atomic<bool> stop{false};
  std::vector<Observed> observed(3);
  std::vector<std::thread> joiners;
  for (size_t t = 0; t < observed.size(); ++t) {
    joiners.emplace_back([&, t] {
      const CrossMatchMode mode = t % 2 == 0 ? CrossMatchMode::kIntersects
                                             : CrossMatchMode::kContains;
      do {
        observed[t].outs.push_back(matcher.Run(
            {.dataset_a = fx.id_a, .dataset_b = fx.id_b, .mode = mode}));
        observed[t].modes.push_back(mode);
      } while (!stop.load(std::memory_order_relaxed));
    });
  }

  Grid grid;
  for (int step = 0; step < 6; ++step) {
    const uint64_t seed = 7100 + static_cast<uint64_t>(step);
    switch (step % 3) {
      case 0: {  // full swap of the a-side
        pa = Partition(4 + step % 2, 4, seed);
        skip_a.clear();
        fx.service->SwapIndex(fx.id_a, BuildShared(pa, grid, 3));
        record(fx.id_a, pa, skip_a);
        break;
      }
      case 1: {  // delta on the b-side
        std::vector<geom::Polygon> add = {
            CenteredSquare(0.02 + 0.01 * static_cast<double>(step))};
        ASSERT_EQ(fx.service->AddPolygons(fx.id_b, add).status,
                  service::MutationStatus::kApplied);
        pb.push_back(add[0]);
        record(fx.id_b, pb, skip_b);
        break;
      }
      case 2: {  // delta on the a-side
        const uint32_t victim = static_cast<uint32_t>(step);
        ASSERT_EQ(fx.service->RemovePolygons(fx.id_a, {victim}).status,
                  service::MutationStatus::kApplied);
        skip_a.push_back(victim);
        record(fx.id_a, pa, skip_a);
        break;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true);
  for (auto& th : joiners) th.join();

  std::map<std::tuple<uint64_t, uint64_t, CrossMatchMode>, Pairs> want;
  for (const Observed& obs : observed) {
    for (size_t i = 0; i < obs.outs.size(); ++i) {
      const CrossMatchOutcome& out = obs.outs[i];
      ASSERT_EQ(out.status, CrossMatchStatus::kOk);
      const EpochKey ka{fx.id_a, out.epoch_a}, kb{fx.id_b, out.epoch_b};
      ASSERT_TRUE(states.count(ka) && states.count(kb))
          << "reply pinned an unpublished epoch";
      const auto key = std::make_tuple(out.epoch_a, out.epoch_b, obs.modes[i]);
      auto it = want.find(key);
      if (it == want.end()) {
        it = want.emplace(key, BruteForceCrossMatch(states[ka], states[kb],
                                                    obs.modes[i], removed[ka],
                                                    removed[kb]))
                 .first;
      }
      EXPECT_EQ(out.pairs, it->second)
          << "epochs " << out.epoch_a << "/" << out.epoch_b;
    }
  }
}

TEST(Join2Concurrency, CrossMatchesRaceWithMutations) {
  TwoDatasetService fx;
  DatasetCrossMatcher matcher(fx.service.get());
  CrossMatchRequest req{.dataset_a = fx.id_a, .dataset_b = fx.id_b};

  // Mutator: grow b, shrink a, concurrently with crossmatches. Every
  // concurrent result must be internally well-formed (sorted unique) —
  // each pins one consistent epoch pair.
  std::atomic<bool> stop{false};
  std::atomic<bool> malformed{false};
  std::vector<std::thread> joiners;
  for (int t = 0; t < 3; ++t) {
    joiners.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        CrossMatchOutcome out = matcher.Run(req);
        if (out.status != CrossMatchStatus::kOk) continue;
        if (!std::is_sorted(out.pairs.begin(), out.pairs.end()) ||
            std::adjacent_find(out.pairs.begin(), out.pairs.end()) !=
                out.pairs.end()) {
          malformed.store(true, std::memory_order_relaxed);
        }
      }
    });
  }
  std::vector<geom::Polygon> pb2 = fx.pb;
  for (int i = 0; i < 6; ++i) {
    std::vector<geom::Polygon> add = {
        CenteredSquare(0.02 + 0.01 * static_cast<double>(i))};
    ASSERT_EQ(fx.service->AddPolygons(fx.id_b, add).status,
              service::MutationStatus::kApplied);
    pb2.push_back(add[0]);
    ASSERT_EQ(fx.service->RemovePolygons(fx.id_a, {static_cast<uint32_t>(i)})
                  .status,
              service::MutationStatus::kApplied);
  }
  stop.store(true);
  for (auto& th : joiners) th.join();
  EXPECT_FALSE(malformed.load());

  // Quiesced: the final result matches the oracle over the final state.
  std::vector<uint32_t> skip = {0, 1, 2, 3, 4, 5};
  CrossMatchOutcome final_out = matcher.Run(req);
  ASSERT_EQ(final_out.status, CrossMatchStatus::kOk);
  EXPECT_EQ(final_out.pairs,
            BruteForceCrossMatch(fx.pa, pb2, CrossMatchMode::kIntersects,
                                 skip, {}));
}

}  // namespace
}  // namespace actjoin::join2
