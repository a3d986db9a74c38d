// xmatch_boroughs_census: the polygon x polygon crossmatch over the wire.
//
// Boroughs(1.0) and Census(0.25), each a 4-shard coarse exact-mode index,
// are served as datasets 0 and 1. One operation is an intersects
// JOIN_DATASETS followed by a contains JOIN_DATASETS, one request in
// flight; each reassembled PAIR_RESULT stream must equal the in-process
// join2::CrossMatchIndexes output byte for byte, and its stats tail the
// in-process stats.

#include <cstdio>

#include "bench.h"
#include "join2/cross_match.h"
#include "ladder.h"
#include "workloads/datasets.h"

namespace perfbench {

namespace {

namespace wl = actjoin::wl;
namespace join2 = actjoin::join2;

constexpr double kCensusScale = 0.25;
constexpr int kShards = 4;
constexpr uint64_t kLadderPoints = 16384;

constexpr join2::CrossMatchMode kModes[2] = {join2::CrossMatchMode::kIntersects,
                                             join2::CrossMatchMode::kContains};

class XmatchWorkload : public Workload {
 public:
  void Generate(uint64_t seed, int /*seconds*/) override {
    seed_ = seed;
    boroughs_ = wl::Boroughs(1.0, SubSeed(seed, 1));
    census_ = wl::Census(kCensusScale, SubSeed(seed, 2));
    // Only the traced run's point-join probes use these (census side).
    const wl::PointSet pts = wl::SyntheticUniformPoints(
        census_.mbr, kLadderPoints, grid_, SubSeed(seed, 3));
    ladder_batch_.cell_ids = pts.cell_ids();
    ladder_batch_.points = pts.points();
    ladder_batch_.mode = act::JoinMode::kExact;
    ladder_batch_.dataset_id = 1;
    std::printf("workload xmatch_boroughs_census: %zu x %zu polygons, %d "
                "shards per side, intersects then contains per operation\n",
                boroughs_.polygons.size(), census_.polygons.size(), kShards);
  }

  svc::ShardingOptions Sharding() const {
    svc::ShardingOptions o;
    o.num_shards = kShards;
    return o;
  }

  bool Setup(Stack* stack, std::string* error) override {
    a_ = std::make_shared<const svc::ShardedIndex>(
        svc::ShardedIndex::Build(boroughs_.polygons, grid_, Sharding()));
    b_ = std::make_shared<const svc::ShardedIndex>(
        svc::ShardedIndex::Build(census_.polygons, grid_, Sharding()));
    return stack->Start({{"boroughs", a_}, {"census", b_}}, error);
  }

  void ReleaseSetup() override {
    a_.reset();
    b_.reset();
  }

  void PrepareReference() override {
    for (int m = 0; m < 2; ++m) {
      ref_pairs_[m] = join2::CrossMatchIndexes(*a_, *b_, {kModes[m], 0}, nullptr,
                                               &ref_stats_[m]);
    }
    std::printf("reference crossmatch: %zu intersecting, %zu contained pairs\n",
                ref_pairs_[0].size(), ref_pairs_[1].size());
  }

  LoopResult Loop(Stack& stack, double seconds, SpanLog* spans) override {
    net::AsyncJoinClient& client = *stack.client;
    LoopResult r;
    const int64_t t0 = NowNs();
    const double cpu0 = ProcessCpuSeconds();
    const int64_t end = t0 + static_cast<int64_t>(seconds * 1e9);
    while (NowNs() < end) {
      const int64_t op_start = NowNs();
      bool ok = true;
      for (int m = 0; m < 2; ++m) {
        const uint64_t rid = client.NextRequestId();
        net::JoinDatasetsRequest req;
        req.dataset_b = 1;
        req.mode = static_cast<uint8_t>(kModes[m]);
        req.trace = spans != nullptr;
        const int64_t t_start = NowNs();
        const std::vector<uint8_t> frame = net::EncodeJoinDatasetsFrame(rid, 0, req);
        const int64_t t_sent = NowNs();
        net::CrossMatchReply reply = client.CallCrossMatch(frame, rid).get();
        const int64_t t_reply = NowNs();
        if (!reply.ok) {
          RecordWireFailure(&r.ledger, reply.error);
          ok = false;
          continue;
        }
        const join2::CrossMatchStats& want = ref_stats_[m];
        const bool same = reply.pairs == ref_pairs_[m] &&
                          reply.stats.candidate_pairs == want.candidate_pairs &&
                          reply.stats.refined_pairs == want.refined_pairs &&
                          reply.stats.pruned_pairs == want.pruned_pairs &&
                          reply.stats.max_depth == want.max_depth;
        const int64_t t_done = NowNs();
        if (!same) {
          r.ledger.RecordMismatch();
          ok = false;
          continue;
        }
        r.ledger.RecordSuccess();
        mode_ms_[m].push_back(static_cast<double>(t_done - t_start) / 1e6);
        if (spans != nullptr) {
          const int32_t root = spans->Open(std::string("crossmatch.") +
                                               join2::ToString(kModes[m]),
                                           Layer::kNet, t_start, -1, rid);
          spans->Close(spans->Open("client.encode", Layer::kNet, t_start, root, rid),
                       t_sent);
          const int32_t call =
              spans->Open("client.call", Layer::kNet, t_sent, root, rid);
          spans->Close(call, t_reply);
          spans->AddStages(call, CrossMatchStages(reply.trace));
          spans->Close(spans->Open("bench.verify", Layer::kBench, t_reply, root, rid),
                       t_done);
          spans->Close(root, t_done);
        }
      }
      if (!ok) continue;
      ++r.ops;
      r.op_ms.push_back(static_cast<double>(NowNs() - op_start) / 1e6);
    }
    r.wall_s = static_cast<double>(NowNs() - t0) / 1e9;
    r.cpu_s = ProcessCpuSeconds() - cpu0;
    return r;
  }

  void ReportExtras(MetricSet* extras) override {
    extras->Add("xmatch_intersects_ms", Percentile(mode_ms_[0], 50), "ms",
                mode_ms_[0].size());
    extras->Add("xmatch_contains_ms", Percentile(mode_ms_[1], 50), "ms",
                mode_ms_[1].size());
  }

  std::pair<size_t, size_t> Ladder(Stack& stack, SpanLog* spans,
                                   MetricSet* layer,
                                   FailureLedger* ledger) override {
    PointSubject s;
    s.polygons = &census_.polygons;
    s.sharding = Sharding();
    s.initial = b_;
    s.dataset_id = 1;
    s.mode = act::JoinMode::kExact;
    s.batch = &ladder_batch_;
    s.mbr = census_.mbr;
    s.seed = seed_;
    PointLadder(s, stack, spans, layer, ledger);
    const auto trees = Join2Ladder(0, 1, 2, stack, spans, layer, ledger);
    MutationLadder(s, stack, layer, ledger);
    return trees;
  }

 private:
  actjoin::geo::Grid grid_;
  uint64_t seed_ = 0;
  wl::PolygonDataset boroughs_, census_;
  svc::QueryBatch ladder_batch_;
  std::shared_ptr<const svc::ShardedIndex> a_, b_;
  std::vector<std::pair<uint32_t, uint32_t>> ref_pairs_[2];
  join2::CrossMatchStats ref_stats_[2];
  std::vector<double> mode_ms_[2];
};

}  // namespace

std::unique_ptr<Workload> MakeXmatchBoroughsCensus() {
  return std::make_unique<XmatchWorkload>();
}

}  // namespace perfbench
