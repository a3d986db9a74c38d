// The two closed-loop point-join workloads:
//
//   taxi_nbhd_approx      65,536-point batches of clustered taxi points over
//                         Neighborhoods(1.0), 8 shards, 60 m approx mode.
//                         The index fits in L3; the wire does most work.
//   uniform_census_exact  16,384-point batches of uniform points over
//                         Census(0.25), 8 shards, coarse exact-mode index
//                         larger than L3; probe and refine do most work.
//
// One connection keeps `depth` JOIN_BATCH requests in flight. Batches come
// from a pool made at input preparation: coordinates, their leaf cell ids
// and the encoded frame, so the loop only stamps a request id and sends
// (the client library's per-point cost is reported on its own as
// client_ns_per_pt). Every reply is decoded and compared with the
// in-process ShardedIndex::Join of the same batch.

#include <cstdio>
#include <deque>
#include <future>
#include <optional>

#include "bench.h"
#include "ladder.h"
#include "workloads/datasets.h"

namespace perfbench {

namespace {

namespace wl = actjoin::wl;

struct PointParams {
  const char* name;
  bool census;  // Census polygons and uniform points, else taxi/nbhd
  double scale;
  std::optional<double> precision_m;
  act::JoinMode mode;
  int shards;
  uint64_t batch_points;
  int pool_batches;
  int depth;  // JOIN_BATCH requests in flight
};

class PointWorkload : public Workload {
 public:
  explicit PointWorkload(const PointParams& p) : p_(p) {}

  void Generate(uint64_t seed, int /*seconds*/) override {
    seed_ = seed;
    ds_ = p_.census ? wl::Census(p_.scale, SubSeed(seed, 1))
                    : wl::Neighborhoods(p_.scale, SubSeed(seed, 1));
    const uint64_t n = p_.batch_points * p_.pool_batches;
    const wl::PointSet pts =
        p_.census ? wl::SyntheticUniformPoints(ds_.mbr, n, grid_, SubSeed(seed, 2))
                  : wl::TaxiPoints(ds_.mbr, n, grid_, SubSeed(seed, 2));
    pool_.resize(p_.pool_batches);
    for (int b = 0; b < p_.pool_batches; ++b) {
      const uint64_t lo = b * p_.batch_points;
      const uint64_t hi = lo + p_.batch_points;
      pool_[b].cell_ids.assign(pts.cell_ids().begin() + lo,
                               pts.cell_ids().begin() + hi);
      pool_[b].points.assign(pts.points().begin() + lo, pts.points().begin() + hi);
      pool_[b].mode = p_.mode;
    }
    std::printf("workload %s: %zu polygons, %d batches x %llu points, "
                "%d shards, %s mode, %d in flight\n",
                p_.name, ds_.polygons.size(), p_.pool_batches,
                static_cast<unsigned long long>(p_.batch_points), p_.shards,
                p_.mode == act::JoinMode::kExact ? "exact" : "approx", p_.depth);
  }

  svc::ShardingOptions Sharding() const {
    svc::ShardingOptions o;
    o.num_shards = p_.shards;
    o.build.precision_bound_m = p_.precision_m;
    return o;
  }

  bool Setup(Stack* stack, std::string* error) override {
    index_ = std::make_shared<const svc::ShardedIndex>(
        svc::ShardedIndex::Build(ds_.polygons, grid_, Sharding()));
    return stack->Start({{p_.name, index_}}, error);
  }

  void ReleaseSetup() override { index_.reset(); }

  void PrepareReference() override {
    ref_.resize(pool_.size());
    for (size_t b = 0; b < pool_.size(); ++b) {
      ref_[b] = index_->Join({pool_[b].cell_ids, pool_[b].points}, {p_.mode, 0});
    }
    EncodePool(false);
    std::vector<uint8_t> stamped = frames_[0];
    SetFrameRequestId(&stamped, 0x0123456789abcdefULL);
    if (stamped != net::EncodeJoinBatchFrame(0x0123456789abcdefULL, pool_[0])) {
      std::fprintf(stderr, "re-stamped frame differs from a fresh encode\n");
      setup_mismatch_ = true;
    }
    std::printf("index %.1f MiB; reference joins computed for %zu batches\n",
                static_cast<double>(index_->MemoryBytes()) / (1 << 20),
                pool_.size());
  }

  /// Encodes every pool batch, with or without the trace flag.
  void EncodePool(bool trace) {
    frames_.resize(pool_.size());
    for (size_t b = 0; b < pool_.size(); ++b) {
      pool_[b].trace = trace;
      frames_[b] = net::EncodeJoinBatchFrame(0, pool_[b]);
    }
    frames_traced_ = trace;
  }

  LoopResult Loop(Stack& stack, double seconds, SpanLog* spans) override {
    struct Pending {
      uint64_t rid;
      size_t batch;
      int64_t t_start;  // request id stamped, about to send
      std::future<net::AsyncJoinClient::RawReply> reply;
    };
    if (frames_traced_ != (spans != nullptr)) EncodePool(spans != nullptr);
    net::AsyncJoinClient& client = *stack.client;
    std::deque<Pending> inflight;
    LoopResult r;
    bool recording = false;

    auto send = [&] {
      const size_t b = cursor_++ % pool_.size();
      const uint64_t rid = client.NextRequestId();
      const int64_t t0 = NowNs();
      SetFrameRequestId(&frames_[b], rid);
      inflight.push_back(
          {rid, b, t0, client.Call(frames_[b], rid, net::MessageType::kJoinResult)});
    };
    auto finish = [&] {
      Pending p = std::move(inflight.front());
      inflight.pop_front();
      net::AsyncJoinClient::RawReply reply = p.reply.get();
      const int64_t t_reply = NowNs();
      if (!reply.ok) {
        if (recording) RecordWireFailure(&r.ledger, reply.error);
        return;
      }
      svc::JoinResult res;
      const bool decoded = net::DecodeJoinResult(reply.payload, &res);
      const int64_t t_decoded = NowNs();
      const bool same = decoded && SameJoin(res.stats, ref_[p.batch]);
      const int64_t t_done = NowNs();
      if (!recording) {
        if (!same) setup_mismatch_ = true;
        return;
      }
      if (!decoded) {
        r.ledger.RecordFailure();
        return;
      }
      if (!same) {
        r.ledger.RecordMismatch();
        return;
      }
      r.ledger.RecordSuccess();
      ++r.ops;
      r.points += pool_[p.batch].points.size();
      r.op_ms.push_back(static_cast<double>(t_done - p.t_start) / 1e6);
      r.op_end_ns.push_back(t_done);
      last_payload_ = std::move(reply.payload);
      if (spans != nullptr) {
        const int32_t root = spans->Open("request", Layer::kNet, p.t_start, -1, p.rid);
        const int32_t call =
            spans->Open("client.call", Layer::kNet, p.t_start, root, p.rid);
        spans->Close(call, t_reply);
        spans->AddStages(call, JoinStages(res.trace));
        spans->Close(spans->Open("client.decode", Layer::kNet, t_reply, root, p.rid),
                     t_decoded);
        spans->Close(spans->Open("bench.verify", Layer::kBench, t_decoded, root, p.rid),
                     t_done);
        spans->Close(root, t_done);
      }
    };

    // Warm-up, unrecorded, then drained so the window starts clean.
    const int64_t warm_end = NowNs() + static_cast<int64_t>(kWarmupSeconds * 1e9);
    while (NowNs() < warm_end) {
      while (static_cast<int>(inflight.size()) < p_.depth) send();
      finish();
    }
    while (!inflight.empty()) finish();

    recording = true;
    const int64_t t0 = NowNs();
    r.start_ns = t0;
    const double cpu0 = ProcessCpuSeconds();
    const int64_t end = t0 + static_cast<int64_t>(seconds * 1e9);
    while (NowNs() < end) {
      while (static_cast<int>(inflight.size()) < p_.depth) send();
      finish();
    }
    while (!inflight.empty()) finish();
    r.wall_s = static_cast<double>(NowNs() - t0) / 1e9;
    r.cpu_s = ProcessCpuSeconds() - cpu0;
    if (setup_mismatch_) r.ledger.RecordMismatch();
    return r;
  }

  void ReportExtras(MetricSet* extras) override {
    // The client library's per-point cost on this thread, outside the
    // throughput window: deriving leaf cell ids, encoding, decoding.
    const svc::QueryBatch& b = pool_[0];
    const double n = static_cast<double>(b.points.size());
    std::vector<double> cell_ns, enc_ns, dec_ns, total_ns;
    std::vector<uint64_t> ids(b.points.size());
    for (int rep = 0; rep < 5; ++rep) {
      const int64_t t0 = NowNs();
      for (size_t i = 0; i < ids.size(); ++i) {
        ids[i] = grid_.CellAt({b.points[i].y, b.points[i].x}).id();
      }
      const int64_t t1 = NowNs();
      const std::vector<uint8_t> frame = net::EncodeJoinBatchFrame(1, b);
      const int64_t t2 = NowNs();
      svc::JoinResult res;
      net::DecodeJoinResult(last_payload_, &res);
      const int64_t t3 = NowNs();
      cell_ns.push_back((t1 - t0) / n);
      enc_ns.push_back((t2 - t1) / n);
      dec_ns.push_back((t3 - t2) / n);
      total_ns.push_back((t3 - t0) / n);
    }
    extras->Add("client_ns_per_pt", Percentile(total_ns, 50), "ns", total_ns.size());
    std::printf("client per point: CellAt %.1f ns + encode %.1f ns + decode "
                "%.1f ns\n",
                Percentile(cell_ns, 50), Percentile(enc_ns, 50),
                Percentile(dec_ns, 50));
  }

  std::pair<size_t, size_t> Ladder(Stack& stack, SpanLog* spans,
                                   MetricSet* layer,
                                   FailureLedger* ledger) override {
    PointSubject s;
    s.polygons = &ds_.polygons;
    s.sharding = Sharding();
    s.initial = index_;
    s.dataset_id = 0;
    s.mode = p_.mode;
    s.batch = &pool_[0];
    s.mbr = ds_.mbr;
    s.seed = seed_;
    const auto trees = PointLadder(s, stack, spans, layer, ledger);
    Join2Ladder(0, 0, 1, stack, spans, layer, ledger);
    MutationLadder(s, stack, layer, ledger);
    return trees;
  }

 private:
  PointParams p_;
  actjoin::geo::Grid grid_;
  wl::PolygonDataset ds_;
  std::vector<svc::QueryBatch> pool_;
  std::vector<std::vector<uint8_t>> frames_;  // pool_ encoded
  bool frames_traced_ = false;
  std::shared_ptr<const svc::ShardedIndex> index_;
  std::vector<act::JoinStats> ref_;
  std::vector<uint8_t> last_payload_;
  size_t cursor_ = 0;
  uint64_t seed_ = 0;
  bool setup_mismatch_ = false;  // frame stamping or warm-up mismatch
};

}  // namespace

std::unique_ptr<Workload> MakeTaxiNbhdApprox() {
  return std::make_unique<PointWorkload>(PointParams{
      "taxi_nbhd_approx", false, 1.0, 60.0, act::JoinMode::kApproximate, 8,
      65536, 32, 4});
}

std::unique_ptr<Workload> MakeUniformCensusExact() {
  return std::make_unique<PointWorkload>(PointParams{
      "uniform_census_exact", true, 0.25, std::nullopt, act::JoinMode::kExact,
      8, 16384, 64, 4});
}

}  // namespace perfbench
