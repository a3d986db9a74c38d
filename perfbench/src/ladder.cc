#include "ladder.h"

#include <cmath>
#include <cstdio>
#include <future>
#include <numbers>
#include <string>

#include "join2/cross_match.h"
#include "util/random.h"

namespace perfbench {

namespace {

namespace join2 = actjoin::join2;

/// Calls `probe` (which returns one measurement) at least `min_reps` times
/// and until `min_seconds` have passed, at most `max_reps` times.
template <typename F>
std::vector<double> Repeat(F&& probe, int min_reps = 5,
                           double min_seconds = 0.25, int max_reps = 400) {
  std::vector<double> out;
  const int64_t start = NowNs();
  while (static_cast<int>(out.size()) < min_reps ||
         (static_cast<double>(NowNs() - start) < min_seconds * 1e9 &&
          static_cast<int>(out.size()) < max_reps)) {
    out.push_back(probe());
  }
  return out;
}

double Median(const std::vector<double>& v) { return Percentile(v, 50); }

void Check(bool ok, const char* what, FailureLedger* ledger) {
  if (ok) return;
  std::fprintf(stderr, "ladder check failed: %s\n", what);
  ledger->RecordMismatch();
}

double PerPoint(int64_t ns, uint64_t n) {
  return static_cast<double>(ns) / static_cast<double>(n);
}

}  // namespace

geom::Polygon ProbePolygon(const geom::Rect& mbr, uint64_t seed,
                           double radius_deg) {
  actjoin::util::Rng rng(seed);
  const double cx = mbr.lo.x + mbr.Width() * rng.Uniform(0.2, 0.8);
  const double cy = mbr.lo.y + (mbr.hi.y - mbr.lo.y) * rng.Uniform(0.2, 0.8);
  geom::Ring ring;
  for (int k = 0; k < 8; ++k) {
    const double a = 2 * std::numbers::pi * k / 8;
    const double r = radius_deg * rng.Uniform(0.7, 1.0);
    ring.push_back({cx + r * std::cos(a), cy + r * std::sin(a)});
  }
  return geom::Polygon(std::move(ring));
}

std::pair<size_t, size_t> PointLadder(const PointSubject& s, Stack& stack,
                                      SpanLog* spans, MetricSet* layer,
                                      FailureLedger* ledger) {
  const svc::QueryBatch& batch = *s.batch;
  const uint64_t n = batch.points.size();
  const act::JoinInput input{batch.cell_ids, batch.points};
  const act::JoinOptions one_thread{s.mode, 1};
  const actjoin::geo::Grid& grid = s.initial->grid();

  // geo: leaf cell ids from coordinates, as a client would derive them.
  std::vector<uint64_t> ids(n);
  const std::vector<double> geo_ns = Repeat([&] {
    const int64_t t0 = NowNs();
    for (uint64_t i = 0; i < n; ++i) {
      ids[i] = grid.CellAt({batch.points[i].y, batch.points[i].x}).id();
    }
    return PerPoint(NowNs() - t0, n);
  });
  Check(ids == batch.cell_ids, "geo cell ids differ from the batch's", ledger);
  layer->Add("geo.cell_id_ns_per_pt", Median(geo_ns), "ns", geo_ns.size());

  // L0 and L1 on a 1-shard index over the same polygons.
  svc::ShardingOptions one_shard = s.sharding;
  one_shard.num_shards = 1;
  const svc::ShardedIndex sharded1 =
      svc::ShardedIndex::Build(*s.polygons, grid, one_shard);
  const act::PolygonIndex* l0 = sharded1.shard_index(0);
  act::JoinStats l0_stats;
  const std::vector<double> l0_ns = Repeat([&] {
    const int64_t t0 = NowNs();
    l0_stats = l0->Join(input, one_thread);
    return PerPoint(NowNs() - t0, n);
  });
  act::JoinStats l1_stats;
  const std::vector<double> l1_ns = Repeat([&] {
    const int64_t t0 = NowNs();
    l1_stats = sharded1.Join(input, one_thread);
    return PerPoint(NowNs() - t0, n);
  });
  Check(SameJoin(l1_stats, l0_stats), "L1 differs from L0", ledger);
  const double pts = static_cast<double>(n);
  layer->Add("act.join_ns_per_pt", Median(l0_ns), "ns", l0_ns.size());
  layer->Add("act.candidate_refs_per_pt", l0_stats.candidate_refs / pts, "count");
  layer->Add("act.true_hit_refs_per_pt", l0_stats.true_hit_refs / pts, "count");
  layer->Add("act.pip_tests_per_pt", l0_stats.pip_tests / pts, "count");
  layer->Add("act.pip_hit_ratio",
             l0_stats.pip_tests == 0
                 ? 0.0
                 : static_cast<double>(l0_stats.pip_hits) / l0_stats.pip_tests,
             "ratio");
  layer->Add("act.sth_pct", l0_stats.SthPercent(), "%");

  // Build phases of the served index, summed over its shards.
  act::BuildTimings build;
  for (int sh = 0; sh < s.initial->num_shards(); ++sh) {
    const act::PolygonIndex* idx = s.initial->shard_index(sh);
    if (idx == nullptr) continue;
    build.individual_coverings_s += idx->timings().individual_coverings_s;
    build.super_covering_s += idx->timings().super_covering_s;
    build.refine_s += idx->timings().refine_s;
    build.encode_s += idx->timings().encode_s;
    build.trie_build_s += idx->timings().trie_build_s;
  }
  layer->Add("act.build_coverings_s", build.individual_coverings_s, "s");
  layer->Add("act.build_super_covering_s", build.super_covering_s, "s");
  layer->Add("act.build_encode_s", build.encode_s, "s");
  layer->Add("act.build_trie_s", build.trie_build_s, "s");
  std::printf("  act build phases: refine %.4f s (0 for an exact-mode index)\n",
              build.refine_s);

  layer->Add("sharded1.join_ns_per_pt", Median(l1_ns), "ns", l1_ns.size());

  // L2 on the served snapshot.
  const svc::ServiceCatalog::Snapshot served =
      stack.service->catalog().Find(s.dataset_id)->Acquire();
  act::JoinStats l2_stats;
  std::vector<double> route_ns, probe_ns, merge_ns;
  const std::vector<double> l2_ns = Repeat([&] {
    svc::ShardedIndex::JoinPhaseTimes phases;
    const int64_t t0 = NowNs();
    l2_stats = served->Join(input, one_thread, nullptr, &phases);
    const int64_t dt = NowNs() - t0;
    route_ns.push_back(phases.route_us * 1e3 / pts);
    probe_ns.push_back(phases.probe_us * 1e3 / pts);
    merge_ns.push_back(phases.merge_us * 1e3 / pts);
    return PerPoint(dt, n);
  });
  layer->Add("sharded.join_ns_per_pt", Median(l2_ns), "ns", l2_ns.size());
  layer->Add("sharded.route_ns_per_pt", Median(route_ns), "ns", route_ns.size());
  layer->Add("sharded.probe_ns_per_pt", Median(probe_ns), "ns", probe_ns.size());
  layer->Add("sharded.merge_ns_per_pt", Median(merge_ns), "ns", merge_ns.size());
  layer->Add("sharded.index_mb",
             static_cast<double>(served->MemoryBytes()) / (1 << 20), "MiB");

  // L3: the in-process service, one request at a time.
  uint64_t refused = 0;
  std::vector<double> queue_ms, service_ms;
  const std::vector<double> l3_ns = Repeat([&] {
    svc::QueryBatch q = batch;
    q.dataset_id = s.dataset_id;
    q.trace = false;
    std::future<svc::JoinResult> fut;
    const int64_t t0 = NowNs();
    const svc::SubmitStatus st = stack.service->TrySubmit(std::move(q), &fut);
    if (st != svc::SubmitStatus::kAccepted) {
      ++refused;
      return PerPoint(NowNs() - t0, n);
    }
    const svc::JoinResult r = fut.get();
    const int64_t dt = NowNs() - t0;
    Check(SameJoin(r.stats, l2_stats), "L3 differs from L2", ledger);
    queue_ms.push_back(r.queue_wait_ms);
    service_ms.push_back(r.service_ms);
    return PerPoint(dt, n);
  });
  layer->Add("service.join_ns_per_pt", Median(l3_ns), "ns", l3_ns.size());
  layer->Add("service.queue_wait_ms", Median(queue_ms), "ms", queue_ms.size());
  layer->Add("service.service_ms", Median(service_ms), "ms", service_ms.size());
  layer->Add("service.refused", static_cast<double>(refused), "count",
             l3_ns.size());

  // L4: one request in flight over loopback, untraced.
  net::AsyncJoinClient& client = *stack.client;
  svc::QueryBatch q = batch;
  q.dataset_id = s.dataset_id;
  std::vector<double> enc_ns, dec_ns;
  double request_bytes = 0, reply_bytes = 0;
  const std::vector<double> l4_ns = Repeat([&] {
    const uint64_t rid = client.NextRequestId();
    q.trace = false;
    q.trace_id = rid;
    const int64_t t0 = NowNs();
    const std::vector<uint8_t> frame = net::EncodeJoinBatchFrame(rid, q);
    const int64_t t1 = NowNs();
    net::AsyncJoinClient::RawReply reply =
        client.Call(frame, rid, net::MessageType::kJoinResult).get();
    const int64_t t2 = NowNs();
    svc::JoinResult r;
    const bool ok = reply.ok && net::DecodeJoinResult(reply.payload, &r);
    const int64_t t3 = NowNs();
    Check(ok && SameJoin(r.stats, l2_stats), "L4 differs from L2", ledger);
    enc_ns.push_back(PerPoint(t1 - t0, n));
    dec_ns.push_back(PerPoint(t3 - t2, n));
    request_bytes = static_cast<double>(frame.size());
    reply_bytes = static_cast<double>(reply.payload.size() + net::kFrameHeaderBytes);
    return PerPoint(t3 - t0, n);
  });
  layer->Add("net.join_ns_per_pt", Median(l4_ns), "ns", l4_ns.size());
  layer->Add("net.encode_ns_per_pt", Median(enc_ns), "ns", enc_ns.size());
  layer->Add("net.decode_ns_per_pt", Median(dec_ns), "ns", dec_ns.size());
  layer->Add("net.request_bytes_per_pt", request_bytes / pts, "bytes");
  layer->Add("net.reply_bytes", reply_bytes, "bytes");

  // L4 traced: the request trees self time is computed over.
  const size_t first = spans->size();
  std::vector<std::vector<double>> stage_us(svc::kNumTraceStages);
  std::vector<double> unattributed_us;
  Repeat([&] {
    const uint64_t rid = client.NextRequestId();
    q.trace = true;
    q.trace_id = rid;
    const int64_t t0 = NowNs();
    const int32_t root = spans->Open("request", Layer::kNet, t0, -1, rid);
    const std::vector<uint8_t> frame = net::EncodeJoinBatchFrame(rid, q);
    const int64_t t1 = NowNs();
    net::AsyncJoinClient::RawReply reply =
        client.Call(frame, rid, net::MessageType::kJoinResult).get();
    const int64_t t2 = NowNs();
    svc::JoinResult r;
    const bool decoded = reply.ok && net::DecodeJoinResult(reply.payload, &r);
    const int64_t t3 = NowNs();
    const bool same = decoded && SameJoin(r.stats, l2_stats);
    const int64_t t4 = NowNs();
    Check(same && r.trace.enabled, "traced L4 differs from L2", ledger);
    const int32_t enc = spans->Open("client.encode", Layer::kNet, t0, root, rid);
    spans->Close(enc, t1);
    const int32_t call = spans->Open("client.call", Layer::kNet, t1, root, rid);
    spans->Close(call, t2);
    if (decoded) spans->AddStages(call, JoinStages(r.trace));
    const int32_t dec = spans->Open("client.decode", Layer::kNet, t2, root, rid);
    spans->Close(dec, t3);
    const int32_t ver = spans->Open("bench.verify", Layer::kBench, t3, root, rid);
    spans->Close(ver, t4);
    spans->Close(root, t4);
    if (decoded) {
      for (int st = 0; st < svc::kNumTraceStages; ++st) {
        stage_us[st].push_back(r.trace.stage_us[st]);
      }
      unattributed_us.push_back(static_cast<double>(t2 - t1) / 1e3 -
                                r.trace.TotalMicros());
    }
    return 0.0;
  });
  const size_t last = spans->size();
  for (int st = 0; st < svc::kNumTraceStages; ++st) {
    layer->Add(std::string("net.stage_") +
                   svc::TraceStageName(static_cast<svc::TraceStage>(st)) + "_us",
               Median(stage_us[st]), "us", stage_us[st].size());
  }
  layer->Add("net.unattributed_us", Median(unattributed_us), "us",
             unattributed_us.size());

  std::vector<double> ping_us;
  for (int i = 0; i < 200; ++i) {
    const uint64_t rid = client.NextRequestId();
    const int64_t t0 = NowNs();
    const bool ok = client
                        .Call(net::EncodeEmptyFrame(net::MessageType::kPing, rid),
                              rid, net::MessageType::kPong)
                        .get()
                        .ok;
    Check(ok, "PING failed", ledger);
    ping_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }
  layer->Add("net.ping_rtt_us", Median(ping_us), "us", ping_us.size());
  return {first, last};
}

std::pair<size_t, size_t> Join2Ladder(uint16_t id_a, uint16_t id_b,
                                      int wire_reps, Stack& stack,
                                      SpanLog* spans, MetricSet* layer,
                                      FailureLedger* ledger) {
  const svc::ServiceCatalog::Snapshot a =
      stack.service->catalog().Find(id_a)->Acquire();
  const svc::ServiceCatalog::Snapshot b =
      stack.service->catalog().Find(id_b)->Acquire();
  const int64_t t0 = NowNs();
  const join2::IntervalView va = join2::IntervalView::FromIndex(*a);
  const join2::IntervalView vb = join2::IntervalView::FromIndex(*b);
  const double view_ms = static_cast<double>(NowNs() - t0) / 1e6;

  double descend_ms = 0, refine_ms = 0, stream_ms = 0;
  uint64_t candidates = 0, results = 0;
  const size_t first = spans->size();
  for (join2::CrossMatchMode mode :
       {join2::CrossMatchMode::kIntersects, join2::CrossMatchMode::kContains}) {
    join2::CrossMatchStats stats;
    join2::CrossMatchPhaseTimes phases;
    const int64_t c0 = NowNs();
    const std::vector<std::pair<uint32_t, uint32_t>> pairs =
        join2::CrossMatch(va, vb, {mode, 1}, nullptr, &stats, &phases);
    const double inproc_ms = view_ms + static_cast<double>(NowNs() - c0) / 1e6;
    descend_ms += phases.descend_us / 1e3;
    refine_ms += phases.refine_us / 1e3;
    candidates += stats.candidate_pairs;
    results += stats.result_pairs;

    std::vector<double> wire_ms;
    for (int rep = 0; rep < wire_reps; ++rep) {
      const uint64_t rid = stack.client->NextRequestId();
      net::JoinDatasetsRequest req;
      req.dataset_b = id_b;
      req.mode = static_cast<uint8_t>(mode);
      req.trace = true;
      const int64_t w0 = NowNs();
      const int32_t root = spans->Open(std::string("crossmatch.") +
                                           join2::ToString(mode),
                                       Layer::kNet, w0, -1, rid);
      const std::vector<uint8_t> frame =
          net::EncodeJoinDatasetsFrame(rid, id_a, req);
      const int64_t w1 = NowNs();
      net::CrossMatchReply reply = stack.client->CallCrossMatch(frame, rid).get();
      const int64_t w2 = NowNs();
      const bool same = reply.ok && reply.pairs == pairs;
      const int64_t w3 = NowNs();
      Check(same, "JOIN_DATASETS differs from in-process CrossMatch", ledger);
      const int32_t enc = spans->Open("client.encode", Layer::kNet, w0, root, rid);
      spans->Close(enc, w1);
      const int32_t call = spans->Open("client.call", Layer::kNet, w1, root, rid);
      spans->Close(call, w2);
      if (reply.ok) spans->AddStages(call, CrossMatchStages(reply.trace));
      const int32_t ver = spans->Open("bench.verify", Layer::kBench, w2, root, rid);
      spans->Close(ver, w3);
      spans->Close(root, w3);
      wire_ms.push_back(static_cast<double>(w2 - w0) / 1e6);
    }
    stream_ms += Median(wire_ms) - inproc_ms;
  }
  layer->Add("join2.view_build_ms", view_ms, "ms");
  layer->Add("join2.descend_ms", descend_ms, "ms");
  layer->Add("join2.refine_ms", refine_ms, "ms");
  layer->Add("join2.candidates", static_cast<double>(candidates), "count");
  layer->Add("join2.result_pairs", static_cast<double>(results), "count");
  layer->Add("join2.refine_hit_ratio",
             candidates == 0 ? 0.0 : static_cast<double>(results) / candidates,
             "ratio");
  layer->Add("join2.stream_ms", stream_ms, "ms", 2 * wire_reps);
  return {first, spans->size()};
}

void MutationLadder(const PointSubject& s, Stack& stack, MetricSet* layer,
                    FailureLedger* ledger) {
  const geom::Polygon poly = ProbePolygon(s.mbr, SubSeed(s.seed, 99));
  const svc::ServiceCatalog::Snapshot served =
      stack.service->catalog().Find(s.dataset_id)->Acquire();
  std::vector<double> delta_ms;
  for (int rep = 0; rep < 3; ++rep) {
    svc::ShardedIndex::Delta delta;
    delta.add.push_back(poly);
    const int64_t t0 = NowNs();
    const svc::ShardedIndex::DeltaResult r =
        svc::ShardedIndex::ApplyDelta(*served, delta);
    delta_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    Check(r.index != nullptr &&
              r.index->num_polygons() == served->num_polygons() + 1,
          "ApplyDelta did not add the polygon", ledger);
  }
  layer->Add("sharded.apply_delta_ms", Median(delta_ms), "ms", delta_ms.size());

  std::vector<double> mutate_ms;
  for (int rep = 0; rep < 2; ++rep) {
    const int64_t t0 = NowNs();
    const svc::MutationResult added =
        stack.service->AddPolygons(s.dataset_id, {poly});
    const int64_t t1 = NowNs();
    const svc::MutationResult removed =
        stack.service->RemovePolygons(s.dataset_id, {added.first_id});
    const int64_t t2 = NowNs();
    Check(added.status == svc::MutationStatus::kApplied &&
              removed.status == svc::MutationStatus::kApplied,
          "in-process mutation refused", ledger);
    mutate_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    mutate_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
  }
  layer->Add("service.mutate_ms", Median(mutate_ms), "ms", mutate_ms.size());
}

std::array<double, kNumLayers> PrintSelfTime(const char* title,
                                             const SpanLog& spans,
                                             std::pair<size_t, size_t> range) {
  const auto self = SelfTimeByLayer(spans.spans(), range.first, range.second);
  int64_t total = 0;
  for (int l = 0; l < kNumLayers; ++l) {
    if (static_cast<Layer>(l) != Layer::kBench) total += self[l];
  }
  std::array<double, kNumLayers> share{};
  std::printf("\n%s (%zu spans):\n  %-8s %12s %8s\n", title,
              range.second - range.first, "layer", "self ms", "share");
  for (int l = 0; l < kNumLayers; ++l) {
    const Layer ly = static_cast<Layer>(l);
    if (ly != Layer::kBench && total > 0) share[l] = 100.0 * self[l] / total;
    std::printf("  %-8s %12.3f %7.1f%%%s\n", LayerName(ly), self[l] / 1e6,
                share[l], ly == Layer::kBench ? " (excluded)" : "");
  }
  return share;
}

}  // namespace perfbench
