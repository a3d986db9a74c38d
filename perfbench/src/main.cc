// perfbench: runs one workload through the served actjoin stack and prints
// its metrics, ending with one JSON line:
//
//   perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//             [--commit <id>] [--out_dir <dir>]
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs the same loop
// untraced and then traced for half the time each, probes every layer, and
// prints the per-layer metrics, the L0-L4 ledger, the self-time table and
// the tracing overhead. The exit code is 0 only if every reply matched
// its in-process reference. See perfbench/README.md.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.h"
#include "fingerprint.h"
#include "ladder.h"

namespace perfbench {
namespace {

/// End-to-end metrics (BENCHMARK.json "end_to_end"), every workload.
/// Tail latencies are printed, not gated: p75 to p99 moved by 20-50%
/// between identical runs on a shared host, more than any bound absorbs.
const char* const kEndToEnd[] = {"setup_s", "p50_ms", "ops_per_s",
                                 "cpu_us_per_op", "peak_rss_mb"};

/// Per-layer metrics (BENCHMARK.json "per_layer"), every workload.
const char* const kPerLayer[] = {
    "geo.cell_id_ns_per_pt",
    "act.join_ns_per_pt",
    "act.candidate_refs_per_pt",
    "act.true_hit_refs_per_pt",
    "act.pip_tests_per_pt",
    "act.pip_hit_ratio",
    "act.sth_pct",
    "act.build_coverings_s",
    "act.build_super_covering_s",
    "act.build_encode_s",
    "act.build_trie_s",
    "sharded1.join_ns_per_pt",
    "sharded.join_ns_per_pt",
    "sharded.route_ns_per_pt",
    "sharded.probe_ns_per_pt",
    "sharded.merge_ns_per_pt",
    "sharded.index_mb",
    "sharded.apply_delta_ms",
    "service.join_ns_per_pt",
    "service.queue_wait_ms",
    "service.service_ms",
    "service.refused",
    "service.mutate_ms",
    "subscribe.moved_tracks_per_tick",
    "subscribe.events_per_tick",
    "subscribe.event_frames_per_tick",
    "subscribe.events_dropped",
    "net.join_ns_per_pt",
    "net.encode_ns_per_pt",
    "net.decode_ns_per_pt",
    "net.request_bytes_per_pt",
    "net.reply_bytes",
    "net.ping_rtt_us",
    "net.stage_admission_us",
    "net.stage_decode_us",
    "net.stage_queue_us",
    "net.stage_decompose_us",
    "net.stage_probe_us",
    "net.stage_merge_us",
    "net.stage_respond_us",
    "net.unattributed_us",
    "join2.view_build_ms",
    "join2.descend_ms",
    "join2.refine_ms",
    "join2.candidates",
    "join2.result_pairs",
    "join2.refine_hit_ratio",
    "join2.stream_ms",
    "ledger.l1_over_l0",
    "ledger.l2_over_l0",
    "ledger.l3_over_l0",
    "ledger.l4_over_l0",
    "trace.overhead_pct",
    "self.act_pct",
    "self.service_pct",
    "self.net_pct",
    "self.join2_pct",
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  std::string commit;
  std::string out_dir = ".bench_build/perfbench-spans";
};

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<taxi_nbhd_approx|uniform_census_exact|fleet_geofence|"
               "xmatch_boroughs_census> --seed <n> --seconds <n> --trace <0|1> "
               "[--commit <id>] [--out_dir <dir>]\n",
               msg);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* a, std::string* err) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *err = "missing value for " + flag;
      return false;
    }
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') { *err = "bad --seed " + v; return false; }
    } else if (flag == "--seconds") {
      a->seconds = static_cast<int>(std::strtol(v.c_str(), &end, 10));
      if (v.empty() || *end != '\0' || a->seconds < 1 || a->seconds > 60) {
        *err = "--seconds must be 1..60";
        return false;
      }
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") { *err = "--trace must be 0 or 1"; return false; }
      a->trace = v == "1";
    } else if (flag == "--commit") {
      a->commit = v;
    } else if (flag == "--out_dir") {
      a->out_dir = v;
    } else {
      *err = "unknown flag " + flag;
      return false;
    }
  }
  if (a->workload.empty()) {
    *err = "--workload is required";
    return false;
  }
  return true;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "taxi_nbhd_approx") return MakeTaxiNbhdApprox();
  if (name == "uniform_census_exact") return MakeUniformCensusExact();
  if (name == "fleet_geofence") return MakeFleetGeofence();
  if (name == "xmatch_boroughs_census") return MakeXmatchBoroughsCensus();
  return nullptr;
}

void PrintMetrics(const char* title, const MetricSet& set) {
  std::printf("\n%s:\n", title);
  for (const Metric& m : set.items()) {
    std::printf("  %-34s %16.6g %-6s (n=%llu)\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  }
}

/// The JSON result line; false if a declared metric is missing or not finite.
bool PrintJson(bool correct, const FailureLedger& ledger, const MetricSet& set,
               const char* const* names, size_t count) {
  bool complete = true;
  std::string metrics;
  for (size_t i = 0; i < count; ++i) {
    const Metric* m = set.Find(names[i]);
    if (m == nullptr || !std::isfinite(m->value)) {
      std::fprintf(stderr, "metric %s missing or not finite\n", names[i]);
      complete = false;
      continue;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m->name.c_str(), m->value,
                  m->unit.c_str());
    metrics += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct && complete ? "true" : "false",
              static_cast<unsigned long long>(ledger.attempted),
              static_cast<unsigned long long>(ledger.Failures()), metrics.c_str());
  std::fflush(stdout);
  return complete;
}

void AddLoopMetrics(const LoopResult& r, MetricSet* e2e) {
  const LatencySummary lat = Summarize(r.op_ms);
  e2e->Add("p50_ms", lat.p50, "ms", lat.samples);
  const double ops = static_cast<double>(std::max<uint64_t>(r.ops, 1));
  e2e->Add("ops_per_s", r.ops / r.wall_s, "1/s", r.ops);
  e2e->Add("cpu_us_per_op", r.cpu_s * 1e6 / ops, "us", r.ops);
  std::printf("loop: %llu verified operations in %.3f s\n",
              static_cast<unsigned long long>(r.ops), r.wall_s);
  std::printf("loop: latency (n=%zu) p50 %.4f  p75 %.4f  p90 %.4f  p95 %.4f  "
              "p99 %.4f ms; tail (highest percentile with >= 10 samples "
              "beyond it) p%d = %.4f ms\n",
              r.op_ms.size(), lat.p50, Percentile(r.op_ms, 75),
              Percentile(r.op_ms, 90), Percentile(r.op_ms, 95),
              Percentile(r.op_ms, 99), lat.tail_pct, lat.tail);
  if (!r.op_end_ns.empty()) {
    std::vector<int> per_s(static_cast<size_t>(r.wall_s) + 1, 0);
    for (int64_t t : r.op_end_ns) {
      const size_t w = static_cast<size_t>((t - r.start_ns) / 1'000'000'000);
      if (w < per_s.size()) ++per_s[w];
    }
    std::printf("loop: operations per 1-s window:");
    for (int c : per_s) std::printf(" %d", c);
    std::printf("\n");
  }
  if (r.points > 0) {
    std::printf("loop: %.3f Mpts/s (%llu points)\n", r.points / r.wall_s / 1e6,
                static_cast<unsigned long long>(r.points));
  }
}

void LedgerReport(const MetricSet& layer, const LoopResult& base,
                  MetricSet* out) {
  const double l0 = layer.Find("act.join_ns_per_pt")->value;
  const struct {
    const char* label;
    const char* metric;
    const char* ratio;
  } rows[] = {{"L0 act::PolygonIndex::Join", "act.join_ns_per_pt", nullptr},
              {"L1 ShardedIndex, 1 shard", "sharded1.join_ns_per_pt", "ledger.l1_over_l0"},
              {"L2 ShardedIndex, served", "sharded.join_ns_per_pt", "ledger.l2_over_l0"},
              {"L3 JoinService", "service.join_ns_per_pt", "ledger.l3_over_l0"},
              {"L4 loopback, 1 in flight", "net.join_ns_per_pt", "ledger.l4_over_l0"}};
  std::printf("\nL0-L4 ledger (ns/point, one thread per join):\n");
  for (const auto& row : rows) {
    const double v = layer.Find(row.metric)->value;
    std::printf("  %-28s %10.1f ns/pt  %6.2fx L0\n", row.label, v, v / l0);
    if (row.ratio != nullptr) out->Add(row.ratio, v / l0, "ratio");
  }
  if (base.points > 0) {
    const double pipelined = base.wall_s * 1e9 / base.points;
    std::printf("  %-28s %10.1f ns/pt  %6.2fx L0 (the workload's own loop)\n",
                "L4 loopback, pipelined", pipelined, pipelined / l0);
  }
}

int Main(int argc, char** argv) {
  Args args;
  std::string err;
  if (!ParseArgs(argc, argv, &args, &err)) return Usage(err.c_str());
  std::unique_ptr<Workload> w = MakeWorkload(args.workload);
  if (w == nullptr) return Usage(("unknown workload " + args.workload).c_str());
  if (std::string(BuildType()) != "Release") {
    std::fprintf(stderr,
                 "perfbench: refusing to run a %s build; figures are only "
                 "comparable from Release builds\n",
                 BuildType());
    return 2;
  }
  std::printf("%s\n", FormatFingerprint(TakeFingerprint(args.commit, args.seed)).c_str());
  std::printf("workload=%s seconds=%d trace=%d\n", args.workload.c_str(),
              args.seconds, args.trace);
  std::fflush(stdout);

  w->Generate(args.seed, args.seconds);
  Stack stack;
  std::vector<double> setup_s;
  double setup_total = 0;
  for (int rep = 0; rep < kSetupReps ||
                    (rep < kMaxSetupReps && setup_total < kSetupBudgetS);
       ++rep) {
    if (rep > 0) {
      stack.Teardown();
      w->ReleaseSetup();
    }
    const int64_t t0 = NowNs();
    if (!w->Setup(&stack, &err)) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", err.c_str());
      return 1;
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    setup_total += setup_s.back();
    std::printf("setup %d: %.4f s\n", rep, setup_s.back());
  }
  w->PrepareReference();
  std::fflush(stdout);

  FailureLedger ledger;
  MetricSet e2e, extras, layer;
  e2e.Add("setup_s", Percentile(setup_s, 50), "s", setup_s.size());
  if (!args.trace) {
    LoopResult r = w->Loop(stack, args.seconds, nullptr);
    w->FinishChecks(&r.ledger);
    ledger = r.ledger;
    AddLoopMetrics(r, &e2e);
    e2e.Add("peak_rss_mb", PeakRssMiB(), "MiB");
    w->ReportExtras(&extras);
  } else {
    const double half = args.seconds / 2.0;
    const LoopResult base = w->Loop(stack, half, nullptr);
    SpanLog spans;
    const LoopResult traced = w->Loop(stack, half, &spans);
    const size_t loop_spans = spans.size();
    ledger.Merge(base.ledger);
    ledger.Merge(traced.ledger);
    w->FinishChecks(&ledger);
    w->ReportExtras(&extras);
    w->LayerCounts(&layer);
    const auto trees = w->Ladder(stack, &spans, &layer, &ledger);
    const auto share = PrintSelfTime(
        "self time of the workload's operation, one request in flight", spans,
        trees);
    for (Layer l : {Layer::kAct, Layer::kService, Layer::kNet, Layer::kJoin2}) {
      layer.Add(std::string("self.") + LayerName(l) + "_pct",
                share[static_cast<int>(l)], "%", trees.second - trees.first);
    }
    PrintSelfTime("self time under the workload's own load (traced loop)",
                  spans, {0, loop_spans});
    LedgerReport(layer, base, &layer);

    const double base_cpu = base.cpu_s / std::max<uint64_t>(base.ops, 1);
    const double traced_cpu = traced.cpu_s / std::max<uint64_t>(traced.ops, 1);
    layer.Add("trace.overhead_pct", (traced_cpu / base_cpu - 1) * 100, "%",
              base.ops + traced.ops);
    std::printf("\ntracing overhead: %+.1f%% CPU per operation (untraced %.1f "
                "us, traced %.1f us); p50 %.3f -> %.3f ms; %.2f -> %.2f op/s\n",
                (traced_cpu / base_cpu - 1) * 100, base_cpu * 1e6,
                traced_cpu * 1e6, Percentile(base.op_ms, 50),
                Percentile(traced.op_ms, 50), base.ops / base.wall_s,
                traced.ops / traced.wall_s);

    const double act_pct = share[static_cast<int>(Layer::kAct)];
    const double ns_pct = share[static_cast<int>(Layer::kNet)] +
                          share[static_cast<int>(Layer::kService)];
    std::printf("split: net+service %.1f%% vs act %.1f%% of self time "
                "(taxi_nbhd_approx expects net+service > act; "
                "uniform_census_exact expects act the largest layer)\n",
                ns_pct, act_pct);

    std::error_code ec;
    std::filesystem::create_directories(args.out_dir, ec);
    const std::string path = args.out_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".spans.jsonl";
    if (spans.WriteJsonLines(path)) {
      std::printf("spans: %zu written to %s\n", spans.size(), path.c_str());
    } else {
      std::printf("spans: could not write %s\n", path.c_str());
    }
  }

  std::printf("\nfailures: %llu of %llu attempted (refused %llu, timed out "
              "%llu, mismatched %llu, failed %llu, events lost %llu); "
              "failed_frac %.6g\n",
              static_cast<unsigned long long>(ledger.Failures()),
              static_cast<unsigned long long>(ledger.attempted),
              static_cast<unsigned long long>(ledger.refused),
              static_cast<unsigned long long>(ledger.timed_out),
              static_cast<unsigned long long>(ledger.mismatched),
              static_cast<unsigned long long>(ledger.failed),
              static_cast<unsigned long long>(ledger.events_lost),
              ledger.FailedFrac());
  PrintMetrics("end-to-end", e2e);
  if (!extras.items().empty()) PrintMetrics("workload figures", extras);
  if (args.trace) PrintMetrics("per-layer", layer);

  stack.Teardown();
  const bool correct = ledger.Failures() == 0 && ledger.attempted > 0;
  const bool complete =
      args.trace ? PrintJson(correct, ledger, layer, kPerLayer, std::size(kPerLayer))
                 : PrintJson(correct, ledger, e2e, kEndToEnd, std::size(kEndToEnd));
  return correct && complete ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
