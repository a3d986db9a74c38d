// Shared pieces of the served-stack benchmark: the stack under test
// (ShardedIndex -> JoinService -> JoinServer on loopback -> AsyncJoinClient),
// metric collection, reference comparison, and the workload interface the
// four workloads implement.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "act/join.h"
#include "geo/grid.h"
#include "join2/cross_match_trace.h"
#include "net/async_join_client.h"
#include "net/join_server.h"
#include "net/wire.h"
#include "service/join_service.h"
#include "service/sharded_index.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {

namespace svc = actjoin::service;
namespace net = actjoin::net;
namespace act = actjoin::act;
namespace geom = actjoin::geom;

/// Load shape shared by every workload: the server's threads plus the
/// generator and the client's reader stay within a 4-core host.
inline constexpr int kServiceWorkers = 2;
inline constexpr int kIoThreads = 1;
/// Set-up is repeated at least kSetupReps times per run, and up to
/// kMaxSetupReps while the repetitions so far took under kSetupBudgetS;
/// setup_s is the median.
inline constexpr int kSetupReps = 3;
inline constexpr int kMaxSetupReps = 7;
inline constexpr double kSetupBudgetS = 2.0;
/// Client receive deadline; an expiry is a typed timed-out failure.
inline constexpr int kRecvTimeoutMs = 30000;
/// Unrecorded warm-up before a closed loop's measured window.
inline constexpr double kWarmupSeconds = 0.3;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User + system CPU seconds of the whole process.
double ProcessCpuSeconds();
/// Peak resident set of the process, MiB.
double PeakRssMiB();
/// Independent generator seed for one stream of a workload.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 1;
};

class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 1);
  const Metric* Find(const std::string& name) const;
  const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

/// The served stack, brought up in one process.
struct Stack {
  std::unique_ptr<svc::JoinService> service;
  std::unique_ptr<net::JoinServer> server;
  std::unique_ptr<net::AsyncJoinClient> client;

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() { Teardown(); }

  /// Starts a service with default options apart from the worker count
  /// (metrics on, tracing off, hot-cell cache off), registers `datasets`
  /// in order (ids 0, 1, ...), starts the server, connects one client and
  /// waits for a PING round trip.
  bool Start(const std::vector<std::pair<std::string, svc::ServiceCatalog::Snapshot>>&
                 datasets,
             std::string* error);
  void Teardown();
};

/// Overwrites the request id of an encoded frame in place (header bytes
/// 8..15, little-endian; the header layout is frozen across wire versions),
/// so frames encoded at input preparation can be sent with fresh ids.
void SetFrameRequestId(std::vector<uint8_t>* frame, uint64_t request_id);

/// Counters and per-polygon counts equal (timings ignored).
bool SameJoin(const act::JoinStats& got, const act::JoinStats& want);

/// Files a failed reply under the right ledger bucket.
void RecordWireFailure(FailureLedger* ledger, net::WireError error);

/// Server stage times of a traced reply as synthetic child spans.
std::vector<SpanLog::Stage> JoinStages(const svc::TraceContext& trace);
std::vector<SpanLog::Stage> CrossMatchStages(
    const actjoin::join2::CrossMatchTrace& trace);

/// What one run of a workload's measured loop produced.
struct LoopResult {
  FailureLedger ledger;
  std::vector<double> op_ms;  // per-operation latency
  std::vector<int64_t> op_end_ns;  // completion time of each op_ms sample
  int64_t start_ns = 0;            // start of the measured window
  uint64_t ops = 0;           // verified operations
  double wall_s = 0;
  double cpu_s = 0;
  uint64_t points = 0;  // points carried by verified operations
};

/// One benchmark workload. main.cc calls Generate once, Setup
/// kSetupReps or more times (ReleaseSetup between them), PrepareReference once,
/// then Loop (twice in a traced run: untraced, then traced), and in a
/// traced run finally Ladder.
class Workload {
 public:
  Workload() = default;
  // Not copyable: the fleet's event handlers hold `this`.
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;
  /// Polygons and coordinates from the seed; outside every timing.
  virtual void Generate(uint64_t seed, int seconds) = 0;
  /// Index build + stack start (+ subscribe): the timed set-up.
  virtual bool Setup(Stack* stack, std::string* error) = 0;
  virtual void ReleaseSetup() = 0;
  /// In-process reference results, computed once outside timing.
  virtual void PrepareReference() = 0;
  /// Measured loop; a non-null `spans` traces every operation.
  virtual LoopResult Loop(Stack& stack, double seconds, SpanLog* spans) = 0;
  /// Reference checks that complete only after the loops (event streams).
  virtual void FinishChecks(FailureLedger* /*ledger*/) {}
  /// Workload-specific end-to-end figures, printed with sample counts.
  virtual void ReportExtras(MetricSet* /*extras*/) {}
  /// Traced run only: layer probes into per-layer metrics. Records the
  /// workload's own operation at one request in flight into `spans` and
  /// returns the span range holding those trees.
  virtual std::pair<size_t, size_t> Ladder(Stack& stack, SpanLog* spans,
                                           MetricSet* layer,
                                           FailureLedger* ledger) = 0;
  /// Subscription counts of the loops; zero for workloads without one.
  virtual void LayerCounts(MetricSet* layer);
};

std::unique_ptr<Workload> MakeTaxiNbhdApprox();
std::unique_ptr<Workload> MakeUniformCensusExact();
std::unique_ptr<Workload> MakeFleetGeofence();
std::unique_ptr<Workload> MakeXmatchBoroughsCensus();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
