#include "bench.h"

#include <sys/resource.h>

#include "util/random.h"

namespace perfbench {

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return actjoin::util::SplitMix64(actjoin::util::SplitMix64(seed) ^
                                   (stream * 0x9e3779b97f4a7c15ULL));
}

void MetricSet::Add(const std::string& name, double value,
                    const std::string& unit, uint64_t samples) {
  items_.push_back({name, value, unit, samples});
}

const Metric* MetricSet::Find(const std::string& name) const {
  for (const Metric& m : items_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

bool Stack::Start(
    const std::vector<std::pair<std::string, svc::ServiceCatalog::Snapshot>>&
        datasets,
    std::string* error) {
  svc::ServiceOptions sopts;
  sopts.worker_threads = kServiceWorkers;
  service = std::make_unique<svc::JoinService>(sopts);
  for (const auto& [name, snapshot] : datasets) {
    if (!service->catalog().Add(name, snapshot)) {
      *error = "catalog refused dataset " + name;
      return false;
    }
  }
  net::ServerOptions nopts;
  nopts.io_threads = kIoThreads;
  server = std::make_unique<net::JoinServer>(service.get(), nopts);
  if (!server->Start(error)) return false;
  client = std::make_unique<net::AsyncJoinClient>();
  if (!client->Connect(server->host(), server->port(), error)) return false;
  client->set_recv_timeout_ms(kRecvTimeoutMs);
  const uint64_t id = client->NextRequestId();
  net::AsyncJoinClient::RawReply pong =
      client
          ->Call(net::EncodeEmptyFrame(net::MessageType::kPing, id), id,
                 net::MessageType::kPong)
          .get();
  if (!pong.ok) {
    *error = "PING failed: " + pong.message;
    return false;
  }
  return true;
}

void Stack::Teardown() {
  if (client) client->Close();
  if (server) server->Stop();
  if (service) service->Shutdown();
  client.reset();
  server.reset();
  service.reset();
}

void SetFrameRequestId(std::vector<uint8_t>* frame, uint64_t request_id) {
  for (int i = 0; i < 8; ++i) {
    (*frame)[8 + i] = static_cast<uint8_t>(request_id >> (8 * i));
  }
}

bool SameJoin(const act::JoinStats& got, const act::JoinStats& want) {
  return got.num_points == want.num_points &&
         got.matched_points == want.matched_points &&
         got.result_pairs == want.result_pairs &&
         got.true_hit_refs == want.true_hit_refs &&
         got.candidate_refs == want.candidate_refs &&
         got.pip_tests == want.pip_tests && got.pip_hits == want.pip_hits &&
         got.sth_points == want.sth_points && got.counts == want.counts;
}

void RecordWireFailure(FailureLedger* ledger, net::WireError error) {
  switch (error) {
    case net::WireError::kTimedOut:
      ledger->RecordTimedOut();
      return;
    case net::WireError::kRateLimited:
    case net::WireError::kInFlightBytesExceeded:
    case net::WireError::kQueueWatermark:
    case net::WireError::kQueueFull:
    case net::WireError::kShuttingDown:
      ledger->RecordRefused();
      return;
    default:
      ledger->RecordFailure();
      return;
  }
}

void Workload::LayerCounts(MetricSet* layer) {
  for (const char* name :
       {"subscribe.moved_tracks_per_tick", "subscribe.events_per_tick",
        "subscribe.event_frames_per_tick", "subscribe.events_dropped"}) {
    layer->Add(name, 0, "count", 0);
  }
}

std::vector<SpanLog::Stage> JoinStages(const svc::TraceContext& t) {
  using S = svc::TraceStage;
  return {{"server.admission", Layer::kNet, t.at(S::kAdmission)},
          {"server.decode", Layer::kNet, t.at(S::kDecode)},
          {"server.queue", Layer::kService, t.at(S::kQueue)},
          {"server.decompose", Layer::kService, t.at(S::kDecompose)},
          {"server.probe", Layer::kAct, t.at(S::kProbe)},
          {"server.merge", Layer::kService, t.at(S::kMerge)},
          {"server.respond", Layer::kNet, t.at(S::kRespond)}};
}

std::vector<SpanLog::Stage> CrossMatchStages(
    const actjoin::join2::CrossMatchTrace& t) {
  using S = actjoin::join2::CrossMatchStage;
  return {{"server.admission", Layer::kNet, t.at(S::kAdmission)},
          {"server.decode", Layer::kNet, t.at(S::kDecode)},
          {"server.queue", Layer::kService, t.at(S::kQueue)},
          {"server.pin", Layer::kJoin2, t.at(S::kPin)},
          {"server.descend", Layer::kJoin2, t.at(S::kDescend)},
          {"server.refine", Layer::kJoin2, t.at(S::kRefine)},
          {"server.stream", Layer::kNet, t.at(S::kStream)}};
}

}  // namespace perfbench
