// fleet_geofence: writes beside reads on one connection.
//
// A fleet of kFleet devices reports its positions every kTickNs as one
// JOIN_BATCH (exact mode, Neighborhoods(1.0), 8 shards); each tick a
// seeded ~1/kMoveOneIn of the devices jumps to another of its kPositions
// prepared positions. One SUBSCRIBE (all polygons, ENTER and LEAVE) turns
// the ticks into pushed EVENT frames. Every kMutateEvery ticks, half a
// tick after a tick, the generator alternately adds a small polygon around
// a device and removes it again (ADD_POLYGONS / REMOVE_POLYGONS).
//
// The load is open loop: each action has a due time fixed in advance and
// latency counts from it. Actions stay in order (the generator waits for
// an action's reply before sending the next), which keeps the event
// stream reproducible: before the run, an in-process JoinService with its
// own SubscriptionMatcher replays the same ticks and mutations, and every
// JOIN_RESULT, MUTATE_RESULT and EVENT frame must equal that replay.

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <thread>

#include "bench.h"
#include "ladder.h"
#include "service/subscription_matcher.h"
#include "util/random.h"
#include "workloads/datasets.h"

namespace perfbench {

namespace {

namespace wl = actjoin::wl;

constexpr uint32_t kFleet = 5000;
constexpr int kPositions = 4;
constexpr int kMoveOneIn = 16;
constexpr int64_t kTickNs = 20'000'000;
constexpr int kMutateEvery = 250;
constexpr int kMutateAfter = 125;  // tick within each period
constexpr int64_t kMutateOffsetNs = kTickNs / 2;
constexpr double kGeofenceRadiusDeg = 0.01;

struct Action {
  enum Kind : uint8_t { kTick, kAdd, kRemove } kind = kTick;
  uint32_t tick = 0;      // the tick, or the tick a mutation follows
  uint32_t mutation = 0;  // index of the mutation (kAdd / kRemove)
};

/// Which prepared position each device is at; advanced once per tick.
class FleetMotion {
 public:
  FleetMotion(const wl::PointSet* positions, uint64_t seed)
      : positions_(positions), option_(kFleet, 0), rng_(seed) {}

  uint32_t Advance() {
    uint32_t moved = 0;
    for (uint32_t d = 0; d < kFleet; ++d) {
      if (rng_.UniformInt(kMoveOneIn) != 0) continue;
      option_[d] = static_cast<uint8_t>(
          (option_[d] + 1 + rng_.UniformInt(kPositions - 1)) % kPositions);
      ++moved;
    }
    return moved;
  }

  void Fill(svc::QueryBatch* b) const {
    b->cell_ids.resize(kFleet);
    b->points.resize(kFleet);
    b->mode = act::JoinMode::kExact;
    for (uint32_t d = 0; d < kFleet; ++d) {
      const uint64_t i = uint64_t{option_[d]} * kFleet + d;
      b->cell_ids[d] = positions_->cell_ids()[i];
      b->points[d] = positions_->points()[i];
    }
  }

 private:
  const wl::PointSet* positions_;
  std::vector<uint8_t> option_;
  actjoin::util::Rng rng_;
};

class FleetWorkload : public Workload {
 public:
  void Generate(uint64_t seed, int seconds) override {
    seed_ = seed;
    ds_ = wl::Neighborhoods(1.0, SubSeed(seed, 1));
    positions_ = wl::TaxiPoints(ds_.mbr, uint64_t{kFleet} * kPositions, grid_,
                                SubSeed(seed, 2));
    const uint32_t ticks = static_cast<uint32_t>(seconds * 1e9 / kTickNs);
    actjoin::util::Rng rng(SubSeed(seed, 4));
    uint32_t mutations = 0;
    for (uint32_t t = 0; t < ticks; ++t) {
      schedule_.push_back({Action::kTick, t, 0});
      if (t % kMutateEvery != kMutateAfter) continue;
      const bool add = mutations % 2 == 0;
      schedule_.push_back({add ? Action::kAdd : Action::kRemove, t, mutations});
      if (add) {
        const geom::Point c = positions_.points()[rng.UniformInt(kFleet)];
        polygons_.push_back(ProbePolygon(geom::Rect::Of(c.x, c.y, c.x, c.y),
                                         SubSeed(seed, 100 + mutations),
                                         kGeofenceRadiusDeg));
      }
      ++mutations;
    }
    num_ticks_ = ticks;
    motion_ = std::make_unique<FleetMotion>(&positions_, SubSeed(seed, 3));
    std::printf("workload fleet_geofence: %zu polygons, fleet %u, %u ticks of "
                "%.0f ms, %u mutations, 1 subscription (all polygons)\n",
                ds_.polygons.size(), kFleet, ticks, kTickNs / 1e6, mutations);
  }

  svc::ShardingOptions Sharding() const {
    svc::ShardingOptions o;
    o.num_shards = 8;
    return o;
  }

  static svc::SubscriptionSpec Spec() {
    svc::SubscriptionSpec spec;
    spec.selector = svc::SubscriptionSpec::Selector::kAll;
    spec.mode = svc::SubscriptionMode::kBoth;
    return spec;
  }

  bool Setup(Stack* stack, std::string* error) override {
    index_ = std::make_shared<const svc::ShardedIndex>(
        svc::ShardedIndex::Build(ds_.polygons, grid_, Sharding()));
    if (!stack->Start({{"fleet", index_}}, error)) return false;
    net::AsyncJoinClient::SubscribeReply sub =
        stack->client
            ->Subscribe(
                0, Spec(),
                [this](const svc::EventBatch& b) {
                  const int64_t now = NowNs();
                  std::lock_guard<std::mutex> lock(mu_);
                  if (recording_events_) received_.push_back({b, now});
                },
                [this](const net::EventGap& g) {
                  std::lock_guard<std::mutex> lock(mu_);
                  if (recording_events_) gaps_.push_back(g);
                })
            .get();
    if (!sub.ok) {
      *error = "SUBSCRIBE failed: " + sub.message;
      return false;
    }
    return true;
  }

  void ReleaseSetup() override { index_.reset(); }

  void PrepareReference() override {
    svc::ServiceOptions o;
    o.worker_threads = 1;
    svc::JoinService service(o);
    service.catalog().Add("fleet", index_);
    svc::SubscriptionMatcher matcher(&service.catalog());
    service.set_subscription_matcher(&matcher);
    size_t action = 0;
    matcher.Add(0, Spec(), [&](svc::EventBatch&& b) {
      ref_events_.push_back({action, std::move(b)});
    });
    FleetMotion motion(&positions_, SubSeed(seed_, 3));
    ref_ticks_.resize(num_ticks_);
    uint32_t last_added = 0;
    for (action = 0; action < schedule_.size(); ++action) {
      const Action& a = schedule_[action];
      if (a.kind == Action::kTick) {
        if (a.tick > 0) motion.Advance();
        svc::QueryBatch b;
        motion.Fill(&b);
        ref_ticks_[a.tick] = service.Submit(std::move(b)).get().stats;
        continue;
      }
      const svc::MutationResult r =
          a.kind == Action::kAdd
              ? service.AddPolygons(0, {polygons_[a.mutation / 2]})
              : service.RemovePolygons(0, {last_added});
      if (a.kind == Action::kAdd) last_added = r.first_id;
      ref_mutations_.push_back(
          {a.kind == Action::kAdd ? net::MessageType::kAddPolygons
                                  : net::MessageType::kRemovePolygons,
           r.epoch, r.num_polygons, r.first_id});
    }
    service.set_subscription_matcher(nullptr);
    service.Shutdown();
    uint64_t events = 0;
    for (const RefEvents& e : ref_events_) events += e.batch.events.size();
    std::printf("index %.1f MiB; reference replay: %zu actions, %zu event "
                "frames, %llu events\n",
                static_cast<double>(index_->MemoryBytes()) / (1 << 20),
                schedule_.size(), ref_events_.size(),
                static_cast<unsigned long long>(events));
    std::lock_guard<std::mutex> lock(mu_);
    received_.clear();
    gaps_.clear();
  }

  LoopResult Loop(Stack& stack, double seconds, SpanLog* spans) override {
    net::AsyncJoinClient& client = *stack.client;
    LoopResult r;
    const uint32_t first_tick = next_tick_;
    const uint32_t end_tick = std::min<uint32_t>(
        num_ticks_, first_tick + static_cast<uint32_t>(seconds * 1e9 / kTickNs));
    std::vector<int64_t> reply_at(end_tick - first_tick, 0);
    const int64_t t_begin = NowNs() + 2'000'000;
    const OpenLoopSchedule sched(t_begin, kTickNs);
    const double cpu0 = ProcessCpuSeconds();

    while (next_action_ < schedule_.size() &&
           schedule_[next_action_].tick < end_tick) {
      const Action& a = schedule_[next_action_++];
      const uint32_t local = a.tick - first_tick;
      const bool tick = a.kind == Action::kTick;
      const int64_t due = sched.Due(local) + (tick ? 0 : kMutateOffsetNs);
      const uint64_t rid = client.NextRequestId();
      // Inputs and frames are prepared before the due time; the clock
      // starts at due.
      std::vector<uint8_t> frame;
      if (tick) {
        if (a.tick > 0) moved_ += motion_->Advance();
        motion_->Fill(&batch_);
        batch_.trace = spans != nullptr;
        frame = net::EncodeJoinBatchFrame(rid, batch_);
      } else if (a.kind == Action::kAdd) {
        frame = net::EncodeAddPolygonsFrame(rid, 0, {polygons_[a.mutation / 2]});
      } else {
        frame = net::EncodeRemovePolygonsFrame(rid, 0, {last_added_});
      }
      while (NowNs() < due) {
        const int64_t left = due - NowNs();
        if (left > 200'000) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(left - 100'000));
        }
      }
      const int64_t t_start = NowNs();
      lateness_ms_.push_back(static_cast<double>(std::max<int64_t>(0, t_start - due)) / 1e6);
      net::AsyncJoinClient::RawReply reply =
          client
              .Call(frame, rid,
                    tick ? net::MessageType::kJoinResult
                         : net::MessageType::kMutateResult)
              .get();
      const int64_t t_reply = NowNs();
      if (!reply.ok) {
        RecordWireFailure(&r.ledger, reply.error);
        continue;
      }
      if (!tick) {
        net::MutationAck ack;
        const bool ok = net::DecodeMutationAck(reply.payload, &ack) &&
                        ack == ref_mutations_[a.mutation];
        if (!ok) {
          r.ledger.RecordMismatch();
          continue;
        }
        if (a.kind == Action::kAdd) last_added_ = ack.first_id;
        r.ledger.RecordSuccess();
        mutate_ms_.push_back(static_cast<double>(t_reply - t_start) / 1e6);
        if (spans != nullptr) {
          const int32_t root = spans->Open(
              a.kind == Action::kAdd ? "mutate.add" : "mutate.remove",
              Layer::kService, t_start, -1, rid);
          spans->Close(root, t_reply);
        }
        continue;
      }
      svc::JoinResult res;
      const bool decoded = net::DecodeJoinResult(reply.payload, &res);
      const int64_t t_decoded = NowNs();
      const bool same = decoded && SameJoin(res.stats, ref_ticks_[a.tick]);
      const int64_t t_done = NowNs();
      if (!decoded) {
        r.ledger.RecordFailure();
        continue;
      }
      if (!same) {
        r.ledger.RecordMismatch();
        continue;
      }
      r.ledger.RecordSuccess();
      ++r.ops;
      reply_at[local] = t_done;
      tick_ms_.push_back(static_cast<double>(sched.Latency(local, t_done)) / 1e6);
      if (spans != nullptr) {
        const int32_t root = spans->Open("tick", Layer::kNet, t_start, -1, rid);
        const int32_t call = spans->Open("client.call", Layer::kNet, t_start, root, rid);
        spans->Close(call, t_reply);
        spans->AddStages(call, JoinStages(res.trace));
        spans->Close(spans->Open("client.decode", Layer::kNet, t_reply, root, rid),
                     t_decoded);
        spans->Close(spans->Open("bench.verify", Layer::kBench, t_decoded, root, rid),
                     t_done);
        spans->Close(root, t_done);
      }
    }

    // Wait for the pushed events of these actions, then time each tick to
    // the later of its reply and its EVENT frame.
    size_t expected = 0;
    while (expected < ref_events_.size() &&
           ref_events_[expected].action < next_action_) {
      ++expected;
    }
    const int64_t deadline = NowNs() + 5'000'000'000LL;
    while (NowNs() < deadline) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (received_.size() >= expected || !gaps_.empty()) break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    r.wall_s = static_cast<double>(NowNs() - t_begin) / 1e9;
    r.cpu_s = ProcessCpuSeconds() - cpu0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (size_t k = 0; k < std::min(expected, received_.size()); ++k) {
        const Action& a = schedule_[ref_events_[k].action];
        if (a.kind != Action::kTick || a.tick < first_tick) continue;
        const uint32_t local = a.tick - first_tick;
        event_lag_ms_.push_back(
            static_cast<double>(sched.Latency(local, received_[k].arrival)) / 1e6);
        if (reply_at[local] != 0) {
          reply_at[local] = std::max(reply_at[local], received_[k].arrival);
        }
      }
    }
    for (uint32_t local = 0; local < reply_at.size(); ++local) {
      if (reply_at[local] != 0) {
        r.op_ms.push_back(static_cast<double>(sched.Latency(local, reply_at[local])) / 1e6);
      }
    }
    ticks_run_ += end_tick - first_tick;
    next_tick_ = end_tick;
    return r;
  }

  void FinishChecks(FailureLedger* ledger) override {
    std::lock_guard<std::mutex> lock(mu_);
    recording_events_ = false;
    for (const net::EventGap& g : gaps_) {
      ledger->RecordGap(g.first_skipped_seq, g.last_skipped_seq);
    }
    size_t expected = 0;
    while (expected < ref_events_.size() &&
           ref_events_[expected].action < next_action_) {
      ++expected;
    }
    if (!gaps_.empty()) return;  // the stream is already counted as lossy
    for (size_t k = 0; k < std::max(expected, received_.size()); ++k) {
      if (k >= expected || k >= received_.size() ||
          !(received_[k].batch == ref_events_[k].batch)) {
        ledger->RecordLateMismatch();
      }
    }
  }

  void ReportExtras(MetricSet* extras) override {
    const LatencySummary tick = Summarize(tick_ms_);
    const LatencySummary lag = Summarize(event_lag_ms_);
    const LatencySummary late = Summarize(lateness_ms_);
    extras->Add("tick_p50_ms", tick.p50, "ms", tick.samples);
    extras->Add("tick_p" + std::to_string(tick.tail_pct) + "_ms", tick.tail, "ms",
                tick.samples);
    extras->Add("event_lag_p50_ms", lag.p50, "ms", lag.samples);
    extras->Add("event_lag_p" + std::to_string(lag.tail_pct) + "_ms", lag.tail,
                "ms", lag.samples);
    extras->Add("mutate_p50_ms", Percentile(mutate_ms_, 50), "ms",
                mutate_ms_.size());
    extras->Add("generator_late_p" + std::to_string(late.tail_pct) + "_ms",
                late.tail, "ms", late.samples);
    extras->Add("generator_late_max_ms", Percentile(lateness_ms_, 100), "ms",
                lateness_ms_.size());
  }

  std::pair<size_t, size_t> Ladder(Stack& stack, SpanLog* spans,
                                   MetricSet* layer,
                                   FailureLedger* ledger) override {
    PointSubject s;
    s.polygons = &ds_.polygons;
    s.sharding = Sharding();
    s.initial = index_;
    s.dataset_id = 0;
    s.mode = act::JoinMode::kExact;
    s.batch = &batch_;
    s.mbr = ds_.mbr;
    s.seed = seed_;
    batch_.trace = false;
    const auto trees = PointLadder(s, stack, spans, layer, ledger);
    Join2Ladder(0, 0, 1, stack, spans, layer, ledger);
    MutationLadder(s, stack, layer, ledger);
    return trees;
  }

  void LayerCounts(MetricSet* layer) override {
    std::lock_guard<std::mutex> lock(mu_);
    const double ticks = std::max<double>(1, ticks_run_);
    uint64_t events = 0;
    for (const Received& r : received_) events += r.batch.events.size();
    uint64_t dropped = 0;
    for (const net::EventGap& g : gaps_) {
      dropped += g.last_skipped_seq - g.first_skipped_seq + 1;
    }
    layer->Add("subscribe.moved_tracks_per_tick", moved_ / ticks, "count",
               ticks_run_);
    layer->Add("subscribe.events_per_tick", events / ticks, "count", ticks_run_);
    layer->Add("subscribe.event_frames_per_tick", received_.size() / ticks,
               "count", ticks_run_);
    layer->Add("subscribe.events_dropped", static_cast<double>(dropped), "count",
               ticks_run_);
  }

 private:
  struct RefEvents {
    size_t action;  // schedule index that produced the frame
    svc::EventBatch batch;
  };
  struct Received {
    svc::EventBatch batch;
    int64_t arrival;
  };

  actjoin::geo::Grid grid_;
  uint64_t seed_ = 0;
  wl::PolygonDataset ds_;
  wl::PointSet positions_;
  std::vector<Action> schedule_;
  std::vector<geom::Polygon> polygons_;  // one per ADD
  uint32_t num_ticks_ = 0;
  std::shared_ptr<const svc::ShardedIndex> index_;

  std::vector<act::JoinStats> ref_ticks_;
  std::vector<net::MutationAck> ref_mutations_;
  std::vector<RefEvents> ref_events_;

  std::unique_ptr<FleetMotion> motion_;  // same seed as the replay's
  svc::QueryBatch batch_;
  size_t next_action_ = 0;
  uint32_t next_tick_ = 0;
  uint32_t last_added_ = 0;
  uint64_t moved_ = 0;
  uint64_t ticks_run_ = 0;
  std::vector<double> tick_ms_, event_lag_ms_, mutate_ms_, lateness_ms_;

  std::mutex mu_;  // guards the fields below (the client's reader writes)
  bool recording_events_ = true;
  std::vector<Received> received_;
  std::vector<net::EventGap> gaps_;
};

}  // namespace

std::unique_ptr<Workload> MakeFleetGeofence() {
  return std::make_unique<FleetWorkload>();
}

}  // namespace perfbench
