#include "perfbench/src/workloads.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <utility>

#include "perfbench/src/inputs.h"
#include "src/accel/checksum.h"
#include "src/accel/echo.h"
#include "src/accel/kv_store.h"
#include "src/core/kernel.h"
#include "src/core/service_ids.h"
#include "src/fault/fault_injector.h"
#include "src/fpga/board.h"
#include "src/orch/autoscaler.h"
#include "src/orch/placer.h"
#include "src/orch/reconfig_scheduler.h"
#include "src/services/load_balancer.h"
#include "src/services/memory_service.h"
#include "src/services/mgmt_service.h"
#include "src/services/network_service.h"
#include "src/services/supervisor.h"
#include "src/sim/simulator.h"
#include "src/tenant/abuse.h"
#include "src/tenant/tenant.h"
#include "src/tenant/tenant_service.h"
#include "src/workload/kv_workload.h"

namespace perfbench {

using apiary::Accelerator;
using apiary::ApiaryOs;
using apiary::Board;
using apiary::BoardConfig;
using apiary::Cycle;
using apiary::Message;
using apiary::MsgKind;
using apiary::MsgStatus;
using apiary::SendResult;
using apiary::ServiceId;
using apiary::Simulator;
using apiary::TileApi;
using apiary::TileId;

void Ledger::Fail(const std::string& what) {
  BookkeepingScope bookkeeping;
  if (check_failures++ == 0) {
    first_failure = what;
  }
}

const std::vector<WorkloadSpec>& Workloads() {
  // Latency limits: saturated-echo's is about twice its closed-loop median
  // round trip, diurnal-autoscale's is a10's externally promised 10k-cycle
  // p99, and tenant-flood's is about twice the victim's solo round trip.
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"saturated-echo", 150},
      {"diurnal-autoscale", 10'000},
      {"tenant-flood", 100},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) {
      return &spec;
    }
  }
  return nullptr;
}

namespace {

// A send refused with one of these is retried by the client (after a
// backoff); any other refusal is final and counts as a failed request.
bool Retryable(MsgStatus status) {
  return status == MsgStatus::kBackpressure || status == MsgStatus::kRateLimited ||
         status == MsgStatus::kTileStopped;
}

double Seconds(int64_t begin_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) / 1e9;
}

// Scales host intervals to the reference host speed (see
// CalibrationSeconds): each interval is bracketed by calibration kernel
// runs and multiplied by nominal / mean(kernel time before, after).
class Calibrator {
 public:
  explicit Calibrator(std::vector<double>* log) : log_(log), last_(Sample()) {}
  // Scales an interval that ended just now.
  double Scale(double seconds) {
    const double before = last_;
    last_ = Sample();
    return seconds * kCalibrationNominalS / ((before + last_) / 2);
  }

 private:
  double Sample() {
    const double s = CalibrationSeconds();
    log_->push_back(s);
    return s;
  }
  std::vector<double>* log_;
  double last_;
};

// Times set-up (board construction, then everything deployed on it) and
// counts its allocations.
class SetupClock {
 public:
  SetupClock(IterationResult& r, Tracer* tracer)
      : r_(r),
        tracer_(tracer),
        calibrator_(Reserve(r)),
        allocs0_(WorkloadAllocs()),
        t0_(NowNs()) {}
  void BoardBuilt() { t1_ = NowNs(); }
  void Done() {
    const int64_t t2 = NowNs();
    r_.setup_allocs = WorkloadAllocs() - allocs0_;
    if (tracer_ != nullptr) {
      tracer_->Record("setup.board", t0_, t1_);
      tracer_->Record("setup.deploy", t1_, t2);
    }
    const double scale = calibrator_.Scale(1.0);
    r_.board_s = Seconds(t0_, t1_) * scale;
    r_.deploy_s = Seconds(t1_, t2) * scale;
  }

 private:
  static std::vector<double>* Reserve(IterationResult& r) {
    BookkeepingScope bookkeeping;
    r.calib_s.reserve(64);
    return &r.calib_s;
  }
  IterationResult& r_;
  Tracer* tracer_;
  Calibrator calibrator_;
  AllocTally allocs0_;
  int64_t t0_;
  int64_t t1_ = 0;
};

// ---------------------------------------------------------------------------
// Measured window: warmup, then fixed simulated-cycle slices, then an
// optional drain. Host time covers only the calls into Simulator::Run.
// ---------------------------------------------------------------------------
struct WindowPlan {
  Cycle warmup = 0;
  Cycle window = 0;
  uint32_t slices = 1;
};

void RunWindow(const WindowPlan& plan, const Probes& probes, bool* measuring, Tracer* tracer,
               IterationResult& r, const std::function<void()>& drain) {
  Simulator& sim = *probes.sim;
  {
    BookkeepingScope bookkeeping;
    r.slice_s.reserve(plan.slices);
    r.calib_s.reserve(r.calib_s.size() + plan.slices + 2);
  }
  const uint32_t warm_span = tracer != nullptr ? tracer->Open("warmup") : 0;
  sim.Run(plan.warmup);
  if (tracer != nullptr) {
    tracer->Close(warm_span);
  }

  *measuring = true;
  const Snapshot begin = TakeSnapshot(probes);
  Snapshot prev;
  if (tracer != nullptr) {
    BookkeepingScope bookkeeping;
    prev = begin;
  }
  const Cycle cycle0 = sim.now();
  int64_t measure_ns = 0;
  Calibrator calibrator(&r.calib_s);
  const AllocTally alloc0 = WorkloadAllocs();
  for (uint32_t i = 0; i < plan.slices; ++i) {
    const Cycle cycles =
        plan.window / plan.slices + (i + 1 == plan.slices ? plan.window % plan.slices : 0);
    const uint32_t span = tracer != nullptr ? tracer->Open("slice") : 0;
    const int64_t s0 = NowNs();
    sim.Run(cycles);
    const int64_t s1 = NowNs();
    measure_ns += s1 - s0;
    r.slice_s.push_back(Seconds(s0, s1));
    r.measure_ref_s += calibrator.Scale(Seconds(s0, s1));
    if (tracer != nullptr) {
      tracer->Close(span);
      BookkeepingScope bookkeeping;
      Snapshot now = TakeSnapshot(probes);
      Snapshot args = Delta(now, prev);
      args["slice.index"] = i;
      args["slice.end_cycle"] = sim.now();
      tracer->Annotate(span, std::move(args));
      prev = std::move(now);
    }
    if (probes.autoscaler != nullptr) {
      r.replicas_max = std::max<uint64_t>(r.replicas_max, probes.autoscaler->live_replicas());
    }
  }
  if (drain) {
    const uint32_t span = tracer != nullptr ? tracer->Open("drain") : 0;
    const int64_t d0 = NowNs();
    drain();
    const int64_t d1 = NowNs();
    measure_ns += d1 - d0;
    r.measure_ref_s += calibrator.Scale(Seconds(d0, d1));
    if (tracer != nullptr) {
      tracer->Close(span);
    }
  }
  r.window_allocs = WorkloadAllocs() - alloc0;
  r.measure_s = static_cast<double>(measure_ns) / 1e9;
  r.window_cycles = sim.now() - cycle0;
  const Snapshot end = TakeSnapshot(probes);
  BookkeepingScope bookkeeping;
  r.window = Delta(end, begin);
  r.block_count = sim.block_count();
  const apiary::Histogram packet = probes.board->mesh().AggregateLatency();
  r.packet_latency_p50 = packet.P50();
  r.packet_latency_p99 = packet.P99();
}

void ApplyMode(const IterationMode& mode, Simulator& sim) {
  if (mode.reference) {
    sim.SetSkipEnabled(false);
    sim.SetActiveSetEnabled(false);
  }
}

void RecordLatency(Ledger& ledger, uint64_t slo_cycles, Cycle rtt) {
  ledger.latency.Record(rtt);
  ledger.slo_ok += rtt <= slo_cycles ? 1 : 0;
  ++ledger.completed;
}

// ---------------------------------------------------------------------------
// saturated-echo
// ---------------------------------------------------------------------------
constexpr uint32_t kEchoPairs = 4;
constexpr uint32_t kEchoWindow = 16;
constexpr uint32_t kEchoSmallPayload = 48;   // PayloadBuf inline tier.
constexpr uint32_t kEchoLargePayload = 240;  // Arena tier.
constexpr WindowPlan kEchoPlan{/*warmup=*/20'000, /*window=*/150'000, /*slices=*/10};

// Closed loop: keeps kEchoWindow requests outstanding, so the mesh never
// goes quiescent. Each request carries seeded bytes the reply must echo.
class EchoClient : public Accelerator {
 public:
  EchoClient(ServiceId svc, uint32_t payload_bytes, uint64_t stream, Ledger* ledger,
             const bool* measuring, Tracer* tracer, uint64_t slo_cycles)
      : svc_(svc),
        payload_bytes_(payload_bytes),
        stream_(stream),
        ledger_(ledger),
        measuring_(measuring),
        tracer_(tracer),
        slo_cycles_(slo_cycles) {}

  void Tick(TileApi& api) override {
    ClientSpan span(tracer_, "client.tick");
    while (in_flight_ < kEchoWindow) {
      const uint64_t id = next_id_ + 1;
      Message msg;
      msg.opcode = apiary::kOpEcho;
      msg.payload.resize(payload_bytes_);
      FillBytes(Mix(stream_, id), std::span<uint8_t>(msg.payload.data(), payload_bytes_));
      msg.request_id = id;
      const SendResult sent = TimedSend(tracer_, api, std::move(msg), api.LookupService(svc_));
      if (!sent.ok() && Retryable(sent.status)) {
        break;
      }
      next_id_ = id;
      if (*measuring_) {
        ++ledger_->attempted;
      }
      if (!sent.ok()) {
        ledger_->refusals += *measuring_ ? 1 : 0;
        break;
      }
      for (Slot& slot : slots_) {
        if (slot.id == 0) {
          slot = Slot{id, api.now(), *measuring_};
          break;
        }
      }
      ++in_flight_;
    }
  }

  void OnMessage(const Message& msg, TileApi& api) override {
    ClientSpan span(tracer_, "client.on_message");
    if (msg.kind != MsgKind::kResponse) {
      return;
    }
    Slot* slot = nullptr;
    for (Slot& s : slots_) {
      if (s.id != 0 && s.id == msg.request_id) {
        slot = &s;
      }
    }
    if (slot == nullptr) {
      ledger_->Fail("saturated-echo: reply to no outstanding request");
      return;
    }
    const Slot done = *slot;
    slot->id = 0;
    --in_flight_;
    if (msg.status != MsgStatus::kOk) {
      ledger_->errors += done.counted ? 1 : 0;
      return;
    }
    std::array<uint8_t, kEchoLargePayload> expect{};
    FillBytes(Mix(stream_, done.id), std::span<uint8_t>(expect.data(), payload_bytes_));
    if (msg.payload.size() != payload_bytes_ ||
        std::memcmp(msg.payload.data(), expect.data(), payload_bytes_) != 0) {
      ledger_->Fail("saturated-echo: reply bytes differ from the request");
      ledger_->errors += done.counted ? 1 : 0;
      return;
    }
    if (done.counted) {
      RecordLatency(*ledger_, slo_cycles_, api.now() - done.sent_at);
    }
  }

  std::string name() const override { return "perfbench_echo_client"; }
  uint32_t LogicCellCost() const override { return 1000; }

  uint64_t OutstandingCounted() const {
    uint64_t n = 0;
    for (const Slot& s : slots_) {
      n += (s.id != 0 && s.counted) ? 1 : 0;
    }
    return n;
  }

 private:
  struct Slot {
    uint64_t id = 0;  // 0: free.
    Cycle sent_at = 0;
    bool counted = false;
  };
  ServiceId svc_;
  uint32_t payload_bytes_;
  uint64_t stream_;
  Ledger* ledger_;
  const bool* measuring_;
  Tracer* tracer_;
  uint64_t slo_cycles_;
  std::array<Slot, kEchoWindow> slots_{};
  uint32_t in_flight_ = 0;
  uint64_t next_id_ = 0;
};

BoardConfig EchoBoardConfig() {
  BoardConfig cfg;
  cfg.part_number = "VU9P";
  cfg.mesh = apiary::MeshConfig{4, 4, 8, 512};
  cfg.dram.capacity_bytes = 256ull << 20;
  cfg.mac_kind = apiary::MacKind::k100G;
  return cfg;
}

struct EchoBoard {
  EchoBoard() : net(25), board(EchoBoardConfig(), sim, &net), os(board) { sim.Register(&net); }
  Simulator sim{250.0};
  apiary::ExternalNetwork net;
  Board board;
  ApiaryOs os;
};

IterationResult RunSaturatedEcho(const WorkloadSpec& spec, const Inputs& inputs,
                                 const IterationMode& mode) {
  IterationResult r;
  bool measuring = false;
  SetupClock setup(r, mode.tracer);
  auto b = std::make_unique<EchoBoard>();
  setup.BoardBuilt();
  ApplyMode(mode, b->sim);
  ApiaryOs& os = b->os;
  os.DeployService(apiary::kMemoryService,
                   std::make_unique<apiary::MemoryService>(&os, &b->board.memory()));
  os.DeployService(apiary::kNetworkService,
                   std::make_unique<apiary::NetworkService>(
                       &os, std::make_unique<apiary::Mac100GAdapter>(b->board.mac100g())));
  const apiary::AppId app = os.CreateApp("saturated_echo");
  std::vector<EchoClient*> clients;
  for (uint32_t i = 0; i < kEchoPairs; ++i) {
    ServiceId echo_svc = 0;
    os.Deploy(app, std::make_unique<apiary::EchoAccelerator>(/*service_cycles=*/0), &echo_svc);
    const uint32_t bytes = (i % 2 == 0) ? kEchoSmallPayload : kEchoLargePayload;
    auto client = std::make_unique<EchoClient>(echo_svc, bytes, Mix(inputs.seed, i), &r.ledger,
                                               &measuring, mode.tracer, spec.slo_cycles);
    clients.push_back(client.get());
    const TileId ct = os.Deploy(app, std::move(client));
    (void)os.GrantSendToService(ct, echo_svc);
  }
  setup.Done();
  if (mode.setup_only) {
    return r;
  }

  Probes probes;
  probes.sim = &b->sim;
  probes.board = &b->board;
  probes.os = &os;
  RunWindow(kEchoPlan, probes, &measuring, mode.tracer, r, nullptr);
  for (const EchoClient* c : clients) {
    r.ledger.outstanding += c->OutstandingCounted();
  }
  r.tile_cycles = os.AppTiles(app).size() * r.window_cycles;
  return r;
}

// ---------------------------------------------------------------------------
// diurnal-autoscale
// ---------------------------------------------------------------------------
constexpr uint32_t kDiurnalPayloadBytes = 1024;  // ~1024 cycles of CRC service.
constexpr uint32_t kDiurnalMaxReplicas = 6;
constexpr Cycle kDiurnalReconfigCycles = 60'000;
constexpr Cycle kDiurnalDrainCycles = 400'000;
const DiurnalShape kDiurnalShape{};
// The arrival times come from this fixed trace seed, not from the run's
// seed (which drives the payload bytes). The trace's p99 hinges on how a
// burst meets the autoscaler's poll and cooldown, so across trace seeds it
// ranges over 2.3k..15k cycles; a run-to-run comparison needs one trace.
constexpr uint64_t kDiurnalTraceSeed = 7;
constexpr uint32_t kDiurnalSlices = 30;

uint64_t DiurnalPayloadStream(uint64_t seed, size_t index) {
  return Mix(Mix(seed, 0xc4c), index);
}

// Open loop: fires request i at arrivals[i] (retrying while the NI pushes
// back) and times it from arrivals[i], so a stall is charged to every
// request queued behind it.
class TraceClient : public Accelerator {
 public:
  TraceClient(ServiceId lb_svc, const Inputs* inputs, Ledger* ledger, const bool* measuring,
              Tracer* tracer, uint64_t slo_cycles)
      : lb_svc_(lb_svc),
        inputs_(inputs),
        ledger_(ledger),
        measuring_(measuring),
        tracer_(tracer),
        slo_cycles_(slo_cycles),
        answered_(inputs->arrivals.size(), false) {}

  void Tick(TileApi& api) override {
    ClientSpan span(tracer_, "client.tick");
    const std::vector<uint64_t>& arrivals = inputs_->arrivals;
    while (next_ < arrivals.size() && arrivals[next_] <= api.now()) {
      Message msg;
      msg.opcode = apiary::kOpChecksum;
      msg.payload.resize(kDiurnalPayloadBytes);
      FillBytes(DiurnalPayloadStream(inputs_->seed, next_),
                std::span<uint8_t>(msg.payload.data(), kDiurnalPayloadBytes));
      msg.request_id = next_ + 1;
      const SendResult sent =
          TimedSend(tracer_, api, std::move(msg), api.LookupService(lb_svc_));
      if (!sent.ok() && Retryable(sent.status)) {
        return;  // Retry next cycle; the request's clock keeps running.
      }
      // Every arrival is at or after the warmup, so all requests count.
      ledger_->attempted += *measuring_ ? 1 : 0;
      if (sent.ok()) {
        ledger_->lateness.Record(api.now() - arrivals[next_]);
        ++in_flight_;
      } else {
        ++ledger_->refusals;
        answered_[next_] = true;
      }
      ++next_;
    }
  }

  void OnMessage(const Message& msg, TileApi& api) override {
    ClientSpan span(tracer_, "client.on_message");
    if (msg.kind != MsgKind::kResponse) {
      return;
    }
    if (msg.request_id == 0 || msg.request_id > next_ || answered_[msg.request_id - 1]) {
      ledger_->Fail("diurnal-autoscale: reply to no outstanding request");
      return;
    }
    const size_t index = msg.request_id - 1;
    answered_[index] = true;
    --in_flight_;
    if (msg.status != MsgStatus::kOk) {
      ++ledger_->errors;
      return;
    }
    if (msg.payload.size() < 4 || apiary::GetU32(msg.payload, 0) != inputs_->crcs[index]) {
      ledger_->Fail("diurnal-autoscale: checksum reply differs from the reference CRC");
      ++ledger_->errors;
      return;
    }
    RecordLatency(*ledger_, slo_cycles_, api.now() - inputs_->arrivals[index]);
  }

  std::string name() const override { return "perfbench_trace_client"; }
  uint32_t LogicCellCost() const override { return 1000; }

  bool Finished() const { return next_ == inputs_->arrivals.size() && in_flight_ == 0; }
  uint64_t in_flight() const { return in_flight_; }

 private:
  ServiceId lb_svc_;
  const Inputs* inputs_;
  Ledger* ledger_;
  const bool* measuring_;
  Tracer* tracer_;
  uint64_t slo_cycles_;
  std::vector<bool> answered_;
  size_t next_ = 0;
  uint64_t in_flight_ = 0;
};

struct DiurnalBoard {
  static BoardConfig Config() {
    BoardConfig cfg;
    cfg.part_number = "VU9P";
    cfg.mesh = apiary::MeshConfig{4, 4, 8, 512};
    cfg.dram.capacity_bytes = 64ull << 20;
    cfg.mac_kind = apiary::MacKind::kNone;
    cfg.partial_reconfig_cycles = kDiurnalReconfigCycles;
    return cfg;
  }
  DiurnalBoard() : board(Config(), sim, nullptr), os(board) {}
  Simulator sim{250.0};
  Board board;
  ApiaryOs os;
};

IterationResult RunDiurnalAutoscale(const WorkloadSpec& spec, const Inputs& inputs,
                                    const IterationMode& mode) {
  IterationResult r;
  bool measuring = false;
  SetupClock setup(r, mode.tracer);
  auto b = std::make_unique<DiurnalBoard>();
  setup.BoardBuilt();
  ApplyMode(mode, b->sim);
  ApiaryOs& os = b->os;

  const apiary::AppId app = os.CreateApp("elastic_crc");
  auto* lb = new apiary::LoadBalancer();
  ServiceId lb_svc = 0;
  const TileId lb_tile = os.Deploy(app, std::unique_ptr<Accelerator>(lb), &lb_svc);
  auto replica_factory = [] {
    return std::make_unique<apiary::ChecksumAccelerator>(/*bytes_per_cycle=*/1);
  };
  ServiceId first_svc = 0;
  const TileId first_tile = os.Deploy(app, replica_factory(), &first_svc);
  const apiary::CapRef first_ep = os.GrantSendToService(lb_tile, first_svc);
  lb->AddBackend(first_ep);

  auto* client = new TraceClient(lb_svc, &inputs, &r.ledger, &measuring, mode.tracer,
                                 spec.slo_cycles);
  const TileId client_tile = os.Deploy(app, std::unique_ptr<Accelerator>(client));
  (void)os.GrantSendToService(client_tile, lb_svc);

  apiary::Placer placer(&os);
  apiary::ReconfigSchedulerConfig rcfg;
  rcfg.drain_cycles = 2'000;
  rcfg.drain_deadline_cycles = 100'000;
  apiary::ReconfigScheduler scheduler(&os, app, rcfg);
  apiary::AutoscalerConfig acfg;
  acfg.policy = apiary::ScalePolicy::kSloLatency;
  acfg.min_replicas = 1;
  acfg.max_replicas = kDiurnalMaxReplicas;
  acfg.poll_period = 10'000;
  acfg.slo_p99_cycles = 4'000;  // Headroom under the 10k external limit.
  acfg.slo_down_fraction = 0.45;
  acfg.cooldown_cycles = 100'000;
  acfg.replica_logic_cells = 4'000;
  apiary::Autoscaler autoscaler(&os, lb, lb_tile, app, replica_factory, &placer, &scheduler,
                                acfg);
  autoscaler.AdoptReplica(first_svc, first_tile, first_ep);
  setup.Done();
  if (mode.setup_only) {
    return r;
  }

  Probes probes;
  probes.sim = &b->sim;
  probes.board = &b->board;
  probes.os = &os;
  probes.lb = lb;
  probes.autoscaler = &autoscaler;
  probes.reconfig = &scheduler;
  const WindowPlan plan{kDiurnalShape.first_arrival,
                        kDiurnalShape.run_cycles - kDiurnalShape.first_arrival, kDiurnalSlices};
  Simulator& sim = b->sim;
  RunWindow(plan, probes, &measuring, mode.tracer, r,
            [&] { sim.RunUntil([&] { return client->Finished(); }, kDiurnalDrainCycles); });
  r.ledger.outstanding = client->in_flight();
  r.tile_cycles = autoscaler.replica_tile_cycles();
  return r;
}

// ---------------------------------------------------------------------------
// tenant-flood
// ---------------------------------------------------------------------------
constexpr Cycle kFloodReconfigCycles = 50'000;
constexpr Cycle kKvTimeoutCycles = 10'000;
constexpr Cycle kKvBackoffCycles = 500;
constexpr Cycle kFloodRunCycles = 1'000'000;
constexpr Cycle kFloodAttackAt = 150'000;
constexpr Cycle kFloodAttackCycles = 700'000;
constexpr Cycle kVictimCrashAt = 500'000;  // Mid-attack: recovery contends too.
constexpr Cycle kMeterPeriod = 50'000;
constexpr WindowPlan kFloodPlan{/*warmup=*/50'000, /*window=*/kFloodRunCycles - 50'000,
                                /*slices=*/19};
// Tile map (4x4): 0 memory service, 1 mgmt, 2 tenant stats, 5 victim KV
// store, 6 victim client, 9 attacker.
constexpr TileId kVictimTile = 5;
constexpr TileId kClientTile = 6;
constexpr TileId kAttackerTile = 9;

// The victim's KV store, folding its counters into a tally that outlives
// it: a supervisor recovery replaces the instance.
class CountedKvStore : public apiary::KvStoreAccelerator {
 public:
  explicit CountedKvStore(KvTally* tally)
      : apiary::KvStoreAccelerator(1 << 20, 1 << 16), tally_(tally) {
    tally_->live = this;
  }
  ~CountedKvStore() override {
    BookkeepingScope bookkeeping;
    tally_->get_ok += counters().Get("kv.get_ok");
    tally_->get_miss += counters().Get("kv.get_miss");
    if (tally_->live == this) {
      tally_->live = nullptr;
    }
  }
  CountedKvStore(const CountedKvStore&) = delete;
  CountedKvStore& operator=(const CountedKvStore&) = delete;

 private:
  KvTally* tally_;
};

// Closed-loop victim client, one request outstanding: op 2j PUTs seeded
// value j under seeded key j, op 2j+1 GETs it back. A GET must return a
// value that may be current (the last acknowledged PUT, or a later PUT
// whose outcome the client never learned) or miss only because the crash
// wiped the store.
class KvVictim : public Accelerator {
 public:
  KvVictim(ServiceId svc, uint64_t seed, Ledger* ledger, const bool* measuring, Tracer* tracer,
           uint64_t slo_cycles)
      : svc_(svc),
        seed_(seed),
        ledger_(ledger),
        measuring_(measuring),
        tracer_(tracer),
        slo_cycles_(slo_cycles) {}

  void Tick(TileApi& api) override {
    ClientSpan span(tracer_, "client.tick");
    if (in_flight_) {
      if (api.now() < timeout_at_) {
        return;
      }
      ledger_->timeouts += counted_ ? 1 : 0;
      FinishOp(/*put_unresolved=*/true);
    }
    if (api.now() < next_send_) {
      return;
    }
    const uint64_t pair = op_ / 2;
    const uint32_t key = KvKeyIndex(seed_, pair);
    Message msg;
    if (IsPut()) {
      msg.opcode = apiary::kOpKvPut;
      msg.payload = apiary::MakeKvPutPayload(KvKeyName(key), Value(pair));
    } else {
      msg.opcode = apiary::kOpKvGet;
      msg.payload = apiary::MakeKvGetPayload(KvKeyName(key));
    }
    msg.request_id = op_ + 1;
    if (!started_) {
      started_ = true;
      started_at_ = api.now();
      counted_ = *measuring_;
      ledger_->attempted += counted_ ? 1 : 0;
    }
    const SendResult sent = TimedSend(tracer_, api, std::move(msg), api.LookupService(svc_));
    if (sent.ok()) {
      in_flight_ = true;
      timeout_at_ = api.now() + kKvTimeoutCycles;
    } else if (Retryable(sent.status)) {
      next_send_ = api.now() + kKvBackoffCycles;
    } else {
      ledger_->refusals += counted_ ? 1 : 0;
      FinishOp(/*put_unresolved=*/true);
    }
  }

  void OnMessage(const Message& msg, TileApi& api) override {
    ClientSpan span(tracer_, "client.on_message");
    if (msg.kind != MsgKind::kResponse || !in_flight_ || msg.request_id != op_ + 1) {
      return;  // A late reply to a request that already timed out.
    }
    const uint64_t pair = op_ / 2;
    const uint32_t key = KvKeyIndex(seed_, pair);
    const Cycle rtt = api.now() - started_at_;
    bool completed = false;
    if (msg.status == MsgStatus::kOk && IsPut()) {
      current_[key] = {pair};
      acked_at_[key] = api.now();
      completed = true;
    } else if (msg.status == MsgStatus::kOk) {
      bool known = false;
      for (const uint64_t candidate : current_[key]) {
        const std::vector<uint8_t> value = Value(candidate);
        known = known || (msg.payload.size() == value.size() &&
                          std::memcmp(msg.payload.data(), value.data(), value.size()) == 0);
      }
      if (known) {
        completed = true;
      } else {
        ledger_->Fail("tenant-flood: KV GET returned a value never PUT under its key");
        ledger_->errors += counted_ ? 1 : 0;
      }
    } else if (msg.status == MsgStatus::kNotFound && !IsPut()) {
      // Only the crash may lose an acknowledged value; a reply in flight at
      // the crash may still carry an acknowledgement from the old store.
      if (acked_at_[key] < kVictimCrashAt + kKvTimeoutCycles) {
        ledger_->kv_misses += counted_ ? 1 : 0;
        completed = true;
      } else {
        ledger_->Fail("tenant-flood: KV GET missed a value PUT after the recovery");
        ledger_->errors += counted_ ? 1 : 0;
      }
    } else {
      ledger_->errors += counted_ ? 1 : 0;
      next_send_ = api.now() + kKvBackoffCycles;
    }
    if (completed && counted_) {
      RecordLatency(*ledger_, slo_cycles_, rtt);
    }
    FinishOp(/*put_unresolved=*/!completed);
  }

  std::string name() const override { return "perfbench_kv_victim"; }
  uint32_t LogicCellCost() const override { return 1000; }

  uint64_t OutstandingCounted() const { return (started_ && counted_) ? 1 : 0; }

 private:
  bool IsPut() const { return op_ % 2 == 0; }

  // Input generation is the benchmark's work, not the workload's.
  std::vector<uint8_t> Value(uint64_t pair) const {
    BookkeepingScope bookkeeping;
    return KvValue(seed_, pair);
  }

  // Ends the current op. A PUT whose outcome is unknown may or may not
  // have been applied, so its value joins the key's acceptable set.
  void FinishOp(bool put_unresolved) {
    if (put_unresolved && IsPut()) {
      current_[KvKeyIndex(seed_, op_ / 2)].push_back(op_ / 2);
    }
    in_flight_ = false;
    started_ = false;
    ++op_;
  }

  ServiceId svc_;
  uint64_t seed_;
  Ledger* ledger_;
  const bool* measuring_;
  Tracer* tracer_;
  uint64_t slo_cycles_;
  uint64_t op_ = 0;
  bool started_ = false;
  bool counted_ = false;
  bool in_flight_ = false;
  Cycle started_at_ = 0;
  Cycle timeout_at_ = 0;
  Cycle next_send_ = 0;
  std::array<std::vector<uint64_t>, kKvKeys> current_{};  // Acceptable PUT pairs.
  std::array<Cycle, kKvKeys> acked_at_{};
};

struct FloodBoard {
  static BoardConfig Config() {
    BoardConfig cfg;
    cfg.part_number = "VU9P";
    cfg.mesh = apiary::MeshConfig{4, 4, 8, 512};
    cfg.dram.capacity_bytes = 64ull << 20;
    cfg.mac_kind = apiary::MacKind::k100G;
    cfg.partial_reconfig_cycles = kFloodReconfigCycles;
    return cfg;
  }
  FloodBoard() : net(25), board(Config(), sim, &net), os(board) { sim.Register(&net); }
  Simulator sim{250.0};
  apiary::ExternalNetwork net;
  Board board;
  ApiaryOs os;
};

IterationResult RunTenantFlood(const WorkloadSpec& spec, const Inputs& inputs,
                               const IterationMode& mode) {
  IterationResult r;
  KvTally kv_tally;
  bool measuring = false;
  SetupClock setup(r, mode.tracer);
  auto b = std::make_unique<FloodBoard>();
  setup.BoardBuilt();
  ApplyMode(mode, b->sim);
  ApiaryOs& os = b->os;

  auto* memsvc = new apiary::MemoryService(&os, &b->board.memory());
  os.DeployService(apiary::kMemoryService, std::unique_ptr<Accelerator>(memsvc));
  auto* mgmt = new apiary::MgmtService(&os);
  os.DeployService(apiary::kMgmtService, std::unique_ptr<Accelerator>(mgmt));
  apiary::TenantManager tenants(&os, kMeterPeriod);
  tenants.SetMemoryService(memsvc);
  os.DeployService(apiary::kTenantService,
                   std::make_unique<apiary::TenantStatsService>(&tenants));

  apiary::SupervisorConfig sup_cfg;
  sup_cfg.backoff_base_cycles = 20'000;
  sup_cfg.quarantine_after = 3;
  sup_cfg.crash_loop_window = kFloodRunCycles;
  apiary::Supervisor supervisor(&os, sup_cfg);
  mgmt->SetSupervisor(&supervisor);
  tenants.SetSupervisor(&supervisor);

  // Victim tenant, on a heavyweight arbitration class.
  apiary::TenantQuota victim_quota;
  victim_quota.max_tiles = 4;
  victim_quota.arb_class = 1;
  victim_quota.arb_weight = 8;
  const apiary::TenantId victim = tenants.CreateTenant("victim", victim_quota);
  const apiary::AppId victim_app = tenants.CreateApp(victim, "kv");
  auto kv_factory = [&kv_tally] { return std::make_unique<CountedKvStore>(&kv_tally); };
  ServiceId kv_svc = 0;
  apiary::DeployOptions at_kv;
  at_kv.tile = kVictimTile;
  tenants.Deploy(victim, victim_app, kv_factory(), &kv_svc, at_kv);
  (void)tenants.GrantSendToService(victim, kVictimTile, apiary::kMemoryService);
  auto* client =
      new KvVictim(kv_svc, inputs.seed, &r.ledger, &measuring, mode.tracer, spec.slo_cycles);
  apiary::DeployOptions at_client;
  at_client.tile = kClientTile;
  tenants.Deploy(victim, victim_app, std::unique_ptr<Accelerator>(client), nullptr, at_client);
  (void)tenants.GrantSendToService(victim, kClientTile, kv_svc);
  supervisor.Manage(kVictimTile, kv_factory);

  // Attacker tenant with enforcement on: a tenant-wide NoC budget, a
  // lightweight arbitration class and escalation to quarantine.
  apiary::TenantQuota aq;
  aq.max_tiles = 4;
  aq.noc_flits_per_1k = 100;
  aq.noc_burst_flits = 200;
  aq.arb_class = 2;
  aq.arb_weight = 1;
  aq.reconfig_loads_per_window = 2;
  aq.reconfig_window_cycles = kFloodRunCycles / 2;
  aq.offense_threshold = 500;
  aq.quarantine_strikes = 3;
  const apiary::TenantId attacker = tenants.CreateTenant("attacker", aq);
  const apiary::AppId attacker_app = tenants.CreateApp(attacker, "attacker");
  apiary::AbuseCampaign campaign(Mix(inputs.seed, 0xa77ac));
  campaign.FlitFlood(kFloodAttackAt, kFloodAttackCycles);
  apiary::AbuseDriver abuse(&os, campaign);
  auto flood = std::make_unique<apiary::FloodAttacker>(
      abuse.ActiveFlag(apiary::AttackKind::kFlitFlood), 256);
  apiary::FloodAttacker* flooder = flood.get();
  apiary::DeployOptions at_attacker;
  at_attacker.tile = kAttackerTile;
  tenants.Deploy(attacker, attacker_app, std::move(flood), nullptr, at_attacker);
  // Like any public service, the victim's KV granted the attacker a client
  // capability; escalation's subtree revocation takes it back.
  flooder->SetVictim(tenants.GrantSendToService(attacker, kAttackerTile, kv_svc));

  apiary::FaultPlan plan;
  plan.seed = Mix(inputs.seed, 0xfa17);
  plan.AccelCrash(kVictimCrashAt, kVictimTile);
  apiary::FaultHooks hooks;
  hooks.os = &os;
  hooks.mesh = &b->board.mesh();
  hooks.memory = &b->board.memory();
  hooks.network = &b->net;
  apiary::FaultInjector injector(std::move(plan), hooks);
  setup.Done();
  if (mode.setup_only) {
    return r;
  }

  Probes probes;
  probes.sim = &b->sim;
  probes.board = &b->board;
  probes.os = &os;
  probes.memsvc = memsvc;
  probes.kv = &kv_tally;
  probes.supervisor = &supervisor;
  probes.tenants = &tenants;
  probes.tenant_ids = {victim, attacker};
  probes.flooder = flooder;
  RunWindow(kFloodPlan, probes, &measuring, mode.tracer, r, nullptr);
  r.ledger.outstanding = client->OutstandingCounted();
  r.tile_cycles = tenants.Usage(victim).tile_cycles;
  r.recovery_cycles = supervisor.recovery_cycles().max();
  r.billing_digest = (static_cast<uint64_t>(tenants.BillingDigest(victim)) << 32) |
                     tenants.BillingDigest(attacker);
  return r;
}

}  // namespace

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed) {
  Inputs inputs;
  inputs.seed = seed;
  if (spec.name == "diurnal-autoscale") {
    inputs.arrivals = DiurnalArrivals(kDiurnalTraceSeed, kDiurnalShape);
    std::vector<uint8_t> payload(kDiurnalPayloadBytes);
    inputs.crcs.reserve(inputs.arrivals.size());
    for (size_t i = 0; i < inputs.arrivals.size(); ++i) {
      FillBytes(DiurnalPayloadStream(seed, i), payload);
      inputs.crcs.push_back(ReferenceCrc32(payload));
    }
  }
  return inputs;
}

IterationResult RunIteration(const WorkloadSpec& spec, const Inputs& inputs,
                             const IterationMode& mode) {
  if (spec.name == "saturated-echo") {
    return RunSaturatedEcho(spec, inputs, mode);
  }
  if (spec.name == "diurnal-autoscale") {
    return RunDiurnalAutoscale(spec, inputs, mode);
  }
  return RunTenantFlood(spec, inputs, mode);
}

}  // namespace perfbench
