// The differential harness (see tests/differential_harness.h): five
// workloads, each run in a chosen engine mode and compared with its
// reference run.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/accel/checksum.h"
#include "src/accel/echo.h"
#include "src/fault/fault_injector.h"
#include "src/fault/fault_plan.h"
#include "src/orch/autoscaler.h"
#include "src/orch/placer.h"
#include "src/orch/reconfig_scheduler.h"
#include "src/services/load_balancer.h"
#include "src/services/supervisor.h"
#include "src/sim/logging.h"
#include "src/tenant/tenant.h"
#include "tests/differential_harness.h"
#include "tests/test_util.h"

namespace apiary::differential {
namespace {

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kReference:
      return "reference";
    case Mode::kOptimized:
      return "optimized";
    case Mode::kExpress:
      return "optimized+express";
  }
  return "?";
}

void ApplyMode(TestBoard& tb, Mode mode) {
  tb.sim.SetSkipEnabled(mode != Mode::kReference);
  tb.sim.SetAuditEnabled(true);
  tb.board.mesh().SetExpressEnabled(mode == Mode::kExpress);
}

// Appends "<level> <line>\n" to the std::string passed as `user`.
void StringSink(LogLevel level, const std::string& line, void* user) {
  auto* out = static_cast<std::string*>(user);
  *out += std::to_string(static_cast<int>(level));
  *out += ' ';
  *out += line;
  *out += '\n';
}

// Captures every log line (down to kDebug) for as long as it lives.
class TraceCapture {
 public:
  TraceCapture() : prev_level_(GetLogLevel()) {
    SetLogLevel(LogLevel::kDebug);
    SetLogSink(StringSink, &root);
  }
  ~TraceCapture() {
    SetLogSink(nullptr, nullptr);
    SetLogLevel(prev_level_);
  }
  TraceCapture(const TraceCapture&) = delete;
  TraceCapture& operator=(const TraceCapture&) = delete;

  std::string root;

 private:
  LogLevel prev_level_;
};

// Self-driving periodic echo client with a send budget. Declares its next
// send cycle, so between sends the tile parks on the timer wheel; replies
// arrive through the NI's delivery wake.
class PeriodicClient : public Accelerator {
 public:
  PeriodicClient(ServiceId svc, Cycle period, uint64_t limit)
      : svc_(svc), period_(period), limit_(limit) {}

  void Tick(TileApi& api) override {
    if (api.now() < next_ || sent >= limit_) {
      return;
    }
    Message msg;
    msg.opcode = kOpEcho;
    msg.payload = {1, 2, 3, 4};
    if (api.Send(std::move(msg), api.LookupService(svc_)).ok()) {
      ++sent;
    }
    next_ = api.now() + period_;
  }
  void OnMessage(const Message& msg, TileApi& api) override {
    (msg.status == MsgStatus::kOk ? ok : errors) += 1;
    reply_cycle_sum += api.now();  // Timing is observable even where logs are not.
  }
  [[nodiscard]] Cycle NextActivity(Cycle now) const override {
    if (sent >= limit_) {
      return kNoActivity;  // Budget spent; only replies wake the tile.
    }
    return next_ > now ? next_ : now;
  }
  std::string name() const override { return "periodic_client"; }
  uint32_t LogicCellCost() const override { return 1000; }

  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t errors = 0;
  uint64_t reply_cycle_sum = 0;

 private:
  ServiceId svc_;
  Cycle period_;
  uint64_t limit_;
  Cycle next_ = 0;
};

constexpr uint64_t kUnlimited = 1'000'000;

// Open-loop checksum client with a stepped rate: one 64 B request every
// `base_period` cycles, every `burst_period` cycles inside [burst_from,
// burst_to) — an a10-shaped quiet / burst / quiet trace in miniature.
class SteppedChecksumClient : public Accelerator {
 public:
  SteppedChecksumClient(ServiceId svc, Cycle base_period, Cycle burst_period, Cycle burst_from,
                        Cycle burst_to)
      : svc_(svc),
        base_period_(base_period),
        burst_period_(burst_period),
        burst_from_(burst_from),
        burst_to_(burst_to) {}

  void Tick(TileApi& api) override {
    if (api.now() < next_) {
      return;
    }
    Message msg;
    msg.opcode = kOpChecksum;
    msg.payload.assign(64, static_cast<uint8_t>(sent));
    if (api.Send(std::move(msg), api.LookupService(svc_)).ok()) {
      ++sent;
    }
    const bool burst = api.now() >= burst_from_ && api.now() < burst_to_;
    next_ = api.now() + (burst ? burst_period_ : base_period_);
  }
  void OnMessage(const Message& msg, TileApi& api) override {
    (msg.status == MsgStatus::kOk ? ok : errors) += 1;
    reply_cycle_sum += api.now();
  }
  [[nodiscard]] Cycle NextActivity(Cycle now) const override {
    return next_ > now ? next_ : now;
  }
  std::string name() const override { return "stepped_checksum_client"; }
  uint32_t LogicCellCost() const override { return 1000; }

  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t errors = 0;
  uint64_t reply_cycle_sum = 0;

 private:
  ServiceId svc_;
  Cycle base_period_;
  Cycle burst_period_;
  Cycle burst_from_;
  Cycle burst_to_;
  Cycle next_ = 0;
};

DeployOptions Pin(TileId tile) {
  DeployOptions o;
  o.tile = tile;
  return o;
}

void AddClient(RunResult& r, const PeriodicClient& c) {
  r.client_sent += c.sent;
  r.client_ok += c.ok;
  r.client_errors += c.errors;
  r.reply_cycle_sum += c.reply_cycle_sum;
}

void CollectBoard(RunResult& r, TestBoard& tb) {
  r.end_cycle = tb.sim.now();
  r.skipped_cycles = tb.sim.skipped_cycles();
  r.skips = tb.sim.skips();
  r.audit_violations = tb.sim.audit_violations();
  r.audit_first_violation = tb.sim.audit_first_violation();
  Mesh& mesh = tb.board.mesh();
  r.flits = mesh.TotalFlitsRouted();
  r.mesh_counters = mesh.AggregateCounters().ToString();
  r.latency = mesh.AggregateLatency().Summary();
  r.express = mesh.AggregateExpressStats();
  r.monitor_counters = tb.os.AggregateMonitorCounters().ToString();
  for (TileId t = 0; t < tb.os.num_tiles(); ++t) {
    for (const TraceRecord& record : tb.os.monitor(t).trace().Snapshot()) {
      r.tile_traces += TraceRecordToString(record) + "\n";
    }
  }
}

void CollectChaos(RunResult& r, const FaultInjector& injector, const Supervisor& sup) {
  r.injector_counters = injector.counters().ToString();
  r.fault_trace = injector.TraceString();
  r.supervisor_counters = sup.counters().ToString();
}

void ExpectSameSimulation(const RunResult& run, const RunResult& ref, const std::string& label) {
  EXPECT_EQ(run.end_cycle, ref.end_cycle) << label;
  EXPECT_EQ(run.flits, ref.flits) << label;
  EXPECT_EQ(run.client_sent, ref.client_sent) << label;
  EXPECT_EQ(run.client_ok, ref.client_ok) << label;
  EXPECT_EQ(run.client_errors, ref.client_errors) << label;
  EXPECT_EQ(run.reply_cycle_sum, ref.reply_cycle_sum) << label;
  EXPECT_EQ(run.mesh_counters, ref.mesh_counters) << label;
  EXPECT_EQ(run.latency, ref.latency) << label;
  EXPECT_EQ(run.monitor_counters, ref.monitor_counters) << label;
  EXPECT_TRUE(run.tile_traces == ref.tile_traces) << label << ": a tile's message trace diverged";
  EXPECT_EQ(run.injector_counters, ref.injector_counters) << label;
  EXPECT_EQ(run.fault_trace, ref.fault_trace) << label;
  EXPECT_EQ(run.supervisor_counters, ref.supervisor_counters) << label;
  EXPECT_EQ(run.tenant_counters, ref.tenant_counters) << label;
  EXPECT_EQ(run.billing_a, ref.billing_a) << label;
  EXPECT_EQ(run.billing_b, ref.billing_b) << label;
  EXPECT_EQ(run.orch_counters, ref.orch_counters) << label;
  EXPECT_EQ(run.replica_tile_cycles, ref.replica_tile_cycles) << label;
  EXPECT_EQ(run.digest_a, ref.digest_a) << label;
  EXPECT_EQ(run.digest_b, ref.digest_b) << label;
  EXPECT_TRUE(run.trace == ref.trace) << label << ": debug trace diverged";
}

}  // namespace

RunResult CheckModes(const Workload& workload, const std::vector<Mode>& modes,
                     const EngineExpectations& expect) {
  const RunResult ref = workload(Mode::kReference);
  EXPECT_EQ(ref.skipped_cycles, 0u);
  EXPECT_EQ(ref.skips, 0u);
  EXPECT_EQ(ref.express.launches, 0u);
  EXPECT_EQ(ref.audit_violations, 0u) << ref.audit_first_violation;
  for (const Mode mode : modes) {
    const std::string label = ModeName(mode);
    const RunResult run = workload(mode);
    ExpectSameSimulation(run, ref, label);
    EXPECT_EQ(run.audit_violations, 0u) << label << ": " << run.audit_first_violation;
    EXPECT_EQ(run.skipped_cycles, expect.skipped_cycles) << label;
    EXPECT_EQ(run.skips, expect.skips) << label;
    if (mode == Mode::kOptimized) {
      EXPECT_EQ(run.express.launches, 0u) << label;
      continue;
    }
    EXPECT_GT(run.express.launches, expect.min_corridors) << label;
    EXPECT_GT(run.express.delivered, expect.min_corridors) << label;
  }
  return ref;
}

// E3-shaped IPC: kernel-mediated echo round trips over the NoC with long
// idle valleys between requests — the traffic shape skipping is built for.
RunResult RunSerialIpc(Mode mode) {
  RunResult r;
  TraceCapture capture;
  {
    TestBoard tb;
    ApplyMode(tb, mode);
    const AppId app = tb.os.CreateApp("ipc");
    ServiceId svc = 0;
    (void)tb.os.Deploy(app, std::make_unique<EchoAccelerator>(/*service_cycles=*/20), &svc);
    auto* client = new PeriodicClient(svc, /*period=*/1'000, kUnlimited);
    const TileId ct = tb.os.Deploy(app, std::unique_ptr<Accelerator>(client));
    (void)tb.os.GrantSendToService(ct, svc);

    tb.sim.Run(200'000);

    CollectBoard(r, tb);
    AddClient(r, *client);
  }
  r.trace = std::move(capture.root);
  return r;
}

// A9-shaped chaos on the default 4x4 board: a seeded fault campaign (link
// drops/corruption, DRAM upsets, an accelerator crash healed by the
// supervisor) over periodic traffic. Fault windows and plan events bound
// fast-forwarding and materialize corridors, so every fault must land on
// the same cycle in every mode.
RunResult RunSerialChaos(Mode mode) {
  RunResult r;
  TraceCapture capture;
  {
    TestBoardOptions options;
    options.reconfig_cycles = 20'000;
    TestBoard tb(options);
    ApplyMode(tb, mode);

    const AppId app = tb.os.CreateApp("chaos");
    ServiceId svc = 0;
    const TileId st = tb.os.Deploy(app, std::make_unique<EchoAccelerator>(5), &svc);
    auto* client = new PeriodicClient(svc, /*period=*/200, kUnlimited);
    const TileId ct = tb.os.Deploy(app, std::unique_ptr<Accelerator>(client));
    (void)tb.os.GrantSendToService(ct, svc);

    Supervisor sup(&tb.os);
    sup.Manage(st, [] { return std::make_unique<EchoAccelerator>(5); });

    FaultPlan plan;
    plan.seed = 9;
    plan.LinkDrop(10'000, 15'000, 0.3)
        .LinkCorrupt(30'000, 15'000, 0.25)
        .DramBitFlips(40'000, 4)
        .AccelCrash(50'000, st)
        .LinkDrop(90'000, 10'000, 0.3)
        .DramBitFlips(100'000, 4);
    FaultInjector injector(plan, FaultHooks{.os = &tb.os,
                                            .mesh = &tb.board.mesh(),
                                            .memory = &tb.board.memory()});

    tb.sim.Run(150'000);

    CollectBoard(r, tb);
    CollectChaos(r, injector, sup);
    AddClient(r, *client);
  }
  r.trace = std::move(capture.root);
  return r;
}

// The whole-OS workload: an 8x8 board (tile ids row-major, tile = y*8 + x)
// with two tenants under quotas and billing, kernel-mediated IPC across the
// board, an early saturating burst, a column-0 flow whose quiet route
// express corridors can cover end to end, and a supervisor-healed crash
// among windows of link faults.
RunResult RunFullBoard(Mode mode) {
  TestBoardOptions options;
  options.width = 8;
  options.height = 8;
  options.reconfig_cycles = 2'000;
  options.tile_region_cells = 25'000;  // 64 tiles of 100k would not fit VU9P.
  TestBoard tb(options);
  ApplyMode(tb, mode);
  TraceCapture capture;
  std::vector<PeriodicClient*> clients;

  TenantManager tenants(&tb.os, /*meter_period=*/10'000);
  TenantQuota quota;
  quota.max_tiles = 4;
  quota.noc_flits_per_1k = 4'000;
  quota.noc_burst_flits = 256;
  const TenantId tenant_a = tenants.CreateTenant("alpha", quota);
  const TenantId tenant_b = tenants.CreateTenant("beta", quota);
  // Deploys an echo service on tile `st` and a PeriodicClient on tile `ct`,
  // through tenant `t` (with its app) or, for kInvalidTenant, the bare OS.
  auto pair = [&](TenantId t, AppId app, Cycle service, TileId st, TileId ct, Cycle period,
                  uint64_t limit) {
    const bool bare = t == kInvalidTenant;
    ServiceId svc = 0;
    auto echo = std::make_unique<EchoAccelerator>(service);
    const TileId placed = bare ? tb.os.Deploy(app, std::move(echo), &svc, Pin(st))
                               : tenants.Deploy(t, app, std::move(echo), &svc, Pin(st));
    EXPECT_EQ(placed, st);
    clients.push_back(new PeriodicClient(svc, period, limit));
    std::unique_ptr<Accelerator> client(clients.back());
    const TileId placed_client = bare ? tb.os.Deploy(app, std::move(client), nullptr, Pin(ct))
                                      : tenants.Deploy(t, app, std::move(client), nullptr, Pin(ct));
    EXPECT_EQ(placed_client, ct);
    (void)(bare ? tb.os.GrantSendToService(ct, svc) : tenants.GrantSendToService(t, ct, svc));
  };
  // Tenant A lives at x in {0,1}; tenant B at x in {6,7}.
  const AppId app_a = tenants.CreateApp(tenant_a, "alpha_app");
  const AppId app_b = tenants.CreateApp(tenant_b, "beta_app");
  pair(tenant_a, app_a, 5, /*x=1,y=1*/ 9, /*x=0,y=1*/ 8, 120, kUnlimited);
  pair(tenant_b, app_b, 5, /*x=6,y=6*/ 54, /*x=7,y=6*/ 55, 150, kUnlimited);

  const AppId app_x = tb.os.CreateApp("crossers");
  const TileId crash_tile = /*x=4,y=5*/ 44;
  pair(kInvalidTenant, app_x, 10, /*x=7,y=3*/ 31, /*x=0,y=3*/ 24, 40, kUnlimited);  // 7 hops.
  pair(kInvalidTenant, app_x, 10, crash_tile, /*x=3,y=5*/ 43, 25, kUnlimited);       // 1 hop.
  // Saturator: floods row 0 early on, then goes quiet so the tail of the
  // run exercises fast-forwarding and mass parking.
  pair(kInvalidTenant, app_x, 2, /*x=5,y=0*/ 5, /*x=2,y=0*/ 2, 2, /*limit=*/4'000);
  // Column 0, y=7 -> y=4: a route no other flow crosses or borders.
  pair(kInvalidTenant, app_x, 8, /*x=0,y=4*/ 32, /*x=0,y=7*/ 56, 180, kUnlimited);

  Supervisor sup(&tb.os);
  sup.Manage(crash_tile, [] { return std::make_unique<EchoAccelerator>(10); });

  FaultPlan plan;
  plan.seed = 11;
  plan.LinkDrop(8'000, 6'000, 0.2)
      .LinkCorrupt(16'000, 6'000, 0.2)
      .AccelCrash(25'000, crash_tile)
      .DramBitFlips(30'000, 4)
      .LinkDrop(35'000, 5'000, 0.25);
  FaultInjector injector(plan, FaultHooks{.os = &tb.os,
                                          .mesh = &tb.board.mesh(),
                                          .memory = &tb.board.memory()});

  tb.sim.Run(60'000);

  RunResult r;
  CollectBoard(r, tb);
  CollectChaos(r, injector, sup);
  for (const PeriodicClient* c : clients) {
    AddClient(r, *c);
  }
  r.tenant_counters = tenants.counters().ToString();
  r.billing_a = tenants.BillingRecords(tenant_a);
  r.billing_b = tenants.BillingRecords(tenant_b);
  r.digest_a = tenants.BillingDigest(tenant_a);
  r.digest_b = tenants.BillingDigest(tenant_b);
  r.trace = std::move(capture.root);
  return r;
}

// Undeploy of a tile on a corridor: vacating the service tile mid-stream
// revokes routes and identity but leaves the NoC state alone — in-flight
// corridors to that tile keep their exact timing while the tail drains.
RunResult RunMidCorridorUndeploy(Mode mode) {
  RunResult r;
  TraceCapture capture;
  {
    TestBoard tb;
    ApplyMode(tb, mode);
    const AppId app = tb.os.CreateApp("undeploy");
    ServiceId svc = 0;
    const TileId st = tb.os.Deploy(app, std::make_unique<EchoAccelerator>(3), &svc);
    auto* client = new PeriodicClient(svc, /*period=*/50, kUnlimited);
    const TileId ct = tb.os.Deploy(app, std::unique_ptr<Accelerator>(client));
    (void)tb.os.GrantSendToService(ct, svc);
    tb.sim.Run(1'025);
    EXPECT_TRUE(tb.os.Undeploy(st));
    tb.sim.Run(5'000);
    CollectBoard(r, tb);
    AddClient(r, *client);
  }
  r.trace = std::move(capture.root);
  return r;
}

// A10 in miniature: checksum replicas behind the load balancer, an
// SLO-latency autoscaler that scales up into a request burst and back down
// after it, and the reconfiguration scheduler loading replicas through the
// ICAP and draining them before blanking. Between polls the autoscaler,
// the scheduler (mid-load and mid-drain-hold) and the idle replicas are all
// parked, so the replica set changes on cycles the optimized engine reaches
// by fast-forward.
RunResult RunElasticService(Mode mode) {
  RunResult r;
  TraceCapture capture;
  {
    TestBoardOptions options;
    options.reconfig_cycles = 2'000;
    TestBoard tb(options);
    ApplyMode(tb, mode);

    const AppId app = tb.os.CreateApp("elastic");
    auto* lb = new LoadBalancer();
    ServiceId lb_svc = 0;
    const TileId lb_tile = tb.os.Deploy(app, std::unique_ptr<Accelerator>(lb), &lb_svc);
    auto factory = [] { return std::make_unique<ChecksumAccelerator>(/*bytes_per_cycle=*/1); };
    ServiceId first_svc = 0;
    const TileId first_tile = tb.os.Deploy(app, factory(), &first_svc);
    const CapRef first_ep = tb.os.GrantSendToService(lb_tile, first_svc);
    lb->AddBackend(first_ep);
    auto* client = new SteppedChecksumClient(lb_svc, /*base_period=*/400, /*burst_period=*/40,
                                             /*burst_from=*/30'000, /*burst_to=*/90'000);
    const TileId ct = tb.os.Deploy(app, std::unique_ptr<Accelerator>(client));
    (void)tb.os.GrantSendToService(ct, lb_svc);

    Placer placer(&tb.os);
    ReconfigSchedulerConfig rcfg;
    rcfg.drain_cycles = 500;
    rcfg.drain_deadline_cycles = 20'000;
    ReconfigScheduler scheduler(&tb.os, app, rcfg);
    AutoscalerConfig acfg;
    acfg.policy = ScalePolicy::kSloLatency;
    acfg.min_replicas = 1;
    acfg.max_replicas = 4;
    acfg.poll_period = 2'000;
    acfg.slo_p99_cycles = 1'000;
    acfg.slo_down_fraction = 0.45;
    acfg.down_stable_polls = 2;
    acfg.cooldown_cycles = 10'000;
    acfg.replica_logic_cells = 4'000;
    Autoscaler autoscaler(&tb.os, lb, lb_tile, app, factory, &placer, &scheduler, acfg);
    autoscaler.AdoptReplica(first_svc, first_tile, first_ep);

    tb.sim.Run(100'000);
    // A mid-run read folds the integral's open segment without changing it.
    const uint64_t mid_integral = autoscaler.replica_tile_cycles();
    tb.sim.Run(100'000);

    CollectBoard(r, tb);
    r.client_sent = client->sent;
    r.client_ok = client->ok;
    r.client_errors = client->errors;
    r.reply_cycle_sum = client->reply_cycle_sum;
    r.orch_counters = autoscaler.counters().ToString() + scheduler.counters().ToString() +
                      lb->counters().ToString() + " mid_integral=" + std::to_string(mid_integral);
    r.replica_tile_cycles = autoscaler.replica_tile_cycles();
  }
  r.trace = std::move(capture.root);
  return r;
}

void ExpectElasticServiceIsReal(const RunResult& ref) {
  EXPECT_EQ(ref.end_cycle, 200'000u);
  EXPECT_GT(ref.client_ok, 1'500u);
  EXPECT_EQ(ref.client_errors, 0u);
  EXPECT_NE(ref.orch_counters.find("orch.scale_ups="), std::string::npos) << ref.orch_counters;
  EXPECT_NE(ref.orch_counters.find("orch.scale_downs="), std::string::npos)
      << ref.orch_counters;
  EXPECT_NE(ref.orch_counters.find("orch.teardowns_done="), std::string::npos)
      << ref.orch_counters;
  // More than one replica's worth of region-cycles, fewer than the ceiling's.
  EXPECT_GT(ref.replica_tile_cycles, 200'000u);
  EXPECT_LT(ref.replica_tile_cycles, 4 * 200'000u);
}

void ExpectFullBoardIsReal(const RunResult& ref) {
  EXPECT_EQ(ref.end_cycle, 60'000u);
  EXPECT_GT(ref.client_sent, 2'000u);
  EXPECT_GT(ref.client_ok, 2'000u);
  // The chaos fired: the crash, and link faults that actually hit packets.
  EXPECT_NE(ref.injector_counters.find("fault.accel_crash=1"), std::string::npos);
  EXPECT_NE(ref.injector_counters.find("fault.link_drops_applied"), std::string::npos);
  EXPECT_NE(ref.injector_counters.find("fault.link_corruptions_applied"), std::string::npos);
  // The supervisor detected the crash and healed the tile.
  EXPECT_NE(ref.supervisor_counters.find("supervisor.faults_detected=1 "), std::string::npos)
      << ref.supervisor_counters;
  EXPECT_NE(ref.supervisor_counters.find("supervisor.faults_recovered=1 "), std::string::npos)
      << ref.supervisor_counters;
  // Both tenants were metered and billed.
  EXPECT_GT(ref.digest_a, 0u);
  EXPECT_GT(ref.digest_b, 0u);
  EXPECT_FALSE(ref.billing_a.empty());
  EXPECT_FALSE(ref.billing_b.empty());
  EXPECT_FALSE(ref.trace.empty());
}

}  // namespace apiary::differential
