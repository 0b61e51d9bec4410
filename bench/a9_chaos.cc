// A9: chaos campaign — a seeded FaultPlan fires link drops, corruption,
// router stalls, DRAM upsets, ethernet loss bursts and accelerator SEUs at a
// running board while the Supervisor heals it with no operator in the loop.
//
// Reported: goodput under chaos vs the fault-free baseline, tail latency of
// the app that takes no faults (containment), the recovery-time
// distribution, and the supervisor/injector counters. The crash-looping
// tile must end the run quarantined; every other managed tile must end it
// healthy, automatically.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/accel/echo.h"
#include "src/accel/faulty.h"
#include "src/core/kernel.h"
#include "src/core/service_ids.h"
#include "src/fault/fault_injector.h"
#include "src/fpga/board.h"
#include "src/services/mgmt_service.h"
#include "src/services/supervisor.h"
#include "src/sim/simulator.h"
#include "src/stats/table.h"

using namespace apiary;

namespace {

constexpr Cycle kRunCycles = 3'000'000;
constexpr Cycle kReconfigCycles = 50'000;  // Scaled-down PR latency so several
                                           // cold recoveries fit in one run.
constexpr Cycle kHeartbeatPeriod = 500;
constexpr uint64_t kNeverWedge = ~0ull;

// Closed-loop client: one request in flight, 10k-cycle timeout, latency
// histogram over successful echoes.
class ChaosClient : public Accelerator {
 public:
  explicit ChaosClient(ServiceId svc) : svc_(svc) {}

  void Tick(TileApi& api) override {
    if (in_flight_ && api.now() < timeout_at_) {
      return;
    }
    if (in_flight_) {
      ++timeouts;  // Request (or its reply) lost to a fault.
    }
    Message msg;
    msg.opcode = kOpEcho;
    msg.payload = {0xAB};
    if (api.Send(std::move(msg), api.LookupService(svc_)).ok()) {
      in_flight_ = true;
      sent_at_ = api.now();
      timeout_at_ = api.now() + 10'000;
    } else {
      in_flight_ = false;
    }
  }

  void OnMessage(const Message& msg, TileApi& api) override {
    if (msg.kind != MsgKind::kResponse) {
      return;
    }
    in_flight_ = false;
    if (msg.status == MsgStatus::kOk) {
      ++ok;
      latency.Record(api.now() - sent_at_);
    } else {
      ++errors;  // Fail-stop bounce: fast failure instead of a timeout.
    }
  }

  std::string name() const override { return "chaos_client"; }
  uint32_t LogicCellCost() const override { return 1000; }

  uint64_t ok = 0;
  uint64_t errors = 0;
  uint64_t timeouts = 0;
  Histogram latency;

 private:
  ServiceId svc_;
  bool in_flight_ = false;
  Cycle sent_at_ = 0;
  Cycle timeout_at_ = 0;
};

// Crash-loops: every fresh deployment dies ~2k cycles after boot. The
// supervisor must give up on it (quarantine), not reconfigure forever.
class SelfCrasher : public Accelerator {
 public:
  void OnBoot(TileApi& api) override { crash_at_ = api.now() + 2000; }
  void OnMessage(const Message&, TileApi&) override {}
  void Tick(TileApi& api) override {
    if (api.now() >= crash_at_) {
      api.RaiseFault("firmware bug: reset loop");
    }
  }
  std::string name() const override { return "self_crasher"; }
  uint32_t LogicCellCost() const override { return 1000; }

 private:
  Cycle crash_at_ = ~0ull;
};

// Background external-network traffic so ethernet loss bursts hit something.
class FrameSink : public ExternalEndpoint {
 public:
  void OnFrame(EthFrame, Cycle) override { ++received; }
  uint64_t received = 0;
};

class FramePump : public Clocked {
 public:
  FramePump(ExternalNetwork* net, uint32_t src, uint32_t dst)
      : net_(net), src_(src), dst_(dst) {}
  void Tick(Cycle now) override {
    if (now % 100 == 0) {
      EthFrame f;
      f.src_endpoint = src_;
      f.dst_endpoint = dst_;
      f.payload.assign(64, 0x5A);
      net_->Send(std::move(f), now);
      ++sent;
    }
  }
  std::string DebugName() const override { return "frame_pump"; }
  uint64_t sent = 0;

 private:
  ExternalNetwork* net_;
  uint32_t src_;
  uint32_t dst_;
};

struct AppResult {
  std::string name;
  uint64_t ok = 0;
  uint64_t errors = 0;
  uint64_t timeouts = 0;
  uint64_t p99 = 0;
};

struct CampaignResult {
  std::vector<AppResult> apps;
  uint64_t total_ok = 0;
  std::string recovery_summary;
  std::string supervisor_counters;
  std::string injector_counters;
  std::string injector_trace;
  bool crash_looper_quarantined = false;
  bool others_all_healthy = false;
  uint64_t eth_frames_lost = 0;
  bool audit_clean = false;
};

// Tile map (4x4): 0 mgmt | 1 svc0, 2 client0, 3 standby for svc0
//                 4 svc1, 8 client1 | 5 svc2, 6 client2 | 7 crash-looper
//                 13 svc3, 14 client3 (the fault-free control app).
CampaignResult RunCampaign(bool chaos, uint64_t seed) {
  Simulator sim(250.0);
  sim.SetAuditEnabled(true);
  ExternalNetwork net(25);
  sim.Register(&net);
  BoardConfig cfg;
  cfg.part_number = "VU9P";
  cfg.mesh = MeshConfig{4, 4, 8, 512};
  cfg.dram.capacity_bytes = 64ull << 20;
  cfg.mac_kind = MacKind::k100G;
  cfg.partial_reconfig_cycles = kReconfigCycles;
  Board board(cfg, sim, &net);
  ApiaryOs os(board);

  auto* mgmt = new MgmtService(&os);
  os.DeployService(kMgmtService, std::unique_ptr<Accelerator>(mgmt));

  SupervisorConfig sup_cfg;
  sup_cfg.backoff_base_cycles = 20'000;
  sup_cfg.quarantine_after = 4;
  sup_cfg.crash_loop_window = 1'500'000;
  Supervisor supervisor(&os, sup_cfg);
  mgmt->SetSupervisor(&supervisor);

  auto supervised_echo = [] {
    return std::make_unique<WedgeAccelerator>(kNeverWedge, kInvalidCapRef,
                                              kHeartbeatPeriod);
  };

  struct App {
    ServiceId svc = 0;
    TileId svc_tile = 0;
    ChaosClient* client = nullptr;
  };
  std::vector<App> apps(4);
  const TileId svc_tiles[4] = {1, 4, 5, 13};
  const TileId client_tiles[4] = {2, 8, 6, 14};
  for (int i = 0; i < 4; ++i) {
    App& a = apps[i];
    AppId app = os.CreateApp("app" + std::to_string(i));
    DeployOptions at_tile;
    at_tile.tile = svc_tiles[i];
    a.svc_tile = os.Deploy(app, supervised_echo(), &a.svc, at_tile);
    (void)os.GrantSendToService(a.svc_tile, kMgmtService);
    a.client = new ChaosClient(a.svc);
    DeployOptions at_client;
    at_client.tile = client_tiles[i];
    os.Deploy(app, std::unique_ptr<Accelerator>(a.client), nullptr, at_client);
    (void)os.GrantSendToService(client_tiles[i], a.svc);
    supervisor.Manage(a.svc_tile, supervised_echo);
  }

  // Hot standby for app0's service, pre-configured on tile 3.
  {
    AppId standby_app = os.CreateApp("standby");
    ServiceId spare_svc = 0;
    DeployOptions at_tile;
    at_tile.tile = 3;
    os.Deploy(standby_app, supervised_echo(), &spare_svc, at_tile);
    (void)os.GrantSendToService(3, kMgmtService);
    supervisor.Manage(3, supervised_echo);
    supervisor.SetStandby(apps[0].svc, 3);
  }

  // The crash-looper on tile 7.
  {
    AppId looper_app = os.CreateApp("looper");
    DeployOptions at_tile;
    at_tile.tile = 7;
    os.Deploy(looper_app, std::make_unique<SelfCrasher>(), nullptr, at_tile);
    supervisor.Manage(7, [] { return std::make_unique<SelfCrasher>(); });
  }

  // External-fabric background traffic.
  FrameSink sink;
  const uint32_t sink_ep = net.RegisterEndpoint(&sink);
  FrameSink src_side;
  const uint32_t src_ep = net.RegisterEndpoint(&src_side);
  FramePump pump(&net, src_ep, sink_ep);
  sim.Register(&pump);

  // The campaign: >= 1 fault event / 100k cycles over 3M cycles.
  FaultPlan plan;
  plan.seed = seed;
  if (chaos) {
    plan.LinkDrop(200'000, 50'000, 0.3, /*router=*/5)
        .LinkCorrupt(300'000, 50'000, 0.2, /*router=*/6)
        .AccelCrash(400'000, /*tile=*/4)
        .RouterStall(500'000, 20'000, /*router=*/5)
        .EthLossBurst(600'000, 30'000, 0.5)
        .AccelWedge(800'000, /*tile=*/5)
        .LinkDrop(900'000, 40'000, 0.25, /*router=*/6)
        .AccelCrash(1'200'000, /*tile=*/1)  // Failover to the hot standby.
        .LinkCorrupt(1'400'000, 40'000, 0.2, /*router=*/5)
        .EthLossBurst(1'500'000, 30'000, 0.5)
        .RouterStall(1'700'000, 15'000, /*router=*/6)
        .LinkDrop(1'900'000, 40'000, 0.3, /*router=*/5)
        .AccelCrash(2'000'000, /*tile=*/4)
        .LinkCorrupt(2'100'000, 30'000, 0.25, /*router=*/6);
    for (Cycle at = 100'000; at <= 2'200'000; at += 100'000) {
      plan.DramBitFlips(at, /*count=*/2);
    }
  }
  FaultHooks hooks;
  hooks.os = &os;
  hooks.mesh = &board.mesh();
  hooks.memory = &board.memory();
  hooks.network = &net;
  FaultInjector injector(std::move(plan), hooks);

  sim.Run(kRunCycles);

  CampaignResult r;
  const char* names[4] = {"app0 (failover)", "app1 (crash SEU)", "app2 (wedge SEU)",
                          "app3 (no faults)"};
  for (int i = 0; i < 4; ++i) {
    AppResult ar;
    ar.name = names[i];
    ar.ok = apps[i].client->ok;
    ar.errors = apps[i].client->errors;
    ar.timeouts = apps[i].client->timeouts;
    ar.p99 = apps[i].client->latency.P99();
    r.total_ok += ar.ok;
    r.apps.push_back(ar);
  }
  r.recovery_summary = supervisor.recovery_cycles().Summary();
  r.supervisor_counters = supervisor.counters().ToString();
  r.injector_counters = injector.counters().ToString();
  r.injector_trace = injector.TraceString();
  r.crash_looper_quarantined = supervisor.quarantined(7);
  r.others_all_healthy = true;
  for (TileId t : {TileId(1), TileId(3), TileId(4), TileId(5), TileId(13)}) {
    if (supervisor.quarantined(t) ||
        os.monitor(t).fault_state() != TileFaultState::kHealthy ||
        os.tile(t).reconfiguring()) {
      r.others_all_healthy = false;
    }
  }
  r.eth_frames_lost = net.counters().Get("extnet.dropped_burst");
  r.audit_clean = AuditClean(sim, chaos ? "chaos campaign" : "baseline campaign");
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("A9: chaos campaign vs self-healing supervisor (3M cycles, 4x4 mesh,\n");
  std::printf("partial reconfig %llu cycles, watchdog deadline %llu cycles)\n\n",
              static_cast<unsigned long long>(kReconfigCycles),
              static_cast<unsigned long long>(kHeartbeatPeriod * 4));

  const CampaignResult base = RunCampaign(/*chaos=*/false, /*seed=*/42);
  const CampaignResult chaos = RunCampaign(/*chaos=*/true, /*seed=*/42);

  Table table("A9: per-app goodput and tail latency (cycles)");
  table.SetHeader({"app", "baseline ok", "chaos ok", "chaos err", "chaos timeouts",
                   "baseline p99", "chaos p99"});
  for (size_t i = 0; i < base.apps.size(); ++i) {
    table.AddRow({chaos.apps[i].name, Table::Int(base.apps[i].ok),
                  Table::Int(chaos.apps[i].ok), Table::Int(chaos.apps[i].errors),
                  Table::Int(chaos.apps[i].timeouts), Table::Int(base.apps[i].p99),
                  Table::Int(chaos.apps[i].p99)});
  }
  table.Print();

  std::printf("\ngoodput: %llu ok under chaos vs %llu fault-free (%.1f%%)\n",
              static_cast<unsigned long long>(chaos.total_ok),
              static_cast<unsigned long long>(base.total_ok),
              100.0 * static_cast<double>(chaos.total_ok) /
                  static_cast<double>(base.total_ok));
  std::printf("recovery time (fault detected -> tile back in service):\n  %s\n",
              chaos.recovery_summary.c_str());
  std::printf("ethernet frames lost to injected bursts: %llu\n",
              static_cast<unsigned long long>(chaos.eth_frames_lost));
  std::printf("\nsupervisor counters:\n%s\n", chaos.supervisor_counters.c_str());
  std::printf("injector counters:\n%s\n", chaos.injector_counters.c_str());
  std::printf("fault trace:\n%s\n", chaos.injector_trace.c_str());

  // Acceptance checks.
  const uint64_t base_p99 = base.apps[3].p99;
  const uint64_t chaos_p99 = chaos.apps[3].p99;
  const bool contained = chaos_p99 <= 2 * base_p99;
  std::printf("[%s] crash-looper quarantined\n",
              chaos.crash_looper_quarantined ? "PASS" : "FAIL");
  std::printf("[%s] every other managed tile auto-recovered to healthy\n",
              chaos.others_all_healthy ? "PASS" : "FAIL");
  std::printf("[%s] unaffected app p99 within 2x of baseline (%llu vs %llu cycles)\n",
              contained ? "PASS" : "FAIL", static_cast<unsigned long long>(chaos_p99),
              static_cast<unsigned long long>(base_p99));

  const std::string json_path = JsonPathArg(argc, argv);
  if (!json_path.empty()) {
    BenchJson json("a9_chaos");
    json.Param("run_cycles", static_cast<uint64_t>(kRunCycles));
    json.Param("reconfig_cycles", static_cast<uint64_t>(kReconfigCycles));
    json.Param("seed", static_cast<uint64_t>(42));
    for (size_t i = 0; i < base.apps.size(); ++i) {
      json.BeginRow();
      json.Metric("app", chaos.apps[i].name);
      json.Metric("baseline_ok", base.apps[i].ok);
      json.Metric("chaos_ok", chaos.apps[i].ok);
      json.Metric("chaos_errors", chaos.apps[i].errors);
      json.Metric("chaos_timeouts", chaos.apps[i].timeouts);
      json.Metric("baseline_p99_cycles", base.apps[i].p99);
      json.Metric("chaos_p99_cycles", chaos.apps[i].p99);
    }
    json.BeginRow();
    json.Metric("app", "campaign");
    json.Metric("total_ok_chaos", chaos.total_ok);
    json.Metric("total_ok_baseline", base.total_ok);
    json.Metric("eth_frames_lost", chaos.eth_frames_lost);
    json.Metric("quarantined", chaos.crash_looper_quarantined ? 1 : 0);
    json.Metric("all_healthy", chaos.others_all_healthy ? 1 : 0);
    json.WriteFile(json_path);
  }
  const bool ok = chaos.crash_looper_quarantined && chaos.others_all_healthy && contained &&
                  base.audit_clean && chaos.audit_clean;
  return ok ? 0 : 1;
}
