// A11: adversarial multi-tenancy — a seeded abuse campaign (flit floods,
// reconfig thrash, capability-probe sweeps, SEU wedge loops) attacks a
// victim KV-store tenant on a shared board, with tenant quota enforcement
// switched off and on.
//
// Reported per attack: victim goodput and p99 (timeouts count as 10k-cycle
// samples so outages surface in the tail), attacker throughput, how often
// enforcement refused the attacker, and whether the repeat offender was
// escalated to quarantine. Acceptance: with enforcement ON the victim's p99
// stays within 2x of its solo baseline for every attack; the probe sweep
// leaks nothing in either mode; and the tenant billing records are
// byte-identical across a rerun and across a skip-disabled rerun.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/accel/faulty.h"
#include "src/accel/kv_store.h"
#include "src/core/kernel.h"
#include "src/core/service_ids.h"
#include "src/fault/fault_injector.h"
#include "src/fpga/board.h"
#include "src/orch/reconfig_scheduler.h"
#include "src/services/memory_service.h"
#include "src/services/mgmt_service.h"
#include "src/services/supervisor.h"
#include "src/sim/simulator.h"
#include "src/stats/table.h"
#include "src/tenant/abuse.h"
#include "src/tenant/tenant.h"
#include "src/tenant/tenant_service.h"
#include "src/workload/kv_workload.h"

using namespace apiary;

namespace {

constexpr Cycle kReconfigCycles = 50'000;
constexpr Cycle kTimeoutCycles = 10'000;
constexpr uint64_t kNeverWedge = ~0ull;
constexpr uint64_t kSeed = 42;

// Tile map (4x4): 0 memory service, 1 mgmt, 2 tenant-stats service,
// 5 victim kv store, 6 victim client, 9 attacker, 10 thrash target.
constexpr TileId kVictimTile = 5;
constexpr TileId kClientTile = 6;
constexpr TileId kAttackerTile = 9;
constexpr TileId kThrashTile = 10;

struct RunConfig {
  Cycle run_cycles = 2'000'000;
  Cycle attack_at = 300'000;
  Cycle attack_duration = 1'400'000;
  Cycle victim_crash_at = 1'000'000;  // Mid-attack: recovery contends too.
  Cycle wedge_period = 60'000;
  Cycle meter_period = 100'000;
};

enum class Mode { kSolo, kOff, kOn };

const char* ModeName(Mode m) {
  switch (m) {
    case Mode::kSolo:
      return "solo";
    case Mode::kOff:
      return "enforce off";
    case Mode::kOn:
      return "enforce on";
  }
  return "?";
}

// Closed-loop KV client: alternating PUT/GET over a small keyspace, one
// request in flight. A timeout is recorded as a full-timeout latency sample
// so victim outages move the tail instead of vanishing from it; an error
// bounce (fail-stopped victim) backs off briefly before retrying.
class KvClient : public Accelerator {
 public:
  explicit KvClient(ServiceId svc) : svc_(svc) {}

  void Tick(TileApi& api) override {
    if (in_flight_) {
      if (api.now() < timeout_at_) {
        return;
      }
      ++timeouts;
      latency.Record(kTimeoutCycles);
      in_flight_ = false;
    }
    if (api.now() < next_send_) {
      return;
    }
    const uint64_t key_index = (ops_started_ / 2) % 16;  // PUT k, then GET k.
    Message msg;
    if (ops_started_ % 2 == 0) {
      msg.opcode = kOpKvPut;
      msg.payload = MakeKvPutPayload(KvKeyForIndex(key_index),
                                     KvValueForIndex(key_index, 64));
    } else {
      msg.opcode = kOpKvGet;
      msg.payload = MakeKvGetPayload(KvKeyForIndex(key_index));
    }
    if (api.Send(std::move(msg), api.LookupService(svc_)).ok()) {
      ++ops_started_;
      in_flight_ = true;
      sent_at_ = api.now();
      timeout_at_ = api.now() + kTimeoutCycles;
    } else {
      next_send_ = api.now() + 500;  // Local refusal: back off, retry.
    }
  }

  void OnMessage(const Message& msg, TileApi& api) override {
    if (msg.kind != MsgKind::kResponse || !in_flight_) {
      return;
    }
    in_flight_ = false;
    if (msg.status == MsgStatus::kOk) {
      ++ok;
      latency.Record(api.now() - sent_at_);
    } else {
      ++errors;  // Fail-stop bounce or kv-side refusal: fast failure.
      next_send_ = api.now() + 500;
    }
  }

  std::string name() const override { return "kv_client"; }
  uint32_t LogicCellCost() const override { return 1000; }

  uint64_t ok = 0;
  uint64_t errors = 0;
  uint64_t timeouts = 0;
  Histogram latency;

 private:
  ServiceId svc_;
  uint64_t ops_started_ = 0;
  bool in_flight_ = false;
  Cycle sent_at_ = 0;
  Cycle timeout_at_ = 0;
  Cycle next_send_ = 0;
};

struct ScenarioResult {
  uint64_t ok = 0;
  uint64_t errors = 0;
  uint64_t timeouts = 0;
  uint64_t p99 = 0;
  uint64_t attacker_metric = 0;   // flood: msgs sent; probe: attempts;
                                  // thrash: loads; wedge: wedges injected.
  uint64_t attacker_denied = 0;   // Monitor refusals of attacker traffic.
  uint64_t probe_leaked = 0;
  bool attacker_escalated = false;
  uint64_t quota_stall_cycles = 0;
  uint64_t icap_wait_cycles = 0;
  std::string victim_records;
  std::string attacker_records;
  uint32_t victim_digest = 0;
  uint32_t attacker_digest = 0;
  bool audit_clean = false;
};

ScenarioResult RunScenario(AttackKind attack, Mode mode, uint64_t seed,
                           const RunConfig& rc, bool skip_enabled) {
  Simulator sim(250.0);
  sim.SetSkipEnabled(skip_enabled);
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

  auto* memsvc = new MemoryService(&os, &board.memory());
  os.DeployService(kMemoryService, std::unique_ptr<Accelerator>(memsvc));
  auto* mgmt = new MgmtService(&os);
  os.DeployService(kMgmtService, std::unique_ptr<Accelerator>(mgmt));

  TenantManager tmgr(&os, rc.meter_period);
  tmgr.SetMemoryService(memsvc);
  os.DeployService(kTenantService,
                   std::make_unique<TenantStatsService>(&tmgr));

  SupervisorConfig sup_cfg;
  sup_cfg.backoff_base_cycles = 20'000;
  // The crash-loop policy is part of enforcement: lenient when off.
  sup_cfg.quarantine_after = mode == Mode::kOn ? 3 : 100;
  sup_cfg.crash_loop_window = rc.run_cycles;
  Supervisor supervisor(&os, sup_cfg);
  mgmt->SetSupervisor(&supervisor);
  tmgr.SetSupervisor(&supervisor);

  // Victim tenant: a KV store and its client. With enforcement on its
  // traffic rides a heavyweight arbitration class.
  TenantQuota victim_quota;
  if (mode == Mode::kOn) {
    victim_quota.max_tiles = 4;
    victim_quota.arb_class = 1;
    victim_quota.arb_weight = 8;
  }
  const TenantId victim = tmgr.CreateTenant("victim", victim_quota);
  const AppId victim_app = tmgr.CreateApp(victim, "kv");
  auto kv_factory = [] { return std::make_unique<KvStoreAccelerator>(1 << 20, 1 << 16); };
  ServiceId kv_svc = 0;
  DeployOptions at_kv;
  at_kv.tile = kVictimTile;
  tmgr.Deploy(victim, victim_app, kv_factory(), &kv_svc, at_kv);
  (void)tmgr.GrantSendToService(victim, kVictimTile, kMemoryService);
  auto* client = new KvClient(kv_svc);
  DeployOptions at_client;
  at_client.tile = kClientTile;
  tmgr.Deploy(victim, victim_app, std::unique_ptr<Accelerator>(client), nullptr,
              at_client);
  (void)tmgr.GrantSendToService(victim, kClientTile, kv_svc);
  supervisor.Manage(kVictimTile, kv_factory);

  // Attacker tenant (absent in the solo baseline).
  TenantId attacker = kInvalidTenant;
  std::unique_ptr<AbuseDriver> driver;
  std::unique_ptr<ReconfigScheduler> scheduler;
  FloodAttacker* flooder = nullptr;
  ProbeAttacker* prober = nullptr;
  if (mode != Mode::kSolo) {
    TenantQuota aq;
    if (mode == Mode::kOn) {
      aq.max_tiles = 4;
      aq.noc_flits_per_1k = 100;
      aq.noc_burst_flits = 200;
      aq.arb_class = 2;
      aq.arb_weight = 1;
      aq.reconfig_loads_per_window = 2;
      aq.reconfig_window_cycles = rc.run_cycles / 2;
      aq.offense_threshold = 500;
      aq.quarantine_strikes = 3;
    }
    attacker = tmgr.CreateTenant("attacker", aq);
    const AppId attacker_app = tmgr.CreateApp(attacker, "attacker");

    AbuseCampaign campaign(seed);
    switch (attack) {
      case AttackKind::kFlitFlood:
        campaign.FlitFlood(rc.attack_at, rc.attack_duration);
        break;
      case AttackKind::kReconfigThrash:
        campaign.ReconfigThrash(rc.attack_at, rc.attack_duration, 0);
        break;
      case AttackKind::kCapProbe:
        campaign.CapProbe(rc.attack_at, rc.attack_duration);
        break;
      case AttackKind::kWedgeLoop:
        campaign.WedgeLoop(rc.attack_at, rc.attack_duration, rc.wedge_period);
        break;
    }
    driver = std::make_unique<AbuseDriver>(&os, campaign);

    auto pawn_factory = [] {
      return std::make_unique<WedgeAccelerator>(kNeverWedge, kInvalidCapRef, 500);
    };
    DeployOptions at_attacker;
    at_attacker.tile = kAttackerTile;
    switch (attack) {
      case AttackKind::kFlitFlood: {
        auto fl = std::make_unique<FloodAttacker>(
            driver->ActiveFlag(AttackKind::kFlitFlood), 256);
        flooder = fl.get();
        tmgr.Deploy(attacker, attacker_app, std::move(fl), nullptr, at_attacker);
        // The flood's target: the victim's KV service, which (like any
        // public service) legitimately granted the attacker a client
        // capability — one that escalation's subtree revocation takes back.
        flooder->SetVictim(tmgr.GrantSendToService(attacker, kAttackerTile, kv_svc));
        break;
      }
      case AttackKind::kCapProbe: {
        auto pr = std::make_unique<ProbeAttacker>(
            driver->ActiveFlag(AttackKind::kCapProbe), 16, 8);
        prober = pr.get();
        tmgr.Deploy(attacker, attacker_app, std::move(pr), nullptr, at_attacker);
        break;
      }
      case AttackKind::kReconfigThrash: {
        scheduler = std::make_unique<ReconfigScheduler>(&os, attacker_app);
        tmgr.AttachScheduler(attacker, scheduler.get());
        driver->ConfigureThrash(scheduler.get(), kThrashTile, pawn_factory);
        break;
      }
      case AttackKind::kWedgeLoop: {
        tmgr.Deploy(attacker, attacker_app, pawn_factory(), nullptr, at_attacker);
        (void)tmgr.GrantSendToService(attacker, kAttackerTile, kMgmtService);
        supervisor.Manage(kAttackerTile, pawn_factory);
        driver->ConfigureWedge(kAttackerTile);
        break;
      }
    }
  }

  // Every scenario (solo included) takes the same mid-run victim crash, so
  // recovery cost is part of the baseline and ICAP contention is measured
  // against it rather than against an idle port.
  FaultPlan plan;
  plan.seed = seed;
  plan.AccelCrash(rc.victim_crash_at, kVictimTile);
  FaultHooks hooks;
  hooks.os = &os;
  hooks.mesh = &board.mesh();
  hooks.memory = &board.memory();
  hooks.network = &net;
  FaultInjector injector(std::move(plan), hooks);

  sim.Run(rc.run_cycles);

  ScenarioResult r;
  r.ok = client->ok;
  r.errors = client->errors;
  r.timeouts = client->timeouts;
  r.p99 = client->latency.P99();
  if (flooder != nullptr) {
    r.attacker_metric = flooder->sent();
    r.attacker_denied = flooder->rate_limited();
  } else if (prober != nullptr) {
    r.attacker_metric = prober->attempts();
    r.attacker_denied = prober->denied();
    r.probe_leaked = prober->leaked();
  } else if (driver != nullptr) {
    r.attacker_metric =
        driver->counters().Get(attack == AttackKind::kReconfigThrash
                                   ? "abuse.thrash_loads"
                                   : "abuse.wedges_injected");
  }
  if (scheduler != nullptr) {
    r.quota_stall_cycles = scheduler->counters().Get("orch.quota_stall_cycles");
  }
  r.icap_wait_cycles = supervisor.counters().Get("supervisor.icap_wait_cycles");
  r.attacker_escalated = attacker != kInvalidTenant && tmgr.Escalated(attacker);
  r.victim_records = tmgr.BillingRecords(victim);
  r.victim_digest = tmgr.BillingDigest(victim);
  if (attacker != kInvalidTenant) {
    r.attacker_records = tmgr.BillingRecords(attacker);
    r.attacker_digest = tmgr.BillingDigest(attacker);
  }
  r.audit_clean = AuditClean(sim, std::string(AttackKindName(attack)) + " " + ModeName(mode));
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = HasFlag(argc, argv, "--smoke");
  RunConfig rc;
  if (smoke) {
    rc.run_cycles = 600'000;
    rc.attack_at = 120'000;
    rc.attack_duration = 360'000;
    rc.victim_crash_at = 250'000;
    rc.meter_period = 50'000;
  }

  std::printf("A11: adversarial multi-tenancy (%llu cycles, 4x4 mesh, victim KV\n",
              static_cast<unsigned long long>(rc.run_cycles));
  std::printf("tenant vs one attack at a time, enforcement off vs on)\n\n");

  const ScenarioResult solo =
      RunScenario(AttackKind::kFlitFlood, Mode::kSolo, kSeed, rc, true);

  const AttackKind kAttacks[] = {AttackKind::kFlitFlood, AttackKind::kReconfigThrash,
                                 AttackKind::kCapProbe, AttackKind::kWedgeLoop};
  struct AttackRow {
    AttackKind kind;
    ScenarioResult off;
    ScenarioResult on;
    bool deterministic = false;
  };
  std::vector<AttackRow> rows;
  bool all_deterministic = true;
  bool audit_clean = solo.audit_clean;
  for (const AttackKind kind : kAttacks) {
    AttackRow row;
    row.kind = kind;
    row.off = RunScenario(kind, Mode::kOff, kSeed, rc, true);
    row.on = RunScenario(kind, Mode::kOn, kSeed, rc, true);
    // Billing determinism: same seed again, then same seed with cycle
    // skipping disabled. Records must be byte-identical both times.
    const ScenarioResult rerun = RunScenario(kind, Mode::kOn, kSeed, rc, true);
    const ScenarioResult noskip = RunScenario(kind, Mode::kOn, kSeed, rc, false);
    row.deterministic = rerun.victim_records == row.on.victim_records &&
                        rerun.attacker_records == row.on.attacker_records &&
                        noskip.victim_records == row.on.victim_records &&
                        noskip.attacker_records == row.on.attacker_records;
    all_deterministic = all_deterministic && row.deterministic;
    audit_clean = audit_clean && row.off.audit_clean && row.on.audit_clean &&
                  rerun.audit_clean && noskip.audit_clean;
    rows.push_back(std::move(row));
  }

  Table table("A11: victim SLO and attacker throughput per attack");
  table.SetHeader({"attack", "mode", "victim ok", "err", "timeouts", "p99",
                   "attacker", "denied", "escalated"});
  table.AddRow({"(none)", ModeName(Mode::kSolo), Table::Int(solo.ok),
                Table::Int(solo.errors), Table::Int(solo.timeouts),
                Table::Int(solo.p99), "-", "-", "-"});
  for (const AttackRow& row : rows) {
    for (const Mode mode : {Mode::kOff, Mode::kOn}) {
      const ScenarioResult& r = mode == Mode::kOff ? row.off : row.on;
      table.AddRow({AttackKindName(row.kind), ModeName(mode), Table::Int(r.ok),
                    Table::Int(r.errors), Table::Int(r.timeouts), Table::Int(r.p99),
                    Table::Int(r.attacker_metric), Table::Int(r.attacker_denied),
                    r.attacker_escalated ? "yes" : "no"});
    }
  }
  table.Print();

  std::printf("\nvictim billing records (enforcement on, %s, first periods):\n",
              AttackKindName(AttackKind::kFlitFlood));
  const std::string& sample = rows[0].on.victim_records;
  size_t shown = 0;
  for (size_t pos = 0; pos < sample.size() && shown < 3; ++shown) {
    const size_t eol = sample.find('\n', pos);
    std::printf("  %s\n", sample.substr(pos, eol - pos).c_str());
    pos = eol + 1;
  }
  std::printf("attacker record digest (on, flood): %08x over %zu bytes\n",
              rows[0].on.attacker_digest, rows[0].on.attacker_records.size());

  // Acceptance checks.
  bool all_contained = true;
  const uint64_t solo_floor = solo.p99 == 0 ? 1 : solo.p99;
  for (const AttackRow& row : rows) {
    const bool contained = row.on.p99 <= 2 * solo_floor;
    all_contained = all_contained && contained;
    std::printf("[%s] %s: enforced victim p99 within 2x solo (%llu vs %llu)\n",
                contained ? "PASS" : "FAIL", AttackKindName(row.kind),
                static_cast<unsigned long long>(row.on.p99),
                static_cast<unsigned long long>(solo.p99));
  }
  const AttackRow* probe_row = nullptr;
  for (const AttackRow& row : rows) {
    if (row.kind == AttackKind::kCapProbe) {
      probe_row = &row;
    }
  }
  const bool no_leaks =
      probe_row->off.probe_leaked == 0 && probe_row->on.probe_leaked == 0;
  std::printf("[%s] capability probes leaked nothing in either mode\n",
              no_leaks ? "PASS" : "FAIL");
  std::printf("[%s] billing records byte-identical across rerun and no-skip rerun\n",
              all_deterministic ? "PASS" : "FAIL");

  const std::string json_path = JsonPathArg(argc, argv);
  if (!json_path.empty()) {
    BenchJson json("a11_adversarial");
    json.Param("run_cycles", static_cast<uint64_t>(rc.run_cycles));
    json.Param("seed", kSeed);
    json.Param("smoke", smoke ? "yes" : "no");
    json.BeginRow();
    json.Metric("attack", "none");
    json.Metric("mode", "solo");
    json.Metric("victim_ok", solo.ok);
    json.Metric("victim_errors", solo.errors);
    json.Metric("victim_timeouts", solo.timeouts);
    json.Metric("victim_p99_cycles", solo.p99);
    for (const AttackRow& row : rows) {
      for (const Mode mode : {Mode::kOff, Mode::kOn}) {
        const ScenarioResult& r = mode == Mode::kOff ? row.off : row.on;
        json.BeginRow();
        json.Metric("attack", AttackKindName(row.kind));
        json.Metric("mode", mode == Mode::kOff ? "off" : "on");
        json.Metric("victim_ok", r.ok);
        json.Metric("victim_errors", r.errors);
        json.Metric("victim_timeouts", r.timeouts);
        json.Metric("victim_p99_cycles", r.p99);
        json.Metric("attacker_metric", r.attacker_metric);
        json.Metric("attacker_denied", r.attacker_denied);
        json.Metric("attacker_escalated", r.attacker_escalated ? 1 : 0);
        json.Metric("quota_stall_cycles", r.quota_stall_cycles);
        json.Metric("icap_wait_cycles", r.icap_wait_cycles);
        json.Metric("billing_digest_victim", static_cast<uint64_t>(r.victim_digest));
        json.Metric("deterministic", row.deterministic ? 1 : 0);
      }
    }
    json.WriteFile(json_path);
  }
  return (all_contained && no_leaks && all_deterministic && audit_clean) ? 0 : 1;
}
