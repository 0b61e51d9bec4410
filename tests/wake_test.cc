// Every block the optimized engine parks resumes on an explicit wake. Each
// case parks a block whose inputs used to be found by a per-boundary re-poll
// (the mesh, the Ethernet MACs and the network service, PCIe, both memory
// backends, RawQueue, the campaign-flag attackers) or by a per-cycle pin
// (the supervisor), delivers one input through its wake, and checks that the
// optimized engine services it on exactly the reference engine's cycles
// with audit mode on and no violation.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/accel/echo.h"
#include "src/accel/faulty.h"
#include "src/baseline/raw_queue.h"
#include "src/core/service_ids.h"
#include "src/fpga/pcie.h"
#include "src/mem/interleaved_memory.h"
#include "src/mem/memory_controller.h"
#include "src/noc/mesh.h"
#include "src/noc/packet_pool.h"
#include "src/services/mgmt_service.h"
#include "src/services/network_service.h"
#include "src/services/opcodes.h"
#include "src/services/supervisor.h"
#include "src/sim/payload_arena.h"
#include "src/tenant/abuse.h"
#include "tests/test_util.h"

namespace apiary {
namespace {

// What one engine observed: the cycles the input was serviced on, and the
// audit record.
struct Outcome {
  std::vector<Cycle> serviced;
  std::string detail;  // Scenario-specific state that must match too.
  uint64_t idle_ticks = 0;
  uint64_t idle_checks = 0;
  uint64_t blocks = 0;
  uint64_t violations = 0;
  std::string first_violation;
};

// Builds and runs one scenario on a fresh board in the given engine.
using Scenario = std::function<Outcome(bool optimized)>;

void UseEngine(Simulator& sim, bool optimized) {
  sim.SetSkipEnabled(optimized);
  sim.SetAuditEnabled(true);
}

constexpr Cycle kSettle = 3'000;  // Boot, MAC bring-up and first parks.
constexpr Cycle kIdle = 3'000;
constexpr Cycle kInputAt = 7'777;
constexpr Cycle kPoll = 64;  // Supervisor poll period.

// Lets the board settle, then runs an idle stretch and returns the block
// ticks it cost: zero in the optimized engine means every registered block
// was parked.
uint64_t IdleTicks(Simulator& sim) {
  sim.Run(kSettle);
  const uint64_t before = sim.ticked_blocks();
  sim.Run(kIdle);
  return sim.ticked_blocks() - before;
}

void Audit(const Simulator& sim, Outcome* out) {
  out->blocks = sim.block_count();
  out->violations = sim.audit_violations();
  out->first_violation = sim.audit_first_violation();
}

void ExpectServicedLikeReference(const Scenario& scenario) {
  const Outcome ref = scenario(/*optimized=*/false);
  const Outcome opt = scenario(/*optimized=*/true);
  ASSERT_FALSE(ref.serviced.empty());
  EXPECT_EQ(opt.serviced, ref.serviced);
  EXPECT_EQ(opt.detail, ref.detail);
  EXPECT_EQ(opt.idle_ticks, 0u) << "a block stayed on the active list while idle";
  EXPECT_EQ(ref.idle_ticks, ref.idle_checks * kIdle * ref.blocks) << "reference ticks all";
  EXPECT_EQ(opt.violations, 0u) << opt.first_violation;
  EXPECT_EQ(ref.violations, 0u);
}

// Fires `action` once, in its own tick at cycle `at` — an input delivered by
// a block registered after the device under test, as tiles are after the
// board's devices.
class TimedAction : public Clocked {
 public:
  TimedAction(Cycle at, std::function<void(Cycle)> action)
      : at_(at), action_(std::move(action)) {}
  void Tick(Cycle now) override {
    if (!fired_ && now >= at_) {
      fired_ = true;
      action_(now);
    }
  }
  [[nodiscard]] Cycle NextActivity(Cycle now) const override {
    if (fired_) {
      return kNoActivity;
    }
    return at_ > now ? at_ : now;
  }
  std::string DebugName() const override { return "timed_action"; }

 private:
  Cycle at_;
  std::function<void(Cycle)> action_;
  bool fired_ = false;
};

TEST(WakeTest, NiInjectWakesAnIdleMesh) {
  ExpectServicedLikeReference([](bool optimized) {
    FallbackPayloadArena();  // Outlives the pool's retained payload chunks.
    PacketPool pool;
    Simulator sim;
    UseEngine(sim, optimized);
    Mesh mesh(MeshConfig{4, 4, 8, 512});
    sim.Register(&mesh);
    TimedAction inject(kInputAt, [&](Cycle now) {
      PacketRef p = pool.Acquire();
      p->src = 0;
      p->dst = 15;
      p->payload.assign(100, 7);
      EXPECT_TRUE(mesh.ni(0).Inject(std::move(p), now));
    });
    sim.Register(&inject);
    Outcome out;
    out.idle_ticks = IdleTicks(sim);
    out.idle_checks = 1;
    EXPECT_TRUE(sim.RunUntil([&] { return mesh.ni(15).HasDeliverable(); }, 10'000));
    out.serviced.push_back(sim.now());
    out.detail = mesh.AggregateCounters().ToString();
    if (mesh.ni(15).HasDeliverable()) {
      (void)mesh.ni(15).Retrieve();
    }
    Audit(sim, &out);
    return out;
  });
}

TEST(WakeTest, MemorySubmitWakesParkedControllers) {
  ExpectServicedLikeReference([](bool optimized) {
    Simulator sim;
    UseEngine(sim, optimized);
    DramConfig dram;
    dram.capacity_bytes = 1 << 20;
    MemoryController mc(dram);
    InterleavedMemory hbm(dram, 4, 4096);
    sim.Register(&mc);
    sim.Register(&hbm);
    std::vector<uint8_t> out_a(64);
    std::vector<uint8_t> out_b(9000);  // Spans three channels.
    Outcome out;
    TimedAction submit(kInputAt, [&](Cycle) {
      EXPECT_TRUE(mc.SubmitRead(128, out_a, [&](Cycle c) { out.serviced.push_back(c); }));
      EXPECT_TRUE(hbm.SubmitRead(4000, out_b, [&](Cycle c) { out.serviced.push_back(c); }));
    });
    sim.Register(&submit);
    out.idle_ticks = IdleTicks(sim);
    out.idle_checks = 1;
    EXPECT_TRUE(sim.RunUntil([&] { return out.serviced.size() == 2; }, 10'000));
    out.detail = mc.counters().ToString() + hbm.counters().ToString();
    Audit(sim, &out);
    return out;
  });
}

TEST(WakeTest, PcieSubmitWakesAParkedEndpoint) {
  ExpectServicedLikeReference([](bool optimized) {
    Simulator sim;
    UseEngine(sim, optimized);
    PcieEndpoint pcie{PcieConfig{}};
    sim.Register(&pcie);
    Outcome out;
    TimedAction submit(kInputAt, [&](Cycle) {
      EXPECT_TRUE(pcie.Submit(4096, [&](Cycle c) { out.serviced.push_back(c); }));
      EXPECT_TRUE(pcie.Submit(64, [&](Cycle c) { out.serviced.push_back(c); }));
    });
    sim.Register(&submit);
    out.idle_ticks = IdleTicks(sim);
    out.idle_checks = 1;
    EXPECT_TRUE(sim.RunUntil([&] { return out.serviced.size() == 2; }, 10'000));
    Audit(sim, &out);
    return out;
  });
}

TEST(WakeTest, RawQueuePushWakesAParkedQueue) {
  ExpectServicedLikeReference([](bool optimized) {
    Simulator sim;
    UseEngine(sim, optimized);
    RawQueue queue(kFlitBytes, 8);
    sim.Register(&queue);
    TimedAction push(kInputAt, [&](Cycle now) {
      PayloadBuf payload;
      payload.assign(100, 3);
      EXPECT_TRUE(queue.Push(std::move(payload), now));
    });
    sim.Register(&push);
    Outcome out;
    out.idle_ticks = IdleTicks(sim);
    out.idle_checks = 1;
    EXPECT_TRUE(sim.RunUntil([&] { return queue.Pop(sim.now()).has_value(); }, 10'000));
    out.serviced.push_back(sim.now());
    Audit(sim, &out);
    return out;
  });
}

// An external frame reaches a registered app through a parked MAC and a
// parked network-service tile (the MAC's RX wake), and the app's reply
// leaves through the MAC's TX enqueue wake.
class NetworkServiceMacWakeTest : public ::testing::TestWithParam<MacKind> {};

TEST_P(NetworkServiceMacWakeTest, ExternalFrameWakesMacAndServiceTile) {
  const MacKind mac = GetParam();
  ExpectServicedLikeReference([mac](bool optimized) {
    TestBoardOptions opts;
    opts.mac = mac;
    TestBoard tb(opts);
    UseEngine(tb.sim, optimized);
    std::unique_ptr<MacAdapter> adapter;
    if (mac == MacKind::k10G) {
      adapter = std::make_unique<Mac10GAdapter>(tb.board.mac10g());
    } else {
      adapter = std::make_unique<Mac100GAdapter>(tb.board.mac100g());
    }
    tb.os.DeployService(kNetworkService,
                        std::make_unique<NetworkService>(&tb.os, std::move(adapter)));
    auto* probe = new ProbeAccelerator();
    ServiceId probe_svc = 0;
    const TileId pt =
        tb.os.Deploy(tb.os.CreateApp("a"), std::unique_ptr<Accelerator>(probe), &probe_svc);
    const CapRef to_net = tb.os.GrantSendToService(pt, kNetworkService);
    Message reg;
    reg.opcode = kOpNetRegister;
    probe->EnqueueSend(reg, to_net);

    struct Client : ExternalEndpoint {
      std::vector<Cycle> arrivals;
      void OnFrame(EthFrame, Cycle now) override { arrivals.push_back(now); }
    } client;
    const uint32_t client_addr = tb.net.RegisterEndpoint(&client);
    const uint32_t board_addr =
        mac == MacKind::k10G ? tb.board.mac10g()->address() : tb.board.mac100g()->address();
    TimedAction send(kInputAt, [&](Cycle now) {
      EthFrame frame;
      frame.src_endpoint = client_addr;
      frame.dst_endpoint = board_addr;
      PutU32(frame.payload, probe_svc);
      frame.payload.push_back(0x42);
      tb.net.Send(std::move(frame), now);
    });
    tb.sim.Register(&send);

    Outcome out;
    out.idle_ticks = IdleTicks(tb.sim);  // Registration and bring-up settle first.
    out.idle_checks = 1;
    probe->received.clear();
    EXPECT_TRUE(tb.sim.RunUntil([&] { return !probe->received.empty(); }, 10'000));
    out.serviced.push_back(tb.sim.now());
    Message reply;
    reply.opcode = kOpNetSend;
    PutU32(reply.payload, client_addr);
    reply.payload.push_back(0x99);
    probe->EnqueueSend(reply, to_net);
    EXPECT_TRUE(tb.sim.RunUntil([&] { return !client.arrivals.empty(); }, 10'000));
    out.serviced.push_back(client.arrivals.empty() ? kNoActivity : client.arrivals[0]);
    Audit(tb.sim, &out);
    return out;
  });
}

INSTANTIATE_TEST_SUITE_P(Macs, NetworkServiceMacWakeTest,
                         ::testing::Values(MacKind::k10G, MacKind::k100G));

TEST(WakeTest, CampaignFlipWakesParkedAttackers) {
  ExpectServicedLikeReference([](bool optimized) {
    TestBoard tb;
    UseEngine(tb.sim, optimized);
    const AppId app = tb.os.CreateApp("a");
    ServiceId victim = 0;
    tb.os.Deploy(app, std::make_unique<EchoAccelerator>(0), &victim);
    AbuseCampaign campaign(7);
    campaign.FlitFlood(kInputAt, 300).CapProbe(kInputAt + 1'000, 500);
    AbuseDriver driver(&tb.os, campaign);
    auto* flooder = new FloodAttacker(driver.ActiveFlag(AttackKind::kFlitFlood), 64);
    const TileId ft = tb.os.Deploy(app, std::unique_ptr<Accelerator>(flooder));
    flooder->SetVictim(tb.os.GrantSendToService(ft, victim));
    auto* prober =
        new ProbeAttacker(driver.ActiveFlag(AttackKind::kCapProbe), tb.os.num_tiles(), 16);
    tb.os.Deploy(app, std::unique_ptr<Accelerator>(prober));

    Outcome out;
    out.idle_ticks = IdleTicks(tb.sim);
    out.idle_checks = 1;
    EXPECT_TRUE(tb.sim.RunUntil([&] { return flooder->sent() > 0; }, 10'000));
    out.serviced.push_back(tb.sim.now());
    EXPECT_TRUE(tb.sim.RunUntil([&] { return prober->attempts() > 0; }, 10'000));
    out.serviced.push_back(tb.sim.now());
    tb.sim.Run(2'000);  // Both phases end; the attackers park again.
    out.detail = std::to_string(flooder->sent()) + "/" + std::to_string(prober->attempts());
    out.idle_ticks += IdleTicks(tb.sim);
    ++out.idle_checks;
    Audit(tb.sim, &out);
    return out;
  });
}

// The supervisor parks on its declaration; a managed tile's fail-stop
// reaches it through the monitor's fault watcher, and the poll still
// detects it on the next poll multiple.
TEST(WakeTest, FailStopWakesAParkedSupervisorAtThePollMultiple) {
  static_assert(kInputAt % kPoll != 0, "the fault must land between polls");
  ExpectServicedLikeReference([](bool optimized) {
    TestBoardOptions opts;
    opts.reconfig_cycles = 3'000;
    TestBoard tb(opts);
    UseEngine(tb.sim, optimized);
    const TileId t = tb.os.Deploy(tb.os.CreateApp("a"), std::make_unique<EchoAccelerator>(0));
    SupervisorConfig scfg;
    scfg.poll_period = kPoll;
    Supervisor sup(&tb.os, scfg);
    sup.Manage(t, [] { return std::make_unique<EchoAccelerator>(0); });
    TimedAction crash(kInputAt, [&](Cycle) { tb.os.monitor(t).RaiseFault("injected"); });
    tb.sim.Register(&crash);

    Outcome out;
    out.idle_ticks = IdleTicks(tb.sim);
    out.idle_checks = 1;
    EXPECT_TRUE(tb.sim.RunUntil(
        [&] { return sup.counters().Get("supervisor.faults_detected") == 1; }, 10'000));
    const Cycle detected = tb.sim.now() - 1;  // The executed cycle that saw it.
    EXPECT_EQ(detected % kPoll, 0u);
    EXPECT_GT(detected, kInputAt);
    EXPECT_LT(detected, kInputAt + 2 * kPoll);
    out.serviced.push_back(detected);
    EXPECT_TRUE(tb.sim.RunUntil([&] { return sup.AllHealthy(); }, 20'000));
    out.serviced.push_back(tb.sim.now());
    // The poll stamps its own tick's cycle.
    EXPECT_EQ(sup.recovery_cycles().max(), (tb.sim.now() - 1) - detected);
    out.detail = sup.counters().ToString() + sup.recovery_cycles().Summary();
    Audit(tb.sim, &out);
    return out;
  });
}

// A watchdog-reported wedge (OnTileFault from the MgmtService tile, which
// ticks before the supervisor) stamps the detection cycle the pinned
// supervisor's cached clock used to hold: sim().now() - 1.
TEST(WakeTest, WatchdogWedgeStampsTheReferenceDetectionCycle) {
  ExpectServicedLikeReference([](bool optimized) {
    TestBoardOptions opts;
    opts.reconfig_cycles = 3'000;
    TestBoard tb(opts);
    UseEngine(tb.sim, optimized);
    auto* mgmt = new MgmtService(&tb.os);
    tb.os.DeployService(kMgmtService, std::unique_ptr<Accelerator>(mgmt));
    const TileId wt = tb.os.Deploy(
        tb.os.CreateApp("a"), std::make_unique<WedgeAccelerator>(~0ull, kInvalidCapRef, 100));
    (void)tb.os.GrantSendToService(wt, kMgmtService);
    SupervisorConfig scfg;
    scfg.poll_period = kPoll;
    Supervisor sup(&tb.os, scfg);
    sup.Manage(wt, [] { return std::make_unique<WedgeAccelerator>(~0ull, kInvalidCapRef, 100); });
    mgmt->SetSupervisor(&sup);
    TimedAction wedge(kInputAt, [&](Cycle) { tb.os.tile(wt).InjectSeuWedge(); });
    tb.sim.Register(&wedge);

    Outcome out;
    EXPECT_TRUE(tb.sim.RunUntil(
        [&] { return sup.counters().Get("supervisor.faults_detected") == 1; }, 20'000));
    const Cycle tripped = tb.sim.now() - 1;  // The watchdog's tick.
    out.serviced.push_back(tripped);
    EXPECT_TRUE(tb.sim.RunUntil([&] { return sup.restarts(wt) == 1 && sup.AllHealthy(); },
                                20'000));
    const Cycle recovered = tb.sim.now() - 1;
    out.serviced.push_back(recovered);
    // Stamped one cycle before the watchdog's tick.
    EXPECT_EQ(sup.recovery_cycles().max(), recovered - (tripped - 1));
    // Recovery time is completion minus the stamped detection cycle, so an
    // equal histogram at an equal completion cycle means an equal stamp.
    out.detail = sup.counters().ToString() + sup.recovery_cycles().Summary();
    Audit(tb.sim, &out);
    return out;
  });
}

// A wake rung from inside another block's NextActivity poll (a const query
// flipping cached state, like a MAC's link-lock poll) lands while the
// schedule is compacting its active list; it takes effect for this cycle.
class Flag : public Clocked {
 public:
  void Raise() const {
    raised_ = true;
    RequestWake();
  }
  void Tick(Cycle now) override {
    if (raised_) {
      raised_ = false;
      seen_at.push_back(now);
    }
  }
  [[nodiscard]] Cycle NextActivity(Cycle now) const override {
    return raised_ ? now : kNoActivity;
  }
  std::string DebugName() const override { return "flag"; }
  std::vector<Cycle> seen_at;

 private:
  mutable bool raised_ = false;
};

class PollingRaiser : public Clocked {
 public:
  PollingRaiser(const Flag* flag, Cycle at) : flag_(flag), at_(at) {}
  void Tick(Cycle now) override { (void)Poll(now); }
  [[nodiscard]] Cycle NextActivity(Cycle now) const override {
    return Poll(now) ? kNoActivity : at_;
  }
  std::string DebugName() const override { return "polling_raiser"; }

 private:
  // Raises the flag once, on the first look at or after `at_`.
  bool Poll(Cycle now) const {
    if (!raised_ && now >= at_) {
      raised_ = true;
      flag_->Raise();
    }
    return raised_;
  }
  const Flag* flag_;
  Cycle at_;
  mutable bool raised_ = false;
};

TEST(WakeTest, WakeFromInsideABoundaryPollTicksThisCycle) {
  ExpectServicedLikeReference([](bool optimized) {
    Simulator sim;
    UseEngine(sim, optimized);
    std::vector<std::unique_ptr<Flag>> flags;
    std::vector<std::unique_ptr<PollingRaiser>> raisers;
    // Interleaved so wakes land both behind and ahead of the compaction
    // cursor; each flag sits after its raiser, so the reference engine's
    // in-tick raise reaches it the same cycle.
    for (Cycle i = 0; i < 4; ++i) {
      flags.push_back(std::make_unique<Flag>());
      raisers.push_back(std::make_unique<PollingRaiser>(flags.back().get(), kInputAt + i % 2));
      sim.Register(raisers.back().get());
      sim.Register(flags.back().get());
    }
    Outcome out;
    out.idle_ticks = IdleTicks(sim);
    out.idle_checks = 1;
    sim.Run(kInputAt);
    for (const auto& flag : flags) {
      out.serviced.insert(out.serviced.end(), flag->seen_at.begin(), flag->seen_at.end());
    }
    Audit(sim, &out);
    return out;
  });
}

}  // namespace
}  // namespace apiary
