// Tests for the fault-injection subsystem (src/fault) and the self-healing
// machinery it exercises: monitor fail-stop edge cases, the capability
// lifecycle across reconfiguration, NoC link faults (drop + detected
// corruption), DRAM upsets with and without ECC, ethernet loss bursts, and
// the Supervisor's recovery policies (restart, backoff, quarantine,
// hot-standby failover, watchdog-driven wedge recovery).
#include <gtest/gtest.h>

#include <memory>

#include "src/accel/echo.h"
#include "src/accel/faulty.h"
#include "src/core/service_ids.h"
#include "src/fault/fault_injector.h"
#include "src/fault/fault_plan.h"
#include "src/mem/interleaved_memory.h"
#include "src/services/mgmt_service.h"
#include "src/services/supervisor.h"
#include "tests/test_util.h"

namespace apiary {
namespace {

// Like TestBoard but with a short partial-reconfiguration latency so
// supervisor recoveries complete within test budgets.
struct FaultBoard {
  explicit FaultBoard(Cycle reconfig_cycles)
      : net(25), board(MakeConfig(reconfig_cycles), sim, &net), os(board) {
    sim.Register(&net);
  }

  static BoardConfig MakeConfig(Cycle reconfig_cycles) {
    BoardConfig cfg;
    cfg.mesh = MeshConfig{4, 4, 8, 512};
    cfg.dram.capacity_bytes = 64ull << 20;
    cfg.partial_reconfig_cycles = reconfig_cycles;
    return cfg;
  }

  Simulator sim{250.0};
  ExternalNetwork net;
  Board board;
  ApiaryOs os;
};

// Crash-loops: dies shortly after every boot (the unrecoverable-firmware
// case the quarantine policy exists for).
class CrashLooper : public Accelerator {
 public:
  void OnBoot(TileApi& api) override { crash_at_ = api.now() + 500; }
  void OnMessage(const Message&, TileApi&) override {}
  void Tick(TileApi& api) override {
    if (api.now() >= crash_at_) {
      api.RaiseFault("reset loop");
    }
  }
  std::string name() const override { return "crash_looper"; }
  uint32_t LogicCellCost() const override { return 1000; }

 private:
  Cycle crash_at_ = ~0ull;
};

Message EchoRequest(std::vector<uint8_t> payload = {0xAB}) {
  Message msg;
  msg.opcode = kOpEcho;
  msg.payload = std::move(payload);
  return msg;
}

// ------------------------------------------------------------------
// Monitor fail-stop edge cases.
// ------------------------------------------------------------------

TEST(MonitorFailStopTest, BouncesQueuedInFlightRequests) {
  TestBoard tb;
  AppId app = tb.os.CreateApp("app");
  ServiceId svc = 0;
  const TileId st = tb.os.Deploy(app, std::make_unique<EchoAccelerator>(0), &svc);
  auto* probe = new ProbeAccelerator();
  const TileId ct = tb.os.Deploy(app, std::unique_ptr<Accelerator>(probe));
  const CapRef cap = tb.os.GrantSendToService(ct, svc);

  // Wedge the service tile first: the request reaches its monitor's inbox
  // but the dead accelerator never consumes it. (Boot the tile before the
  // wedge — completing a configuration clears the SEU state.)
  tb.sim.Run(10);
  tb.os.tile(st).InjectSeuWedge();
  probe->EnqueueSend(EchoRequest(), cap);
  tb.sim.Run(2000);
  ASSERT_GE(tb.os.monitor(st).counters().Get("monitor.delivered"), 1u);
  ASSERT_TRUE(probe->received.empty());

  // Fail-stop must drain the inbox by *bouncing* the queued request, so the
  // client fails fast instead of timing out.
  tb.os.FailStop(st, "operator kill");
  tb.sim.Run(2000);
  ASSERT_EQ(probe->received.size(), 1u);
  EXPECT_EQ(probe->received[0].status, MsgStatus::kDestFailed);
  EXPECT_GE(tb.os.monitor(st).counters().Get("monitor.drained_inbox"), 1u);
}

TEST(MonitorFailStopTest, DoubleFailStopIsIdempotent) {
  TestBoard tb;
  AppId app = tb.os.CreateApp("app");
  const TileId t = tb.os.Deploy(app, std::make_unique<EchoAccelerator>(0));
  tb.sim.Run(10);

  tb.os.FailStop(t, "first");
  tb.os.FailStop(t, "second");
  const Monitor& m = tb.os.monitor(t);
  EXPECT_EQ(m.fault_state(), TileFaultState::kStopped);
  EXPECT_EQ(m.counters().Get("monitor.fail_stops"), 1u);
  // The original diagnosis survives; the redundant stop is a no-op.
  EXPECT_EQ(m.fault_reason(), "first");
}

// ------------------------------------------------------------------
// Capability lifecycle across reconfiguration.
// ------------------------------------------------------------------

TEST(ReconfigureCapsTest, ReconfigureRevokesAndReinstallRestores) {
  TestBoard tb;
  AppId app = tb.os.CreateApp("app");
  ServiceId svc_a = 0;
  ServiceId svc_b = 0;
  const TileId ta = tb.os.Deploy(app, std::make_unique<EchoAccelerator>(0), &svc_a);
  tb.os.Deploy(app, std::make_unique<EchoAccelerator>(0), &svc_b);
  auto* probe = new ProbeAccelerator();
  const TileId ct = tb.os.Deploy(app, std::unique_ptr<Accelerator>(probe));
  const CapRef client_cap = tb.os.GrantSendToService(ct, svc_a);
  ASSERT_NE(tb.os.GrantSendToService(ta, svc_b), kInvalidCapRef);
  tb.sim.Run(10);

  // Tearing a tile down for fresh logic revokes every capability it held —
  // the new bitstream must not inherit the old accelerator's authority by
  // accident.
  ASSERT_TRUE(tb.os.Reconfigure(ta, std::make_unique<EchoAccelerator>(0),
                                /*immediate=*/true));
  tb.sim.Run(10);
  EXPECT_EQ(tb.os.monitor(ta).cap_table().FindEndpointForService(svc_b),
            kInvalidCapRef);

  // ...and the kernel's grant log can put it back, deliberately.
  tb.os.ReinstallTileCaps(ta);
  EXPECT_NE(tb.os.monitor(ta).cap_table().FindEndpointForService(svc_b),
            kInvalidCapRef);

  // Clients of the reconfigured tile were never touched: the old endpoint
  // capability still reaches the (new) accelerator behind the same name.
  probe->EnqueueSend(EchoRequest(), client_cap);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return !probe->received.empty(); }, 10'000));
  EXPECT_EQ(probe->received[0].status, MsgStatus::kOk);
}

// ------------------------------------------------------------------
// NoC link faults.
// ------------------------------------------------------------------

TEST(NocFaultTest, LinkDropWindowLosesPacketsThenHeals) {
  TestBoard tb;
  AppId app = tb.os.CreateApp("app");
  ServiceId svc = 0;
  auto* echo = new EchoAccelerator(0);
  tb.os.Deploy(app, std::unique_ptr<Accelerator>(echo), &svc);
  auto* probe = new ProbeAccelerator();
  const TileId ct = tb.os.Deploy(app, std::unique_ptr<Accelerator>(probe));
  const CapRef cap = tb.os.GrantSendToService(ct, svc);

  FaultPlan plan;
  plan.seed = 5;
  plan.LinkDrop(/*at=*/0, /*duration=*/20'000, /*rate=*/1.0);
  FaultInjector injector(plan, FaultHooks{.os = &tb.os, .mesh = &tb.board.mesh()});

  probe->EnqueueSend(EchoRequest(), cap);
  tb.sim.Run(10'000);
  // The request was swallowed on a link: no delivery, no reply, but the loss
  // is visible in counters at every layer it crossed.
  EXPECT_TRUE(probe->received.empty());
  EXPECT_EQ(echo->served(), 0u);
  EXPECT_GE(injector.counters().Get("fault.link_drops_applied"), 1u);
  const CounterSet noc = tb.board.mesh().AggregateCounters();
  EXPECT_GE(noc.Get("router.fault_dropped_packets"), 1u);
  EXPECT_GE(noc.Get("ni.packets_dropped_fault"), 1u);

  // Past the window the same path works again.
  tb.sim.Run(15'000);
  ASSERT_TRUE(injector.Exhausted(tb.sim.now()));
  probe->EnqueueSend(EchoRequest(), cap);
  ASSERT_TRUE(tb.sim.RunUntil([&] { return !probe->received.empty(); }, 10'000));
  EXPECT_EQ(probe->received[0].status, MsgStatus::kOk);
}

TEST(NocFaultTest, LinkCorruptionIsDetectedNotConsumed) {
  TestBoard tb;
  AppId app = tb.os.CreateApp("app");
  ServiceId svc = 0;
  auto* echo = new EchoAccelerator(0);
  tb.os.Deploy(app, std::unique_ptr<Accelerator>(echo), &svc);
  auto* probe = new ProbeAccelerator();
  const TileId ct = tb.os.Deploy(app, std::unique_ptr<Accelerator>(probe));
  const CapRef cap = tb.os.GrantSendToService(ct, svc);

  FaultPlan plan;
  plan.seed = 6;
  plan.LinkCorrupt(/*at=*/0, /*duration=*/20'000, /*rate=*/1.0);
  FaultInjector injector(plan, FaultHooks{.os = &tb.os, .mesh = &tb.board.mesh()});

  probe->EnqueueSend(EchoRequest({1, 2, 3, 4}), cap);
  tb.sim.Run(10'000);
  // The checksum catches the garbled payload at the ejecting NI: the packet
  // is discarded, never delivered as a (corrupt) message.
  EXPECT_GE(injector.counters().Get("fault.link_corruptions_applied"), 1u);
  EXPECT_GE(tb.board.mesh().AggregateCounters().Get("ni.checksum_drops"), 1u);
  EXPECT_EQ(echo->served(), 0u);
  EXPECT_TRUE(probe->received.empty());
}

// ------------------------------------------------------------------
// DRAM upsets and ECC.
// ------------------------------------------------------------------

TEST(DramFaultTest, BitFlipCorruptsWithoutEccAndEccCorrects) {
  TestBoard tb;
  MemoryBackend& mem = tb.board.memory();
  const uint64_t addr = 4096;
  const uint8_t original = 0xFF;
  mem.DebugWrite(addr, std::span<const uint8_t>(&original, 1));

  EXPECT_EQ(mem.InjectBitFlip(addr, 3), BitFlipResult::kCorrupted);
  EXPECT_EQ(mem.DebugRead(addr, 1)[0], 0xF7);

  mem.SetEccEnabled(true);
  EXPECT_EQ(mem.InjectBitFlip(addr, 2), BitFlipResult::kCorrectedByEcc);
  EXPECT_EQ(mem.DebugRead(addr, 1)[0], 0xF7);  // SECDED: data bus unaffected.

  EXPECT_EQ(mem.InjectBitFlip(mem.capacity(), 0), BitFlipResult::kOutOfRange);
}

TEST(DramFaultTest, InterleavedMemoryFlipsChannelLocalByte) {
  DramConfig per_channel;
  per_channel.capacity_bytes = 1ull << 20;
  InterleavedMemory mem(per_channel, /*channels=*/4, /*stripe_bytes=*/4096);

  // An address deep in a non-zero channel's stripe.
  const uint64_t addr = 4096 * 5 + 7;
  const uint8_t original = 0xA5;
  mem.DebugWrite(addr, std::span<const uint8_t>(&original, 1));

  EXPECT_EQ(mem.InjectBitFlip(addr, 0), BitFlipResult::kCorrupted);
  EXPECT_EQ(mem.DebugRead(addr, 1)[0], 0xA4);

  mem.SetEccEnabled(true);
  EXPECT_EQ(mem.InjectBitFlip(addr, 1), BitFlipResult::kCorrectedByEcc);
  EXPECT_EQ(mem.DebugRead(addr, 1)[0], 0xA4);

  EXPECT_EQ(mem.InjectBitFlip(mem.capacity() + 10, 0), BitFlipResult::kOutOfRange);
}

// ------------------------------------------------------------------
// Ethernet loss bursts.
// ------------------------------------------------------------------

TEST(EthFaultTest, LossBurstDropsFramesOnlyInsideWindow) {
  struct Sink : ExternalEndpoint {
    void OnFrame(EthFrame, Cycle) override { ++received; }
    uint64_t received = 0;
  };
  Simulator sim(250.0);
  ExternalNetwork net(10);
  sim.Register(&net);
  Sink sink;
  const uint32_t src = net.RegisterEndpoint(&sink);
  const uint32_t dst = net.RegisterEndpoint(&sink);

  net.StartLossBurst(/*now=*/0, /*duration=*/1000, /*rate=*/1.0, /*seed=*/7);
  EXPECT_TRUE(net.InLossBurst(0));

  uint64_t sent_in_window = 0;
  uint64_t sent_after = 0;
  for (int i = 0; i < 200; ++i) {
    EthFrame frame;
    frame.src_endpoint = src;
    frame.dst_endpoint = dst;
    frame.payload.assign(64, 0x5A);
    const bool in_window = net.InLossBurst(sim.now());
    net.Send(std::move(frame), sim.now());
    (in_window ? sent_in_window : sent_after) += 1;
    sim.Run(10);
  }
  sim.Run(100);  // Flush frames still in flight.

  ASSERT_GT(sent_in_window, 0u);
  ASSERT_GT(sent_after, 0u);
  // rate=1.0: every frame inside the window dropped, every one after it
  // delivered.
  EXPECT_EQ(net.counters().Get("extnet.dropped_burst"), sent_in_window);
  EXPECT_EQ(sink.received, sent_after);
  EXPECT_FALSE(net.InLossBurst(sim.now()));
}

// ------------------------------------------------------------------
// Supervisor recovery policies.
// ------------------------------------------------------------------

TEST(SupervisorTest, CrashRecoveryReinstallsCapsAndResumesService) {
  FaultBoard fb(/*reconfig_cycles=*/10'000);
  AppId app = fb.os.CreateApp("app");
  ServiceId svc = 0;
  ServiceId peer_svc = 0;
  const TileId st = fb.os.Deploy(app, std::make_unique<EchoAccelerator>(0), &svc);
  fb.os.Deploy(app, std::make_unique<EchoAccelerator>(0), &peer_svc);
  auto* probe = new ProbeAccelerator();
  const TileId ct = fb.os.Deploy(app, std::unique_ptr<Accelerator>(probe));
  const CapRef cap = fb.os.GrantSendToService(ct, svc);
  // The service tile also holds a client capability of its own, which the
  // recovery path must bring back.
  ASSERT_NE(fb.os.GrantSendToService(st, peer_svc), kInvalidCapRef);

  SupervisorConfig scfg;
  scfg.poll_period = 64;
  scfg.backoff_base_cycles = 1000;
  Supervisor sup(&fb.os, scfg);
  sup.Manage(st, [] { return std::make_unique<EchoAccelerator>(0); });

  probe->EnqueueSend(EchoRequest(), cap);
  ASSERT_TRUE(fb.sim.RunUntil([&] { return !probe->received.empty(); }, 10'000));
  probe->received.clear();

  // Crash: the accelerator raises a fault, the tile fail-stops itself, and
  // the supervisor's poll picks it up — no operator call anywhere below.
  fb.os.monitor(st).RaiseFault("injected SEU");
  ASSERT_TRUE(fb.sim.RunUntil(
      [&] { return sup.restarts(st) == 1 && sup.AllHealthy(); }, 100'000));

  EXPECT_EQ(sup.counters().Get("supervisor.faults_detected"), 1u);
  EXPECT_EQ(sup.counters().Get("supervisor.faults_recovered"), 1u);
  EXPECT_EQ(sup.recovery_cycles().count(), 1u);
  EXPECT_EQ(fb.os.monitor(st).fault_state(), TileFaultState::kHealthy);
  EXPECT_NE(fb.os.monitor(st).cap_table().FindEndpointForService(peer_svc),
            kInvalidCapRef);

  // The healed tile serves again through the client's original capability.
  probe->EnqueueSend(EchoRequest(), cap);
  ASSERT_TRUE(fb.sim.RunUntil([&] { return !probe->received.empty(); }, 20'000));
  EXPECT_EQ(probe->received[0].status, MsgStatus::kOk);
}

TEST(SupervisorTest, BacksOffThenQuarantinesCrashLooper) {
  FaultBoard fb(/*reconfig_cycles=*/2000);
  AppId app = fb.os.CreateApp("app");
  const TileId t = fb.os.Deploy(app, std::make_unique<CrashLooper>());

  SupervisorConfig scfg;
  scfg.poll_period = 64;
  scfg.backoff_base_cycles = 1000;
  scfg.quarantine_after = 3;
  scfg.crash_loop_window = 10'000'000;
  Supervisor sup(&fb.os, scfg);
  sup.Manage(t, [] { return std::make_unique<CrashLooper>(); });

  fb.sim.Run(200'000);

  // Initial crash + 3 restarts (each crashing again) exhausts the policy:
  // the 4th fault quarantines instead of reconfiguring forever.
  EXPECT_TRUE(sup.quarantined(t));
  EXPECT_EQ(sup.restarts(t), 3u);
  EXPECT_EQ(sup.counters().Get("supervisor.faults_detected"), 4u);
  EXPECT_EQ(sup.counters().Get("supervisor.quarantines"), 1u);
  // Restart 1 is immediate; restarts 2 and 3 waited out a backoff.
  EXPECT_EQ(sup.counters().Get("supervisor.backoff_delays"), 2u);
  EXPECT_EQ(fb.os.monitor(t).fault_state(), TileFaultState::kStopped);
  EXPECT_FALSE(sup.AllHealthy());
}

TEST(SupervisorTest, HotStandbyFailoverRepointsServiceAndRearms) {
  FaultBoard fb(/*reconfig_cycles=*/10'000);
  AppId app = fb.os.CreateApp("app");
  ServiceId svc = 0;
  ServiceId spare_svc = 0;
  auto* primary = new EchoAccelerator(0);
  const TileId pt = fb.os.Deploy(app, std::unique_ptr<Accelerator>(primary), &svc);
  auto* standby = new EchoAccelerator(0);
  const TileId st = fb.os.Deploy(app, std::unique_ptr<Accelerator>(standby), &spare_svc);
  auto* probe = new ProbeAccelerator();
  const TileId ct = fb.os.Deploy(app, std::unique_ptr<Accelerator>(probe));
  const CapRef cap = fb.os.GrantSendToService(ct, svc);

  SupervisorConfig scfg;
  scfg.poll_period = 64;
  Supervisor sup(&fb.os, scfg);
  sup.Manage(pt, [] { return std::make_unique<EchoAccelerator>(0); });
  sup.Manage(st, [] { return std::make_unique<EchoAccelerator>(0); });
  sup.SetStandby(svc, st);

  probe->EnqueueSend(EchoRequest(), cap);
  ASSERT_TRUE(fb.sim.RunUntil([&] { return !probe->received.empty(); }, 10'000));
  EXPECT_EQ(primary->served(), 1u);
  probe->received.clear();

  // Primary dies; the supervisor repoints the logical name at the spare and
  // re-grants every client, so service resumes without waiting out the
  // reconfiguration.
  fb.os.monitor(pt).RaiseFault("injected SEU");
  ASSERT_TRUE(fb.sim.RunUntil(
      [&] { return sup.counters().Get("supervisor.failovers") == 1; }, 10'000));
  EXPECT_EQ(fb.os.LookupServiceTile(svc), st);

  const CapRef fresh = fb.os.monitor(ct).cap_table().FindEndpointForService(svc);
  ASSERT_NE(fresh, kInvalidCapRef);
  probe->EnqueueSend(EchoRequest(), fresh);
  ASSERT_TRUE(fb.sim.RunUntil([&] { return !probe->received.empty(); }, 10'000));
  EXPECT_EQ(probe->received[0].status, MsgStatus::kOk);
  EXPECT_EQ(probe->received[0].src_service, svc);
  EXPECT_EQ(standby->served(), 1u);
  probe->received.clear();

  // The recovered primary re-arms as the service's next spare: a second
  // crash fails over again instead of taking the cold path.
  ASSERT_TRUE(fb.sim.RunUntil([&] { return sup.AllHealthy(); }, 100'000));
  fb.os.monitor(st).RaiseFault("injected SEU");
  ASSERT_TRUE(fb.sim.RunUntil(
      [&] { return sup.counters().Get("supervisor.failovers") == 2; }, 10'000));
  EXPECT_EQ(fb.os.LookupServiceTile(svc), pt);

  const CapRef fresh2 = fb.os.monitor(ct).cap_table().FindEndpointForService(svc);
  ASSERT_NE(fresh2, kInvalidCapRef);
  probe->EnqueueSend(EchoRequest(), fresh2);
  ASSERT_TRUE(fb.sim.RunUntil([&] { return !probe->received.empty(); }, 10'000));
  EXPECT_EQ(probe->received[0].status, MsgStatus::kOk);
}

TEST(SupervisorTest, StandbyMidReconfigurationIsNeverAFailoverTarget) {
  FaultBoard fb(/*reconfig_cycles=*/20'000);
  AppId app = fb.os.CreateApp("app");
  ServiceId svc = 0;
  ServiceId spare_svc = 0;
  const TileId pt = fb.os.Deploy(app, std::make_unique<EchoAccelerator>(0), &svc);
  const TileId st = fb.os.Deploy(app, std::make_unique<EchoAccelerator>(0), &spare_svc);
  auto* probe = new ProbeAccelerator();
  const TileId ct = fb.os.Deploy(app, std::unique_ptr<Accelerator>(probe));
  const CapRef cap = fb.os.GrantSendToService(ct, svc);

  SupervisorConfig scfg;
  scfg.poll_period = 64;
  scfg.backoff_base_cycles = 1000;
  Supervisor sup(&fb.os, scfg);
  sup.Manage(pt, [] { return std::make_unique<EchoAccelerator>(0); });
  sup.Manage(st, [] { return std::make_unique<EchoAccelerator>(0); });
  sup.SetStandby(svc, st);
  fb.sim.Run(10);  // Let both tiles boot.

  // The standby crashes first and enters its (long) recovery
  // reconfiguration...
  fb.os.monitor(st).RaiseFault("standby SEU");
  ASSERT_TRUE(fb.sim.RunUntil(
      [&] { return sup.tile_state(st) == Supervisor::TileState::kReconfiguring; },
      100'000));

  // ...and while its bitstream is mid-load, the primary dies too. Failing
  // over onto a half-configured region would strand the service; the
  // supervisor must take the cold path instead.
  fb.os.monitor(pt).RaiseFault("primary SEU");
  ASSERT_TRUE(fb.sim.RunUntil(
      [&] { return sup.counters().Get("supervisor.standby_unavailable") == 1; },
      100'000));
  EXPECT_EQ(sup.counters().Get("supervisor.failovers"), 0u);
  EXPECT_EQ(fb.os.LookupServiceTile(svc), pt);

  // Both tiles heal through reconfiguration and the service answers again
  // from its original region, through the client's original capability.
  ASSERT_TRUE(fb.sim.RunUntil([&] { return sup.AllHealthy(); }, 500'000));
  EXPECT_EQ(fb.os.LookupServiceTile(svc), pt);
  probe->EnqueueSend(EchoRequest(), cap);
  ASSERT_TRUE(fb.sim.RunUntil([&] { return !probe->received.empty(); }, 50'000));
  EXPECT_EQ(probe->received[0].status, MsgStatus::kOk);
}

TEST(SupervisorTest, WatchdogWedgeDetectionFeedsRecovery) {
  FaultBoard fb(/*reconfig_cycles=*/5000);
  auto* mgmt = new MgmtService(&fb.os);
  fb.os.DeployService(kMgmtService, std::unique_ptr<Accelerator>(mgmt));
  AppId app = fb.os.CreateApp("app");
  // Heartbeats every 100 cycles; the accelerator sets its own 4x watch
  // deadline when it boots.
  const TileId wt = fb.os.Deploy(
      app, std::make_unique<WedgeAccelerator>(~0ull, kInvalidCapRef, 100));
  (void)fb.os.GrantSendToService(wt, kMgmtService);

  SupervisorConfig scfg;
  scfg.poll_period = 64;
  Supervisor sup(&fb.os, scfg);
  sup.Manage(wt, [] {
    return std::make_unique<WedgeAccelerator>(~0ull, kInvalidCapRef, 100);
  });
  mgmt->SetSupervisor(&sup);

  fb.sim.Run(2000);  // Boot, register with the watchdog, heartbeat a while.
  ASSERT_EQ(fb.os.monitor(wt).fault_state(), TileFaultState::kHealthy);

  // An SEU silently wedges the logic: the tile looks alive but goes quiet.
  // Only the watchdog can see this, and it must route through the
  // supervisor so containment comes with a recovery attached.
  fb.os.tile(wt).InjectSeuWedge();
  ASSERT_TRUE(fb.sim.RunUntil(
      [&] { return sup.restarts(wt) == 1 && sup.AllHealthy(); }, 100'000));

  EXPECT_FALSE(fb.os.tile(wt).seu_wedged());  // Reconfiguration cleared it.
  EXPECT_EQ(fb.os.monitor(wt).fault_state(), TileFaultState::kHealthy);
  EXPECT_EQ(sup.counters().Get("supervisor.faults_recovered"), 1u);

  // The rebooted accelerator re-registered with the watchdog (its mgmt
  // capability came back via the grant log), so a second wedge is caught too.
  fb.sim.Run(2000);
  fb.os.tile(wt).InjectSeuWedge();
  ASSERT_TRUE(fb.sim.RunUntil(
      [&] { return sup.restarts(wt) == 2 && sup.AllHealthy(); }, 200'000));
}

// ------------------------------------------------------------------
// FaultPlan mechanics.
// ------------------------------------------------------------------

TEST(FaultPlanTest, SortIsStableByFireCycle) {
  FaultPlan plan;
  plan.AccelCrash(500, 3).LinkDrop(100, 50, 1.0).DramBitFlips(100, 2);
  plan.Sort();
  ASSERT_EQ(plan.events.size(), 3u);
  EXPECT_EQ(plan.events[0].kind, FaultKind::kLinkDrop);
  EXPECT_EQ(plan.events[1].kind, FaultKind::kDramBitFlip);
  EXPECT_EQ(plan.events[2].kind, FaultKind::kAccelCrash);
}

TEST(FaultPlanTest, EventsWithoutHooksAreSkippedNotFatal) {
  TestBoard tb;
  FaultPlan plan;
  plan.DramBitFlips(10, 1).EthLossBurst(20, 100, 0.5);
  // No memory / network hooks: the injector must count, not crash.
  FaultInjector injector(plan, FaultHooks{.os = &tb.os, .mesh = &tb.board.mesh()});
  tb.sim.Run(200);
  EXPECT_EQ(injector.counters().Get("fault.skipped_no_hook"), 2u);
  EXPECT_TRUE(injector.Exhausted(tb.sim.now()));
}

TEST(FaultPlanTest, WindowCloseBoundsTheSkipThenDeclaresNothing) {
  FaultPlan plan;
  plan.LinkDrop(1'000, 100, 1.0);
  FaultInjector injector(plan, FaultHooks{});
  EXPECT_EQ(injector.NextActivity(0), 1'000u);
  injector.Tick(1'000);  // Opens the window [1000, 1100).
  EXPECT_EQ(injector.NextActivity(1'001), 1'100u);
  // Closed but not yet erased (no tick since): inert, so nothing is due.
  EXPECT_EQ(injector.NextActivity(1'100), kNoActivity);
  EXPECT_TRUE(injector.Exhausted(1'100));
}

}  // namespace
}  // namespace apiary
