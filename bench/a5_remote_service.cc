// Ablation A5: local vs remote service invocation — the cost of placing a
// service off-board.
//
// Section 6, open question 3: "Ideally, we could take advantage of the
// network capabilities of Apiary and place the service on any remote CPU,
// maintaining the ability to use an FPGA independent of its on-node CPU."
// This bench quantifies the trade: the same echo service invoked (a) on the
// caller's own board, (b) on a peer board through the remote bridge, and
// (c) on a host CPU behind PCIe (the thing Apiary is trying not to need).
#include <cstdio>

#include "bench/bench_util.h"
#include "src/accel/echo.h"
#include "src/accel/probe.h"
#include "src/fpga/pcie.h"
#include "src/services/remote_bridge.h"
#include "src/stats/table.h"

using namespace apiary;

namespace {

constexpr int kCalls = 200;
constexpr Cycle kServiceCycles = 20;

double RunLocal() {
  BenchBoard bb(BenchBoardOptions{}, /*deploy_services=*/false);
  ApiaryOs& os = bb.os;
  AppId app = os.CreateApp("u");
  ServiceId svc = 0;
  os.Deploy(app, std::make_unique<EchoAccelerator>(kServiceCycles), &svc);
  auto* probe = new ProbeAccelerator();
  const TileId pt = os.Deploy(app, std::unique_ptr<Accelerator>(probe));
  const CapRef cap = os.GrantSendToService(pt, svc);
  bb.sim.Run(3);
  uint64_t total = 0;
  for (int i = 0; i < kCalls; ++i) {
    Message msg;
    msg.opcode = kOpEcho;
    msg.payload.assign(64, 1);
    const size_t want = probe->received.size() + 1;
    const Cycle start = bb.sim.now();
    probe->EnqueueSend(msg, cap);
    bb.sim.RunUntil([&] { return probe->received.size() >= want; }, 100000);
    total += bb.sim.now() - start;
  }
  return static_cast<double>(total) / kCalls;
}

double RunRemote() {
  Simulator sim(250.0);
  ExternalNetwork net(50);  // ~200ns switch hop each way.
  BoardConfig cfg = BenchBoard::MakeConfig(BenchBoardOptions{});
  Board board_a(cfg, sim, &net);
  Board board_b(cfg, sim, &net);
  ApiaryOs os_a(board_a);
  ApiaryOs os_b(board_b);
  // Registered after the boards (tiles first, fabric last) so frame arrival
  // is visible to service tiles on the next cycle — the same order TestBoard
  // and BenchBoard use. The MAC's RX wake resumes a parked network-service
  // tile on exactly that cycle.
  sim.Register(&net);
  for (ApiaryOs* os : {&os_a, &os_b}) {
    Board& b = os == &os_a ? board_a : board_b;
    os->DeployService(kNetworkService,
                      std::make_unique<NetworkService>(
                          os, std::make_unique<Mac100GAdapter>(b.mac100g())));
  }
  auto* bridge_a = new RemoteBridge();
  auto* bridge_b = new RemoteBridge();
  ServiceId bsvc_a = 0;
  ServiceId bsvc_b = 0;
  const TileId bt_a =
      os_a.Deploy(os_a.CreateApp("br"), std::unique_ptr<Accelerator>(bridge_a), &bsvc_a);
  const TileId bt_b =
      os_b.Deploy(os_b.CreateApp("br"), std::unique_ptr<Accelerator>(bridge_b), &bsvc_b);
  (void)os_a.GrantSendToService(bt_a, kNetworkService);
  (void)os_b.GrantSendToService(bt_b, kNetworkService);
  ServiceId echo_svc = 0;
  os_b.Deploy(os_b.CreateApp("svc"), std::make_unique<EchoAccelerator>(kServiceCycles),
              &echo_svc);
  bridge_b->ExposeService(echo_svc, os_b.GrantSendToService(bt_b, echo_svc));
  auto* probe = new ProbeAccelerator();
  const TileId pt = os_a.Deploy(os_a.CreateApp("u"), std::unique_ptr<Accelerator>(probe));
  const CapRef cap = os_a.GrantSendToService(pt, bsvc_a);
  sim.Run(3000);  // MAC bring-up.

  uint64_t total = 0;
  for (int i = 0; i < kCalls; ++i) {
    Message call;
    call.opcode = kOpRemoteCall;
    PutU32(call.payload, board_b.mac100g()->address());
    PutU32(call.payload, bsvc_b);
    PutU32(call.payload, echo_svc);
    call.payload.push_back(static_cast<uint8_t>(kOpEcho));
    call.payload.push_back(static_cast<uint8_t>(kOpEcho >> 8));
    call.payload.insert(call.payload.end(), 64, 1);
    const size_t want = probe->received.size() + 1;
    const Cycle start = sim.now();
    probe->EnqueueSend(call, cap);
    sim.RunUntil([&] { return probe->received.size() >= want; }, 500000);
    total += sim.now() - start;
  }
  return static_cast<double>(total) / kCalls;
}

double RunHostCpu() {
  // Service on the local host CPU behind PCIe: request out, software
  // service time, response back.
  Simulator sim(250.0);
  PcieEndpoint up{PcieConfig{}};
  PcieEndpoint down{PcieConfig{}};
  sim.Register(&up);
  sim.Register(&down);
  constexpr Cycle kHostService = 500;  // Syscall + handler (~2us).
  uint64_t total = 0;
  for (int i = 0; i < kCalls; ++i) {
    bool done = false;
    const Cycle start = sim.now();
    up.Submit(64 + 53, [&](Cycle) {
      sim.ScheduleAfter(kHostService, [&](Cycle) {
        down.Submit(64 + 53, [&](Cycle) { done = true; });
      });
    });
    sim.RunUntil([&] { return done; }, 1'000'000);
    total += sim.now() - start;
  }
  return static_cast<double>(total) / kCalls;
}

}  // namespace

int main() {
  std::printf("A5: where should a service live? 64B echo, %d calls each\n", kCalls);

  const double local = RunLocal();
  const double remote = RunRemote();
  const double host = RunHostCpu();
  Table table("A5: service placement round-trip (cycles, 4ns each)");
  table.SetHeader({"placement", "RTT (cycles)", "RTT (us)", "vs local"});
  table.AddRow({"same board (NoC)", Table::Num(local, 0), Table::Num(local * 4 / 1000, 2),
                "1.0x"});
  table.AddRow({"peer board (bridge+MAC)", Table::Num(remote, 0),
                Table::Num(remote * 4 / 1000, 2), Table::Num(remote / local, 1) + "x"});
  table.AddRow({"local host CPU (PCIe)", Table::Num(host, 0),
                Table::Num(host * 4 / 1000, 2), Table::Num(host / local, 1) + "x"});
  table.Print();
  std::printf(
      "\nexpected shape: on-board calls are tens of cycles; the remote-board path\n"
      "adds two MAC serializations and fabric hops (~order 10us) but needs no CPU\n"
      "anywhere; the host-CPU path is comparable or worse than the remote board —\n"
      "supporting the paper's position that rarely-used services can live on a\n"
      "*remote* machine rather than forcing every FPGA to keep a host (Section 6).\n");
  return 0;
}
