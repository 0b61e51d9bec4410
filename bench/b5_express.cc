// B5: express corridors — wall throughput vs offered load, with a saturated
// guardrail.
//
// The corridor fast path (src/noc/express.*) makes interconnect simulation
// cost proportional to *contention* instead of hops x cycles: when a
// packet's whole XY route is verifiably non-interfering, the mesh installs a
// corridor and delivers the flits analytically, never ticking the
// intermediate routers. This harness measures that, in two legs:
//
//   * Corridor sweep: an 8x8 board with four echo pairs on rows 1/3/5/7
//     (client at x=0, service at x=7 — 7-hop corridors, zones two rows
//     apart so all four can be in flight at once; row 0 holds the standard
//     OS services), 300-byte payloads
//     (11 flits per packet). The request period sweeps light -> mid load;
//     each point runs express on vs off (`--no-express` baseline) on the
//     identical seeded scenario and cross-checks end cycle, request and
//     response counts, and total flits routed. The acceptance bar is
//     >= 1.5x wall throughput at the light and mid points.
//   * Saturated guardrail: the B2/B4 shape — closed-loop windowed clients
//     on a 4x4 board whose inject queues are never a single lone packet, so
//     corridors cannot launch and express degenerates to its per-injection
//     planning probe plus the per-cycle AnyActive check. Express cannot win
//     here and must not lose: the bar is >= 0.97x of the no-express run.
//
// Any cross-check divergence fails the run (exit 1): the fast path must be
// invisible to the simulation (the byte-level proof lives in
// tests/express_differential_test.cc; this harness re-checks the cheap
// aggregate counts so a perf run cannot silently report garbage).
//
// `--smoke` shrinks the run for CI; `--no-express` restricts to the
// escape-hatch configuration; `--json <path>` emits machine-readable
// results including express_hits / materializations / mean_corridor_hops.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/accel/echo.h"
#include "src/core/kernel.h"
#include "src/core/message.h"
#include "src/noc/express.h"
#include "src/stats/table.h"

using namespace apiary;

namespace {

constexpr uint32_t kPayloadBytes = 300;  // 11 flits: a realistic DMA chunk.

// Sends one echo request every `period` cycles (no overlap at the sweep's
// periods: round trip ~45 cycles). Parks between sends so idle valleys are
// skipped identically in both modes — the measurand is the cost of the
// cycles where packets are actually in flight.
class PacedClient : public Accelerator {
 public:
  PacedClient(ServiceId svc, Cycle period) : svc_(svc), period_(period) {}

  void Tick(TileApi& api) override {
    if (api.now() < next_) {
      return;
    }
    Message msg;
    msg.opcode = kOpEcho;
    msg.payload.assign(kPayloadBytes, static_cast<uint8_t>(sent_));
    msg.request_id = ++next_id_;
    if (api.Send(std::move(msg), api.LookupService(svc_)).ok()) {
      ++sent_;
    }
    next_ = api.now() + period_;
  }
  void OnMessage(const Message& msg, TileApi&) override {
    if (msg.kind == MsgKind::kResponse) {
      ++received_;
    }
  }
  [[nodiscard]] Cycle NextActivity(Cycle now) const override {
    return next_ > now ? next_ : now;
  }
  std::string name() const override { return "paced_client"; }
  uint32_t LogicCellCost() const override { return 1000; }

  uint64_t sent() const { return sent_; }
  uint64_t received() const { return received_; }

 private:
  ServiceId svc_;
  Cycle period_;
  Cycle next_ = 1'000;  // First send after boot settles.
  uint64_t next_id_ = 0;
  uint64_t sent_ = 0;
  uint64_t received_ = 0;
};

// Closed-loop driver with a fixed outstanding window (the saturated shape):
// the inject queue always holds more than one packet, so no corridor ever
// qualifies and express pays only its probe overhead.
class WindowedClient : public Accelerator {
 public:
  explicit WindowedClient(ServiceId svc) : svc_(svc) {}

  void Tick(TileApi& api) override {
    while (in_flight_ < 16) {
      Message msg;
      msg.opcode = kOpEcho;
      msg.payload.assign(48, static_cast<uint8_t>(in_flight_));
      msg.request_id = ++next_id_;
      if (!api.Send(std::move(msg), api.LookupService(svc_)).ok()) {
        break;
      }
      ++in_flight_;
      ++sent_;
    }
  }
  void OnMessage(const Message& msg, TileApi&) override {
    if (msg.kind == MsgKind::kResponse) {
      --in_flight_;
      ++received_;
    }
  }
  std::string name() const override { return "windowed_client"; }
  uint32_t LogicCellCost() const override { return 1000; }

  uint64_t sent() const { return sent_; }
  uint64_t received() const { return received_; }

 private:
  ServiceId svc_;
  uint32_t in_flight_ = 0;
  uint64_t next_id_ = 0;
  uint64_t sent_ = 0;
  uint64_t received_ = 0;
};

struct RunResult {
  double wall_seconds = 0;
  double mcycles_per_sec = 0;
  Cycle end_cycle = 0;
  uint64_t skipped_cycles = 0;
  uint64_t sent = 0;
  uint64_t received = 0;
  uint64_t flits = 0;
  uint64_t heap_calls = 0;  // Global operator new calls during the run.
  ExpressStats express;

  double MeanCorridorHops() const {
    return express.delivered > 0
               ? static_cast<double>(express.hops_sum) /
                     static_cast<double>(express.delivered)
               : 0;
  }
};

// Corridor sweep leg: four row-aligned echo pairs on an 8x8 board.
RunResult RunSweepPoint(Cycle period, bool express, Cycle run_cycles) {
  BenchBoardOptions options;
  options.width = 8;
  options.height = 8;
  options.tile_region_cells = 25'000;  // 64 tiles of 100k would not fit VU9P.
  BenchBoard bb(options);
  bb.board.mesh().SetExpressEnabled(express);
  ApiaryOs& os = bb.os;
  const AppId app = os.CreateApp("b5");

  auto pin = [](TileId tile) {
    DeployOptions o;
    o.tile = tile;
    return o;
  };

  // Odd rows: tiles 0-1 hold the standard OS services, so row 0 is taken.
  std::vector<PacedClient*> clients;
  for (const uint32_t row : {1u, 3u, 5u, 7u}) {
    ServiceId svc = 0;
    const TileId st = os.Deploy(app, std::make_unique<EchoAccelerator>(/*service_cycles=*/4),
                                &svc, pin(row * 8 + 7));
    auto client = std::make_unique<PacedClient>(svc, period);
    clients.push_back(client.get());
    const TileId ct = os.Deploy(app, std::move(client), nullptr, pin(row * 8));
    if (st == kInvalidTile || ct == kInvalidTile) {
      std::fprintf(stderr, "B5 FAIL: deploy refused on row %u (svc tile %u, client tile %u)\n",
                   row, st, ct);
      std::exit(2);
    }
    (void)os.GrantSendToService(ct, svc);
  }

  const uint64_t heap0 = HeapAllocCalls();
  const auto t0 = std::chrono::steady_clock::now();  // NOLINT(apiary-determinism): host wall time is the measurand, never fed back into sim state
  bb.sim.Run(run_cycles);
  const auto t1 = std::chrono::steady_clock::now();  // NOLINT(apiary-determinism): host wall time is the measurand, never fed back into sim state

  RunResult r;
  r.heap_calls = HeapAllocCalls() - heap0;
  r.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  r.mcycles_per_sec =
      r.wall_seconds > 0 ? static_cast<double>(run_cycles) / r.wall_seconds / 1e6 : 0;
  r.end_cycle = bb.sim.now();
  r.skipped_cycles = bb.sim.skipped_cycles();
  for (const PacedClient* c : clients) {
    r.sent += c->sent();
    r.received += c->received();
  }
  r.flits = bb.board.mesh().TotalFlitsRouted();
  r.express = bb.board.mesh().AggregateExpressStats();
  return r;
}

// Saturated guardrail leg: closed-loop pairs on the default 4x4 board.
RunResult RunSaturated(bool express, Cycle run_cycles) {
  BenchBoard bb;
  bb.board.mesh().SetExpressEnabled(express);
  ApiaryOs& os = bb.os;
  const AppId app = os.CreateApp("b5sat");

  std::vector<WindowedClient*> clients;
  for (uint32_t i = 0; i < 4; ++i) {
    ServiceId svc = 0;
    const TileId st = os.Deploy(app, std::make_unique<EchoAccelerator>(/*service_cycles=*/0), &svc);
    auto client = std::make_unique<WindowedClient>(svc);
    clients.push_back(client.get());
    const TileId ct = os.Deploy(app, std::move(client));
    if (st == kInvalidTile || ct == kInvalidTile) {
      std::fprintf(stderr, "B5 FAIL: saturated deploy refused (pair %u)\n", i);
      std::exit(2);
    }
    (void)os.GrantSendToService(ct, svc);
  }

  const uint64_t heap0 = HeapAllocCalls();
  const auto t0 = std::chrono::steady_clock::now();  // NOLINT(apiary-determinism): host wall time is the measurand, never fed back into sim state
  bb.sim.Run(run_cycles);
  const auto t1 = std::chrono::steady_clock::now();  // NOLINT(apiary-determinism): host wall time is the measurand, never fed back into sim state

  RunResult r;
  r.heap_calls = HeapAllocCalls() - heap0;
  r.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  r.mcycles_per_sec =
      r.wall_seconds > 0 ? static_cast<double>(run_cycles) / r.wall_seconds / 1e6 : 0;
  r.end_cycle = bb.sim.now();
  for (const WindowedClient* c : clients) {
    r.sent += c->sent();
    r.received += c->received();
  }
  r.flits = bb.board.mesh().TotalFlitsRouted();
  r.express = bb.board.mesh().AggregateExpressStats();
  return r;
}

bool CrossCheck(const char* label, const RunResult& on, const RunResult& off) {
  if (on.end_cycle == off.end_cycle && on.sent == off.sent &&
      on.received == off.received && on.flits == off.flits) {
    return true;
  }
  std::fprintf(stderr,
               "B5 FAIL: %s diverged (end %llu vs %llu, sent %llu vs %llu, recv "
               "%llu vs %llu, flits %llu vs %llu)\n",
               label, static_cast<unsigned long long>(on.end_cycle),
               static_cast<unsigned long long>(off.end_cycle),
               static_cast<unsigned long long>(on.sent),
               static_cast<unsigned long long>(off.sent),
               static_cast<unsigned long long>(on.received),
               static_cast<unsigned long long>(off.received),
               static_cast<unsigned long long>(on.flits),
               static_cast<unsigned long long>(off.flits));
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = HasFlag(argc, argv, "--smoke");
  const bool baseline_only = HasFlag(argc, argv, "--no-express");
  const Cycle sweep_cycles = smoke ? 400'000 : 4'000'000;
  const Cycle sat_cycles = smoke ? 200'000 : 2'000'000;

  std::printf("B5: express corridors vs cycle-accurate routing, by offered load\n");
  std::printf("(8x8 board, four 7-hop echo pairs, %u-byte payloads, %llu cycles "
              "per sweep point)\n\n",
              kPayloadBytes, static_cast<unsigned long long>(sweep_cycles));

  BenchJson json("b5_express");
  json.Param("payload_bytes", static_cast<uint64_t>(kPayloadBytes));
  json.Param("sweep_cycles", static_cast<uint64_t>(sweep_cycles));
  json.Param("sat_cycles", static_cast<uint64_t>(sat_cycles));
  json.Param("smoke", smoke ? 1 : 0);

  Table table("B5: simulated Mcycles per wall-second vs request period");
  table.SetHeader({"load", "period", "no-express Mcyc/s", "express Mcyc/s",
                   "speedup", "express hits", "mean hops"});

  struct Point {
    const char* label;
    Cycle period;
  };
  bool consistent = true;
  for (const Point p : {Point{"light", 600}, Point{"mid", 150}}) {
    const RunResult off = RunSweepPoint(p.period, /*express=*/false, sweep_cycles);
    if (baseline_only) {
      table.AddRow({p.label, Table::Int(p.period), Table::Num(off.mcycles_per_sec, 1),
                    "-", "-", "-", "-"});
      json.BeginRow();
      json.Metric("scenario", p.label);
      json.Metric("period", static_cast<uint64_t>(p.period));
      json.Metric("noexpress_mcycles_per_sec", off.mcycles_per_sec);
      continue;
    }
    const RunResult on = RunSweepPoint(p.period, /*express=*/true, sweep_cycles);
    consistent = CrossCheck(p.label, on, off) && consistent;
    const double speedup =
        off.mcycles_per_sec > 0 ? on.mcycles_per_sec / off.mcycles_per_sec : 0;
    table.AddRow({p.label, Table::Int(p.period), Table::Num(off.mcycles_per_sec, 1),
                  Table::Num(on.mcycles_per_sec, 1), Table::Num(speedup, 2),
                  Table::Int(on.express.delivered),
                  Table::Num(on.MeanCorridorHops(), 1)});
    json.BeginRow();
    json.Metric("scenario", p.label);
    json.Metric("period", static_cast<uint64_t>(p.period));
    json.Metric("noexpress_mcycles_per_sec", off.mcycles_per_sec);
    json.Metric("express_mcycles_per_sec", on.mcycles_per_sec);
    json.Metric("speedup", speedup);
    json.Metric("express_hits", on.express.delivered);
    json.Metric("express_launches", on.express.launches);
    json.Metric("materializations", on.express.materializations);
    json.Metric("mean_corridor_hops", on.MeanCorridorHops());
    json.Metric("express_flits", on.express.flits_delivered);
    json.Metric("responses", on.received);
    json.Metric("allocs_per_msg", PerMessage(on.heap_calls, on.received));
  }
  table.Print();

  // Saturated guardrail: queues never hold a lone packet, corridors never
  // launch, and express must cost nothing (target >= 0.97x).
  const RunResult soff = RunSaturated(/*express=*/false, sat_cycles);
  if (!baseline_only) {
    const RunResult son = RunSaturated(/*express=*/true, sat_cycles);
    consistent = CrossCheck("saturated", son, soff) && consistent;
    const double ratio =
        soff.mcycles_per_sec > 0 ? son.mcycles_per_sec / soff.mcycles_per_sec : 0;
    Table sat_table("B5: saturated guardrail (target >= 0.97x)");
    sat_table.SetHeader({"config", "no-express Mcyc/s", "express Mcyc/s", "ratio",
                         "express hits"});
    sat_table.AddRow({"saturated", Table::Num(soff.mcycles_per_sec, 1),
                      Table::Num(son.mcycles_per_sec, 1), Table::Num(ratio, 2),
                      Table::Int(son.express.delivered)});
    sat_table.Print();
    json.BeginRow();
    json.Metric("scenario", "saturated");
    json.Metric("noexpress_mcycles_per_sec", soff.mcycles_per_sec);
    json.Metric("express_mcycles_per_sec", son.mcycles_per_sec);
    json.Metric("speedup", ratio);
    json.Metric("express_hits", son.express.delivered);
    json.Metric("express_launches", son.express.launches);
    json.Metric("materializations", son.express.materializations);
    json.Metric("mean_corridor_hops", son.MeanCorridorHops());
    json.Metric("allocs_per_msg", PerMessage(son.heap_calls, son.received));
  }

  const std::string json_path = JsonPathArg(argc, argv);
  if (!json_path.empty() && !json.WriteFile(json_path)) {
    return 1;
  }
  return consistent ? 0 : 1;
}
