// B1: simulator throughput with quiescence-aware cycle skipping.
//
// The event-driven core (src/sim) may fast-forward over windows where every
// registered block declares itself quiescent (Clocked::NextActivity). This
// harness measures simulated-cycles-per-wall-second across three load
// shapes, with skipping on and off, on the same seeded scenarios:
//   * idle-board: a fully deployed board with no traffic at all — the best
//     case (one jump to the horizon) and the shape that dominates long
//     fault/recovery and autoscaling runs;
//   * light-load: a pulse client fires a burst of echo requests every 10k
//     cycles — long idle valleys separated by short active windows;
//   * saturated: a closed-loop client keeps the echo engine permanently
//     busy — no skippable window, so the overhead of the NextActivity poll
//     itself is what shows up.
// Skipping must not change simulation results: each scenario cross-checks
// request/response counts and final cycle between the two runs and fails
// loudly on any mismatch (the byte-level differential lives in
// tests/skip_differential_test.cc).
//
// Wall-clock timing lives here in bench/ (never in src/, which stays free of
// host-time calls for the determinism lint). `--smoke` shrinks the run for
// CI; `--no-skip` restricts to the escape-hatch configuration; `--no-express`
// disables the mesh's express-corridor fast path (on by default, applied
// identically to both runs of each comparison so the skip-vs-no-skip numbers
// stay apples-to-apples); `--json <path>` emits machine-readable results,
// including corridor hit/materialization/length counters.
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "bench/bench_util.h"
#include "src/accel/echo.h"
#include "src/core/kernel.h"
#include "src/noc/express.h"
#include "src/sim/parallel/parallel_simulator.h"
#include "src/stats/table.h"

using namespace apiary;

namespace {

constexpr Cycle kEchoServiceCycles = 200;
constexpr uint32_t kPayloadBytes = 64;

// Fires `burst` echo requests every `period` cycles, then sleeps until the
// next pulse. The NextActivity override is what lets the whole board go
// quiescent between pulses; responses re-arm nothing because the client only
// counts them.
class PulseClient : public Accelerator {
 public:
  PulseClient(ServiceId svc, Cycle period, uint32_t burst)
      : svc_(svc), period_(period), burst_(burst) {}

  void Tick(TileApi& api) override {
    if (api.now() < next_burst_at_) {
      return;
    }
    for (uint32_t i = 0; i < burst_; ++i) {
      Message msg;
      msg.opcode = kOpEcho;
      msg.payload.assign(kPayloadBytes, static_cast<uint8_t>(i));
      msg.request_id = ++next_id_;
      if (api.Send(std::move(msg), api.LookupService(svc_)).ok()) {
        ++sent_;
      }
    }
    next_burst_at_ += period_;
  }
  void OnMessage(const Message& msg, TileApi& api) override {
    (void)api;
    if (msg.kind == MsgKind::kResponse) {
      ++received_;
    }
  }
  [[nodiscard]] Cycle NextActivity(Cycle now) const override {
    return next_burst_at_ > now ? next_burst_at_ : now;
  }
  std::string name() const override { return "pulse_client"; }
  uint32_t LogicCellCost() const override { return 1000; }

  uint64_t sent() const { return sent_; }
  uint64_t received() const { return received_; }

 private:
  ServiceId svc_;
  Cycle period_;
  uint32_t burst_;
  Cycle next_burst_at_ = 1000;  // First pulse after boot settles.
  uint64_t next_id_ = 0;
  uint64_t sent_ = 0;
  uint64_t received_ = 0;
};

// Closed-loop driver with a fixed outstanding window; inherits the default
// always-active NextActivity, so it pins the clock — the saturated shape.
class WindowedClient : public Accelerator {
 public:
  WindowedClient(ServiceId svc, uint32_t window) : svc_(svc), window_(window) {}

  void Tick(TileApi& api) override {
    while (in_flight_ < window_) {
      Message msg;
      msg.opcode = kOpEcho;
      msg.payload.assign(kPayloadBytes, static_cast<uint8_t>(in_flight_));
      msg.request_id = ++next_id_;
      if (!api.Send(std::move(msg), api.LookupService(svc_)).ok()) {
        break;
      }
      ++in_flight_;
      ++sent_;
    }
  }
  void OnMessage(const Message& msg, TileApi& api) override {
    (void)api;
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
  uint32_t window_;
  uint32_t in_flight_ = 0;
  uint64_t next_id_ = 0;
  uint64_t sent_ = 0;
  uint64_t received_ = 0;
};

enum class Scenario { kIdle, kLight, kSaturated };

struct RunResult {
  double wall_seconds = 0;
  Cycle end_cycle = 0;
  uint64_t skipped_cycles = 0;
  uint64_t skips = 0;
  uint64_t ticked_blocks = 0;
  uint64_t executed_cycles = 0;
  uint64_t wheel_wakes = 0;
  uint64_t wake_calls = 0;
  uint64_t block_count = 0;
  uint64_t sent = 0;
  uint64_t received = 0;
  uint64_t heap_calls = 0;  // Global operator new calls during the run.
  double mcycles_per_sec = 0;
  ExpressStats express;

  double MeanCorridorHops() const {
    return express.delivered > 0
               ? static_cast<double>(express.hops_sum) /
                     static_cast<double>(express.delivered)
               : 0;
  }

  // Fraction of block-ticks the active-set scheduler actually issued out of
  // the block-ticks a tick-everything loop would have issued over the same
  // executed cycles.
  double ActiveFraction() const {
    const double denom =
        static_cast<double>(executed_cycles) * static_cast<double>(block_count);
    return denom > 0 ? static_cast<double>(ticked_blocks) / denom : 0;
  }
};

RunResult RunOne(Scenario scenario, bool skip_enabled, bool express,
                 Cycle run_cycles, uint32_t threads) {
  BenchBoard bb;
  bb.sim.SetSkipEnabled(skip_enabled);
  bb.board.mesh().SetExpressEnabled(express);
  ApiaryOs& os = bb.os;
  const AppId app = os.CreateApp("b1");

  PulseClient* pulse = nullptr;
  WindowedClient* windowed = nullptr;
  if (scenario != Scenario::kIdle) {
    ServiceId echo_svc = 0;
    os.Deploy(app, std::make_unique<EchoAccelerator>(kEchoServiceCycles), &echo_svc);
    if (scenario == Scenario::kLight) {
      auto client = std::make_unique<PulseClient>(echo_svc, /*period=*/10'000,
                                                  /*burst=*/4);
      pulse = client.get();
      const TileId ct = os.Deploy(app, std::move(client));
      (void)os.GrantSendToService(ct, echo_svc);
    } else {
      auto client = std::make_unique<WindowedClient>(echo_svc, /*window=*/8);
      windowed = client.get();
      const TileId ct = os.Deploy(app, std::move(client));
      (void)os.GrantSendToService(ct, echo_svc);
    }
  }

  // `--threads N` drives the run through the sharded engine (default
  // partition; see src/sim/parallel/) instead of the serial Step loop.
  std::optional<ParallelSimulator> psim;
  if (threads > 0) {
    psim.emplace(&bb.sim, &bb.board.mesh(), ParallelConfig{/*shards=*/0, threads});
  }

  // Host wall time is the measurand here (simulated cycles per wall-second);
  // it never feeds back into simulated state, so determinism is unaffected.
  const uint64_t heap0 = HeapAllocCalls();
  const auto t0 = std::chrono::steady_clock::now();  // NOLINT(apiary-determinism): host wall time is the measurand, never fed back into sim state
  if (psim.has_value()) {
    psim->Run(run_cycles);
  } else {
    bb.sim.Run(run_cycles);
  }
  const auto t1 = std::chrono::steady_clock::now();  // NOLINT(apiary-determinism): host wall time is the measurand, never fed back into sim state

  RunResult r;
  r.heap_calls = HeapAllocCalls() - heap0;
  r.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  r.end_cycle = bb.sim.now();
  r.skipped_cycles = bb.sim.skipped_cycles();
  r.skips = bb.sim.skips();
  r.ticked_blocks = bb.sim.ticked_blocks();
  r.executed_cycles = bb.sim.executed_cycles();
  r.wheel_wakes = bb.sim.wheel_wakes();
  r.wake_calls = bb.sim.wake_calls();
  r.block_count = bb.sim.block_count();
  r.express = bb.board.mesh().AggregateExpressStats();
  if (pulse != nullptr) {
    r.sent = pulse->sent();
    r.received = pulse->received();
  } else if (windowed != nullptr) {
    r.sent = windowed->sent();
    r.received = windowed->received();
  }
  r.mcycles_per_sec =
      r.wall_seconds > 0 ? static_cast<double>(run_cycles) / r.wall_seconds / 1e6 : 0;
  return r;
}

const char* Name(Scenario s) {
  switch (s) {
    case Scenario::kIdle:
      return "idle-board";
    case Scenario::kLight:
      return "light-load";
    case Scenario::kSaturated:
      return "saturated";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = HasFlag(argc, argv, "--smoke");
  const bool no_skip_only = HasFlag(argc, argv, "--no-skip");
  const bool express = !HasFlag(argc, argv, "--no-express");
  const uint32_t threads = static_cast<uint32_t>(IntArg(argc, argv, "--threads", 0));
  const Cycle run_cycles = smoke ? 2'000'000 : 20'000'000;

  std::printf("B1: simulator throughput, quiescence skipping on vs off\n");
  std::printf("(%llu simulated cycles per run%s)\n\n",
              static_cast<unsigned long long>(run_cycles),
              threads > 0 ? ", sharded engine" : "");
  if (threads > 0) {
    std::printf("engine: ParallelSimulator, %u worker thread(s)\n\n", threads);
  }

  BenchJson json("b1_sim_throughput");
  json.Param("run_cycles", static_cast<uint64_t>(run_cycles));
  json.Param("threads", static_cast<uint64_t>(threads));
  json.Param("express", express ? 1 : 0);
  json.Param("smoke", smoke ? 1 : 0);

  Table table("B1: simulated Mcycles per wall-second");
  table.SetHeader({"scenario", "no-skip Mcyc/s", "skip Mcyc/s", "speedup",
                   "skipped %", "jumps"});

  bool consistent = true;
  for (Scenario s : {Scenario::kIdle, Scenario::kLight, Scenario::kSaturated}) {
    const RunResult off = RunOne(s, /*skip_enabled=*/false, express, run_cycles, threads);
    if (no_skip_only) {
      table.AddRow({Name(s), Table::Num(off.mcycles_per_sec, 1), "-", "-", "-", "-"});
      json.BeginRow();
      json.Metric("scenario", Name(s));
      json.Metric("noskip_mcycles_per_sec", off.mcycles_per_sec);
      continue;
    }
    const RunResult on = RunOne(s, /*skip_enabled=*/true, express, run_cycles, threads);
    // The whole point is that skipping is invisible to the simulation:
    // identical end cycle and identical traffic counts, or the run is wrong.
    if (on.end_cycle != off.end_cycle || on.sent != off.sent ||
        on.received != off.received) {
      std::fprintf(stderr,
                   "B1 FAIL: %s diverged (end %llu vs %llu, sent %llu vs %llu, "
                   "recv %llu vs %llu)\n",
                   Name(s), static_cast<unsigned long long>(on.end_cycle),
                   static_cast<unsigned long long>(off.end_cycle),
                   static_cast<unsigned long long>(on.sent),
                   static_cast<unsigned long long>(off.sent),
                   static_cast<unsigned long long>(on.received),
                   static_cast<unsigned long long>(off.received));
      consistent = false;
    }
    const double speedup =
        off.mcycles_per_sec > 0 ? on.mcycles_per_sec / off.mcycles_per_sec : 0;
    const double skipped_pct =
        100.0 * static_cast<double>(on.skipped_cycles) / static_cast<double>(run_cycles);
    table.AddRow({Name(s), Table::Num(off.mcycles_per_sec, 1),
                  Table::Num(on.mcycles_per_sec, 1), Table::Num(speedup, 2),
                  Table::Num(skipped_pct, 1), Table::Int(on.skips)});
    json.BeginRow();
    json.Metric("scenario", Name(s));
    json.Metric("noskip_mcycles_per_sec", off.mcycles_per_sec);
    json.Metric("skip_mcycles_per_sec", on.mcycles_per_sec);
    json.Metric("speedup", speedup);
    json.Metric("skipped_cycles", on.skipped_cycles);
    json.Metric("skips", on.skips);
    json.Metric("ticked_blocks", on.ticked_blocks);
    json.Metric("executed_cycles", on.executed_cycles);
    json.Metric("active_fraction", on.ActiveFraction());
    json.Metric("wheel_wakes", on.wheel_wakes);
    json.Metric("wake_calls", on.wake_calls);
    json.Metric("requests", on.sent);
    json.Metric("responses", on.received);
    json.Metric("heap_calls", on.heap_calls);
    json.Metric("allocs_per_msg", PerMessage(on.heap_calls, on.received));
    json.Metric("express_hits", on.express.delivered);
    json.Metric("express_launches", on.express.launches);
    json.Metric("materializations", on.express.materializations);
    json.Metric("mean_corridor_hops", on.MeanCorridorHops());
  }
  table.Print();

  const std::string json_path = JsonPathArg(argc, argv);
  if (!json_path.empty() && !json.WriteFile(json_path)) {
    return 1;
  }
  if (!consistent) {
    return 1;
  }
  return 0;
}
