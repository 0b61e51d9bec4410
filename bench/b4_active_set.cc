// B4: active-set scheduler benefit as a function of active fraction.
//
// PR 4's quiescence skipping only pays off when the whole board is idle; the
// active-set scheduler attacks the partial-load regime where an executed
// cycle used to pay a virtual Tick on every registered block. This harness
// measures that directly, in two legs:
//
//   * Duty-cycle sweep: N synthetic blocks on a bare Simulator, each busy
//     for a staggered window covering `f` percent of a fixed period and
//     parked on the timer wheel in between. Sweeping f from 5% to 100%
//     plots executed-cycle wall throughput with the active set on vs the
//     reference mode (Simulator::SetSkipEnabled(false), which ticks every
//     block every cycle). The acceptance bar is >= 1.3x at 30-50% activity.
//   * Saturated-board guardrail: the B2 shape (closed-loop echo pairs on a
//     4x4 board, every cycle executed, every block busy) where the active
//     set cannot win and must not lose: the bar is >= 0.97x of the
//     reference mode. Neither leg ever skips a cycle, so the comparison is
//     executed-cycle cost alone.
//
// Both legs re-run the identical seeded scenario in both modes and compare
// every simulation-visible count (per-block tick counts and digests in the
// sweep; traffic counts in the board leg). Any divergence is a correctness
// bug, not noise, and fails the run.
//
// `--smoke` shrinks the run for CI; `--json <path>` emits the numbers CI
// archives, including express corridor counters from the board leg (the
// saturated shape leaves inject queues multi-packet, so hits are expected
// near zero — reported for CI visibility, not as a win); `--no-active-set`
// runs only the reference mode; `--no-express` disables the corridor fast
// path on the board leg.
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
#include "src/sim/clocked.h"
#include "src/sim/simulator.h"
#include "src/stats/table.h"

using namespace apiary;

namespace {

constexpr uint32_t kSweepBlocks = 256;  // Blocks in the synthetic sweep.
constexpr Cycle kDutyPeriod = 1'000;    // One duty cycle, per block.

// A block that is busy for `busy_len` cycles out of every kDutyPeriod,
// phase-staggered by index so the board's aggregate activity stays flat at
// busy_len/kDutyPeriod. While parked it sits on the timer wheel until its
// next window opens — no external wakes involved, so the sweep isolates the
// scheduler's executed-cycle cost, not wake-path cost.
//
// The tick body models a router: every tick — busy or idle — sweeps the
// occupancy of 5 ports x 8 VCs worth of queue heads before deciding whether
// there is work. That idle-sweep cost is the whole point of the active set:
// the reference mode pays it on every registered block every
// executed cycle, the active set only on blocks whose declaration says they
// have work. (A cheap early-return idle tick would understate the win; real
// routers, NIs, and memory channels do not get to early-return before
// scanning their queues.)
class DutyBlock : public Clocked {
 public:
  DutyBlock(uint32_t index, Cycle busy_len)
      : offset_(static_cast<Cycle>(index) * 797 % kDutyPeriod), busy_len_(busy_len) {
    for (uint32_t i = 0; i < kQueueHeads; ++i) {
      occupancy_[i] = index + i;
    }
  }

  void Tick(Cycle now) override {
    // Fixed maintenance sweep, paid whether or not this turns out to be a
    // busy cycle — the router analogue of scanning every VC's head.
    uint64_t scan = 0;
    for (uint32_t i = 0; i < kQueueHeads; ++i) {
      scan += occupancy_[i];
    }
    asm volatile("" : "+r"(scan));  // The sweep is the measured work; keep it.
    // The baseline calls this on idle cycles too; the busy path must gate on
    // the same window the declaration announces or the two modes would
    // legitimately diverge.
    if (!Busy(now)) {
      return;
    }
    ++ticks_;
    digest_ = digest_ * 1099511628211ull + now + scan;
  }

  [[nodiscard]] Cycle NextActivity(Cycle now) const override {
    if (busy_len_ == 0) {
      return kNoActivity;
    }
    // Single phase computation: this is the boundary re-poll's hot path.
    const Cycle phase = Phase(now);
    if (phase < busy_len_) {
      return now;
    }
    // Parked until the next window opens; the wheel wakes us exactly then.
    return now + (kDutyPeriod - phase);
  }

  std::string DebugName() const override { return "duty_block"; }

  uint64_t ticks() const { return ticks_; }
  uint64_t digest() const { return digest_; }

 private:
  static constexpr uint32_t kQueueHeads = 40;  // 5 ports x 8 VCs.

  Cycle Phase(Cycle now) const { return (now + offset_) % kDutyPeriod; }
  bool Busy(Cycle now) const { return Phase(now) < busy_len_; }

  Cycle offset_;
  Cycle busy_len_;
  uint64_t occupancy_[kQueueHeads];
  uint64_t ticks_ = 0;
  uint64_t digest_ = 14695981039346656037ull;
};

struct SweepResult {
  double wall_seconds = 0;
  double mcycles_per_sec = 0;
  uint64_t total_ticks = 0;
  uint64_t digest = 0;  // XOR of per-block digests: order-insensitive, value-sensitive.
  uint64_t ticked_blocks = 0;
  uint64_t executed_cycles = 0;
  uint64_t wheel_wakes = 0;
  uint64_t wake_calls = 0;
  uint64_t block_count = 0;
  std::vector<uint64_t> per_block_ticks;

  double ActiveFraction() const {
    const double denom =
        static_cast<double>(executed_cycles) * static_cast<double>(block_count);
    return denom > 0 ? static_cast<double>(ticked_blocks) / denom : 0;
  }
};

SweepResult RunSweepPoint(uint32_t active_pct, bool active_set, Cycle run_cycles) {
  Simulator sim;
  sim.SetSkipEnabled(active_set);
  const Cycle busy_len = kDutyPeriod * active_pct / 100;
  std::vector<std::unique_ptr<DutyBlock>> blocks;
  blocks.reserve(kSweepBlocks);
  for (uint32_t i = 0; i < kSweepBlocks; ++i) {
    blocks.push_back(std::make_unique<DutyBlock>(i, busy_len));
    sim.Register(blocks.back().get());
  }

  const auto t0 = std::chrono::steady_clock::now();  // NOLINT(apiary-determinism): host wall time is the measurand, never fed back into sim state
  sim.Run(run_cycles);
  const auto t1 = std::chrono::steady_clock::now();  // NOLINT(apiary-determinism): host wall time is the measurand, never fed back into sim state

  SweepResult r;
  r.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  r.mcycles_per_sec =
      r.wall_seconds > 0 ? static_cast<double>(run_cycles) / r.wall_seconds / 1e6 : 0;
  for (const auto& b : blocks) {
    r.total_ticks += b->ticks();
    r.digest ^= b->digest();
    r.per_block_ticks.push_back(b->ticks());
  }
  r.ticked_blocks = sim.ticked_blocks();
  r.executed_cycles = sim.executed_cycles();
  r.wheel_wakes = sim.wheel_wakes();
  r.wake_calls = sim.wake_calls();
  r.block_count = sim.block_count();
  return r;
}

struct BoardResult {
  double wall_seconds = 0;
  double mcycles_per_sec = 0;
  uint64_t sent = 0;
  uint64_t received = 0;
  uint64_t flits = 0;
  uint64_t heap_calls = 0;  // Global operator new calls during the run.
  uint64_t ticked_blocks = 0;
  uint64_t executed_cycles = 0;
  uint64_t block_count = 0;
  ExpressStats express;

  double MeanCorridorHops() const {
    return express.delivered > 0
               ? static_cast<double>(express.hops_sum) /
                     static_cast<double>(express.delivered)
               : 0;
  }

  double ActiveFraction() const {
    const double denom =
        static_cast<double>(executed_cycles) * static_cast<double>(block_count);
    return denom > 0 ? static_cast<double>(ticked_blocks) / denom : 0;
  }
};

BoardResult RunBoard(bool active_set, bool express, Cycle run_cycles) {
  BenchBoard bb;
  bb.sim.SetSkipEnabled(active_set);
  bb.board.mesh().SetExpressEnabled(express);
  ApiaryOs& os = bb.os;
  const AppId app = os.CreateApp("b4");

  std::vector<EchoClient*> clients;
  for (uint32_t i = 0; i < 4; ++i) {
    ServiceId echo_svc = 0;
    os.Deploy(app, std::make_unique<EchoAccelerator>(/*service_cycles=*/0), &echo_svc);
    auto client = std::make_unique<EchoClient>(echo_svc, /*window=*/16, /*payload_bytes=*/48);
    clients.push_back(client.get());
    const TileId ct = os.Deploy(app, std::move(client));
    (void)os.GrantSendToService(ct, echo_svc);
  }

  const uint64_t heap0 = HeapAllocCalls();
  const auto t0 = std::chrono::steady_clock::now();  // NOLINT(apiary-determinism): host wall time is the measurand, never fed back into sim state
  bb.sim.Run(run_cycles);
  const auto t1 = std::chrono::steady_clock::now();  // NOLINT(apiary-determinism): host wall time is the measurand, never fed back into sim state

  BoardResult r;
  r.heap_calls = HeapAllocCalls() - heap0;
  r.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  r.mcycles_per_sec =
      r.wall_seconds > 0 ? static_cast<double>(run_cycles) / r.wall_seconds / 1e6 : 0;
  for (const EchoClient* c : clients) {
    r.sent += c->sent();
    r.received += c->received();
  }
  r.flits = bb.board.mesh().TotalFlitsRouted();
  r.ticked_blocks = bb.sim.ticked_blocks();
  r.executed_cycles = bb.sim.executed_cycles();
  r.block_count = bb.sim.block_count();
  r.express = bb.board.mesh().AggregateExpressStats();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = HasFlag(argc, argv, "--smoke");
  const bool baseline_only = HasFlag(argc, argv, "--no-active-set");
  const bool express = !HasFlag(argc, argv, "--no-express");
  const Cycle sweep_cycles = smoke ? 300'000 : 3'000'000;
  const Cycle board_cycles = smoke ? 200'000 : 2'000'000;

  std::printf("B4: active-set scheduler vs reference mode (tick-all), by active fraction\n");
  std::printf("(%u duty-cycle blocks, %llu-cycle period, %llu cycles per sweep point)\n\n",
              kSweepBlocks, static_cast<unsigned long long>(kDutyPeriod),
              static_cast<unsigned long long>(sweep_cycles));

  BenchJson json("b4_active_set");
  json.Param("sweep_blocks", static_cast<uint64_t>(kSweepBlocks));
  json.Param("duty_period", static_cast<uint64_t>(kDutyPeriod));
  json.Param("sweep_cycles", static_cast<uint64_t>(sweep_cycles));
  json.Param("board_cycles", static_cast<uint64_t>(board_cycles));
  json.Param("express", express ? 1 : 0);
  json.Param("smoke", smoke ? 1 : 0);

  Table table("B4: simulated Mcycles per wall-second vs active fraction");
  table.SetHeader({"active %", "tick-all Mcyc/s", "active-set Mcyc/s", "speedup",
                   "measured active", "wheel wakes"});

  bool consistent = true;
  for (const uint32_t pct : {5u, 10u, 30u, 50u, 75u, 100u}) {
    const SweepResult off = RunSweepPoint(pct, /*active_set=*/false, sweep_cycles);
    if (baseline_only) {
      table.AddRow({Table::Int(pct), Table::Num(off.mcycles_per_sec, 1), "-", "-",
                    "-", "-"});
      json.BeginRow();
      json.Metric("active_pct", static_cast<uint64_t>(pct));
      json.Metric("tickall_mcycles_per_sec", off.mcycles_per_sec);
      continue;
    }
    const SweepResult on = RunSweepPoint(pct, /*active_set=*/true, sweep_cycles);
    // The scheduler must be invisible to the simulation: identical per-block
    // tick counts and digests, or the active set skipped (or double-ticked)
    // a busy block somewhere.
    if (on.per_block_ticks != off.per_block_ticks || on.digest != off.digest) {
      std::fprintf(stderr,
                   "B4 FAIL: sweep point %u%% diverged (ticks %llu vs %llu, "
                   "digest %llx vs %llx)\n",
                   pct, static_cast<unsigned long long>(on.total_ticks),
                   static_cast<unsigned long long>(off.total_ticks),
                   static_cast<unsigned long long>(on.digest),
                   static_cast<unsigned long long>(off.digest));
      consistent = false;
    }
    const double speedup =
        off.mcycles_per_sec > 0 ? on.mcycles_per_sec / off.mcycles_per_sec : 0;
    table.AddRow({Table::Int(pct), Table::Num(off.mcycles_per_sec, 1),
                  Table::Num(on.mcycles_per_sec, 1), Table::Num(speedup, 2),
                  Table::Num(100.0 * on.ActiveFraction(), 1),
                  Table::Int(on.wheel_wakes)});
    json.BeginRow();
    json.Metric("active_pct", static_cast<uint64_t>(pct));
    json.Metric("tickall_mcycles_per_sec", off.mcycles_per_sec);
    json.Metric("activeset_mcycles_per_sec", on.mcycles_per_sec);
    json.Metric("speedup", speedup);
    json.Metric("ticked_blocks", on.ticked_blocks);
    json.Metric("executed_cycles", on.executed_cycles);
    json.Metric("active_fraction", on.ActiveFraction());
    json.Metric("wheel_wakes", on.wheel_wakes);
    json.Metric("wake_calls", on.wake_calls);
  }
  table.Print();

  // Saturated-board guardrail: the active set cannot win here (everything
  // is busy every cycle) and must not lose.
  const BoardResult boff = RunBoard(/*active_set=*/false, express, board_cycles);
  if (!baseline_only) {
    const BoardResult bon = RunBoard(/*active_set=*/true, express, board_cycles);
    if (bon.sent != boff.sent || bon.received != boff.received ||
        bon.flits != boff.flits) {
      std::fprintf(stderr,
                   "B4 FAIL: board leg diverged (sent %llu vs %llu, recv %llu vs "
                   "%llu, flits %llu vs %llu)\n",
                   static_cast<unsigned long long>(bon.sent),
                   static_cast<unsigned long long>(boff.sent),
                   static_cast<unsigned long long>(bon.received),
                   static_cast<unsigned long long>(boff.received),
                   static_cast<unsigned long long>(bon.flits),
                   static_cast<unsigned long long>(boff.flits));
      consistent = false;
    }
    const double ratio =
        boff.mcycles_per_sec > 0 ? bon.mcycles_per_sec / boff.mcycles_per_sec : 0;
    Table board_table("B4: saturated-board guardrail (target >= 0.97x)");
    board_table.SetHeader({"config", "tick-all Mcyc/s", "active-set Mcyc/s",
                           "ratio", "measured active"});
    board_table.AddRow({"saturated", Table::Num(boff.mcycles_per_sec, 1),
                        Table::Num(bon.mcycles_per_sec, 1), Table::Num(ratio, 2),
                        Table::Num(100.0 * bon.ActiveFraction(), 1)});
    board_table.Print();
    json.BeginRow();
    json.Metric("scenario", "saturated-board");
    json.Metric("tickall_mcycles_per_sec", boff.mcycles_per_sec);
    json.Metric("activeset_mcycles_per_sec", bon.mcycles_per_sec);
    json.Metric("speedup", ratio);
    json.Metric("messages", bon.received);
    json.Metric("heap_calls", bon.heap_calls);
    json.Metric("allocs_per_msg", PerMessage(bon.heap_calls, bon.received));
    json.Metric("active_fraction", bon.ActiveFraction());
    json.Metric("express_hits", bon.express.delivered);
    json.Metric("express_launches", bon.express.launches);
    json.Metric("materializations", bon.express.materializations);
    json.Metric("mean_corridor_hops", bon.MeanCorridorHops());
  }

  const std::string json_path = JsonPathArg(argc, argv);
  if (!json_path.empty() && !json.WriteFile(json_path)) {
    return 1;
  }
  return consistent ? 0 : 1;
}
