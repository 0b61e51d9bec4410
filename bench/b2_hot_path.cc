// B2: hot-path allocation discipline under a saturated mesh.
//
// The executed-cycle message path is supposed to be allocation-free in
// steady state: packets come from the PacketPool freelist, payload bytes
// ride in PayloadBuf (inline up to 64B, pooled arena chunks beyond), and
// serialization moves the payload through the wire stack instead of copying
// it. This harness drives a saturated 4x4 mesh — several closed-loop echo
// client/service pairs, mixed small (inline-tier) and large (arena-tier)
// payloads — and measures:
//   * end-to-end throughput (messages per wall-second, Mcycles/s);
//   * steady-state heap allocations per delivered message: real global
//     operator new calls after a warmup window (bench_util.h's counting
//     shim), beside the pool/arena ledger's own fallback count;
//   * pool reuse ratio after warmup (target: >= 99%).
// The `--no-pool` ablation re-runs the identical seeded scenario with the
// pool and arena disabled and the legacy allocate-and-copy serialization
// shape (SetMessageLegacyAllocMode) — the pre-optimization cost model. The
// two runs must agree on every traffic count (the pooled path is
// byte-identical by construction; tests/determinism_test.cc holds the
// stronger trace-level version of this), so the speedup column compares
// like with like.
//
// `--smoke` shrinks the run for CI; `--json <path>` emits the numbers CI
// archives; `--no-pool` runs only the ablation configuration.
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/accel/echo.h"
#include "src/core/kernel.h"
#include "src/core/message.h"
#include "src/noc/packet_pool.h"
#include "src/sim/parallel/parallel_simulator.h"
#include "src/sim/payload_buf.h"
#include "src/stats/table.h"

using namespace apiary;

namespace {

constexpr uint32_t kPairs = 4;           // Client/echo pairs spread over the mesh.
constexpr uint32_t kWindow = 16;         // Outstanding requests per client.
constexpr uint32_t kSmallPayload = 48;   // Inline tier (<= PayloadBuf::kInlineBytes).
constexpr uint32_t kLargePayload = 240;  // Arena tier.

// Closed-loop echo driver: keeps `window` requests outstanding forever, so
// the mesh never goes quiescent — every cycle is an executed cycle.
class SaturatingClient : public Accelerator {
 public:
  SaturatingClient(ServiceId svc, uint32_t payload_bytes)
      : svc_(svc), payload_bytes_(payload_bytes) {}

  void Tick(TileApi& api) override {
    while (in_flight_ < kWindow) {
      Message msg;
      msg.opcode = kOpEcho;
      msg.payload.assign(payload_bytes_, static_cast<uint8_t>(in_flight_));
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
  std::string name() const override { return "saturating_client"; }
  uint32_t LogicCellCost() const override { return 1000; }

  uint64_t sent() const { return sent_; }
  uint64_t received() const { return received_; }

 private:
  ServiceId svc_;
  uint32_t payload_bytes_;
  uint32_t in_flight_ = 0;
  uint64_t next_id_ = 0;
  uint64_t sent_ = 0;
  uint64_t received_ = 0;
};

struct RunResult {
  double wall_seconds = 0;
  uint64_t sent = 0;
  uint64_t received = 0;   // Delivered responses inside the measured window.
  uint64_t flits = 0;      // Flits routed inside the measured window.
  uint64_t acquires = 0;
  uint64_t pool_hits = 0;
  uint64_t pool_fallbacks = 0;   // Pool misses inside the measured window.
  uint64_t arena_allocs = 0;     // Arena chunk news inside the measured window.
  uint64_t heap_calls = 0;       // Global operator new calls inside the window.
  double reuse_pct = 0;          // pool_hits / acquires.
  double allocs_per_msg = 0;     // heap_calls / received.
  double msgs_per_wall_sec = 0;
  double mcycles_per_sec = 0;
  uint64_t ticked_blocks = 0;    // Block-ticks issued inside the measured window.
  uint64_t executed_cycles = 0;  // Cycles actually executed inside the window.
  uint64_t wheel_wakes = 0;
  uint64_t wake_calls = 0;
  uint64_t block_count = 0;
  // Block-ticks issued as a fraction of what a tick-everything loop would
  // have issued over the same executed cycles. Saturated traffic should sit
  // near 1.0 — the active set buys nothing here, which is exactly what B2's
  // overhead guardrail wants to measure.
  double ActiveFraction() const {
    const double denom =
        static_cast<double>(executed_cycles) * static_cast<double>(block_count);
    return denom > 0 ? static_cast<double>(ticked_blocks) / denom : 0;
  }
};

RunResult RunConfig(bool pooled, Cycle warmup_cycles, Cycle measure_cycles,
                    uint32_t threads) {
  BenchBoard bb;
  // Pools and arenas are per-simulator domain state: toggle this board's
  // mesh pool and this sim's context arena, not process-wide globals.
  bb.board.mesh().pool().SetEnabled(pooled);
  bb.sim.context().arena().SetEnabled(pooled);
  SetMessageLegacyAllocMode(!pooled);

  ApiaryOs& os = bb.os;
  const AppId app = os.CreateApp("b2");

  std::vector<SaturatingClient*> clients;
  for (uint32_t i = 0; i < kPairs; ++i) {
    ServiceId echo_svc = 0;
    os.Deploy(app, std::make_unique<EchoAccelerator>(/*service_cycles=*/0), &echo_svc);
    // Half the pairs exercise the inline tier, half the arena tier.
    const uint32_t bytes = (i % 2 == 0) ? kSmallPayload : kLargePayload;
    auto client = std::make_unique<SaturatingClient>(echo_svc, bytes);
    clients.push_back(client.get());
    const TileId ct = os.Deploy(app, std::move(client));
    (void)os.GrantSendToService(ct, echo_svc);
  }

  // `--threads N` drives the run through the sharded engine. The partition
  // gives every shard its own pool and arena; the pooled/legacy toggle must
  // cover those domains too, or the ablation would compare mixed modes.
  std::optional<ParallelSimulator> psim;
  if (threads > 0) {
    psim.emplace(&bb.sim, &bb.board.mesh(), ParallelConfig{/*shards=*/0, threads});
    for (uint32_t sh = 0; sh < psim->shards(); ++sh) {
      PacketPool::ForContext(*psim->shard_context(sh)).SetEnabled(pooled);
      psim->shard_context(sh)->arena().SetEnabled(pooled);
    }
  }
  auto run = [&](Cycle end) {
    if (psim.has_value()) {
      psim->Run(end);
    } else {
      bb.sim.Run(end);
    }
  };

  // Warm up: the pool grows to the traffic's high-water mark, the arena
  // freelists fill, queues reach steady occupancy. Everything after the
  // ledger reset is steady state.
  run(warmup_cycles);
  bb.board.mesh().ResetPoolStats();
  bb.sim.context().arena().ResetStats();
  if (psim.has_value()) {
    for (uint32_t sh = 0; sh < psim->shards(); ++sh) {
      psim->shard_context(sh)->arena().ResetStats();
    }
  }
  uint64_t sent0 = 0;
  uint64_t received0 = 0;
  for (const SaturatingClient* c : clients) {
    sent0 += c->sent();
    received0 += c->received();
  }
  const uint64_t flits0 = bb.board.mesh().TotalFlitsRouted();
  const uint64_t ticked0 = bb.sim.ticked_blocks();
  const uint64_t executed0 = bb.sim.executed_cycles();
  const uint64_t wheel0 = bb.sim.wheel_wakes();
  const uint64_t wake0 = bb.sim.wake_calls();
  const uint64_t heap0 = HeapAllocCalls();

  // Host wall time is the measurand; it never feeds back into simulated
  // state, so determinism is unaffected.
  const auto t0 = std::chrono::steady_clock::now();  // NOLINT(apiary-determinism): host wall time is the measurand, never fed back into sim state
  run(measure_cycles);
  const auto t1 = std::chrono::steady_clock::now();  // NOLINT(apiary-determinism): host wall time is the measurand, never fed back into sim state

  RunResult r;
  r.heap_calls = HeapAllocCalls() - heap0;
  r.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  for (const SaturatingClient* c : clients) {
    r.sent += c->sent();
    r.received += c->received();
  }
  r.sent -= sent0;
  r.received -= received0;
  r.flits = bb.board.mesh().TotalFlitsRouted() - flits0;
  r.ticked_blocks = bb.sim.ticked_blocks() - ticked0;
  r.executed_cycles = bb.sim.executed_cycles() - executed0;
  r.wheel_wakes = bb.sim.wheel_wakes() - wheel0;
  r.wake_calls = bb.sim.wake_calls() - wake0;
  r.block_count = bb.sim.block_count();

  const PacketPoolStats pool = bb.board.mesh().AggregatePoolStats();
  r.acquires = pool.acquires;
  r.pool_hits = pool.pool_hits;
  r.pool_fallbacks = pool.heap_allocs;
  r.arena_allocs = bb.sim.context().arena().stats().chunk_allocs;
  if (psim.has_value()) {
    for (uint32_t sh = 0; sh < psim->shards(); ++sh) {
      r.arena_allocs += psim->shard_context(sh)->arena().stats().chunk_allocs;
    }
  }
  r.reuse_pct =
      r.acquires > 0 ? 100.0 * static_cast<double>(r.pool_hits) / static_cast<double>(r.acquires)
                     : 0;
  r.allocs_per_msg = PerMessage(r.heap_calls, r.received);
  r.msgs_per_wall_sec =
      r.wall_seconds > 0 ? static_cast<double>(r.received) / r.wall_seconds : 0;
  r.mcycles_per_sec =
      r.wall_seconds > 0 ? static_cast<double>(measure_cycles) / r.wall_seconds / 1e6 : 0;

  // Leave the process in the default (pooled) configuration; the pool and
  // arena die with this run's board and context, nothing else to restore.
  SetMessageLegacyAllocMode(false);
  return r;
}

void EmitRow(BenchJson& json, const char* config, const RunResult& r) {
  json.BeginRow();
  json.Metric("config", config);
  json.Metric("wall_seconds", r.wall_seconds);
  json.Metric("mcycles_per_sec", r.mcycles_per_sec);
  json.Metric("messages", r.received);
  json.Metric("msgs_per_wall_sec", r.msgs_per_wall_sec);
  json.Metric("flits", r.flits);
  json.Metric("packet_acquires", r.acquires);
  json.Metric("pool_hits", r.pool_hits);
  json.Metric("pool_reuse_pct", r.reuse_pct);
  json.Metric("pool_fallbacks", r.pool_fallbacks);
  json.Metric("arena_chunk_allocs", r.arena_allocs);
  json.Metric("heap_calls", r.heap_calls);
  json.Metric("allocs_per_msg", r.allocs_per_msg);
  json.Metric("ticked_blocks", r.ticked_blocks);
  json.Metric("executed_cycles", r.executed_cycles);
  json.Metric("active_fraction", r.ActiveFraction());
  json.Metric("wheel_wakes", r.wheel_wakes);
  json.Metric("wake_calls", r.wake_calls);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = HasFlag(argc, argv, "--smoke");
  const bool no_pool_only = HasFlag(argc, argv, "--no-pool");
  const uint32_t threads = static_cast<uint32_t>(IntArg(argc, argv, "--threads", 0));
  const Cycle warmup_cycles = smoke ? 200'000 : 1'000'000;
  const Cycle measure_cycles = smoke ? 800'000 : 8'000'000;

  std::printf("B2: hot-path allocation discipline, saturated 4x4 mesh\n");
  std::printf("(%u closed-loop pairs, window %u, %u/%uB payloads; "
              "%llu warmup + %llu measured cycles)\n\n",
              kPairs, kWindow, kSmallPayload, kLargePayload,
              static_cast<unsigned long long>(warmup_cycles),
              static_cast<unsigned long long>(measure_cycles));

  BenchJson json("b2_hot_path");
  json.Param("warmup_cycles", static_cast<uint64_t>(warmup_cycles));
  json.Param("measure_cycles", static_cast<uint64_t>(measure_cycles));
  json.Param("pairs", static_cast<uint64_t>(kPairs));
  json.Param("window", static_cast<uint64_t>(kWindow));
  json.Param("threads", static_cast<uint64_t>(threads));
  json.Param("smoke", smoke ? 1 : 0);
  if (threads > 0) {
    std::printf("engine: ParallelSimulator, %u worker thread(s)\n\n", threads);
  }

  Table table("B2: steady-state hot path, pooled vs legacy alloc");
  table.SetHeader({"config", "Mcyc/s", "msgs", "msgs/wall-s", "reuse %",
                   "allocs/msg"});

  int rc = 0;
  const RunResult legacy =
      RunConfig(/*pooled=*/false, warmup_cycles, measure_cycles, threads);
  table.AddRow({"no-pool", Table::Num(legacy.mcycles_per_sec, 1), Table::Int(legacy.received),
                Table::Num(legacy.msgs_per_wall_sec, 0), "-",
                Table::Num(legacy.allocs_per_msg, 2)});
  EmitRow(json, "no-pool", legacy);

  if (!no_pool_only) {
    const RunResult pooled =
        RunConfig(/*pooled=*/true, warmup_cycles, measure_cycles, threads);
    table.AddRow({"pooled", Table::Num(pooled.mcycles_per_sec, 1), Table::Int(pooled.received),
                  Table::Num(pooled.msgs_per_wall_sec, 0), Table::Num(pooled.reuse_pct, 2),
                  Table::Num(pooled.allocs_per_msg, 4)});
    EmitRow(json, "pooled", pooled);

    // Pooling must be invisible to the simulation: identical traffic, or
    // the comparison is meaningless and the run is wrong.
    if (pooled.sent != legacy.sent || pooled.received != legacy.received ||
        pooled.flits != legacy.flits) {
      std::fprintf(stderr,
                   "B2 FAIL: configs diverged (sent %llu vs %llu, recv %llu vs "
                   "%llu, flits %llu vs %llu)\n",
                   static_cast<unsigned long long>(pooled.sent),
                   static_cast<unsigned long long>(legacy.sent),
                   static_cast<unsigned long long>(pooled.received),
                   static_cast<unsigned long long>(legacy.received),
                   static_cast<unsigned long long>(pooled.flits),
                   static_cast<unsigned long long>(legacy.flits));
      rc = 1;
    }
    const double speedup = legacy.msgs_per_wall_sec > 0
                               ? pooled.msgs_per_wall_sec / legacy.msgs_per_wall_sec
                               : 0;
    json.Param("speedup", speedup);
    std::printf("speedup (pooled / no-pool wall throughput): %.2fx\n", speedup);
    std::printf("steady-state pool reuse: %.2f%%, allocations/message: %.4f\n\n",
                pooled.reuse_pct, pooled.allocs_per_msg);
  }

  table.Print();

  const std::string json_path = JsonPathArg(argc, argv);
  if (!json_path.empty() && !json.WriteFile(json_path)) {
    return 1;
  }
  return rc;
}
