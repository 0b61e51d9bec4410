// B3: parallel engine scaling on a saturated 8x8 mesh.
//
// The sharded engine (src/sim/parallel/) splits the mesh into 4 spatial
// shards and runs them on 1, 2, and 4 worker threads over the SAME
// partition — so every configuration executes the identical schedule and
// must produce identical traffic counts (the byte-level proof lives in
// tests/parallel_differential_test.cc; this harness cross-checks the counts
// and measures the wall-clock side of the story):
//   * simulated Mcycles per wall-second and speedup vs threads=1;
//   * cross-shard handoff volume (flits through the boundary rings, packet
//     clones at the cuts);
//   * steady-state allocation discipline on the handoff path: after warmup,
//     the pool and arena ledgers (summed over the root and every shard
//     domain) must record ZERO fallbacks — boundary rings are
//     preallocated, clones come from the receiver shard's pool freelist.
//     Real heap calls per message (bench_util.h's counting shim) are
//     reported beside them.
//
// Honesty note: speedup is bounded by the host's physical cores. On a
// single-core CI container threads=2/4 cannot beat threads=1 (the workers
// time-share one core and pay the handoff overhead); the harness prints the
// detected core count next to the speedup so the numbers read correctly.
// Multi-core runners are where the >=2x target is evaluated.
//
// `--smoke` shrinks the run for CI; `--json <path>` emits the numbers CI
// archives, including express corridor hit/materialization/length counters
// (closed-loop saturation means queues rarely hold a lone packet, so the
// expected hit count here is ~0 — the counter is reported so CI can see
// that, not to show a win); `--no-express` disables the corridor fast path
// on every configuration; `--threads N` restricts to one configuration
// (plus the threads=1 baseline when N != 1).
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/accel/echo.h"
#include "src/core/kernel.h"
#include "src/noc/express.h"
#include "src/noc/packet_pool.h"
#include "src/sim/parallel/parallel_simulator.h"
#include "src/stats/table.h"

using namespace apiary;

namespace {

constexpr uint32_t kShards = 4;          // Fixed partition: 4 column bands.
constexpr uint32_t kWindow = 16;         // Outstanding requests per client.
constexpr uint32_t kSmallPayload = 48;   // Inline tier.
constexpr uint32_t kLargePayload = 240;  // Arena tier.

// Closed-loop echo driver (b2's saturated shape): keeps `window` requests
// outstanding forever, so every cycle is an executed cycle on every shard.
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
  double mcycles_per_sec = 0;
  uint64_t sent = 0;        // Requests sent inside the measured window.
  uint64_t received = 0;    // Responses delivered inside the measured window.
  uint64_t flits = 0;       // Flits routed inside the measured window.
  uint64_t handed_off = 0;  // Boundary-ring flit records (whole run).
  uint64_t cloned = 0;      // Cut-crossing head flits cloned (whole run).
  uint64_t pool_fallbacks = 0;  // Pool misses inside the measured window.
  uint64_t arena_allocs = 0;    // Arena chunk news inside the measured window.
  uint64_t heap_calls = 0;      // Global operator new calls inside the window.
  uint64_t ticked_blocks = 0;    // Block-ticks issued inside the measured window.
  uint64_t executed_cycles = 0;  // Cycles executed inside the measured window.
  uint64_t wheel_wakes = 0;
  uint64_t wake_calls = 0;
  uint64_t block_count = 0;
  ExpressStats express;  // Whole-run corridor counters.

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

// Saturated 8x8 board: eight client/service pairs whose requests and
// replies cross one or three of the column cuts (x = 1|2, 3|4, 5|6), plus
// mixed inline/arena payload tiers. Tile = y*8 + x.
RunResult RunOne(uint32_t threads, bool express, Cycle warmup_cycles,
                 Cycle measure_cycles) {
  BenchBoardOptions options;
  options.width = 8;
  options.height = 8;
  options.tile_region_cells = 25'000;  // 64 tiles of 100k would not fit VU9P.
  // Skip the standard services: pure IPC traffic, nothing else on the board.
  BenchBoard bb(options, /*deploy_services=*/false);
  bb.board.mesh().SetExpressEnabled(express);
  ApiaryOs& os = bb.os;
  const AppId app = os.CreateApp("b3");

  std::vector<SaturatingClient*> clients;
  // (client x, service x): four rows with a 3-cut crossing, four with 1-cut.
  const uint32_t pair_x[8][2] = {{1, 6}, {6, 1}, {0, 7}, {7, 0},
                                 {3, 4}, {4, 3}, {2, 5}, {5, 2}};
  for (uint32_t i = 0; i < 8; ++i) {
    const uint32_t y = i;  // One pair per row keeps tiles distinct.
    DeployOptions svc_opts;
    svc_opts.tile = y * 8 + pair_x[i][1];
    ServiceId echo_svc = 0;
    os.Deploy(app, std::make_unique<EchoAccelerator>(/*service_cycles=*/0), &echo_svc, svc_opts);
    const uint32_t bytes = (i % 2 == 0) ? kSmallPayload : kLargePayload;
    auto client = std::make_unique<SaturatingClient>(echo_svc, bytes);
    clients.push_back(client.get());
    DeployOptions client_opts;
    client_opts.tile = y * 8 + pair_x[i][0];
    const TileId ct = os.Deploy(app, std::move(client), nullptr, client_opts);
    (void)os.GrantSendToService(ct, echo_svc);
  }

  ParallelSimulator psim(&bb.sim, &bb.board.mesh(), ParallelConfig{kShards, threads});

  // Warm up: pools grow to the traffic's high-water mark, boundary rings and
  // anchors reach steady occupancy. Everything after the ledger reset is
  // steady state.
  psim.Run(warmup_cycles);
  bb.board.mesh().ResetPoolStats();
  bb.sim.context().arena().ResetStats();
  for (uint32_t s = 0; s < psim.shards(); ++s) {
    psim.shard_context(s)->arena().ResetStats();
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
  psim.Run(measure_cycles);
  const auto t1 = std::chrono::steady_clock::now();  // NOLINT(apiary-determinism): host wall time is the measurand, never fed back into sim state

  RunResult r;
  r.heap_calls = HeapAllocCalls() - heap0;
  r.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  r.mcycles_per_sec =
      r.wall_seconds > 0 ? static_cast<double>(measure_cycles) / r.wall_seconds / 1e6 : 0;
  for (const SaturatingClient* c : clients) {
    r.sent += c->sent();
    r.received += c->received();
  }
  r.sent -= sent0;
  r.received -= received0;
  r.flits = bb.board.mesh().TotalFlitsRouted() - flits0;
  r.handed_off = bb.board.mesh().BoundaryFlitsHandedOff();
  r.cloned = bb.board.mesh().BoundaryPacketsCloned();
  const PacketPoolStats pool = bb.board.mesh().AggregatePoolStats();
  r.pool_fallbacks = pool.heap_allocs;
  r.arena_allocs = bb.sim.context().arena().stats().chunk_allocs;
  for (uint32_t s = 0; s < psim.shards(); ++s) {
    r.arena_allocs += psim.shard_context(s)->arena().stats().chunk_allocs;
  }
  r.ticked_blocks = bb.sim.ticked_blocks() - ticked0;
  r.executed_cycles = bb.sim.executed_cycles() - executed0;
  r.wheel_wakes = bb.sim.wheel_wakes() - wheel0;
  r.wake_calls = bb.sim.wake_calls() - wake0;
  r.block_count = bb.sim.block_count();
  r.express = bb.board.mesh().AggregateExpressStats();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = HasFlag(argc, argv, "--smoke");
  const bool express = !HasFlag(argc, argv, "--no-express");
  const uint32_t only_threads = static_cast<uint32_t>(IntArg(argc, argv, "--threads", 0));
  const Cycle warmup_cycles = smoke ? 100'000 : 500'000;
  const Cycle measure_cycles = smoke ? 300'000 : 2'000'000;
  const unsigned host_cores = std::thread::hardware_concurrency();

  std::printf("B3: sharded engine scaling, saturated 8x8 mesh, %u shards\n", kShards);
  std::printf("(%llu warmup + %llu measured cycles; host has %u hardware threads)\n\n",
              static_cast<unsigned long long>(warmup_cycles),
              static_cast<unsigned long long>(measure_cycles), host_cores);
  if (host_cores < kShards) {
    std::printf("NOTE: fewer host cores (%u) than shards (%u): worker threads\n"
                "time-share cores, so parallel speedup is not attainable here.\n"
                "Evaluate scaling targets on a multi-core runner.\n\n",
                host_cores, kShards);
  }

  BenchJson json("b3_parallel_scaling");
  json.Param("shards", static_cast<uint64_t>(kShards));
  json.Param("warmup_cycles", static_cast<uint64_t>(warmup_cycles));
  json.Param("measure_cycles", static_cast<uint64_t>(measure_cycles));
  json.Param("host_cores", static_cast<uint64_t>(host_cores));
  json.Param("express", express ? 1 : 0);
  json.Param("smoke", smoke ? 1 : 0);

  Table table("B3: simulated Mcycles per wall-second vs worker threads");
  table.SetHeader({"threads", "Mcyc/s", "speedup", "msgs", "flits",
                   "boundary flits", "clones", "pool fallbacks", "allocs/msg"});

  std::vector<uint32_t> configs;
  for (uint32_t t : {1u, 2u, 4u}) {
    if (only_threads == 0 || only_threads == t || t == 1) {
      configs.push_back(t);
    }
  }

  int rc = 0;
  RunResult baseline;
  for (const uint32_t threads : configs) {
    const RunResult r = RunOne(threads, express, warmup_cycles, measure_cycles);
    if (threads == 1) {
      baseline = r;
    } else if (r.sent != baseline.sent || r.received != baseline.received ||
               r.flits != baseline.flits) {
      // Same partition, same schedule: any count divergence is an engine bug.
      std::fprintf(stderr,
                   "B3 FAIL: threads=%u diverged from threads=1 (sent %llu vs %llu, "
                   "recv %llu vs %llu, flits %llu vs %llu)\n",
                   threads, static_cast<unsigned long long>(r.sent),
                   static_cast<unsigned long long>(baseline.sent),
                   static_cast<unsigned long long>(r.received),
                   static_cast<unsigned long long>(baseline.received),
                   static_cast<unsigned long long>(r.flits),
                   static_cast<unsigned long long>(baseline.flits));
      rc = 1;
    }
    if (r.pool_fallbacks != 0 || r.arena_allocs != 0) {
      std::fprintf(stderr,
                   "B3 FAIL: steady-state allocations on the handoff path "
                   "(threads=%u: %llu pool misses, %llu arena chunks)\n",
                   threads, static_cast<unsigned long long>(r.pool_fallbacks),
                   static_cast<unsigned long long>(r.arena_allocs));
      rc = 1;
    }
    const double speedup =
        baseline.mcycles_per_sec > 0 ? r.mcycles_per_sec / baseline.mcycles_per_sec : 0;
    table.AddRow({Table::Int(threads), Table::Num(r.mcycles_per_sec, 2),
                  Table::Num(speedup, 2), Table::Int(r.received), Table::Int(r.flits),
                  Table::Int(r.handed_off), Table::Int(r.cloned),
                  Table::Int(r.pool_fallbacks + r.arena_allocs),
                  Table::Num(PerMessage(r.heap_calls, r.received), 3)});
    json.BeginRow();
    json.Metric("threads", static_cast<uint64_t>(threads));
    json.Metric("wall_seconds", r.wall_seconds);
    json.Metric("mcycles_per_sec", r.mcycles_per_sec);
    json.Metric("speedup_vs_1", speedup);
    json.Metric("messages", r.received);
    json.Metric("flits", r.flits);
    json.Metric("boundary_flits", r.handed_off);
    json.Metric("boundary_clones", r.cloned);
    json.Metric("pool_fallbacks", r.pool_fallbacks);
    json.Metric("arena_chunk_allocs", r.arena_allocs);
    json.Metric("heap_calls", r.heap_calls);
    json.Metric("allocs_per_msg", PerMessage(r.heap_calls, r.received));
    json.Metric("ticked_blocks", r.ticked_blocks);
    json.Metric("executed_cycles", r.executed_cycles);
    json.Metric("active_fraction", r.ActiveFraction());
    json.Metric("wheel_wakes", r.wheel_wakes);
    json.Metric("wake_calls", r.wake_calls);
    json.Metric("express_hits", r.express.delivered);
    json.Metric("express_launches", r.express.launches);
    json.Metric("materializations", r.express.materializations);
    json.Metric("mean_corridor_hops", r.MeanCorridorHops());
  }
  table.Print();

  const std::string json_path = JsonPathArg(argc, argv);
  if (!json_path.empty() && !json.WriteFile(json_path)) {
    return 1;
  }
  return rc;
}
