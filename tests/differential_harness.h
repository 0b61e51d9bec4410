// Differential determinism: every engine configuration must be invisible to
// the simulation. The oracle is the reference engine (SetSkipEnabled(false):
// every block ticked every cycle, no fast-forward, no express corridors).
// Five workloads run here: serial IPC, serial chaos, the full 8x8 board, a
// mid-corridor undeploy and an elastic (autoscaled) service. Each test runs
// a workload in the modes it names, and every run must match the workload's
// reference run byte for byte: end cycle, debug trace, every tile's
// message trace, mesh/monitor/injector/supervisor/tenant/orchestration
// counters, latency summary, fault records, billing records and digests,
// and the autoscaler's region-cycle integral.
//
// Every run has audit mode on (Simulator::SetAuditEnabled): no parked block
// may ever hold work.
//
// The engine's own observables are checked on top: the reference run never
// skips; every optimized and express run skips exactly the recorded number
// of cycles in exactly the recorded number of jumps; express runs launch
// corridors and the others launch none. The skip constants of the IPC,
// chaos and undeploy workloads were recorded with the O(N) NextActivity
// sweep the active set replaced, so they pin the active set's skip targets
// to the brute-force minimum; the elastic and full-board workloads' were
// recorded with the active set (sim_test's probe zoo checks every jump
// against the brute-force minimum).
//
// The suites split the (workload, mode) grid between them, each
// combination run once:
//   skip_differential_test        serial IPC, chaos and elastic, optimized
//   active_set_differential_test  full board, optimized
//   express_differential_test     all five workloads, express, plus the
//                                 undeploy workload optimized
#ifndef TESTS_DIFFERENTIAL_HARNESS_H_
#define TESTS_DIFFERENTIAL_HARNESS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/noc/express.h"
#include "src/sim/types.h"

namespace apiary::differential {

enum class Mode { kReference, kOptimized, kExpress };

struct RunResult {
  // Simulation-visible: must equal the reference run.
  Cycle end_cycle = 0;
  uint64_t flits = 0;
  uint64_t client_sent = 0;
  uint64_t client_ok = 0;
  uint64_t client_errors = 0;
  uint64_t reply_cycle_sum = 0;
  std::string mesh_counters;
  std::string latency;
  std::string monitor_counters;
  std::string tile_traces;  // Every tile's monitor trace ring, oldest first.
  std::string injector_counters;
  std::string fault_trace;
  std::string supervisor_counters;
  std::string tenant_counters;
  std::string billing_a;
  std::string billing_b;
  std::string orch_counters;  // Autoscaler, reconfiguration scheduler, balancer.
  uint64_t replica_tile_cycles = 0;
  uint32_t digest_a = 0;
  uint32_t digest_b = 0;
  std::string trace;
  // Engine observables: differ by mode by construction.
  uint64_t skipped_cycles = 0;
  uint64_t skips = 0;
  ExpressStats express;
  uint64_t audit_violations = 0;
  std::string audit_first_violation;
};

// What the optimized engine must report on top of matching the reference.
struct EngineExpectations {
  uint64_t skipped_cycles;
  uint64_t skips;
  uint64_t min_corridors;  // Express launches and delivers strictly more.
};

using Workload = std::function<RunResult(Mode)>;

// Runs the workload's reference run, then the workload in each of `modes`
// (never kReference), and checks each run against the reference run, which
// it returns for the workload's own "the scenario is real" checks.
RunResult CheckModes(const Workload& workload, const std::vector<Mode>& modes,
                     const EngineExpectations& expect);

// The workloads.
RunResult RunSerialIpc(Mode mode);
RunResult RunSerialChaos(Mode mode);
RunResult RunFullBoard(Mode mode);
RunResult RunMidCorridorUndeploy(Mode mode);
RunResult RunElasticService(Mode mode);

// Skip counts per workload (see the top of this file for how each was
// recorded).
inline constexpr EngineExpectations kSerialIpcEngine{196'800, 800, 0};
inline constexpr EngineExpectations kSerialChaosEngine{138'530, 2'792, 100};
inline constexpr EngineExpectations kFullBoardEngine{5'188, 2'223, 50};
inline constexpr EngineExpectations kMidCorridorUndeployEngine{5'588, 185, 0};
inline constexpr EngineExpectations kElasticServiceEngine{145'980, 5'375, 0};

// "The scenario is real" checks on a workload's reference run.
void ExpectFullBoardIsReal(const RunResult& ref);
void ExpectElasticServiceIsReal(const RunResult& ref);

}  // namespace apiary::differential

#endif  // TESTS_DIFFERENTIAL_HARNESS_H_
