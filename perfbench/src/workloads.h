// The benchmark's three whole-board workloads, each run on the library's
// default engine configuration (the reference oracle excepted).
//   saturated-echo     b2's pooled shape: 4 closed-loop echo pairs on a 4x4
//                      board, window 16, 48 B and 240 B payloads.
//   diurnal-autoscale  a10's autoscaled deployment: an open-loop diurnal
//                      Poisson trace through the load balancer into 1..6
//                      checksum replicas grown by the orchestration stack.
//   tenant-flood       a11's flit flood with enforcement on: a closed-loop
//                      victim KV tenant beside a flooding attacker, with a
//                      mid-attack victim crash healed by the supervisor.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/alloc_count.h"
#include "perfbench/src/probe.h"
#include "src/stats/histogram.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  uint64_t slo_cycles;  // Request latency limit for slo_attain_pct.
};
const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

// Request accounting of the benchmark's clients over the measured window.
// Conservation: attempted == completed + errors + refusals + timeouts +
// outstanding. For tenant-flood it covers the victim only.
struct Ledger {
  uint64_t attempted = 0;
  uint64_t completed = 0;
  uint64_t errors = 0;    // Error responses (bounces, refusals by the server).
  uint64_t refusals = 0;  // Sends the monitor refused for good (not retried).
  uint64_t timeouts = 0;
  uint64_t outstanding = 0;
  uint64_t slo_ok = 0;    // Completed within the workload's latency limit.
  uint64_t kv_misses = 0; // Completed KV GETs answered "not found".
  apiary::Histogram latency;   // Cycles, completed requests only.
  apiary::Histogram lateness;  // Open loop: cycles from due to sent.
  // Semantic check failures (wrong echo bytes, wrong CRC, wrong KV value).
  uint64_t check_failures = 0;
  std::string first_failure;

  uint64_t failed() const { return errors + refusals + timeouts; }
  void Fail(const std::string& what);
};

struct IterationMode {
  // Reference oracle: cycle skipping and active-set scheduling off, so
  // every block ticks every cycle.
  bool reference = false;
  // Stop after set-up (set-up time samples only).
  bool setup_only = false;
  Tracer* tracer = nullptr;
};

struct IterationResult {
  // Host time in calibrated seconds (see CalibrationSeconds): set-up and
  // the measured window, scaled by the kernel runs that follow them.
  double board_s = 0;   // Simulator, board and kernel construction.
  double deploy_s = 0;  // Services, apps, grants, tenants, orchestration.
  double measure_ref_s = 0;
  // Raw wall seconds.
  double measure_s = 0;  // The measured window (and drain, if any).
  std::vector<double> slice_s;
  std::vector<double> calib_s;  // Every calibration kernel time taken.
  AllocTally setup_allocs;
  AllocTally window_allocs;

  // Simulated results; identical for a seed on every engine configuration.
  Ledger ledger;
  Snapshot window;  // Layer counter deltas over the measured window.
  uint64_t window_cycles = 0;
  uint64_t tile_cycles = 0;  // Occupancy cost of the deployment.
  uint64_t packet_latency_p50 = 0;
  uint64_t packet_latency_p99 = 0;
  uint64_t replicas_max = 0;
  uint64_t recovery_cycles = 0;
  uint64_t billing_digest = 0;  // Tenant billing records, 0 without tenants.
  uint64_t block_count = 0;

  // Traced iterations only: client callback time (including their sends),
  // the same minus the sends, and per-Send host time percentiles.
  int64_t client_ns = 0;
  int64_t client_self_ns = 0;
  uint64_t send_ns_p50 = 0;
  uint64_t send_ns_p99 = 0;
};

// Inputs generated before any timing starts. Payload bytes, KV keys and
// values, and the attack and fault seeds derive from `seed`; clients
// regenerate them on demand.
struct Inputs {
  uint64_t seed = 0;
  std::vector<uint64_t> arrivals;  // diurnal-autoscale: due cycle per request.
  std::vector<uint32_t> crcs;      // diurnal-autoscale: expected reply per request.
};
Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed);

IterationResult RunIteration(const WorkloadSpec& spec, const Inputs& inputs,
                             const IterationMode& mode);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
