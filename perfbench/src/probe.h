// Outside-in layer measurement: reads each layer's public stats accessors
// into flat, named counter snapshots, and records host-time spans around
// the calls the benchmark's own code makes into the library.
#ifndef PERFBENCH_SRC_PROBE_H_
#define PERFBENCH_SRC_PROBE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/core/accelerator.h"
#include "src/stats/histogram.h"

namespace apiary {
class ApiaryOs;
class Autoscaler;
class Board;
class FloodAttacker;
class KvStoreAccelerator;
class LoadBalancer;
class MemoryService;
class ReconfigScheduler;
class Simulator;
class Supervisor;
class TenantManager;
}  // namespace apiary

namespace perfbench {

// Cumulative counters by metric name (see TakeSnapshot for the names).
using Snapshot = std::map<std::string, uint64_t>;
// `end - begin`, key by key.
Snapshot Delta(const Snapshot& end, const Snapshot& begin);

// KV counters folded across every store instance the supervisor creates:
// a recovery replaces the accelerator, and its counters with it.
struct KvTally {
  uint64_t get_ok = 0;
  uint64_t get_miss = 0;
  const apiary::KvStoreAccelerator* live = nullptr;  // The current instance.
};

// The layers a workload instantiates. Absent layers stay null and read 0.
struct Probes {
  apiary::Simulator* sim = nullptr;
  apiary::Board* board = nullptr;
  apiary::ApiaryOs* os = nullptr;
  apiary::LoadBalancer* lb = nullptr;
  apiary::MemoryService* memsvc = nullptr;
  const KvTally* kv = nullptr;
  apiary::Supervisor* supervisor = nullptr;
  apiary::TenantManager* tenants = nullptr;
  std::vector<uint32_t> tenant_ids;
  apiary::FloodAttacker* flooder = nullptr;
  apiary::Autoscaler* autoscaler = nullptr;
  apiary::ReconfigScheduler* reconfig = nullptr;
};

// Reads every layer's accessors. Allocations made while reading are
// charged to the bookkeeping tally.
Snapshot TakeSnapshot(const Probes& probes);

// Host monotonic time in nanoseconds.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Host speed calibration. A shared host can slow every process on it by
// up to 2x for stretches of seconds to minutes, so raw wall times of one
// binary drift far beyond any useful regression bound. Each timed host
// interval is bracketed by runs of this fixed kernel (xorshift-indexed
// reads and writes over a 2 MiB table; benchmark code, so library changes
// cannot move it), and reported host times are scaled by
// kCalibrationNominalS / mean kernel time: seconds on a host where the
// kernel takes kCalibrationNominalS.
inline constexpr double kCalibrationNominalS = 0.004;
double CalibrationSeconds();

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  uint32_t id;
  uint32_t parent;  // 0: a root span.
};

// In-memory span recorder for one traced iteration. Span storage is
// reserved up front (no allocation while the simulator runs). The harness's
// own spans (set-up phases, warmup, slices, drain) are always kept; client
// and Send spans past `max_client_spans` are timed into the aggregates but
// not kept.
class Tracer {
 public:
  explicit Tracer(size_t max_client_spans);

  // Harness spans. An open span is the parent of spans begun inside it.
  uint32_t Open(const char* name);
  void Close(uint32_t id);
  // A finished root span.
  void Record(const char* name, int64_t start_ns, int64_t end_ns);
  // Counter deltas attached to a span (slice spans carry the layer deltas).
  void Annotate(uint32_t id, Snapshot args);

  // Client callbacks (Tick/OnMessage) and the TileApi::Send calls inside
  // them: the recorder keeps the totals needed for self time.
  int64_t client_ns = 0;
  int64_t send_ns = 0;
  apiary::Histogram send_hist;  // Per-Send host ns.

  const std::vector<Span>& spans() const { return spans_; }

  // Chrome trace-event JSON ("X" events; args carry id, parent and
  // counter deltas).
  bool WriteChromeJson(const std::string& path, int64_t epoch_ns) const;

 private:
  friend class ClientSpan;
  friend apiary::SendResult TimedSend(Tracer* tracer, apiary::TileApi& api,
                                      apiary::Message msg, apiary::CapRef endpoint);
  uint32_t Begin(const char* name, int64_t start_ns, bool harness);
  void End(uint32_t id, int64_t end_ns);

  static constexpr size_t kHarnessSpans = 256;
  std::vector<Span> spans_;
  size_t max_client_spans_;
  size_t client_spans_ = 0;
  uint32_t next_id_ = 1;
  uint64_t dropped_ = 0;
  std::vector<uint32_t> open_;  // Stack of open span ids.
  std::map<uint32_t, Snapshot> annotations_;
};

// Times a benchmark client's callback (Tick or OnMessage) as a span; a
// no-op without a tracer.
class ClientSpan {
 public:
  ClientSpan(Tracer* tracer, const char* name);
  ~ClientSpan();
  ClientSpan(const ClientSpan&) = delete;
  ClientSpan& operator=(const ClientSpan&) = delete;

 private:
  Tracer* tracer_;
  int64_t start_ns_ = 0;
  uint32_t id_ = 0;
};

// TileApi::Send — the monitor's capability check, rate limit and outbox
// admission — as a span under the current client span.
apiary::SendResult TimedSend(Tracer* tracer, apiary::TileApi& api, apiary::Message msg,
                             apiary::CapRef endpoint);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_PROBE_H_
