// AmorphOS-style time multiplexing baseline: multiple applications share one
// reconfigurable region by swapping bitstreams, paying partial
// reconfiguration cost on every switch — versus Apiary's spatial sharing,
// where each app owns a tile and switches cost nothing.
//
// Used by the scheduling side of experiment E7/E8 discussions and by its own
// ablation bench: throughput and per-app latency as the number of co-resident
// apps grows, under both sharing disciplines.
#ifndef SRC_BASELINE_TIMESLICED_H_
#define SRC_BASELINE_TIMESLICED_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "src/sim/clocked.h"
#include "src/stats/histogram.h"

namespace apiary {

struct TimeSlicedConfig {
  uint32_t num_apps = 2;
  Cycle slice_cycles = 1'000'000;        // Scheduler quantum.
  Cycle reconfig_cycles = 4'000'000;     // Bitstream swap cost per switch.
  Cycle service_cycles = 200;            // Per-request service time.
};

// NOLINTNEXTLINE(apiary-wake-path): time-sliced comparison model, ticked every cycle as measured; it is not part of the Apiary board
class TimeSlicedFpga : public Clocked {
 public:
  explicit TimeSlicedFpga(TimeSlicedConfig config)
      : config_(config), queues_(config.num_apps), latencies_(config.num_apps) {}

  // Enqueues a request for `app`; records arrival for latency accounting.
  void Submit(uint32_t app, Cycle now) { queues_[app].push_back(now); }

  void Tick(Cycle now) override;
  std::string DebugName() const override { return "timesliced"; }

  uint64_t completed(uint32_t app) const { return completed_[app]; }
  const Histogram& latency(uint32_t app) const { return latencies_[app]; }
  uint64_t reconfigurations() const { return reconfigurations_; }
  uint64_t total_completed() const;

 private:
  TimeSlicedConfig config_;
  std::vector<std::deque<Cycle>> queues_;
  std::vector<Histogram> latencies_;
  std::vector<uint64_t> completed_ = std::vector<uint64_t>(64, 0);
  uint32_t active_app_ = 0;
  Cycle slice_started_at_ = 0;
  Cycle reconfig_until_ = 0;
  Cycle busy_until_ = 0;
  uint64_t reconfigurations_ = 0;
};

}  // namespace apiary

#endif  // SRC_BASELINE_TIMESLICED_H_
