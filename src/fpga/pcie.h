// PCIe endpoint model: the host-mediation transport used by the Coyote- and
// AmorphOS-style baselines (and by Apiary only if a deployment chooses to
// host a service on the local CPU — Section 6, open question 3).
#ifndef SRC_FPGA_PCIE_H_
#define SRC_FPGA_PCIE_H_

#include <cstdint>
#include <deque>
#include <functional>

#include "src/sim/clocked.h"
#include "src/stats/summary.h"

namespace apiary {

struct PcieConfig {
  // One-way DMA/MMIO crossing latency. ~600-900ns is typical for Gen3/4;
  // expressed in cycles of the fabric clock by the board.
  Cycle one_way_cycles = 175;  // ~700ns at 250 MHz.
  // Effective payload bandwidth in bytes/cycle (Gen3 x16 ~ 12 GB/s ~ 48 B
  // per 4ns cycle).
  double bytes_per_cycle = 48.0;
  uint32_t queue_depth = 256;
};

// Models one direction-agnostic transfer pipe: submissions complete in FIFO
// order after latency + serialization.
class PcieEndpoint : public Clocked {
 public:
  using Completion = std::function<void(Cycle)>;

  explicit PcieEndpoint(PcieConfig config) : config_(config) {}

  // Submits a transfer of `bytes`; `done` fires when it lands on the other
  // side. Returns false when the submission queue is full.
  bool Submit(uint64_t bytes, Completion done);

  void Tick(Cycle now) override;
  // An unlaunched submission must be launched on the very next tick (launch
  // time feeds the link-serialization math); otherwise completions are FIFO
  // with monotonic complete_at, so the front transfer bounds the sleep.
  // APIARY-WAKE(self): Submit rings the endpoint's own RequestWake().
  [[nodiscard]] Cycle NextActivity(Cycle now) const override {
    if (queue_.empty()) {
      return kNoActivity;
    }
    if (!queue_.back().launched) {
      return now;
    }
    return queue_.front().complete_at > now ? queue_.front().complete_at : now;
  }
  std::string DebugName() const override { return "pcie"; }

  const CounterSet& counters() const { return counters_; }
  const PcieConfig& config() const { return config_; }

  static uint32_t LogicCellCost() { return 70000; }

 private:
  struct Transfer {
    uint64_t bytes;
    Completion done;
    bool launched = false;
    Cycle complete_at = 0;
  };

  PcieConfig config_;
  std::deque<Transfer> queue_;
  Cycle link_free_at_ = 0;
  CounterSet counters_;
};

}  // namespace apiary

#endif  // SRC_FPGA_PCIE_H_
