// Suppressed: a block that runs every cycle by design says why.
#ifndef SRC_ACCEL_PINNED_H_
#define SRC_ACCEL_PINNED_H_

#include <string>

#include "src/sim/clocked.h"

namespace apiary {

// NOLINTNEXTLINE(apiary-wake-path): models a free-running host CPU; its per-cycle poll is the measured baseline
class HostCpu : public Clocked {
 public:
  void Tick(Cycle now) override;
  std::string DebugName() const override { return "host_cpu"; }
};

}  // namespace apiary

#endif  // SRC_ACCEL_PINNED_H_
