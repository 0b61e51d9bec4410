// Bad: a Clocked subclass with no DebugName override — it would show up in
// traces and watchdog dumps as the anonymous default.
#ifndef SRC_SIM_TICKER_H_
#define SRC_SIM_TICKER_H_

#include "src/sim/clocked.h"

namespace apiary {

class Ticker : public Clocked {
 public:
  void Tick(Cycle now) override;
  [[nodiscard]] Cycle NextActivity(Cycle now) const override;
};

}  // namespace apiary

#endif  // SRC_SIM_TICKER_H_
