// Good: a Clocked subclass naming itself for traces.
#ifndef SRC_SIM_TICKER_H_
#define SRC_SIM_TICKER_H_

#include <string>

#include "src/sim/clocked.h"

namespace apiary {

class Ticker : public Clocked {
 public:
  void Tick(Cycle now) override;
  [[nodiscard]] Cycle NextActivity(Cycle now) const override;
  std::string DebugName() const override { return "ticker"; }
};

}  // namespace apiary

#endif  // SRC_SIM_TICKER_H_
