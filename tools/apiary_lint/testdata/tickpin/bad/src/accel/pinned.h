// Bad: both blocks override Tick but never declare their quiescence, so
// each inherits NextActivity's `return now` and is ticked on every executed
// cycle, busy or not.
#ifndef SRC_ACCEL_PINNED_H_
#define SRC_ACCEL_PINNED_H_

#include <deque>
#include <string>

#include "src/core/accelerator.h"
#include "src/sim/clocked.h"

namespace apiary {

class BatchEngine : public Accelerator {
 public:
  void OnMessage(const Message& msg, TileApi& api) override;
  void Tick(TileApi& api) override;
  std::string name() const override { return "batch"; }

 private:
  std::deque<Message> jobs_;
};

class Meter : public Clocked {
 public:
  void Tick(Cycle now) override { total_ += now; }
  std::string DebugName() const override { return "meter"; }

 private:
  Cycle total_ = 0;
};

}  // namespace apiary

#endif  // SRC_ACCEL_PINNED_H_
