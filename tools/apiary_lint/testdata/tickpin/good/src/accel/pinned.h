// Good: the engine declares when its Tick next matters, and the controller
// declares its period; a block that only forwards Tick calls to a member
// (`inner_.Tick(now)`) without overriding Tick is not a finding either.
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
  // APIARY-WAKE(tile): requests arrive through the owning Tile's NI sink.
  [[nodiscard]] Cycle NextActivity(Cycle now) const override {
    return jobs_.empty() ? kNoActivity : now;
  }
  std::string name() const override { return "batch"; }

 private:
  std::deque<Message> jobs_;
};

class Controller : public Clocked {
 public:
  void Tick(Cycle now) override;
  [[nodiscard]] Cycle NextActivity(Cycle now) const override {
    return now % 100 == 0 ? now : now + (100 - now % 100);
  }
  std::string DebugName() const override { return "controller"; }
};

class Wrapper : public Clocked {
 public:
  void Step(Cycle now) { inner_.Tick(now); }
  std::string DebugName() const override { return "wrapper"; }

 private:
  Controller inner_;
};

}  // namespace apiary

#endif  // SRC_ACCEL_PINNED_H_
