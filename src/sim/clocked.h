// Interface for cycle-driven hardware blocks.
#ifndef SRC_SIM_CLOCKED_H_
#define SRC_SIM_CLOCKED_H_

#include <cstdint>
#include <string>

#include "src/sim/types.h"

namespace apiary {

class ActiveSchedule;

// A Clocked object models a synchronous hardware block: it is ticked once per
// simulated clock cycle. The simulator ticks all registered objects in
// registration order; blocks that need two-phase (compute/commit) semantics
// implement it internally by latching outputs.
//
// One scheduling contract covers every block (DESIGN.md §4 "The wake
// contract"): the optimized engine parks a block on its NextActivity
// declaration — on the timer wheel for a future cycle, bare for
// kNoActivity — and nothing re-polls a parked block until that deadline or
// an explicit wake. So every mutation that moves a block's declaration
// earlier must ring a wake: the mutating method's own RequestWake() when it
// belongs to the block, or the WakeHint of the block that consumes its
// output.
//
// A block keeps no clock of its own. Tick's `now` is the cycle being
// executed; outside its Tick, a block that needs "the cycle I last saw"
// asks Simulator::ClockOf, which answers the same in both engines whether
// the block ticked, parked, or sat through a fast-forward. So a parked
// block owes nothing for the cycles it skipped: the contract is Tick,
// NextActivity and wakes.
class Clocked {
 public:
  virtual ~Clocked() = default;

  // Advance one cycle. `now` is the cycle being executed.
  virtual void Tick(Cycle now) = 0;

  // Quiescence hook (see DESIGN.md §"Simulation substrate"). Returns the
  // earliest future cycle at which this block needs Tick() to run again:
  //   - any value <= now  : "active next cycle" (never skip past me),
  //   - a future cycle T  : quiescent until T; Tick() through T-1 would be a
  //                         no-op given no external input,
  //   - kNoActivity       : idle until external input arrives.
  // The declaration must be *pure*: absent this block's own Tick() and
  // external input, repeated polls return the same answer. The active-set
  // scheduler parks on it and does not poll it again until the declared
  // cycle; a block whose quiescence ends early (input arrives) must be woken
  // via RequestWake()/WakeHint by whoever delivered the input. Declaring a
  // cycle too late breaks simulations (missed work; audit mode reports it);
  // when in doubt, return `now`. The default keeps unported blocks
  // cycle-accurate.
  [[nodiscard]] virtual Cycle NextActivity(Cycle now) const {
    return now;  // Active every cycle unless the block declares otherwise.
  }

  // Human-readable name for tracing and debug dumps.
  virtual std::string DebugName() const { return "clocked"; }

  // --- Wake protocol (active-set scheduling). ---
  //
  // Ends this block's parked quiescence: the schedule re-activates it for
  // the cycle dictated by legacy tick order (a wake from a block earlier in
  // registration order takes effect this cycle; from a later block, next
  // cycle — exactly when a tick-everything loop would have seen the input).
  // Callable from const methods (a const query that flips cached state, e.g.
  // a link-lock poll, still ends quiescence), including from inside another
  // block's NextActivity poll. Always safe to call: waking an
  // already-active or genuinely idle block is a no-op tick at worst, never a
  // behavior change. Must only be called from the thread running this
  // block's simulator — see DESIGN.md for the full contract. A no-op while
  // the block is unregistered. Defined in active_schedule.cc.
  void RequestWake() const;

 private:
  friend class ActiveSchedule;  // Binds the block and reads the binding.

  // Schedule binding, set by ActiveSchedule on add/remove. `order` is the
  // block's registration order, the schedule's tick order: kept beside the
  // slot so a clock query reads it from the block itself.
  void Bind(ActiveSchedule* schedule, uint32_t slot, uint64_t order) const {
    schedule_ = schedule;
    schedule_slot_ = slot;
    schedule_order_ = order;
  }

  // Mutable: RequestWake must be callable from const observers; the binding
  // itself is scheduler bookkeeping, not block state.
  mutable ActiveSchedule* schedule_ = nullptr;
  mutable uint32_t schedule_slot_ = 0;
  mutable uint64_t schedule_order_ = 0;
};

// Copyable wake handle for non-Clocked subobjects (a MAC's RX queue, an NI's
// delivery side, a DRAM completion lambda): lets them wake the Clocked block
// that consumes their output without knowing the schedule.
class WakeHint {
 public:
  WakeHint() = default;
  explicit WakeHint(const Clocked* target) : target_(target) {}

  void Wake() const {
    if (target_ != nullptr) {
      target_->RequestWake();
    }
  }
  bool bound() const { return target_ != nullptr; }

 private:
  const Clocked* target_ = nullptr;
};

}  // namespace apiary

#endif  // SRC_SIM_CLOCKED_H_
