// Active-set scheduler: the executed-cycle engine behind Simulator.
//
// The reference loop (Simulator::SetSkipEnabled(false)) pays O(all blocks)
// per cycle even when most blocks are quiescent. This schedule keeps an
// insertion-stable *active list* (iterated in registration order, so trace
// ordering is byte-identical to the reference loop) plus a bucketed timer
// wheel keyed by Clocked::NextActivity, making an executed cycle
// O(active + woken) and the skip-decision poll O(1) when any block is busy.
//
// Correctness rests on the quiescence contract (src/sim/clocked.h): Tick()
// of a quiescent block is a no-op (including its trace), so conservatively
// ticking a block is always byte-safe — only a *missed* tick (a late wake)
// can change behavior. Every block is scheduled the same way, and every
// transition out of parked quiescence goes through one of:
//   * the timer wheel (the block's own declared deadline),
//   * Clocked::RequestWake()/WakeHint (input delivered by another block or
//     by the harness between runs, or a method of the block itself mutating
//     its declaration from outside its Tick).
// There is no third way in: nothing re-polls a parked block, and nothing
// re-activates the whole board. Audit mode (CountMissedWakes) checks that
// no parked block is holding work.
#ifndef SRC_SIM_ACTIVE_SCHEDULE_H_
#define SRC_SIM_ACTIVE_SCHEDULE_H_

#include <cstdint>
#include <vector>

#include "src/sim/clocked.h"
#include "src/sim/types.h"

namespace apiary {

class ActiveSchedule final {
 public:
  ActiveSchedule() = default;
  ActiveSchedule(const ActiveSchedule&) = delete;
  ActiveSchedule& operator=(const ActiveSchedule&) = delete;

  // Adds a block; returns its stable slot id (never reshuffled by other
  // blocks' removal — the fix for the old index-remap in
  // Simulator::ApplyPendingRemovals). The block starts active (conservative:
  // a spurious tick is a no-op). When called while ExecuteTicks is running,
  // the block's first tick is deferred to the next cycle, matching the
  // reference loop's count snapshot (blocks registered mid-tick start next
  // cycle, while blocks registered between runs tick same-cycle).
  uint32_t Add(Clocked* block, Cycle now);

  // Removes a block; its slot id is recycled (generation-checked, so stale
  // wheel entries can never alias the new tenant).
  void Remove(uint32_t slot);

  // Ends `slot`'s parked quiescence (Clocked::RequestWake lands here).
  // Insertion keeps registration order; a wake issued mid-ExecuteTicks by an
  // *earlier*-order block is deferred to next cycle (the reference loop had
  // already ticked the sleeper this cycle), while one from a *later*-order
  // block ticks this cycle (the reference loop had not reached the sleeper
  // yet) — byte-identical visibility.
  void Wake(uint32_t slot);

  // Ticks the active list for cycle `now`, in registration order.
  void ExecuteTicks(Cycle now);

  // Establishes the active set for cycle `now` (call after advancing the
  // clock, including across skip jumps): pops due timer-wheel entries, then
  // re-polls the active blocks, parking the quiescent ones. A wake rung from
  // inside one of those polls (a const query flipping cached state) takes
  // effect once the poll loop is done, for this cycle.
  void AdvanceBoundary(Cycle now);

  // Activates every block whose wheel deadline is due by `now` (the first
  // half of AdvanceBoundary) and parks nothing. All that a stretch of the
  // reference loop leaves to repair: wakes still landed while it ran, but a
  // block whose deadline fell due meanwhile may have re-armed for `now` in
  // its own ticks.
  void ActivateDue(Cycle now);

  // The earliest cycle >= `now` at which this schedule needs an executed
  // cycle: `now` itself while any block is active (O(1)), else the earliest
  // live wheel deadline; kNoActivity when fully idle. Pure (safe to call
  // repeatedly).
  Cycle EarliestWork(Cycle now) const;

  // Audit-mode check (Simulator::SetAuditEnabled): re-polls every parked or
  // wheeled block at the boundary of cycle `now` and counts those
  // whose NextActivity(now) <= now — blocks with work this cycle that the
  // schedule will not tick, i.e. missed wakes. Stores the first offender in
  // `*first` when it is not null. Pure; O(slots).
  size_t CountMissedWakes(Cycle now, const Clocked** first) const;

  // Clock queries (Simulator::ClockOf): true once the current cycle's tick
  // loop has reached `block` in registration order — its own tick included —
  // whether or not it ticked. ExecuteTicks tracks its own position; the
  // reference loop reports its position through MarkReached and ends with
  // ClearReached. False outside a tick loop and for a block bound elsewhere.
  bool Reached(const Clocked& block) const {
    return block.schedule_ == this && block.schedule_order_ < reached_;
  }
  void MarkReached(uint32_t slot) { reached_ = slots_[slot].order + 1; }
  void ClearReached() { reached_ = 0; }

  size_t size() const { return live_count_; }

  // Executed-cycle breakdown (monotonic).
  uint64_t ticked_blocks() const { return ticked_blocks_; }
  uint64_t wheel_wakes() const { return wheel_wakes_; }
  uint64_t wake_calls() const { return wake_calls_; }

 private:
  enum class State : uint8_t { kFree, kActive, kTimed, kParked };

  struct Slot {
    Clocked* block = nullptr;
    uint64_t order = 0;         // Registration order; the global tick order.
    Cycle deadline = 0;         // Valid while kTimed (wheel entry validation).
    Cycle no_tick_before = 0;   // Defers the first tick of a mid-loop Add.
    uint32_t gen = 0;
    State state = State::kFree;
    bool timed_far = false;  // Valid while kTimed: entry lives in far_, not a bucket.
  };

  struct WheelEntry {
    uint32_t slot;
    uint32_t gen;
    Cycle deadline;
  };

  static constexpr Cycle kWheelBuckets = 256;

  bool EntryLive(const WheelEntry& e) const {
    const Slot& s = slots_[e.slot];
    return s.gen == e.gen && s.state == State::kTimed && s.deadline == e.deadline;
  }

  // Inserts `slot` into active_ keeping registration order; fixes up the
  // tick cursor so in-progress iteration neither revisits nor misses blocks.
  void InsertActive(uint32_t slot);
  void ScheduleTimed(uint32_t slot, Cycle now, Cycle deadline);
  void Activate(uint32_t slot);

  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  uint64_t next_order_ = 0;
  size_t live_count_ = 0;

  // Slots to tick, sorted by registration order; blocks come and go with
  // their quiescence. Non-empty is the O(1) busy signal.
  std::vector<uint32_t> active_;
  // Set while AdvanceBoundary re-polls active_; wakes rung meanwhile queue
  // in boundary_wakes_ instead of inserting into the list being compacted.
  bool polling_ = false;
  std::vector<uint32_t> boundary_wakes_;

  // Bucketed wheel for near deadlines (< now + kWheelBuckets) and an
  // unsorted far list (with a cached lower bound) for the rest. Entries are
  // validated lazily against their slot (generation + state + deadline), so
  // wakes and removals never have to search the wheel.
  std::vector<WheelEntry> buckets_[kWheelBuckets];
  std::vector<WheelEntry> far_;
  Cycle far_min_ = kNoActivity;
  Cycle last_boundary_ = 0;
  // Number of kTimed slots whose entry is in a near bucket (exact; lets the
  // boundary pop and the EarliestWork bucket walk short-circuit when zero).
  size_t near_timed_ = 0;
  // Lower bound on the earliest live wheel deadline (exact value would need
  // a scan; the bound keeps EarliestWork's bucket walk short).
  Cycle wheel_min_ = kNoActivity;

  bool ticking_ = false;
  size_t cursor_ = 0;
  // One past the registration order of the block the tick loop is at; 0
  // outside a tick loop.
  uint64_t reached_ = 0;

  uint64_t ticked_blocks_ = 0;
  uint64_t wheel_wakes_ = 0;
  uint64_t wake_calls_ = 0;
};

}  // namespace apiary

#endif  // SRC_SIM_ACTIVE_SCHEDULE_H_
