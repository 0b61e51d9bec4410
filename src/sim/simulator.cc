#include "src/sim/simulator.h"

#include <algorithm>

#include "src/sim/logging.h"
#include "src/sim/parallel/thread_domain.h"

namespace apiary {

void Simulator::Register(Clocked* block) {
  blocks_.push_back(block);
  // The schedule is kept bound even in the reference mode: wake calls stay
  // counted and still activate parked blocks, so the optimized mode can be
  // re-enabled mid-run.
  slots_.push_back(sched_.Add(block, now_));
}

void Simulator::Unregister(Clocked* block) { pending_removals_.push_back(block); }

void Simulator::ApplyPendingRemovals() {
  if (pending_removals_.empty()) {
    return;
  }
  // Single-pass lockstep compaction of blocks_ and slots_: sort the
  // removal set once and binary-search it per block. Sorting also makes
  // double-unregister of the same block harmless (each surviving element is
  // visited once).
  std::sort(pending_removals_.begin(), pending_removals_.end());
  size_t kept = 0;
  for (size_t i = 0; i < blocks_.size(); ++i) {
    if (std::binary_search(pending_removals_.begin(), pending_removals_.end(), blocks_[i])) {
      sched_.Remove(slots_[i]);
    } else {
      blocks_[kept] = blocks_[i];
      slots_[kept] = slots_[i];
      ++kept;
    }
  }
  blocks_.resize(kept);
  slots_.resize(kept);
  pending_removals_.clear();
}

void Simulator::SetSkipEnabled(bool enabled) {
  if (enabled && !skip_enabled_) {
    // The reference loop pops no wheel entries. One that fell due while it
    // ran still parks its block, whose own ticks may have moved its work to
    // this very cycle.
    sched_.ActivateDue(now_);
  }
  skip_enabled_ = enabled;
}

void Simulator::Step() {
  if (skip_enabled_) {
    sched_.ExecuteTicks(now_);
  } else {
    // Index-based loop with a count snapshot: ticks may register new
    // blocks, which then start ticking on the next cycle.
    const size_t count = blocks_.size();
    for (size_t i = 0; i < count; ++i) {
      sched_.MarkReached(slots_[i]);
      blocks_[i]->Tick(now_);
    }
    sched_.ClearReached();
    reference_ticked_blocks_ += count;
  }
  ApplyPendingRemovals();
  ++now_;
  ++executed_cycles_;
  if (skip_enabled_) {
    sched_.AdvanceBoundary(now_);
    if (audit_enabled_) {
      Audit();
    }
  }
}

void Simulator::Audit() {
  const Clocked* first = nullptr;
  const size_t missed = sched_.CountMissedWakes(now_, &first);
  if (missed == 0) {
    return;
  }
  if (audit_violations_ == 0) {
    audit_first_violation_ = first->DebugName() + " at cycle " + std::to_string(now_);
    APIARY_LOG(kError) << "audit: missed wake: " << audit_first_violation_;
  }
  audit_violations_ += missed;
}

void Simulator::SkipAhead(Cycle limit) {
  if (!skip_enabled_ || now_ >= limit) {
    return;
  }
  // O(1) when any block is busy; otherwise the earliest live wheel
  // deadline — the minimum of every block's NextActivity, since declarations
  // are pure and every change to one rings a wake.
  const Cycle target = sched_.EarliestWork(now_);
  if (target <= now_) {
    return;
  }
  JumpTo(std::min(target, limit));
  if (audit_enabled_) {
    Audit();
  }
}

void Simulator::JumpTo(Cycle target) {
  skipped_cycles_ += target - now_;
  ++skips_;
  now_ = target;
  // Deadlines landing exactly on the jump target are due now.
  sched_.AdvanceBoundary(now_);
}

void Simulator::Run(Cycle cycles) {
  // Everything this run allocates or logs belongs to this simulator's
  // domain (nested installs of the same context are harmless no-ops).
  ThreadDomain::ScopedInstall install(&context_);
  const Cycle end = now_ + cycles;
  while (now_ < end) {
    Step();
    SkipAhead(end);
  }
}

bool Simulator::RunUntil(const std::function<bool()>& pred, Cycle max_cycles) {
  ThreadDomain::ScopedInstall install(&context_);
  const Cycle end = now_ + max_cycles;
  while (now_ < end) {
    if (pred()) {
      return true;
    }
    Step();
    // Re-check at the fresh boundary BEFORE skipping: if the executed cycle
    // satisfied the predicate, now_ must stay here (the cycle count callers
    // observe), not at the far side of a jump.
    if (pred()) {
      return true;
    }
    SkipAhead(end);
  }
  return pred();
}

}  // namespace apiary
