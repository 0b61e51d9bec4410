#include "src/sim/active_schedule.h"

#include <algorithm>

namespace apiary {

uint32_t ActiveSchedule::Add(Clocked* block, Cycle now) {
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.block = block;
  s.order = next_order_++;
  s.deadline = 0;
  // A block registered from inside a Tick() must not tick this cycle (the
  // reference loop's count snapshot excluded it); one registered from an event
  // callback runs this cycle (the snapshot was taken after events).
  s.no_tick_before = ticking_ ? now + 1 : 0;
  s.state = State::kActive;
  block->BindWakeSink(this, slot);
  ++live_count_;
  InsertActive(slot);
  return slot;
}

void ActiveSchedule::Remove(uint32_t slot) {
  if (slot >= slots_.size() || slots_[slot].state == State::kFree) {
    return;
  }
  Slot& s = slots_[slot];
  if (s.state == State::kActive) {
    const auto it = std::lower_bound(active_.begin(), active_.end(), slot,
                                     [this](uint32_t a, uint32_t b) {
                                       return slots_[a].order < slots_[b].order;
                                     });
    if (it != active_.end() && *it == slot) {
      const size_t pos = static_cast<size_t>(it - active_.begin());
      active_.erase(it);
      if (ticking_ && pos <= cursor_) {
        --cursor_;
      }
    }
  } else if (s.state == State::kTimed && !s.timed_far) {
    --near_timed_;
  }
  s.block->BindWakeSink(nullptr, 0);
  s.block = nullptr;
  s.state = State::kFree;
  ++s.gen;  // Invalidates every wheel/far entry for this slot.
  --live_count_;
  free_slots_.push_back(slot);
}

void ActiveSchedule::InsertActive(uint32_t slot) {
  const auto it = std::lower_bound(active_.begin(), active_.end(), slot,
                                   [this](uint32_t a, uint32_t b) {
                                     return slots_[a].order < slots_[b].order;
                                   });
  const size_t pos = static_cast<size_t>(it - active_.begin());
  active_.insert(it, slot);
  // Mid-loop wake ordering: an insert at or before the cursor shifts the
  // in-progress element right, and the woken block (earlier in registration
  // order than the waker) must not tick this cycle — the reference loop had
  // already passed it when the input arrived. Advancing the cursor handles
  // both at once. An insert after the cursor ticks this cycle, exactly when
  // the reference loop would have reached it.
  if (ticking_ && pos <= cursor_) {
    ++cursor_;
  }
}

void ActiveSchedule::Activate(uint32_t slot) {
  Slot& s = slots_[slot];
  if (s.state == State::kTimed && !s.timed_far) {
    --near_timed_;
  }
  s.state = State::kActive;
  InsertActive(slot);
}

void ActiveSchedule::Wake(uint32_t slot) {
  ++wake_calls_;
  if (slot >= slots_.size()) {
    return;
  }
  const State st = slots_[slot].state;
  if (st == State::kActive || st == State::kFree) {
    return;  // Already ticking (or gone): a wake is never an error.
  }
  if (polling_) {
    boundary_wakes_.push_back(slot);  // AdvanceBoundary activates it after its loop.
    return;
  }
  Activate(slot);
}

void ActiveSchedule::ScheduleTimed(uint32_t slot, Cycle now, Cycle deadline) {
  Slot& s = slots_[slot];
  s.state = State::kTimed;
  s.deadline = deadline;
  if (deadline - now < kWheelBuckets) {
    s.timed_far = false;
    buckets_[deadline % kWheelBuckets].push_back(WheelEntry{slot, s.gen, deadline});
    ++near_timed_;
    wheel_min_ = std::min(wheel_min_, deadline);
  } else {
    s.timed_far = true;
    far_.push_back(WheelEntry{slot, s.gen, deadline});
    far_min_ = std::min(far_min_, deadline);
  }
}

void ActiveSchedule::ExecuteTicks(Cycle now) {
  ticking_ = true;
  for (cursor_ = 0; cursor_ < active_.size(); ++cursor_) {
    const uint32_t slot = active_[cursor_];
    if (slots_[slot].no_tick_before > now) {
      continue;
    }
    Clocked* block = slots_[slot].block;
    block->Tick(now);
    ++ticked_blocks_;
  }
  ticking_ = false;
}

void ActiveSchedule::AdvanceBoundary(Cycle now) {
  // 1. Pop due timer-wheel entries. Buckets are visited once per cycle in
  // (last_boundary_, now]; a jump of a full wheel revolution or more visits
  // every bucket once. Far entries activate straight from the far list.
  if (near_timed_ > 0 || last_boundary_ + 1 < now) {
    const Cycle gap = now - last_boundary_;
    const Cycle first = gap >= kWheelBuckets ? now - kWheelBuckets + 1 : last_boundary_ + 1;
    for (Cycle c = first; c <= now; ++c) {
      std::vector<WheelEntry>& bucket = buckets_[c % kWheelBuckets];
      if (bucket.empty()) {
        continue;
      }
      size_t kept = 0;
      for (size_t i = 0; i < bucket.size(); ++i) {
        const WheelEntry e = bucket[i];
        if (e.deadline > now) {
          bucket[kept++] = e;  // Aliased future revolution: stays.
          continue;
        }
        if (EntryLive(e)) {
          Activate(e.slot);
          ++wheel_wakes_;
        }
        // Due-but-stale entries (woken or removed earlier) just drop.
      }
      bucket.resize(kept);
    }
    wheel_min_ = std::max(wheel_min_, now + 1);
  }
  if (!far_.empty() && far_min_ <= now) {
    size_t kept = 0;
    Cycle next_min = kNoActivity;
    for (size_t i = 0; i < far_.size(); ++i) {
      const WheelEntry e = far_[i];
      if (e.deadline <= now) {
        if (EntryLive(e)) {
          Activate(e.slot);
          ++wheel_wakes_;
        }
        continue;
      }
      if (!EntryLive(e)) {
        continue;  // Compact stale future entries while we are here.
      }
      next_min = std::min(next_min, e.deadline);
      far_[kept++] = e;
    }
    far_.resize(kept);
    far_min_ = next_min;
  }

  // 2. Re-poll the active list and park the quiescent: declared-future blocks
  // go to the wheel, idle-until-input blocks park on their wake channel.
  polling_ = true;
  size_t kept = 0;
  for (size_t i = 0; i < active_.size(); ++i) {
    const uint32_t slot = active_[i];
    Slot& s = slots_[slot];
    const Cycle next = s.block->NextActivity(now);
    if (next <= now) {
      active_[kept++] = slot;
    } else if (next == kNoActivity) {
      s.state = State::kParked;
    } else {
      ScheduleTimed(slot, now, next);
    }
  }
  active_.resize(kept);
  polling_ = false;

  // 3. Wakes rung from inside those polls: a block parked earlier in this
  // loop (or before it) got input and is active for this cycle.
  for (const uint32_t slot : boundary_wakes_) {
    const State st = slots_[slot].state;
    if (st == State::kParked || st == State::kTimed) {
      Activate(slot);
    }
  }
  boundary_wakes_.clear();

  last_boundary_ = now;
}

Cycle ActiveSchedule::EarliestWork(Cycle now) const {
  if (!active_.empty()) {
    return now;  // O(1): some block is busy.
  }
  Cycle earliest = kNoActivity;
  // Earliest live wheel deadline: walk cycles from the cached lower bound.
  // Every live near entry has deadline in (now, now + kWheelBuckets), so the
  // walk is bounded by one revolution; stale entries are skipped (the skip
  // target must be exact, not a bound — skip counters are part of the
  // byte-identity contract).
  if (near_timed_ > 0) {
    const Cycle start = std::max(wheel_min_, now + 1);
    for (Cycle c = start; c < now + kWheelBuckets; ++c) {
      bool found = false;
      for (const WheelEntry& e : buckets_[c % kWheelBuckets]) {
        if (e.deadline == c && EntryLive(e)) {
          found = true;
          break;
        }
      }
      if (found) {
        earliest = std::min(earliest, c);
        break;
      }
    }
  }
  for (const WheelEntry& e : far_) {
    if (EntryLive(e)) {
      earliest = std::min(earliest, e.deadline);
    }
  }
  return earliest;
}

size_t ActiveSchedule::CountMissedWakes(Cycle now, const Clocked** first) const {
  size_t missed = 0;
  for (const Slot& s : slots_) {
    if (s.state != State::kParked && s.state != State::kTimed) {
      continue;
    }
    if (s.block->NextActivity(now) <= now) {
      if (missed == 0 && first != nullptr) {
        *first = s.block;
      }
      ++missed;
    }
  }
  return missed;
}

void ActiveSchedule::RebuildAllActive() {
  for (auto& bucket : buckets_) {
    bucket.clear();
  }
  far_.clear();
  far_min_ = kNoActivity;
  wheel_min_ = kNoActivity;
  near_timed_ = 0;
  active_.clear();
  for (uint32_t slot = 0; slot < slots_.size(); ++slot) {
    Slot& s = slots_[slot];
    if (s.state == State::kFree) {
      continue;
    }
    s.state = State::kActive;
    active_.push_back(slot);
  }
  std::sort(active_.begin(), active_.end(), [this](uint32_t a, uint32_t b) {
    return slots_[a].order < slots_[b].order;
  });
}

}  // namespace apiary
