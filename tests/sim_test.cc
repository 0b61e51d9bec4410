// Unit tests for the simulation kernel: RNG, event queue, simulator loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "src/accel/checksum.h"
#include "src/baseline/raw_queue.h"
#include "src/orch/autoscaler.h"
#include "src/orch/placer.h"
#include "src/orch/reconfig_scheduler.h"
#include "src/services/load_balancer.h"
#include "src/sim/crc32.h"
#include "src/sim/event_queue.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "tests/test_util.h"

namespace apiary {
namespace {

std::vector<uint8_t> RandomBytes(Rng& rng, size_t n) {
  std::vector<uint8_t> bytes(n);
  for (uint8_t& b : bytes) {
    b = static_cast<uint8_t>(rng.NextBelow(256));
  }
  return bytes;
}

TEST(Crc32cTest, KnownAnswers) {
  const std::string check = "123456789";
  EXPECT_EQ(Crc32c(reinterpret_cast<const uint8_t*>(check.data()), check.size()), 0xE3069283u);
  const std::vector<uint8_t> zeros(32, 0);
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  EXPECT_EQ(Crc32c(nullptr, 0), 0u);
  // Both implementations, not just the one this host dispatches to.
  EXPECT_EQ(Crc32cFinalize(Crc32cUpdatePortable(kCrc32cInit, zeros.data(), zeros.size())),
            0x8A9136AAu);
}

TEST(Crc32cTest, EverySplitMatchesTheContiguousBytes) {
  // The wire checksum folds the head region and the payload as two updates;
  // any split point must give the CRC of the contiguous image.
  Rng rng(7);
  const std::vector<uint8_t> bytes = RandomBytes(rng, 300);
  const uint32_t whole = Crc32c(bytes.data(), bytes.size());
  for (size_t split = 0; split <= bytes.size(); ++split) {
    const uint8_t* rest = bytes.data() + split;
    const uint32_t state = Crc32cUpdate(kCrc32cInit, bytes.data(), split);
    EXPECT_EQ(Crc32cFinalize(Crc32cUpdate(state, rest, bytes.size() - split)), whole) << split;
  }
}

TEST(Crc32cTest, HardwareAndPortablePathsAgree) {
  if (!Crc32cHardwareAvailable()) {
    GTEST_SKIP() << "no CRC32C instruction on this CPU";
  }
  Rng rng(2027);
  for (int trial = 0; trial < 200; ++trial) {
    const std::vector<uint8_t> bytes = RandomBytes(rng, rng.NextBelow(4097));
    // Odd start offsets exercise unaligned 8-byte loads.
    const size_t skip = bytes.empty() ? 0 : rng.NextBelow(std::min<size_t>(8, bytes.size()));
    const uint8_t* data = bytes.data() + skip;
    const size_t len = bytes.size() - skip;
    const uint32_t state = static_cast<uint32_t>(rng.Next());
    EXPECT_EQ(Crc32cUpdateHardware(state, data, len), Crc32cUpdatePortable(state, data, len))
        << "length " << len;
  }
}

TEST(SplitMix64Test, DeterministicForSeed) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(SplitMix64Test, DifferentSeedsDiffer) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.Next(), b.Next());
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, NextBelowStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextInRangeInclusiveBounds) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 20000; ++i) {
    const uint64_t v = rng.NextInRange(5, 8);
    ASSERT_GE(v, 5u);
    ASSERT_LE(v, 8u);
    saw_lo |= v == 5;
    saw_hi |= v == 8;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
  }
}

TEST(RngTest, NextBoolExtremes) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
  }
}

TEST(RngTest, NextBoolRoughlyMatchesProbability) {
  Rng rng(17);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    hits += rng.NextBool(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, ExponentialHasRequestedMean) {
  Rng rng(19);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    sum += rng.NextExponential(50.0);
  }
  EXPECT_NEAR(sum / n, 50.0, 1.0);
}

TEST(RngTest, ZipfStaysInRange) {
  Rng rng(23);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextZipf(100, 0.99), 100u);
  }
}

TEST(RngTest, ZipfIsSkewedTowardLowRanks) {
  Rng rng(29);
  uint64_t low = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextZipf(1000, 0.99) < 10) {
      ++low;
    }
  }
  // Under theta=0.99 the top-10 keys should absorb a large chunk of mass.
  EXPECT_GT(low, static_cast<uint64_t>(n) / 4);
}

TEST(RngTest, ZipfDegenerateSizes) {
  Rng rng(31);
  EXPECT_EQ(rng.NextZipf(0, 0.99), 0u);
  EXPECT_EQ(rng.NextZipf(1, 0.99), 0u);
}

TEST(EventQueueTest, RunsEventsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(10, [&](Cycle) { order.push_back(2); });
  q.ScheduleAt(5, [&](Cycle) { order.push_back(1); });
  q.ScheduleAt(20, [&](Cycle) { order.push_back(3); });
  q.RunUntil(20);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, SameCycleEventsRunInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.ScheduleAt(7, [&order, i](Cycle) { order.push_back(i); });
  }
  q.RunUntil(7);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, DoesNotRunFutureEvents) {
  EventQueue q;
  int ran = 0;
  q.ScheduleAt(100, [&](Cycle) { ++ran; });
  q.RunUntil(99);
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(q.size(), 1u);
  q.RunUntil(100);
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CallbackMaySchedule) {
  EventQueue q;
  int ran = 0;
  q.ScheduleAt(1, [&](Cycle now) {
    ++ran;
    q.ScheduleAt(now + 1, [&](Cycle) { ++ran; });
  });
  q.RunUntil(5);
  EXPECT_EQ(ran, 2);
}

class CountingBlock : public Clocked {
 public:
  void Tick(Cycle) override { ++ticks; }
  std::string DebugName() const override { return "counting_block"; }
  int ticks = 0;
};

TEST(SimulatorTest, TicksRegisteredBlocks) {
  Simulator sim;
  CountingBlock a;
  CountingBlock b;
  sim.Register(&a);
  sim.Register(&b);
  sim.Run(25);
  EXPECT_EQ(a.ticks, 25);
  EXPECT_EQ(b.ticks, 25);
  EXPECT_EQ(sim.now(), 25u);
}

TEST(SimulatorTest, UnregisterStopsTicking) {
  Simulator sim;
  CountingBlock a;
  sim.Register(&a);
  sim.Run(10);
  sim.Unregister(&a);
  sim.Run(10);
  // One extra tick may occur in the removal cycle itself; bound it tightly.
  EXPECT_LE(a.ticks, 11);
  EXPECT_GE(a.ticks, 10);
}

TEST(SimulatorTest, RunUntilPredicate) {
  Simulator sim;
  CountingBlock a;
  sim.Register(&a);
  const bool fired = sim.RunUntil([&] { return a.ticks >= 7; }, 100);
  EXPECT_TRUE(fired);
  EXPECT_LE(sim.now(), 10u);
}

TEST(SimulatorTest, RunUntilTimesOut) {
  Simulator sim;
  const bool fired = sim.RunUntil([] { return false; }, 50);
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.now(), 50u);
}

TEST(SimulatorTest, ScheduledEventsRunDuringTicks) {
  Simulator sim;
  int fired_at = -1;
  sim.ScheduleAt(13, [&](Cycle now) { fired_at = static_cast<int>(now); });
  sim.Run(20);
  EXPECT_EQ(fired_at, 13);
}

TEST(SimulatorTest, ScheduleAfterIsRelative) {
  Simulator sim;
  sim.Run(5);
  int fired_at = -1;
  sim.ScheduleAfter(10, [&](Cycle now) { fired_at = static_cast<int>(now); });
  sim.Run(20);
  EXPECT_EQ(fired_at, 15);
}

TEST(SimulatorTest, CyclesToNsUsesFrequency) {
  Simulator sim(250.0);
  EXPECT_DOUBLE_EQ(sim.CyclesToNs(250), 1000.0);
  Simulator sim2(100.0);
  EXPECT_DOUBLE_EQ(sim2.CyclesToNs(100), 1000.0);
}

// --- Quiescence skipping. ---

// A block that is idle until work is pushed into it (pending), recording
// every cycle it was actually ticked.
class SleepyBlock : public Clocked {
 public:
  void Tick(Cycle now) override {
    ticked_at.push_back(now);
    if (pending) {
      pending = false;
      processed_at.push_back(now);
    }
  }
  [[nodiscard]] Cycle NextActivity(Cycle now) const override {
    return pending ? now : kNoActivity;
  }
  std::string DebugName() const override { return "sleepy_block"; }

  bool pending = false;
  std::vector<Cycle> ticked_at;
  std::vector<Cycle> processed_at;
};

TEST(SimulatorSkipTest, IdleBlocksAreFastForwarded) {
  Simulator sim;
  SleepyBlock a;
  sim.Register(&a);
  sim.Run(1000);
  EXPECT_EQ(sim.now(), 1000u);
  // Cycle 0 executes (Step runs before the first skip opportunity), then one
  // jump covers the rest.
  EXPECT_EQ(a.ticked_at, (std::vector<Cycle>{0}));
  EXPECT_EQ(sim.skips(), 1u);
  EXPECT_EQ(sim.skipped_cycles(), 999u);
}

TEST(SimulatorSkipTest, NoSkipEscapeHatchTicksEveryCycle) {
  Simulator sim;
  sim.SetSkipEnabled(false);
  SleepyBlock a;
  sim.Register(&a);
  sim.Run(1000);
  EXPECT_EQ(sim.now(), 1000u);
  EXPECT_EQ(a.ticked_at.size(), 1000u);
  EXPECT_EQ(sim.skips(), 0u);
  EXPECT_EQ(sim.skipped_cycles(), 0u);
}

TEST(SimulatorSkipTest, EventInsideSkippedWindowFiresAtItsExactCycle) {
  Simulator sim;
  SleepyBlock a;
  sim.Register(&a);
  std::vector<Cycle> fired_at;
  // The first event lands mid-window; its callback both wakes the block and
  // schedules a second event deeper into what would have been skipped.
  sim.ScheduleAt(500, [&](Cycle now) {
    fired_at.push_back(now);
    a.pending = true;
    sim.ScheduleAt(750, [&](Cycle n2) { fired_at.push_back(n2); });
  });
  sim.Run(1000);
  EXPECT_EQ(fired_at, (std::vector<Cycle>{500, 750}));
  // The block was woken by the event and ran on that exact cycle.
  EXPECT_EQ(a.processed_at, (std::vector<Cycle>{500}));
  // Only the boundary cycles executed: 0, the two event cycles, 750's
  // follow-up boundary is idle again.
  EXPECT_EQ(a.ticked_at, (std::vector<Cycle>{0, 500, 750}));
  EXPECT_EQ(sim.now(), 1000u);
}

TEST(SimulatorSkipTest, SameCycleEventsKeepScheduleOrderAfterJump) {
  Simulator sim;
  SleepyBlock a;
  sim.Register(&a);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    sim.ScheduleAt(700, [&order, i](Cycle) { order.push_back(i); });
  }
  sim.Run(1000);
  // The jump lands exactly on the deadline and the queue drains in schedule
  // order, before that cycle's block ticks (the block observed cycle 700).
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(a.ticked_at, (std::vector<Cycle>{0, 700}));
}

// A block that re-arms its own timer from inside Tick: fires every 100
// cycles starting at 50, sleeping in between.
class TimerBlock : public Clocked {
 public:
  void Tick(Cycle now) override {
    if (now >= wake_at_) {
      fired_at.push_back(now);
      wake_at_ = now + 100;
    }
  }
  [[nodiscard]] Cycle NextActivity(Cycle now) const override {
    return wake_at_ > now ? wake_at_ : now;
  }
  std::string DebugName() const override { return "timer_block"; }

  std::vector<Cycle> fired_at;

 private:
  Cycle wake_at_ = 50;
};

TEST(SimulatorSkipTest, BlockReArmsItselfFromInsideTick) {
  Simulator sim;
  TimerBlock t;
  sim.Register(&t);
  sim.Run(1000);
  std::vector<Cycle> expected;
  for (Cycle c = 50; c < 1000; c += 100) {
    expected.push_back(c);
  }
  EXPECT_EQ(t.fired_at, expected);
  EXPECT_GT(sim.skipped_cycles(), 900u);
}

TEST(SimulatorSkipTest, SkippedPlusExecutedEqualsNow) {
  Simulator sim;
  TimerBlock t;
  sim.Register(&t);
  sim.Run(5000);
  // Every simulated cycle was either executed or skipped; no double counting.
  EXPECT_EQ(sim.now(), 5000u);
  EXPECT_LT(sim.skipped_cycles(), 5000u);
  EXPECT_GT(sim.skipped_cycles(), 0u);
}

TEST(SimulatorSkipTest, RunUntilStopsAtTheSatisfyingBoundary) {
  Simulator sim;
  TimerBlock t;
  sim.Register(&t);
  // The predicate flips when the timer fires at cycle 250; RunUntil must
  // report the boundary right after that executed cycle, not the far side of
  // a subsequent jump.
  const bool fired = sim.RunUntil([&] { return t.fired_at.size() >= 3; }, 10'000);
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now(), 251u);
}

TEST(SimulatorTest, DoubleUnregisterIsHarmless) {
  Simulator sim;
  CountingBlock a;
  CountingBlock b;
  sim.Register(&a);
  sim.Register(&b);
  sim.Run(5);
  sim.Unregister(&a);
  sim.Unregister(&a);  // Duplicate removal of the same block.
  sim.Run(5);
  EXPECT_LE(a.ticks, 6);
  // The survivor keeps ticking: the duplicate entry must not eat `b`.
  EXPECT_EQ(b.ticks, 10);
}

// Randomized skip oracle: timed probes re-arm themselves and feed parked
// probes (through RequestWake); events wake, poke, chain and unregister
// probes.
// Every jump must land exactly on the brute-force minimum of every live
// probe's NextActivity, the next pending event and the end of the run; no
// executed cycle may be idle; and every probe must do its work on the same
// cycles as in the reference mode.
struct ProbeZoo;

class ZooProbe : public Clocked {
 public:
  enum class Kind { kTimed, kParked };
  ZooProbe(ProbeZoo* zoo, Kind kind, Cycle first) : zoo_(zoo), kind_(kind), next_(first) {}

  void Tick(Cycle now) override;
  [[nodiscard]] Cycle NextActivity(Cycle now) const override {
    switch (kind_) {
      case Kind::kTimed:
        return next_ > now ? next_ : now;
      case Kind::kParked:
        return pending_ ? now : kNoActivity;
    }
    return now;
  }
  std::string DebugName() const override { return "zoo_probe"; }

  // Input from another block or an event: a parked probe is woken.
  void Feed() {
    if (kind_ == Kind::kParked) {
      pending_ = true;
      RequestWake();
    }
  }

  bool removed = false;
  std::vector<Cycle> work;

 private:
  ProbeZoo* zoo_;
  Kind kind_;
  Cycle next_;  // kTimed: the next cycle with work.
  bool pending_ = false;
};

// Sees every jump (OnFastForward runs before the clock moves) and never
// needs a tick itself.
class JumpObserver : public Clocked {
 public:
  explicit JumpObserver(ProbeZoo* zoo) : zoo_(zoo) {}
  void Tick(Cycle) override {}
  [[nodiscard]] Cycle NextActivity(Cycle) const override { return kNoActivity; }
  void OnFastForward(Cycle resume) override;
  std::string DebugName() const override { return "jump_observer"; }

 private:
  ProbeZoo* zoo_;
};

struct ProbeZoo {
  static constexpr Cycle kCycles = 40'000;

  ProbeZoo(uint64_t seed, bool optimized) : rng(seed) {
    sim.SetSkipEnabled(optimized);
    for (int i = 0; i < 12; ++i) {
      const auto kind = static_cast<ZooProbe::Kind>(i % 2);
      probes.push_back(std::make_unique<ZooProbe>(this, kind, rng.NextBelow(500)));
      sim.Register(probes.back().get());
    }
    sim.Register(&observer);
    for (int i = 0; i < 60; ++i) {
      ScheduleEvent(rng.NextBelow(kCycles));
    }
  }

  ZooProbe& RandomProbe() { return *probes[rng.NextBelow(probes.size())]; }

  void ScheduleEvent(Cycle when) {
    pending_events.insert(when);
    sim.ScheduleAt(when, [this](Cycle now) {
      pending_events.erase(pending_events.find(now));
      work_cycles.insert(now);
      switch (rng.NextBelow(4)) {
        case 0:
          RandomProbe().Feed();
          break;
        case 1:
          ScheduleEvent(now + 1 + rng.NextBelow(2'000));
          break;
        case 2: {
          ZooProbe& victim = RandomProbe();
          if (!victim.removed && removals < 3) {
            victim.removed = true;
            ++removals;
            sim.Unregister(&victim);
          }
          break;
        }
        default:
          break;  // A bare event still bounds the skip.
      }
    });
  }

  void CheckJump(Cycle resume) {
    Cycle expected = kCycles;  // The run's limit.
    for (const auto& p : probes) {
      if (!p->removed) {
        expected = std::min(expected, p->NextActivity(sim.now()));
      }
    }
    if (!pending_events.empty()) {
      expected = std::min(expected, *pending_events.begin());
    }
    EXPECT_EQ(resume, expected) << "jump from " << sim.now();
    ++jumps_checked;
  }

  Simulator sim;
  Rng rng;
  std::vector<std::unique_ptr<ZooProbe>> probes;
  JumpObserver observer{this};
  std::multiset<Cycle> pending_events;
  std::set<Cycle> work_cycles{0};  // Cycle 0 always executes.
  int removals = 0;
  uint64_t jumps_checked = 0;
};

void ZooProbe::Tick(Cycle now) {
  if (NextActivity(now) > now) {
    return;  // Quiescent: a no-op, as the reference mode's extra ticks must be.
  }
  work.push_back(now);
  zoo_->work_cycles.insert(now);
  switch (kind_) {
    case Kind::kTimed:
      next_ = now + 1 + zoo_->rng.NextBelow(400);
      if (zoo_->rng.NextBool(0.6)) {
        zoo_->RandomProbe().Feed();
      }
      break;
    case Kind::kParked:
      pending_ = false;
      if (zoo_->rng.NextBool(0.3)) {
        zoo_->RandomProbe().Feed();
      }
      break;
  }
}

void JumpObserver::OnFastForward(Cycle resume) { zoo_->CheckJump(resume); }

TEST(SimulatorSkipTest, EverySkipLandsOnTheBruteForceMinimum) {
  for (const uint64_t seed : {1u, 2u, 3u}) {
    ProbeZoo optimized(seed, /*optimized=*/true);
    optimized.sim.Run(ProbeZoo::kCycles);
    ProbeZoo reference(seed, /*optimized=*/false);
    reference.sim.Run(ProbeZoo::kCycles);

    EXPECT_GT(optimized.jumps_checked, 100u) << "seed " << seed;
    EXPECT_EQ(optimized.jumps_checked, optimized.sim.skips()) << "seed " << seed;
    EXPECT_EQ(reference.jumps_checked, 0u) << "seed " << seed;
    // No missed skip: every executed cycle had work for a probe or an event.
    EXPECT_EQ(optimized.sim.executed_cycles(), optimized.work_cycles.size()) << "seed " << seed;
    EXPECT_EQ(optimized.removals, 3) << "seed " << seed;
    for (size_t i = 0; i < optimized.probes.size(); ++i) {
      EXPECT_EQ(optimized.probes[i]->work, reference.probes[i]->work)
          << "seed " << seed << " probe " << i;
    }
    EXPECT_EQ(optimized.work_cycles, reference.work_cycles) << "seed " << seed;
  }
}

TEST(SimulatorSkipTest, RawQueueReadyCycleIsAnActivityBoundary) {
  // The RunUntil predicate polls Pop(), which gates on the entry's serialized
  // available_at; in the optimized mode the queue's NextActivity must surface
  // that exact cycle as a boundary.
  auto run = [](bool optimized) {
    Simulator sim;
    sim.SetSkipEnabled(optimized);
    RawQueue q(/*width_bytes=*/8, /*depth_entries=*/4);
    sim.Register(&q);
    EXPECT_TRUE(q.Push(PayloadBuf(64, 0xab), sim.now()));
    PayloadBuf got;
    EXPECT_TRUE(sim.RunUntil(
        [&] {
          auto popped = q.Pop(sim.now());
          if (popped.has_value()) {
            got = std::move(*popped);
            return true;
          }
          return false;
        },
        1'000));
    EXPECT_EQ(got.size(), 64u);
    return sim.now();
  };
  EXPECT_EQ(run(true), run(false));
}

// Register/unregister churn regression: slot identities must stay stable
// while other blocks come and go, recycled slots must never alias their
// previous tenant, and the optimized and reference modes must agree on
// every block's tick count.
TEST(SimulatorTest, RegisterUnregisterChurnTicksExactlyTheRightBlocks) {
  auto run = [](bool optimized) {
    Simulator sim;
    sim.SetSkipEnabled(optimized);
    CountingBlock anchor;  // Always busy: pins the clock, no fast-forwards.
    sim.Register(&anchor);

    std::vector<std::unique_ptr<CountingBlock>> churn;
    std::vector<int> final_ticks;
    // 40 rounds: add two busy blocks, run, remove the older one (plus a
    // harmless double-unregister), run again. Slot ids get freed and
    // recycled continuously while the anchor keeps every cycle executing.
    for (int round = 0; round < 40; ++round) {
      churn.push_back(std::make_unique<CountingBlock>());
      sim.Register(churn.back().get());
      churn.push_back(std::make_unique<CountingBlock>());
      sim.Register(churn.back().get());
      sim.Run(3);
      CountingBlock* oldest = churn.front().get();
      sim.Unregister(oldest);
      sim.Unregister(oldest);  // Double-unregister must be harmless.
      sim.Run(3);
      final_ticks.push_back(oldest->ticks);
      churn.erase(churn.begin());
    }
    for (const auto& block : churn) {
      final_ticks.push_back(block->ticks);
    }
    final_ticks.push_back(anchor.ticks);
    return final_ticks;
  };

  const std::vector<int> optimized = run(true);
  const std::vector<int> reference = run(false);
  EXPECT_EQ(optimized, reference);
  // The anchor saw every cycle: 40 rounds of 6 cycles each.
  EXPECT_EQ(optimized.back(), 240);
}

// A parked block's slot is removed and immediately recycled by a new
// registration; a stale wake aimed at the old registration must not
// activate (or tick) the slot's new tenant.
TEST(SimulatorTest, RecycledSlotDoesNotAliasStaleWakes) {
  Simulator sim;
  CountingBlock anchor;
  sim.Register(&anchor);
  SleepyBlock old_tenant;
  sim.Register(&old_tenant);
  sim.Run(2);  // old_tenant parks after its first boundary.
  sim.Unregister(&old_tenant);
  sim.Run(1);  // Removal applies; the slot returns to the free list.

  SleepyBlock new_tenant;
  sim.Register(&new_tenant);  // Recycles the freed slot (LIFO free list).
  sim.Run(2);
  const size_t ticks_before = new_tenant.ticked_at.size();
  // The old registration's wake channel was unbound at removal: this is a
  // no-op, not a wake of whoever now owns the slot.
  old_tenant.RequestWake();
  sim.Run(3);
  EXPECT_EQ(new_tenant.ticked_at.size(), ticks_before);

  // The new tenant's own wake still lands.
  new_tenant.pending = true;
  new_tenant.RequestWake();
  sim.Run(3);
  ASSERT_EQ(new_tenant.processed_at.size(), 1u);
}

// --- The autoscaler's lazily folded region-cycle integral. ---

// One checksum replica behind a balancer, an idle board, and an autoscaler
// whose bounds are raised at cycle 10'000: the 12'000 poll must scale up.
// Between polls every block is parked, so the scale-up (queued at a poll,
// loaded through the ICAP and landing when the bitstream completes) is
// reached by fast-forward in the optimized engine.
struct IdleElasticBoard {
  IdleElasticBoard() : tb(Options()) {
    const AppId app = tb.os.CreateApp("elastic");
    lb = new LoadBalancer();
    ServiceId lb_svc = 0;
    const TileId lb_tile = tb.os.Deploy(app, std::unique_ptr<Accelerator>(lb), &lb_svc);
    auto factory = [] { return std::make_unique<ChecksumAccelerator>(); };
    ServiceId svc = 0;
    const TileId tile = tb.os.Deploy(app, factory(), &svc);
    const CapRef ep = tb.os.GrantSendToService(lb_tile, svc);
    lb->AddBackend(ep);
    placer = std::make_unique<Placer>(&tb.os);
    scheduler = std::make_unique<ReconfigScheduler>(&tb.os, app);
    AutoscalerConfig acfg;
    acfg.min_replicas = 1;
    acfg.max_replicas = 2;
    acfg.poll_period = 4'000;
    acfg.replica_logic_cells = 4'000;
    autoscaler = std::make_unique<Autoscaler>(&tb.os, lb, lb_tile, app, factory, placer.get(),
                                              scheduler.get(), acfg);
    autoscaler->AdoptReplica(svc, tile, ep);
  }
  static TestBoardOptions Options() {
    TestBoardOptions options;
    options.reconfig_cycles = 3'001;  // Lands between polls.
    return options;
  }

  TestBoard tb;
  LoadBalancer* lb = nullptr;
  std::unique_ptr<Placer> placer;
  std::unique_ptr<ReconfigScheduler> scheduler;
  std::unique_ptr<Autoscaler> autoscaler;
};

TEST(SimulatorSkipTest, AutoscalerIntegralMatchesAcrossScaleUpLandingMidSkip) {
  // Readings at every run boundary, optimized vs reference.
  auto run = [](bool skip, uint64_t* skipped) {
    IdleElasticBoard b;
    b.tb.sim.SetSkipEnabled(skip);
    b.tb.sim.SetAuditEnabled(true);
    std::vector<uint64_t> readings;
    b.tb.sim.Run(10'000);
    readings.push_back(b.autoscaler->replica_tile_cycles());
    b.autoscaler->SetBounds(2, 2);
    for (int i = 0; i < 6; ++i) {
      b.tb.sim.Run(1'333);  // Run boundaries fall inside skipped windows.
      readings.push_back(b.autoscaler->replica_tile_cycles());
    }
    b.tb.sim.Run(20'000);
    readings.push_back(b.autoscaler->replica_tile_cycles());
    EXPECT_EQ(b.autoscaler->scale_ups(), 1u);
    EXPECT_EQ(b.autoscaler->live_replicas(), 2u);
    EXPECT_EQ(b.tb.sim.audit_violations(), 0u) << b.tb.sim.audit_first_violation();
    *skipped = b.tb.sim.skipped_cycles();
    return readings;
  };
  uint64_t skipped_ref = 0;
  uint64_t skipped_opt = 0;
  const std::vector<uint64_t> ref = run(false, &skipped_ref);
  const std::vector<uint64_t> opt = run(true, &skipped_opt);
  EXPECT_EQ(opt, ref);
  EXPECT_EQ(skipped_ref, 0u);
  EXPECT_GT(skipped_opt, 30'000u);
  // One region until the 12'000 poll, two (loading, then live) after it.
  EXPECT_EQ(ref.front(), 10'000u);
  EXPECT_EQ(ref.back(), 12'001u + 2 * (10'000u + 6 * 1'333u + 20'000u - 12'001u));
}

// --- Audit mode. ---

// A test-only accelerator with the classic missed-wake bug: work handed to
// it from outside its tile (Push) lands behind the parked tile's back. Its
// declaration is honest — active while work is queued — but nothing ends
// the kNoActivity park it took while idle, unless the push rings the
// doorbell.
class PushedWorker : public Accelerator {
 public:
  explicit PushedWorker(bool doorbell) : doorbell_(doorbell) {}

  void Push() {
    ++queued_;
    if (doorbell_ && api_ != nullptr) {
      api_->RequestTick();
    }
  }
  void Tick(TileApi& api) override {
    api_ = &api;
    if (queued_ > 0) {
      --queued_;
      done_at.push_back(api.now());
    }
  }
  void OnMessage(const Message& msg, TileApi& api) override {
    (void)msg;
    (void)api;
  }
  [[nodiscard]] Cycle NextActivity(Cycle now) const override {
    return queued_ > 0 ? now : kNoActivity;
  }
  std::string name() const override { return "pushed_worker"; }

  std::vector<Cycle> done_at;

 private:
  bool doorbell_;
  TileApi* api_ = nullptr;
  uint32_t queued_ = 0;
};

struct PushedWorkerRun {
  std::vector<Cycle> done_at;
  uint64_t violations = 0;
  std::string first;
};

PushedWorkerRun RunPushedWorker(bool skip, bool audit, bool doorbell) {
  TestBoard tb;
  tb.sim.SetSkipEnabled(skip);
  tb.sim.SetAuditEnabled(audit);
  auto* worker = new PushedWorker(doorbell);
  const AppId app = tb.os.CreateApp("audit");
  (void)tb.os.Deploy(app, std::unique_ptr<Accelerator>(worker));
  tb.sim.Run(100);  // Boots, then parks idle.
  worker->Push();
  worker->Push();
  tb.sim.Run(100);
  return PushedWorkerRun{worker->done_at, tb.sim.audit_violations(),
                         tb.sim.audit_first_violation()};
}

TEST(SimulatorAuditTest, CatchesParkedBlockHoldingWork) {
  // The reference engine does the pushed work on the next two cycles; the
  // optimized engine never ticks the parked tile again.
  const PushedWorkerRun ref = RunPushedWorker(/*skip=*/false, /*audit=*/true, false);
  EXPECT_EQ(ref.done_at, (std::vector<Cycle>{100, 101}));
  EXPECT_EQ(ref.violations, 0u);  // The reference engine parks nothing.
  const PushedWorkerRun bug = RunPushedWorker(/*skip=*/true, /*audit=*/true, false);
  EXPECT_TRUE(bug.done_at.empty());
  EXPECT_GT(bug.violations, 0u);
  EXPECT_NE(bug.first.find("pushed_worker at cycle 101"), std::string::npos) << bug.first;
}

TEST(SimulatorAuditTest, DoorbellFixesTheMissedWakeAndAuditStaysClean) {
  const PushedWorkerRun fixed = RunPushedWorker(/*skip=*/true, /*audit=*/true, true);
  EXPECT_EQ(fixed.done_at, (std::vector<Cycle>{100, 101}));
  EXPECT_EQ(fixed.violations, 0u) << fixed.first;
}

TEST(SimulatorAuditTest, OffByDefaultAndRecordsNothing) {
  const PushedWorkerRun bug = RunPushedWorker(/*skip=*/true, /*audit=*/false, false);
  EXPECT_TRUE(bug.done_at.empty());
  EXPECT_EQ(bug.violations, 0u);
  EXPECT_TRUE(bug.first.empty());
}

}  // namespace
}  // namespace apiary
