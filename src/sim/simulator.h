// The top-level simulation driver: a single global clock domain. Work reaches
// a block in exactly one way: its own NextActivity declaration, or a wake.
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <functional>
#include <string>
#include <vector>

#include "src/sim/active_schedule.h"
#include "src/sim/clocked.h"
#include "src/sim/sim_context.h"
#include "src/sim/types.h"

namespace apiary {

class Simulator {
 public:
  // `frequency_mhz` maps cycles to wall time for reporting (default matches a
  // typical FPGA fabric clock).
  explicit Simulator(double frequency_mhz = 250.0) : frequency_mhz_(frequency_mhz) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Registers a block. The simulator does not own the block; callers keep it
  // alive for the duration of the run. In the optimized mode (the default)
  // only blocks that are active — by declaration, timer-wheel deadline, or
  // wake — are ticked on an executed cycle; in the reference mode every
  // block is ticked every cycle. Seeded runs are byte-identical either way.
  void Register(Clocked* block);

  // Removes a previously registered block (e.g. a reconfigured-away
  // accelerator). Safe to call during a tick; removal takes effect before
  // the next cycle.
  void Unregister(Clocked* block);

  // Runs `cycles` additional cycles. When skipping is enabled (the default),
  // stretches where every block is quiescent (see Clocked::NextActivity) are
  // fast-forwarded instead of being ticked cycle by cycle; executed cycles
  // behave exactly as before. A timed action of the harness (a host-software
  // delay, say) is sequenced from the driver: Run or RunUntil to its cycle,
  // then act between runs.
  void Run(Cycle cycles);

  // Runs until `pred` returns true or `max_cycles` additional cycles have
  // elapsed. Returns true if `pred` fired.
  //
  // Contract (changed with quiescence skipping, still correct): `pred` is
  // evaluated before every *executed* cycle and once at the end, not once
  // per simulated cycle. Cycles inside a skipped window are never observed —
  // which is sound because nothing ticks there, so a pred over simulated
  // state cannot change mid-skip. A pred whose flip is time-driven (e.g.
  // "now() >= T") is only guaranteed to be seen at the next activity
  // boundary; blocks that gate such state (queues with ready times, fault
  // windows) declare those boundaries via NextActivity so the flip cycle is
  // identical with and without skipping. Use SetSkipEnabled(false) to force
  // the old every-cycle evaluation.
  bool RunUntil(const std::function<bool()>& pred, Cycle max_cycles);

  Cycle now() const { return now_; }
  double frequency_mhz() const { return frequency_mhz_; }

  // The cycle `block` last saw, as if it had ticked every cycle: now() once
  // this cycle's tick loop has reached the block in registration order (its
  // own tick included), and now() - 1 before that — at boundaries, right
  // after a jump and between runs (0 at cycle 0). Both
  // engines give the same answer whether the block ticked, parked or was
  // skipped over, so a block never caches a clock of its own.
  Cycle ClockOf(const Clocked& block) const {
    if (sched_.Reached(block)) {
      return now_;
    }
    return now_ > 0 ? now_ - 1 : 0;
  }

  // This simulator's domain context: the home of every pool/arena its
  // blocks allocate from. Installed as the current thread's domain for the
  // duration of Run()/RunUntil(); harnesses that build boards off the run
  // path install it explicitly (ThreadDomain::ScopedInstall) so
  // construction-time allocations land in the same domain.
  SimContext& context() { return context_; }

  // Converts a cycle count to nanoseconds at the configured frequency.
  double CyclesToNs(Cycle cycles) const {
    return static_cast<double>(cycles) * 1000.0 / frequency_mhz_;
  }

  // The one mode bit. Enabled (the default) is the optimized engine: the
  // active set ticks only busy blocks and quiescent stretches are
  // fast-forwarded. Disabled is the reference engine and the oracle of
  // tests/differential_harness.h: every cycle is executed and every block is
  // ticked in registration order (`--no-skip`, `--no-active-set`). Seeded
  // runs are byte-identical either way, including across a mid-run switch:
  // the schedule stays bound while the reference loop runs (wakes still
  // activate parked blocks), and re-enabling activates every block whose
  // wheel deadline fell due meanwhile.
  void SetSkipEnabled(bool enabled);

  // Audit mode, for tests and CI: after every executed cycle (and every
  // fast-forward) re-polls each parked or wheeled block and records a
  // violation for any whose NextActivity(now) <= now — a block with work
  // that no wake put back on the active list. Such a block would silently
  // skip ticks it owes; the reference engine would have run them. Checks
  // the optimized engine only (the reference engine parks nothing). Off by
  // default; when off it costs one untaken branch per executed cycle.
  void SetAuditEnabled(bool enabled) { audit_enabled_ = enabled; }
  uint64_t audit_violations() const { return audit_violations_; }
  // "<block> at cycle <c>" for the first violation; empty when none.
  const std::string& audit_first_violation() const { return audit_first_violation_; }

  // Forwards to SetSkipEnabled; kept because perfbench/src/workloads.cc
  // builds its oracle run with it.
  void SetActiveSetEnabled(bool enabled) { SetSkipEnabled(enabled); }

  // Fast-forward observability (for benchmarks and tests).
  uint64_t skipped_cycles() const { return skipped_cycles_; }
  uint64_t skips() const { return skips_; }

  // Executed-cycle breakdown (for benchmarks): how much tick work the
  // scheduler actually did. `ticked_blocks / (executed_cycles * block_count)`
  // is the observed active fraction.
  uint64_t executed_cycles() const { return executed_cycles_; }
  uint64_t ticked_blocks() const { return reference_ticked_blocks_ + sched_.ticked_blocks(); }
  uint64_t wheel_wakes() const { return sched_.wheel_wakes(); }
  uint64_t wake_calls() const { return sched_.wake_calls(); }
  size_t block_count() const { return blocks_.size(); }

 private:
  void Step();
  // Fast-forwards now_ to the earliest cycle in (now_, limit] that the
  // active schedule needs. No-op when some block is active or in the
  // reference mode.
  void SkipAhead(Cycle limit);
  // Executes the fast-forward to `target`: counters, the clock, and the
  // post-jump boundary re-establishment.
  void JumpTo(Cycle target);
  void ApplyPendingRemovals();
  // Audit mode: checks the schedule at the boundary of now_ (see
  // SetAuditEnabled).
  void Audit();

  SimContext context_;
  double frequency_mhz_;
  Cycle now_ = 0;
  bool skip_enabled_ = true;
  bool audit_enabled_ = false;
  uint64_t audit_violations_ = 0;
  std::string audit_first_violation_;
  uint64_t skipped_cycles_ = 0;
  uint64_t skips_ = 0;
  uint64_t executed_cycles_ = 0;
  uint64_t reference_ticked_blocks_ = 0;  // Ticks issued by the reference loop.
  std::vector<Clocked*> blocks_;
  std::vector<uint32_t> slots_;  // Each block's schedule slot, lockstep with blocks_.
  std::vector<Clocked*> pending_removals_;
  ActiveSchedule sched_;
};

}  // namespace apiary

#endif  // SRC_SIM_SIMULATOR_H_
