// Misbehaving accelerators for the isolation and fault-containment
// experiments (E4, E6, E9): buggy, wedged, flooding, snooping and
// wild-writing tiles. Each models a failure mode the paper's Sections 2 and
// 4.4 argue an FPGA OS must contain.
#ifndef SRC_ACCEL_FAULTY_H_
#define SRC_ACCEL_FAULTY_H_

#include <deque>
#include <string>
#include <vector>

#include "src/accel/accel_opcodes.h"
#include "src/core/accelerator.h"
#include "src/stats/summary.h"

namespace apiary {

// Serves requests normally for `healthy_requests`, then silently stops
// responding (an infinite loop / livelock — it will "never yield", 4.4).
class WedgeAccelerator : public Accelerator {
 public:
  WedgeAccelerator(uint64_t healthy_requests, CapRef mgmt_cap = kInvalidCapRef,
                   Cycle heartbeat_period = 5000)
      : healthy_requests_(healthy_requests),
        mgmt_cap_(mgmt_cap),
        heartbeat_period_(heartbeat_period) {}

  void OnBoot(TileApi& api) override;
  void OnMessage(const Message& msg, TileApi& api) override;
  void Tick(TileApi& api) override;
  // Sleeps between heartbeats; wedged (or unwatched) accelerators do nothing
  // in Tick and never wake on their own. A failed heartbeat send leaves
  // last_heartbeat_ in the past, which keeps the block active for the retry.
  // APIARY-WAKE(tile): hosted accelerator — the owning Tile's NI sink wake
  // ends the park on message delivery (wedged blocks stay idle by design).
  [[nodiscard]] Cycle NextActivity(Cycle now) const override {
    if (wedged() || mgmt_cap_ == kInvalidCapRef) {
      return kNoActivity;
    }
    const Cycle hb_at = last_heartbeat_ + heartbeat_period_;
    return hb_at > now ? hb_at : now;
  }

  std::string name() const override { return "wedge"; }
  uint32_t LogicCellCost() const override { return 3000; }
  bool wedged() const { return served_ >= healthy_requests_; }

 private:
  uint64_t healthy_requests_;
  CapRef mgmt_cap_;
  Cycle heartbeat_period_;
  uint64_t served_ = 0;
  Cycle last_heartbeat_ = 0;
};

// Self-detecting bug: raises a fault (RaiseFault) after N requests, the
// cooperative error path of Section 4.4.
class CrashAccelerator : public Accelerator {
 public:
  explicit CrashAccelerator(uint64_t healthy_requests)
      : healthy_requests_(healthy_requests) {}

  void OnMessage(const Message& msg, TileApi& api) override;
  // Purely message-driven: no tick work at all.
  // APIARY-WAKE(tile): hosted accelerator — the owning Tile's NI sink wake
  // ends the park on message delivery.
  [[nodiscard]] Cycle NextActivity(Cycle now) const override {
    (void)now;
    return kNoActivity;
  }

  std::string name() const override { return "crash"; }
  uint32_t LogicCellCost() const override { return 3000; }

 private:
  uint64_t healthy_requests_;
  uint64_t served_ = 0;
};

// Floods a victim endpoint with back-to-back maximum-size messages — the
// resource-exhaustion attacker of Section 4.5. Tracks how often the monitor
// said no.
class FlooderAccelerator : public Accelerator {
 public:
  FlooderAccelerator(CapRef victim, uint32_t message_bytes = 256)
      : victim_(victim), message_bytes_(message_bytes) {}

  void SetVictim(CapRef victim) { victim_ = victim; }
  void OnMessage(const Message& msg, TileApi& api) override;
  void Tick(TileApi& api) override;
  // Floods on every cycle by design (and SetVictim arms it from outside
  // without a wake), so it never declares quiescence.
  [[nodiscard]] Cycle NextActivity(Cycle now) const override { return now; }

  std::string name() const override { return "flooder"; }
  uint32_t LogicCellCost() const override { return 3000; }

  uint64_t sent() const { return sent_; }
  uint64_t rate_limited() const { return rate_limited_; }
  uint64_t backpressured() const { return backpressured_; }

 private:
  CapRef victim_;
  uint32_t message_bytes_;
  uint64_t sent_ = 0;
  uint64_t rate_limited_ = 0;
  uint64_t backpressured_ = 0;
};

// Attempts unauthorized operations every `period` cycles: sends to tiles it
// holds no capability for and memory accesses with forged/absent grants —
// the snooping KV store of Section 2. Records every denial it collects.
class SnooperAccelerator : public Accelerator {
 public:
  explicit SnooperAccelerator(uint32_t num_tiles, Cycle period = 100)
      : num_tiles_(num_tiles), period_(period) {}

  void OnMessage(const Message& msg, TileApi& api) override;
  void Tick(TileApi& api) override;
  // Acts only at its attempt cycles; replies are counted in OnMessage.
  [[nodiscard]] Cycle NextActivity(Cycle now) const override {
    return next_attempt_ > now ? next_attempt_ : now;
  }

  std::string name() const override { return "snooper"; }
  uint32_t LogicCellCost() const override { return 3000; }

  uint64_t attempts() const { return attempts_; }
  uint64_t denied_local() const { return denied_local_; }    // Monitor said no.
  uint64_t denied_remote() const { return denied_remote_; }  // Peer/service said no.
  uint64_t leaked() const { return leaked_; }                 // Data it should not have.

 private:
  uint32_t num_tiles_;
  Cycle period_;
  Cycle next_attempt_ = 0;
  uint32_t probe_tile_ = 0;
  uint64_t attempts_ = 0;
  uint64_t denied_local_ = 0;
  uint64_t denied_remote_ = 0;
  uint64_t leaked_ = 0;
};

// Holds a legitimate (small) segment but keeps issuing reads/writes beyond
// its bounds through the memory service — the bug the segment bounds check
// must contain (Section 4.6).
class WildWriterAccelerator : public Accelerator {
 public:
  explicit WildWriterAccelerator(uint64_t segment_bytes = 4096, Cycle period = 200)
      : segment_bytes_(segment_bytes), period_(period) {}

  void OnBoot(TileApi& api) override;
  void OnMessage(const Message& msg, TileApi& api) override;
  void Tick(TileApi& api) override;
  // Idle until its segment is granted, then active at each attempt cycle.
  // APIARY-WAKE(tile): the memory service's allocation reply arrives through
  // the owning Tile's NI sink wake.
  [[nodiscard]] Cycle NextActivity(Cycle now) const override {
    if (mem_cap_ == kInvalidCapRef) {
      return kNoActivity;
    }
    return next_attempt_ > now ? next_attempt_ : now;
  }

  std::string name() const override { return "wild_writer"; }
  uint32_t LogicCellCost() const override { return 3000; }

  uint64_t attempts() const { return attempts_; }
  uint64_t seg_faults() const { return seg_faults_; }
  uint64_t in_bounds_ok() const { return in_bounds_ok_; }

 private:
  uint64_t segment_bytes_;
  Cycle period_;
  Cycle next_attempt_ = 0;
  CapRef memsvc_cap_ = kInvalidCapRef;
  CapRef mem_cap_ = kInvalidCapRef;
  bool alloc_requested_ = false;
  bool wild_phase_ = false;
  uint64_t attempts_ = 0;
  uint64_t seg_faults_ = 0;
  uint64_t in_bounds_ok_ = 0;
};

}  // namespace apiary

#endif  // SRC_ACCEL_FAULTY_H_
