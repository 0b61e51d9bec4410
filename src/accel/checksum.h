// CRC32 checksum accelerator (the pure function behind it, Crc32, lives in
// src/sim/crc32.h). A small, common utility block — the kind of third-party
// tile the paper's composition story wants to make cheap to reuse.
#ifndef SRC_ACCEL_CHECKSUM_H_
#define SRC_ACCEL_CHECKSUM_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/accel/accel_opcodes.h"
#include "src/core/accelerator.h"
#include "src/sim/crc32.h"
#include "src/sim/ring_buffer.h"

namespace apiary {

class ChecksumAccelerator : public Accelerator {
 public:
  explicit ChecksumAccelerator(uint32_t bytes_per_cycle = 8)
      : bytes_per_cycle_(bytes_per_cycle) {}

  void OnMessage(const Message& msg, TileApi& api) override;
  void Tick(TileApi& api) override;
  // Idle until the head-of-line job leaves the engine; a backpressured
  // reply keeps done_at in the past, which keeps the tile active for the
  // retry.
  // APIARY-WAKE(tile): hosted accelerator — requests arrive through the
  // owning Tile, whose NI sink wake ends the park on message delivery.
  [[nodiscard]] Cycle NextActivity(Cycle now) const override {
    return jobs_.empty() ? kNoActivity : std::max(jobs_.front().done_at, now);
  }

  std::string name() const override { return "checksum"; }
  uint32_t LogicCellCost() const override { return 4000; }
  uint64_t served() const { return served_; }

 private:
  struct Job {
    Message request;
    uint32_t crc;
    Cycle done_at;
  };

  uint32_t bytes_per_cycle_;
  // Growing ring: steady-state request churn never touches the heap.
  RingBuffer<Job> jobs_;
  Cycle engine_free_at_ = 0;
  uint64_t served_ = 0;
};

}  // namespace apiary

#endif  // SRC_ACCEL_CHECKSUM_H_
