// Memory controller: couples a byte-addressable backing store (so simulated
// accelerators move real data) with the DRAM timing model.
#ifndef SRC_MEM_MEMORY_CONTROLLER_H_
#define SRC_MEM_MEMORY_CONTROLLER_H_

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "src/mem/dram.h"
#include "src/mem/memory_backend.h"
#include "src/sim/clocked.h"

namespace apiary {

class MemoryController : public Clocked, public MemoryBackend {
 public:
  explicit MemoryController(DramConfig config);

  // Asynchronous read: `out` must stay alive until `done` runs. Returns
  // false on backpressure (bank queue full); the caller retries next cycle.
  bool SubmitRead(uint64_t addr, std::span<uint8_t> out,
                  std::function<void(Cycle)> done) override;

  // Asynchronous write: data is copied into the store immediately (the model
  // has no reorder window); `done` fires when the DRAM timing completes.
  bool SubmitWrite(uint64_t addr, std::span<const uint8_t> data,
                   std::function<void(Cycle)> done) override;

  // Zero-latency debug access for tests and for constructing initial state.
  void DebugWrite(uint64_t addr, std::span<const uint8_t> data) override;
  std::vector<uint8_t> DebugRead(uint64_t addr, uint64_t len) const override;

  BitFlipResult InjectBitFlip(uint64_t addr, uint32_t bit) override;
  void SetEccEnabled(bool enabled) override { ecc_enabled_ = enabled; }
  bool ecc_enabled() const { return ecc_enabled_; }

  void Tick(Cycle now) override { dram_.Tick(now); }
  // APIARY-WAKE(self): SubmitRead/SubmitWrite ring the controller's own
  // RequestWake() on every accepted request.
  [[nodiscard]] Cycle NextActivity(Cycle now) const override {
    return dram_.NextActivity(now);
  }
  std::string DebugName() const override { return "memctl"; }

  uint64_t capacity() const override { return capacity_; }
  const CounterSet& counters() const { return dram_.counters(); }
  DramChannel& dram() { return dram_; }

 private:
  bool InBounds(uint64_t addr, uint64_t len) const {
    return addr <= capacity_ && len <= capacity_ - addr;
  }
  // Requests arrive from service and accelerator ticks outside this block:
  // an accepted one ends the controller's parked quiescence.
  bool Accepted(bool enqueued) const {
    if (enqueued) {
      RequestWake();
    }
    return enqueued;
  }

  struct FreeDeleter {
    void operator()(uint8_t* p) const { std::free(p); }
  };

  DramChannel dram_;
  // calloc'd, never value-initialized: the host zeroes each page on first
  // touch, so board bring-up costs no memset of the whole part's DRAM and
  // only pages a run actually uses become resident.
  uint64_t capacity_;
  std::unique_ptr<uint8_t[], FreeDeleter> store_;
  bool ecc_enabled_ = false;
};

}  // namespace apiary

#endif  // SRC_MEM_MEMORY_CONTROLLER_H_
