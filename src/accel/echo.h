// Echo accelerator: replies with its request payload after a configurable
// service time. The workhorse of latency/throughput microbenchmarks.
#ifndef SRC_ACCEL_ECHO_H_
#define SRC_ACCEL_ECHO_H_

#include "src/accel/accel_opcodes.h"
#include "src/core/accelerator.h"
#include "src/sim/ring_buffer.h"

namespace apiary {

class EchoAccelerator : public Accelerator {
 public:
  explicit EchoAccelerator(Cycle service_cycles = 0) : service_cycles_(service_cycles) {}

  void OnMessage(const Message& msg, TileApi& api) override {
    if (msg.kind != MsgKind::kRequest) {
      return;
    }
    // Serial engine: back-to-back requests queue behind each other.
    const Cycle start = engine_free_at_ > api.now() ? engine_free_at_ : api.now();
    engine_free_at_ = start + service_cycles_;
    pending_.emplace_back(msg, engine_free_at_);
  }

  void Tick(TileApi& api) override {
    while (!pending_.empty() && pending_.front().ready_at <= api.now()) {
      Message reply;
      reply.opcode = pending_.front().request.opcode;
      reply.payload = pending_.front().request.payload;
      if (api.Reply(pending_.front().request, std::move(reply)).ok()) {
        pending_.pop_front();
        ++served_;
      } else {
        break;  // Backpressure: retry next cycle.
      }
    }
  }

  // Idle until the head-of-line request finishes service; a failed Reply
  // keeps ready_at in the past, which keeps the block active for the retry.
  // APIARY-WAKE(tile): hosted accelerator — requests arrive through the
  // owning Tile, whose NI sink wake ends the park on message delivery.
  [[nodiscard]] Cycle NextActivity(Cycle now) const override {
    if (pending_.empty()) {
      return kNoActivity;
    }
    const Cycle at = pending_.front().ready_at;
    return at > now ? at : now;
  }

  std::string name() const override { return "echo"; }
  uint32_t LogicCellCost() const override { return 3000; }
  uint64_t served() const { return served_; }

 private:
  struct Pending {
    Message request;
    Cycle ready_at;
  };
  Cycle service_cycles_;
  Cycle engine_free_at_ = 0;
  // Growing ring: steady-state request churn never touches the heap.
  RingBuffer<Pending> pending_;
  uint64_t served_ = 0;
};

}  // namespace apiary

#endif  // SRC_ACCEL_ECHO_H_
