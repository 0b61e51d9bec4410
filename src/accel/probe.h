// ProbeAccelerator: a scriptable driver tile used by tests, benchmarks and
// examples — records everything it receives, sends queued messages on its
// next tick, optionally auto-replies to requests.
#ifndef SRC_ACCEL_PROBE_H_
#define SRC_ACCEL_PROBE_H_

#include <deque>
#include <tuple>
#include <vector>

#include "src/core/accelerator.h"

namespace apiary {

class ProbeAccelerator : public Accelerator {
 public:
  void OnMessage(const Message& msg, TileApi& api) override {
    received.push_back(msg);
    if (auto_reply && msg.kind == MsgKind::kRequest) {
      Message reply;
      reply.opcode = msg.opcode;
      reply.payload = msg.payload;
      api.Reply(msg, std::move(reply));
    }
  }

  void Tick(TileApi& api) override {
    booted = true;
    self = &api;
    while (!outbox.empty()) {
      auto [msg, endpoint, mem, mem2] = outbox.front();
      last_send_result = api.Send(std::move(msg), endpoint, mem, mem2);
      if (last_send_result.status == MsgStatus::kBackpressure ||
          last_send_result.status == MsgStatus::kRateLimited) {
        break;  // Transient: retry the same message next tick.
      }
      outbox.pop_front();
    }
  }

  // Idle while the outbox is empty; a backpressured head keeps the tile
  // active for the retry.
  // APIARY-WAKE(tile): received messages arrive through the owning Tile's
  // NI sink wake, and EnqueueSend rings the tile's doorbell.
  [[nodiscard]] Cycle NextActivity(Cycle now) const override {
    return outbox.empty() ? kNoActivity : now;
  }

  std::string name() const override { return "probe"; }
  uint32_t LogicCellCost() const override { return 1000; }

  // Queues a message for sending on the next tick (from the tile's context).
  void EnqueueSend(Message msg, CapRef endpoint, CapRef mem = kInvalidCapRef,
                   CapRef mem2 = kInvalidCapRef) {
    outbox.push_back({std::move(msg), endpoint, mem, mem2});
    // Before the first tick the unbooted tile is active anyway.
    if (self != nullptr) {
      self->RequestTick();
    }
  }

  bool auto_reply = false;
  bool booted = false;
  TileApi* self = nullptr;
  std::vector<Message> received;
  std::deque<std::tuple<Message, CapRef, CapRef, CapRef>> outbox;
  SendResult last_send_result;
};

}  // namespace apiary

#endif  // SRC_ACCEL_PROBE_H_
