#include "src/accel/checksum.h"

#include <algorithm>

namespace apiary {

void ChecksumAccelerator::OnMessage(const Message& msg, TileApi& api) {
  if (msg.kind != MsgKind::kRequest) {
    return;
  }
  if (msg.opcode != kOpChecksum) {
    Message err;
    err.opcode = msg.opcode;
    err.status = MsgStatus::kBadRequest;
    api.Reply(msg, std::move(err));
    return;
  }
  Job job;
  job.request = msg;
  job.crc = Crc32(msg.payload);
  const Cycle compute =
      std::max<Cycle>(1, msg.payload.size() / std::max<uint32_t>(1, bytes_per_cycle_));
  const Cycle start = std::max(engine_free_at_, api.now());
  engine_free_at_ = start + compute;
  job.done_at = engine_free_at_;
  jobs_.push_back(std::move(job));
}

void ChecksumAccelerator::Tick(TileApi& api) {
  while (!jobs_.empty() && jobs_.front().done_at <= api.now()) {
    Message reply;
    reply.opcode = kOpChecksum;
    PutU32(reply.payload, jobs_.front().crc);
    const SendResult r = api.Reply(jobs_.front().request, std::move(reply));
    if (r.status == MsgStatus::kBackpressure || r.status == MsgStatus::kRateLimited) {
      break;
    }
    ++served_;
    jobs_.pop_front();
  }
}

}  // namespace apiary
