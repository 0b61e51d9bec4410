#include "src/services/network_service.h"

namespace apiary {

void Mac10GAdapter::Bringup(Cycle now) {
  if (!reset_done_) {
    mac_->AssertCoreReset();
    mac_->ReleaseCoreReset(now);
    reset_done_ = true;
  }
}

std::optional<EthFrame> Mac10GAdapter::TryRecv() {
  if (!mac_->RxFrameValid()) {
    return std::nullopt;
  }
  return mac_->RxFrame();
}

void Mac100GAdapter::Bringup(Cycle now) {
  if (!init_started_) {
    mac_->InitCmac(now);
    init_started_ = true;
  }
  if (mac_->RxAligned(now) && !flow_control_on_) {
    mac_->EnableTxFlowControl();
    flow_control_on_ = true;
  }
}

std::optional<EthFrame> Mac100GAdapter::TryRecv() {
  if (!mac_->HasRxSegment()) {
    return std::nullopt;
  }
  return mac_->DequeueRxSegment();
}

void NetworkService::OnBoot(TileApi& api) {
  // Frames the fabric delivers into the RX FIFO are this tile's input.
  mac_->SetRxWake(WakeHint(&os_->tile(api.tile())));
  mac_->Bringup(api.now());
}

void NetworkService::HandleRegister(const Message& msg, TileApi& api) {
  // Mint an endpoint capability from this tile to the registering service so
  // inbound frames can be delivered as messages. The network service is
  // trusted OS logic and uses the kernel's management interface for this.
  const CapRef cap = os_->GrantSendToService(api.tile(), msg.src_service);
  Message reply;
  reply.opcode = kOpNetRegister;
  if (cap == kInvalidCapRef) {
    reply.status = MsgStatus::kNoSuchService;
    counters_.Add("netsvc.register_failures");
  } else {
    inbound_routes_[msg.src_service] = cap;
    counters_.Add("netsvc.registrations");
  }
  api.Reply(msg, std::move(reply));
}

void NetworkService::HandleNetSend(const Message& msg, TileApi& api) {
  if (msg.payload.size() < 4) {
    counters_.Add("netsvc.bad_tx");
    return;
  }
  const uint32_t dst = GetU32(msg.payload, 0);
  // Crossing into the external-fabric domain: the copy is inherent (the
  // 4-byte destination prefix is stripped off the NoC payload).
  // NOLINTNEXTLINE(apiary-hot-path): crossing into the external-fabric domain; the strip-copy is inherent
  std::vector<uint8_t> data(msg.payload.begin() + 4, msg.payload.end());
  counters_.Add("netsvc.tx_requests");
  if (reliable_) {
    transport_.SendData(dst, std::move(data), api.now());
    return;
  }
  EthFrame frame;
  frame.dst_endpoint = dst;
  frame.payload = std::move(data);
  tx_backlog_.push_back(std::move(frame));
}

void NetworkService::OnMessage(const Message& msg, TileApi& api) {
  if (msg.kind != MsgKind::kRequest) {
    return;
  }
  switch (msg.opcode) {
    case kOpNetRegister:
      HandleRegister(msg, api);
      break;
    case kOpNetSend:
      HandleNetSend(msg, api);
      break;
    default: {
      Message err;
      err.opcode = msg.opcode;
      err.status = MsgStatus::kBadRequest;
      api.Reply(msg, std::move(err));
      break;
    }
  }
}

void NetworkService::DeliverAppPayload(uint32_t src_endpoint,
                                       const std::vector<uint8_t>& app, TileApi& api) {
  if (app.size() < 4) {
    counters_.Add("netsvc.rx_malformed");
    return;
  }
  const ServiceId dst = GetU32(app, 0);
  auto it = inbound_routes_.find(dst);
  if (it == inbound_routes_.end()) {
    counters_.Add("netsvc.rx_unroutable");
    return;
  }
  Message msg;
  msg.opcode = kOpNetDeliver;
  PutU32(msg.payload, src_endpoint);
  msg.payload.insert(msg.payload.end(), app.begin() + 4, app.end());
  counters_.Add("netsvc.rx_delivered");
  const SendResult r = api.Send(msg, it->second);
  if (r.status == MsgStatus::kBackpressure || r.status == MsgStatus::kRateLimited) {
    inbound_backlog_.emplace_back(dst, std::move(msg));
  }
}

void NetworkService::PumpInbound(TileApi& api) {
  // Retry messages that previously hit NoC backpressure, preserving order.
  while (!inbound_backlog_.empty()) {
    auto& [service, msg] = inbound_backlog_.front();
    auto it = inbound_routes_.find(service);
    if (it == inbound_routes_.end()) {
      inbound_backlog_.pop_front();
      continue;
    }
    const SendResult r = api.Send(msg, it->second);
    if (r.status == MsgStatus::kBackpressure || r.status == MsgStatus::kRateLimited) {
      return;
    }
    inbound_backlog_.pop_front();
  }
  while (auto frame = mac_->TryRecv()) {
    if (reliable_ && ReliableTransport::IsTransportFrame(frame->payload)) {
      // Reassemble in-order application payloads through the ARQ layer.
      for (const auto& app :
           transport_.OnFrame(frame->src_endpoint, frame->payload, api.now())) {
        DeliverAppPayload(frame->src_endpoint, app, api);
      }
      continue;
    }
    DeliverAppPayload(frame->src_endpoint, frame->payload, api);
  }
}

void NetworkService::PumpOutbound(TileApi& api) {
  if (reliable_) {
    for (auto& out : transport_.Poll(api.now())) {
      EthFrame frame;
      frame.dst_endpoint = out.peer;
      frame.payload = std::move(out.bytes);
      tx_backlog_.push_back(std::move(frame));
    }
  }
  while (!tx_backlog_.empty()) {
    if (!mac_->TrySend(tx_backlog_.front(), api.now())) {
      counters_.Add("netsvc.tx_stall");
      return;
    }
    tx_backlog_.pop_front();
    counters_.Add("netsvc.tx_frames");
  }
}

void NetworkService::Tick(TileApi& api) {
  if (!mac_->Ready(api.now())) {
    mac_->Bringup(api.now());
    return;
  }
  PumpInbound(api);
  PumpOutbound(api);
}

}  // namespace apiary
