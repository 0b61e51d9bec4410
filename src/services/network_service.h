// The Apiary network service: terminates the board's Ethernet MAC and
// bridges external frames onto the NoC as capability-checked messages.
//
// The MacAdapter hierarchy demonstrates the paper's portability point
// (Section 2): the 10G and 100G MAC cores have different bring-up handshakes
// and APIs; accelerators never see either — they program against the
// network service's stable message interface on every board.
#ifndef SRC_SERVICES_NETWORK_SERVICE_H_
#define SRC_SERVICES_NETWORK_SERVICE_H_

#include <deque>
#include <map>
#include <memory>
#include <optional>

#include "src/core/accelerator.h"
#include "src/core/kernel.h"
#include "src/fpga/ethernet.h"
#include "src/services/opcodes.h"
#include "src/services/transport.h"
#include "src/stats/summary.h"

namespace apiary {

// Board-portable facade over one vendor MAC core.
class MacAdapter {
 public:
  virtual ~MacAdapter() = default;

  // Drives the device-specific initialization sequence; called every cycle
  // until Ready() holds.
  virtual void Bringup(Cycle now) = 0;
  virtual bool Ready(Cycle now) const = 0;

  virtual bool TrySend(EthFrame frame, Cycle now) = 0;
  virtual std::optional<EthFrame> TryRecv() = 0;
  // Frames waiting in the RX FIFO — the quiescence query behind the network
  // service's NextActivity; must not dequeue or mutate.
  virtual bool HasRx() const = 0;
  // Routes the MAC's RX-delivery wake to `hint` (the service's tile).
  virtual void SetRxWake(WakeHint hint) = 0;
  virtual double link_gbps() const = 0;
};

// Adapter for the 10G core: assert/release reset, wait for RX block lock.
class Mac10GAdapter : public MacAdapter {
 public:
  explicit Mac10GAdapter(EthMac10G* mac) : mac_(mac) {}

  void Bringup(Cycle now) override;
  bool Ready(Cycle now) const override { return mac_->RxBlockLock(now); }
  bool TrySend(EthFrame frame, Cycle now) override { return mac_->TxFrame(std::move(frame), now); }
  std::optional<EthFrame> TryRecv() override;
  bool HasRx() const override { return mac_->RxFrameValid(); }
  void SetRxWake(WakeHint hint) override { mac_->SetRxWake(hint); }
  double link_gbps() const override { return 10.0; }

 private:
  EthMac10G* mac_;
  bool reset_done_ = false;
};

// Adapter for the 100G CMAC core: init, wait for alignment, enable flow
// control — a different dance with differently named knobs.
class Mac100GAdapter : public MacAdapter {
 public:
  explicit Mac100GAdapter(EthMac100G* mac) : mac_(mac) {}

  void Bringup(Cycle now) override;
  bool Ready(Cycle now) const override { return mac_->RxAligned(now) && flow_control_on_; }
  bool TrySend(EthFrame frame, Cycle now) override {
    return mac_->EnqueueTxSegment(std::move(frame), now);
  }
  std::optional<EthFrame> TryRecv() override;
  bool HasRx() const override { return mac_->HasRxSegment(); }
  void SetRxWake(WakeHint hint) override { mac_->SetRxWake(hint); }
  double link_gbps() const override { return 100.0; }

 private:
  EthMac100G* mac_;
  bool init_started_ = false;
  bool flow_control_on_ = false;
};

// External frame layout understood by the service: the first 4 bytes of a
// frame payload name the destination logical service; the rest is data.
//
// With `reliable` set, frames are carried by the sliding-window ARQ in
// src/services/transport.h: accelerators get in-order exactly-once frame
// delivery across a lossy fabric with zero changes to their code — the
// "reliable network protocols" of Section 2, built once in the OS.
class NetworkService : public Accelerator {
 public:
  NetworkService(ApiaryOs* os, std::unique_ptr<MacAdapter> mac, bool reliable = false,
                 TransportConfig transport_config = TransportConfig{})
      : os_(os),
        mac_(std::move(mac)),
        reliable_(reliable),
        transport_(transport_config) {}

  void OnBoot(TileApi& api) override;
  void OnMessage(const Message& msg, TileApi& api) override;
  void Tick(TileApi& api) override;
  // Active while bringing the link up (Ready is time-dependent and polled
  // per cycle), while any backlog or RX frame is pending, and always in
  // reliable mode (the ARQ transport's timers advance every cycle).
  // APIARY-WAKE(EthernetMacBase::OnFrame): the MAC's RX wake, bound to this
  // tile at boot, rings on every frame the fabric delivers.
  [[nodiscard]] Cycle NextActivity(Cycle now) const override {
    if (!mac_->Ready(now) || reliable_) {
      return now;
    }
    if (!tx_backlog_.empty() || !inbound_backlog_.empty() || mac_->HasRx()) {
      return now;
    }
    return kNoActivity;
  }

  std::string name() const override { return "network_service"; }
  uint32_t LogicCellCost() const override { return 18000; }

  const CounterSet& counters() const { return counters_; }
  const ReliableTransport& transport() const { return transport_; }

 private:
  void HandleRegister(const Message& msg, TileApi& api);
  void HandleNetSend(const Message& msg, TileApi& api);
  void PumpInbound(TileApi& api);
  void PumpOutbound(TileApi& api);
  // Routes one application-level payload (u32 dst_service | data) inward.
  void DeliverAppPayload(uint32_t src_endpoint, const std::vector<uint8_t>& app,
                         TileApi& api);

  ApiaryOs* os_;
  std::unique_ptr<MacAdapter> mac_;
  bool reliable_;
  ReliableTransport transport_;
  // Inbound delivery: registered logical service -> endpoint cap we hold.
  std::map<ServiceId, CapRef> inbound_routes_;
  std::deque<EthFrame> tx_backlog_;
  // Inbound messages that hit NoC backpressure, retried in order.
  std::deque<std::pair<ServiceId, Message>> inbound_backlog_;
  CounterSet counters_;
};

}  // namespace apiary

#endif  // SRC_SERVICES_NETWORK_SERVICE_H_
