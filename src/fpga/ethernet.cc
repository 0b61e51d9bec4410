#include "src/fpga/ethernet.h"

#include <algorithm>
#include <cmath>

namespace apiary {

uint32_t ExternalNetwork::RegisterEndpoint(ExternalEndpoint* endpoint) {
  endpoints_.push_back(endpoint);
  return static_cast<uint32_t>(endpoints_.size() - 1);
}

void ExternalNetwork::SetLossRate(double rate, uint64_t seed) {
  loss_rate_ = rate;
  loss_rng_ = std::make_unique<Rng>(seed);
}

void ExternalNetwork::StartLossBurst(Cycle now, Cycle duration, double rate,
                                     uint64_t seed) {
  burst_until_ = now + duration;
  burst_rate_ = rate;
  burst_rng_ = std::make_unique<Rng>(seed);
  counters_.Add("extnet.loss_bursts");
}

void ExternalNetwork::Send(EthFrame frame, Cycle now) {
  if (frame.dst_endpoint >= endpoints_.size()) {
    counters_.Add("extnet.dropped_unknown_dst");
    return;
  }
  if (loss_rate_ > 0.0 && loss_rng_ != nullptr && loss_rng_->NextBool(loss_rate_)) {
    counters_.Add("extnet.dropped_loss");
    return;
  }
  if (now < burst_until_ && burst_rng_ != nullptr &&
      burst_rng_->NextBool(burst_rate_)) {
    counters_.Add("extnet.dropped_burst");
    return;
  }
  counters_.Add("extnet.frames");
  counters_.Add("extnet.bytes", frame.payload.size());
  in_flight_.push_back(InFlight{now + latency_cycles_, std::move(frame)});
  // An idle fabric may be parked past this frame's delivery cycle; the
  // sender (MAC, client, hosted baseline — all root-phase) re-arms it.
  RequestWake();
}

void ExternalNetwork::Tick(Cycle now) {
  // Frames are enqueued in deliver-time order because latency is constant.
  while (!in_flight_.empty() && in_flight_.front().deliver_at <= now) {
    InFlight item = std::move(in_flight_.front());
    in_flight_.pop_front();
    endpoints_[item.frame.dst_endpoint]->OnFrame(std::move(item.frame), now);
  }
}

EthernetMacBase::EthernetMacBase(double link_gbps, double clock_mhz)
    : link_gbps_(link_gbps),
      bytes_per_cycle_(link_gbps * 1000.0 / (8.0 * clock_mhz)) {}

Cycle EthernetMacBase::SerializationCycles(size_t bytes) const {
  return std::max<Cycle>(
      1, static_cast<Cycle>(std::ceil(static_cast<double>(bytes) / bytes_per_cycle_)));
}

void EthernetMacBase::OnFrame(EthFrame frame, Cycle now) {
  (void)now;
  if (!link_up()) {
    counters_.Add("mac.rx_dropped_link_down");
    return;
  }
  counters_.Add("mac.rx_frames");
  counters_.Add("mac.rx_bytes", frame.payload.size());
  rx_queue_.push_back(std::move(frame));
  rx_wake_.Wake();
}

bool EthernetMacBase::QueueTx(EthFrame frame) {
  // A bounded TX FIFO models the MAC's buffer memory.
  static constexpr size_t kTxQueueFrames = 64;
  if (tx_queue_.size() >= kTxQueueFrames) {
    counters_.Add("mac.tx_backpressure");
    return false;
  }
  counters_.Add("mac.tx_frames");
  counters_.Add("mac.tx_bytes", frame.payload.size());
  tx_queue_.push_back(std::move(frame));
  RequestWake();
  return true;
}

EthFrame EthernetMacBase::PopRx() {
  EthFrame frame = std::move(rx_queue_.front());
  rx_queue_.pop_front();
  return frame;
}

void EthernetMacBase::Tick(Cycle now) {
  if (tx_in_flight_) {
    if (now < tx_busy_until_) {
      return;
    }
    tx_in_flight_ = false;
    tx_current_.src_endpoint = address_;
    tx_current_.sent_cycle = now;
    if (network_ != nullptr) {
      network_->Send(std::move(tx_current_), now);
    }
  }
  if (!tx_in_flight_ && !tx_queue_.empty() && link_up()) {
    tx_current_ = std::move(tx_queue_.front());
    tx_queue_.pop_front();
    tx_busy_until_ = now + SerializationCycles(tx_current_.payload.size());
    tx_in_flight_ = true;
  }
}

void EthMac10G::AssertCoreReset() {
  reset_asserted_ = true;
  released_ = false;
  locked_ = false;
}

void EthMac10G::ReleaseCoreReset(Cycle now) {
  if (!reset_asserted_) {
    return;  // Protocol violation: release without assert is ignored.
  }
  released_ = true;
  release_cycle_ = now;
}

bool EthMac10G::RxBlockLock(Cycle now) const {
  if (released_ && !locked_ && now >= release_cycle_ + kLockCycles) {
    locked_ = true;
    RequestWake();  // Link up: queued TX can launch.
  }
  return locked_;
}

bool EthMac10G::TxFrame(EthFrame frame, Cycle now) {
  if (!RxBlockLock(now)) {
    counters_.Add("mac.tx_dropped_link_down");
    return false;
  }
  return QueueTx(std::move(frame));
}

void EthMac100G::InitCmac(Cycle now) {
  init_done_ = true;
  init_cycle_ = now;
  aligned_ = false;
}

bool EthMac100G::RxAligned(Cycle now) const {
  if (init_done_ && !aligned_ && now >= init_cycle_ + kAlignCycles) {
    aligned_ = true;
    RequestWake();  // Link up: queued TX can launch.
  }
  return aligned_;
}

bool EthMac100G::EnqueueTxSegment(EthFrame frame, Cycle now) {
  if (!RxAligned(now) || !flow_control_enabled_) {
    counters_.Add("mac.tx_dropped_link_down");
    return false;
  }
  return QueueTx(std::move(frame));
}

}  // namespace apiary
