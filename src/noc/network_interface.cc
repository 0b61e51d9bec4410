#include "src/noc/network_interface.h"

#include "src/noc/express.h"

namespace apiary {

NetworkInterface::NetworkInterface(TileId tile, Router* router, uint32_t inject_queue_flits,
                                   bool force_single_vc, PacketPool* pool)
    : tile_(tile),
      router_(router),
      inject_queue_flits_(inject_queue_flits),
      force_single_vc_(force_single_vc),
      pool_(pool) {
  for (auto& queue : inject_queues_) {
    queue.Init(inject_queue_flits_);
  }
}

uint32_t NetworkInterface::LogicCellCost() {
  // Packetization, reassembly and queue logic; roughly half a router.
  return 2000;
}

bool NetworkInterface::CanInject(uint32_t flits, Vc vc) const {
  uint32_t pending = static_cast<uint32_t>(inject_queues_[static_cast<int>(vc)].size());
  if (express_ != nullptr) {
    // A corridor sourced here drained this queue at launch; count what the
    // real run's queue would still hold so backpressure decisions (and their
    // counters) stay byte-identical.
    pending += express_->VirtualPending(tile_, static_cast<int>(vc));
  }
  return pending + flits <= inject_queue_flits_;
}

bool NetworkInterface::Inject(PacketRef packet, Cycle now) {
  if (express_ != nullptr) {
    // New traffic from this tile ends any corridor launched here: its
    // unlaunched flits must requeue ahead of this packet, in order.
    express_->MaterializeSource(tile_);
  }
  if (force_single_vc_) {
    packet->vc = Vc::kRequest;  // Single-VC ablation: everything shares VC0.
  }
  // Flit count is computed once here and cached; every subsequent
  // is_tail() on the wire is a compare, not a division.
  const uint32_t flits = ComputeFlitCount(*packet);
  packet->flit_count = flits;
  if (!CanInject(flits, packet->vc)) {
    counters_.Add(inject_backpressure_id_);
    return false;
  }
  packet->inject_cycle = now;
  // The one stamping site: every packet, serialized or hand-built, is
  // checksummed here, so every value (0 included) is verified at eject.
  packet->checksum = PacketWireChecksum(*packet);
  auto& queue = inject_queues_[static_cast<int>(packet->vc)];
  for (uint32_t i = 0; i + 1 < flits; ++i) {
    queue.push_back(Flit{packet, i});
  }
  queue.push_back(Flit{std::move(packet), flits - 1});
  counters_.Add(packets_injected_id_);
  counters_.Add(flits_injected_id_, flits);
  // Idle-to-busy transition: publish this NI into the mesh's live set and
  // end the mesh's parked quiescence (the monitor injecting here ticks
  // outside the mesh).
  if (!live_marked_ && live_out_ != nullptr) {
    live_out_->push_back(tile_);
    live_marked_ = true;
    mesh_wake_.Wake();
  }
  return true;
}

void NetworkInterface::InjectCycle(Cycle now) {
  if (express_ != nullptr && express_->TryLaunch(*this, now)) {
    // The corridor's closed-form schedule covers this cycle's injection (and
    // every later one) — the queue has been drained into it.
    return;
  }
  // One flit per cycle onto the local port, round-robin across VCs.
  for (int i = 0; i < kNumVcs; ++i) {
    auto& queue = inject_queues_[(inject_rr_ + i) % kNumVcs];
    if (queue.empty()) {
      continue;
    }
    if (router_->AcceptFlit(kPortLocal, queue.front())) {
      queue.pop_front();
      inject_rr_ = (inject_rr_ + i + 1) % kNumVcs;
      return;
    }
  }
}

void NetworkInterface::EjectFlit(const Flit& flit, Cycle now) {
  counters_.Add(flits_ejected_id_);
  if (!flit.is_tail()) {
    return;
  }
  // The cached flit count must still describe the wire image; a mismatch
  // means something resized the payload mid-flight.
  assert(flit.packet->flit_count == ComputeFlitCount(*flit.packet));
  if (flit.packet->dropped) {
    // A link fault swallowed part of this packet in flight.
    counters_.Add(packets_dropped_fault_id_);
    return;
  }
  if (flit.packet->checksum != PacketWireChecksum(*flit.packet)) {
    // Corruption is detected here, never silently consumed: the packet is
    // discarded and the loss surfaces as a counter (and, one layer up, as a
    // request timeout rather than a garbled message).
    counters_.Add(checksum_drops_id_);
    return;
  }
  latency_.Record(now - flit.packet->inject_cycle);
  counters_.Add(packets_delivered_id_);
  delivered_.push_back(flit.packet);
  // New deliverable input for the tile above: end its parked quiescence.
  sink_wake_.Wake();
}

PacketRef NetworkInterface::Retrieve() {
  if (delivered_.empty()) {
    return PacketRef();
  }
  return delivered_.take_front();
}

}  // namespace apiary
