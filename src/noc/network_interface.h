// Per-tile network interface: packetizes outbound messages into flits,
// injects them into the local router port, and reassembles inbound packets.
//
// The NI is mechanical plumbing; all policy (naming, capabilities, rate
// limits) is applied by the Apiary monitor before a packet reaches Inject().
#ifndef SRC_NOC_NETWORK_INTERFACE_H_
#define SRC_NOC_NETWORK_INTERFACE_H_

#include <array>
#include <deque>
#include <vector>

#include "src/noc/packet.h"
#include "src/noc/router.h"
#include "src/sim/clocked.h"
#include "src/sim/ring_buffer.h"
#include "src/stats/histogram.h"
#include "src/stats/summary.h"

namespace apiary {

class ExpressLane;
class PacketPool;

class NetworkInterface {
 public:
  // `pool` is the packet pool senders on this tile draw from (the mesh's
  // domain pool); the NI itself never allocates, it only hands the pool to
  // the monitor above it.
  NetworkInterface(TileId tile, Router* router, uint32_t inject_queue_flits,
                   bool force_single_vc = false, PacketPool* pool = nullptr);

  // Queues a packet for injection. Returns false when the packet's VC
  // injection queue cannot hold its flits (backpressure to the monitor).
  bool Inject(PacketRef packet, Cycle now);

  // True if a packet of `flits` flits would fit in the given VC's queue.
  bool CanInject(uint32_t flits, Vc vc = Vc::kRequest) const;

  // The VC a packet tagged `vc` will actually travel on (the single-VC
  // ablation folds everything onto VC0). Lets the monitor pre-check
  // CanInject before consuming a message into a packet.
  Vc EffectiveVc(Vc vc) const { return force_single_vc_ ? Vc::kRequest : vc; }

  // Called by the Mesh each cycle: moves up to one flit from the injection
  // queue into the router's local input port.
  void InjectCycle(Cycle now);

  // Called by the local router when a flit is ejected to this tile.
  void EjectFlit(const Flit& flit, Cycle now);

  // Pops the next fully reassembled inbound packet, if any.
  PacketRef Retrieve();

  bool HasDeliverable() const { return !delivered_.empty(); }

  // True while any VC injection queue holds flits waiting for InjectCycle —
  // the mesh's quiescence check for the injection side.
  bool HasPendingInject() const {
    for (const auto& q : inject_queues_) {
      if (!q.empty()) {
        return true;
      }
    }
    return false;
  }

  TileId tile() const { return tile_; }

  // The domain pool packets injected here should come from. Never null on
  // the Board path (the mesh always wires one in).
  PacketPool* pool() const { return pool_; }

  // Partition support (Mesh::EnablePartition): repoints this tile's senders
  // at the owning shard's pool, so injected packets are born, routed, and
  // released inside one domain. Monitors read pool() per send — nothing
  // caches the old pointer.
  void SetPool(PacketPool* pool) { pool_ = pool; }

  // Live-list publication (Mesh active sweep): the first packet queued while
  // unmarked appends this tile id to `list`, so the mesh sweeps only NIs
  // with pending injections. The mesh clears the mark on compaction.
  void SetLiveList(std::vector<uint32_t>* list) { live_out_ = list; }
  void ClearLiveMark() { live_marked_ = false; }

  // Wake channel for the consumer of delivered packets (the tile above this
  // NI): fired whenever a packet lands in the delivery queue, ending the
  // tile's parked quiescence the cycle legacy tick order dictates.
  void SetSinkWake(WakeHint hint) { sink_wake_ = hint; }

  // Express-corridor wiring (Mesh::SetExpressEnabled): when set, InjectCycle
  // first offers the queue to the lane (a launched corridor replaces real
  // injection), Inject materializes any corridor sourced here before new
  // flits enqueue, and CanInject counts the corridor's virtual queue
  // occupancy so the monitor's pre-check matches the real run byte-for-byte.
  void SetExpressLane(ExpressLane* lane) { express_ = lane; }

  // Largest packet (in flits) that can ever be injected; senders must
  // segment above this.
  uint32_t max_packet_flits() const { return inject_queue_flits_; }

  const CounterSet& counters() const { return counters_; }
  const Histogram& latency_histogram() const { return latency_; }

  static uint32_t LogicCellCost();

 private:
  // The lane drains/refills the injection queues at corridor launch and
  // materialization, and replays the round-robin pointer (express.h).
  friend class ExpressLane;

  TileId tile_;
  Router* router_;
  uint32_t inject_queue_flits_;
  bool force_single_vc_;
  PacketPool* pool_;
  ExpressLane* express_ = nullptr;
  // Per-VC injection queues so response traffic never queues behind a
  // request backlog (mirrors the router's VC separation). Fixed-capacity
  // rings: the bound is inject_queue_flits by construction, so the queue
  // never touches the heap after wiring.
  std::array<RingBuffer<Flit>, kNumVcs> inject_queues_;
  int inject_rr_ = 0;
  // Busy-transition publication target (the owning mesh's fresh-live list)
  // plus the once-per-transition mark, and the delivery-side wake handle.
  std::vector<uint32_t>* live_out_ = nullptr;
  bool live_marked_ = false;
  WakeHint sink_wake_;
  std::deque<PacketRef> delivered_;
  CounterSet counters_;
  // Counter slots, interned once so every bump is an array add.
  const CounterId checksum_drops_id_ = counters_.Intern("ni.checksum_drops");
  const CounterId flits_ejected_id_ = counters_.Intern("ni.flits_ejected");
  const CounterId flits_injected_id_ = counters_.Intern("ni.flits_injected");
  const CounterId inject_backpressure_id_ = counters_.Intern("ni.inject_backpressure");
  const CounterId packets_delivered_id_ = counters_.Intern("ni.packets_delivered");
  const CounterId packets_dropped_fault_id_ = counters_.Intern("ni.packets_dropped_fault");
  const CounterId packets_injected_id_ = counters_.Intern("ni.packets_injected");
  Histogram latency_;  // Injection-to-tail-ejection latency, in cycles.
};

}  // namespace apiary

#endif  // SRC_NOC_NETWORK_INTERFACE_H_
