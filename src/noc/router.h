// Input-buffered 5-port mesh router with wormhole switching, two virtual
// channels, XY dimension-order routing, and round-robin arbitration.
//
// The Mesh orchestrates all routers in two phases per cycle (commit staged
// flits, then route), which gives every router a consistent view of
// downstream buffer occupancy without explicit credit wires.
#ifndef SRC_NOC_ROUTER_H_
#define SRC_NOC_ROUTER_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/noc/fault_hooks.h"
#include "src/noc/packet.h"
#include "src/sim/ring_buffer.h"
#include "src/stats/summary.h"

namespace apiary {

class NetworkInterface;

enum RouterPort : int {
  kPortNorth = 0,
  kPortSouth = 1,
  kPortEast = 2,
  kPortWest = 3,
  kPortLocal = 4,
};
inline constexpr int kNumPorts = 5;

class Router {
 public:
  Router(uint32_t x, uint32_t y, uint32_t mesh_width, uint32_t mesh_height,
         uint32_t buffer_depth);

  // Wiring (done once by the Mesh).
  void SetNeighbor(RouterPort port, Router* neighbor) { neighbors_[port] = neighbor; }
  void SetLocalInterface(NetworkInterface* ni) { ni_ = ni; }
  void SetFaultModel(NocFaultModel* model) { fault_model_ = model; }

  // Weighted bandwidth arbitration: assigns a deficit weight to an
  // arbitration class. While any weight is configured and two or more
  // classes compete for the same free output VC, a deficit arbiter picks
  // the winner: each contested attempt banks `weight` of deficit for every
  // competing class, the largest deficit wins, and the winner pays its
  // packet's flit count back out of its deficit — so long-run contended
  // grants converge to the weight ratio. A class with no queued traffic is
  // reset to zero deficit (idle classes cannot bank bursts, and debts are
  // forgiven once contention ends). The scheme is work-conserving — a sole
  // competitor passes immediately and free of charge, because weights
  // divide *contended* bandwidth and are not absolute caps. With no weights
  // configured the arbitration path is untouched. Weight 0 restores a class
  // to the default weight (1).
  void SetClassWeight(uint8_t cls, uint32_t weight);

  // Phase 1: staged flits (arrived last cycle) become visible.
  void CommitStaged();

  // Phase 2: forward up to one flit per output port.
  void RouteCycle(Cycle now);

  // Returns true and stages the flit if input buffer (port, vc) has space.
  bool AcceptFlit(RouterPort in_port, const Flit& flit);

  // Free slots in input buffer (port, vc), counting staged flits.
  uint32_t FreeSlots(RouterPort in_port, Vc vc) const {
    return buffer_depth_ - inputs_[in_port][static_cast<int>(vc)].ring.size();
  }

  // Audit for tests: true when the maintained per-output request masks
  // equal a from-scratch rebuild over the committed head flits.
  bool RequestMasksExact() const;

  uint32_t x() const { return x_; }
  uint32_t y() const { return y_; }
  TileId tile() const { return y_ * mesh_width_ + x_; }

  const CounterSet& counters() const { return counters_; }
  uint64_t flits_routed() const { return flits_routed_; }

  // True while any input buffer holds a flit (staged or committed) — the
  // mesh's quiescence check. O(1): tracked as a running occupancy count.
  bool HasBufferedFlits() const { return occupancy_ != 0; }

  // Live-list publication (Mesh active sweep): on the first flit accepted
  // while unmarked, the router appends its tile id to `list` — the mesh's
  // per-cycle busy set. The mesh clears the mark when it compacts the
  // router out of the list (occupancy back to zero).
  void SetLiveList(std::vector<uint32_t>* list) { live_out_ = list; }
  void ClearLiveMark() { live_marked_ = false; }

  // Estimated logic-cell cost of this router instance (for the FPGA resource
  // model; see src/fpga/resource_model.h for calibration notes).
  static uint32_t LogicCellCost(uint32_t buffer_depth);

 private:
  // The express lane reads wormhole-owner state at corridor launch and
  // replays batched traversal effects through ExpressCatchUp (src/noc/
  // express.h documents why the batch is byte-exact).
  friend class ExpressLane;

  // Applies the externally visible effects of `departed` corridor flits
  // having been forwarded from input `in` through (out, vc) on consecutive
  // cycles: flit count, VC/input round-robin pointers, the sole-pass deficit
  // reset, and the wormhole owner (held while mid-packet, released by the
  // tail). No-op when nothing departed yet.
  void ExpressCatchUp(RouterPort out, RouterPort in, int vc, uint32_t departed,
                      uint32_t flits);

  // One fixed-capacity ring per input VC (buffer_depth, sized once at
  // construction): the input buffer models a hardware FIFO, so its bound is
  // architectural and per-flit queue churn must not touch the heap. The
  // first `committed` flits are visible to arbitration; the rest arrived
  // this cycle (staged) and become visible at the next CommitStaged, which
  // only moves the watermark — a flit is written once, on arrival.
  struct InputBuffer {
    RingBuffer<Flit> ring;
    uint32_t committed = 0;
  };
  struct OutputVcState {
    // Wormhole ownership: the (input port, vc) whose packet currently holds
    // this output vc; -1 when free.
    int owner_port = -1;
  };

  // XY dimension-order output port for a destination tile (table lookup).
  RouterPort RoutePort(TileId dst) const { return static_cast<RouterPort>(route_[dst]); }

  // Request bit of input buffer (in, vc) within an output's request mask
  // (also its bit in staged_).
  static uint32_t RequestBit(int in, int vc) { return 1u << (vc * kNumPorts + in); }
  // Sets buffer (in, vc)'s bit on the output its committed head flit routes
  // to. The buffer must hold a committed flit.
  void RequestHead(int in, int vc) {
    requests_[RoutePort(inputs_[in][vc].ring.front().dst())] |= RequestBit(in, vc);
  }
  // The inputs requesting (out, vc), rotated so bit i is input
  // (rr_input_[out] + i) % kNumPorts: low-to-high is round-robin order.
  uint32_t RequestingInputs(int out, int vc) const;

  // Attempts to forward the head-of-line flit from inputs_[in][vc] through
  // `out`. Returns true on success.
  bool TryForward(RouterPort out, int in, int vc, Cycle now);

  // Weighted acquisition of a free output vc: scans this vc's requesting
  // head flits, and when two or more arbitration classes compete, lets the
  // class with the largest deficit win (deficits accrue by weight per
  // contested attempt and the winner pays its packet's flit count, so
  // long-run grants converge to the weight ratio). A sole candidate class
  // passes immediately and free of charge.
  bool AcquireWeighted(RouterPort out, int vc, Cycle now);

  bool DownstreamHasSpace(RouterPort out, Vc vc) const;
  void SendDownstream(RouterPort out, const Flit& flit, Cycle now);

  uint32_t x_;
  uint32_t y_;
  uint32_t mesh_width_;
  uint32_t buffer_depth_;

  std::array<Router*, 4> neighbors_{};
  NetworkInterface* ni_ = nullptr;
  NocFaultModel* fault_model_ = nullptr;

  InputBuffer inputs_[kNumPorts][kNumVcs];
  OutputVcState outputs_[kNumPorts][kNumVcs];
  // Round-robin pointers: per output port, the next input port to consider.
  std::array<int, kNumPorts> rr_input_{};
  // Per output port, the next vc to consider (VC-level interleaving).
  std::array<int, kNumPorts> rr_vc_{};
  // Destination tile -> XY output port; packets only address on-mesh tiles.
  std::vector<uint8_t> route_;
  // Per output port, the input buffers whose committed head flit routes to
  // it (see RequestBit). Maintained, never rebuilt: a buffer's bit is set
  // when CommitStaged makes its first flit visible and moved to the next
  // head's output when TryForward pops (RequestMasksExact audits this).
  std::array<uint32_t, kNumPorts> requests_{};
  // Input buffers holding staged (uncommitted) flits, so CommitStaged
  // visits only those.
  uint32_t staged_ = 0;

  // Weighted-arbitration state. `weighted_` gates the whole mechanism so
  // boards that never configure weights keep the original arbitration
  // byte-for-byte. Deficits are per (output port, class) and only move while
  // that class is actually contending at that output: an idle class is reset
  // to zero (no banked bursts, no lingering debt once contention ends).
  bool weighted_ = false;
  std::array<uint32_t, kNumArbClasses> class_weights_{};
  std::array<std::array<int64_t, kNumArbClasses>, kNumPorts> class_deficit_{};

  uint64_t flits_routed_ = 0;
  // Total flits resident across all input buffers (staged + committed).
  uint64_t occupancy_ = 0;
  // Busy-transition publication target (the owning mesh's fresh-live list)
  // and the membership mark that keeps each transition published once.
  std::vector<uint32_t>* live_out_ = nullptr;
  bool live_marked_ = false;
  CounterSet counters_;
  // Counter slots, interned once so every bump is an array add.
  const CounterId stalls_id_ = counters_.Intern("router.stalls");
  const CounterId vc_blocked_id_ = counters_.Intern("router.vc_blocked");
  const CounterId weighted_grants_id_ = counters_.Intern("router.weighted_grants");
  const CounterId fault_dropped_id_ = counters_.Intern("router.fault_dropped_packets");
  const CounterId fault_stalled_id_ = counters_.Intern("router.fault_stalled_cycles");
};

}  // namespace apiary

#endif  // SRC_NOC_ROUTER_H_
