#include "src/noc/router.h"

#include <bit>

#include "src/noc/boundary_link.h"
#include "src/noc/network_interface.h"

namespace apiary {

Router::Router(uint32_t x, uint32_t y, uint32_t mesh_width, uint32_t mesh_height,
               uint32_t buffer_depth)
    : x_(x), y_(y), mesh_width_(mesh_width), buffer_depth_(buffer_depth),
      route_(mesh_width * mesh_height) {
  // flits + staged together never exceed buffer_depth (FreeSlots counts
  // both), but either side alone may briefly hold the full depth.
  for (auto& port_bufs : inputs_) {
    for (auto& buf : port_bufs) {
      buf.flits.Init(buffer_depth_);
      buf.staged.Init(buffer_depth_);
    }
  }
  // XY dimension-order routing: X first, then Y.
  for (uint32_t dst = 0; dst < route_.size(); ++dst) {
    const uint32_t dx = dst % mesh_width_;
    const uint32_t dy = dst / mesh_width_;
    route_[dst] = dx != x_ ? (dx > x_ ? kPortEast : kPortWest)
                  : dy != y_ ? (dy > y_ ? kPortSouth : kPortNorth) : kPortLocal;
  }
}

uint32_t Router::LogicCellCost(uint32_t buffer_depth) {
  // Calibrated against published soft-NoC routers (e.g. CONNECT-style 5-port,
  // 2-VC, 32B links land around 4-8k LUTs depending on buffering). Base
  // crossbar+allocators plus per-flit-slot buffer cost.
  return 4500 + 150 * buffer_depth * kNumVcs;
}

void Router::SetClassWeight(uint8_t cls, uint32_t weight) {
  if (cls >= kNumArbClasses) {
    return;
  }
  class_weights_[cls] = weight;
  weighted_ = false;
  for (const uint32_t w : class_weights_) {
    if (w != 0) {
      weighted_ = true;
    }
  }
  // (Re)configuring weights starts a fresh contest: no stale debt, no
  // banked bursts.
  for (auto& per_out : class_deficit_) {
    per_out.fill(0);
  }
}

void Router::ExpressCatchUp(RouterPort out, RouterPort in, int vc, uint32_t departed,
                            uint32_t flits) {
  if (departed == 0) {
    return;  // The lead flit never left this router: nothing was observable.
  }
  flits_routed_ += departed;
  // Each departure cycle sent exactly one flit through `out`, advancing the
  // VC pointer once; the head's acquisition (sole candidate — the corridor
  // invariant) moved the input pointer past `in` and reset this output's
  // deficits, and body flits rode the wormhole owner without touching either.
  rr_vc_[out] = static_cast<int>((static_cast<uint32_t>(rr_vc_[out]) + departed) % kNumVcs);
  rr_input_[out] = (static_cast<int>(in) + 1) % kNumPorts;
  if (weighted_) {
    class_deficit_[out].fill(0);
  }
  outputs_[out][vc].owner_port =
      departed < flits ? static_cast<int>(in) : -1;
}

void Router::RequestHead(int in, int vc) {
  const RingBuffer<Flit>& flits = inputs_[in][vc].flits;
  if (!flits.empty() && static_cast<int>(flits.front().vc()) == vc) {
    requests_[RoutePort(flits.front().dst())] |= RequestBit(in, vc);
  }
}

uint32_t Router::RequestingInputs(int out, int vc) const {
  constexpr uint32_t kMask = (1u << kNumPorts) - 1;
  const uint32_t inputs = (requests_[out] >> (vc * kNumPorts)) & kMask;
  const int rr = rr_input_[out];
  return ((inputs >> rr) | (inputs << (kNumPorts - rr))) & kMask;
}

uint32_t Router::FreeSlots(RouterPort in_port, Vc vc) const {
  const InputBuffer& buf = inputs_[in_port][static_cast<int>(vc)];
  const uint32_t used = static_cast<uint32_t>(buf.flits.size() + buf.staged.size());
  return used >= buffer_depth_ ? 0 : buffer_depth_ - used;
}

bool Router::AcceptFlit(RouterPort in_port, const Flit& flit) {
  if (FreeSlots(in_port, flit.vc()) == 0) {
    return false;
  }
  inputs_[in_port][static_cast<int>(flit.vc())].staged.push_back(flit);
  ++occupancy_;
  // Idle-to-busy transition: publish this router into the mesh's live set.
  if (!live_marked_ && live_out_ != nullptr) {
    live_out_->push_back(tile());
    live_marked_ = true;
  }
  return true;
}

void Router::CommitStaged() {
  for (auto& port_bufs : inputs_) {
    for (auto& buf : port_bufs) {
      while (!buf.staged.empty()) {
        buf.flits.push_back(buf.staged.take_front());
      }
    }
  }
}

bool Router::DownstreamHasSpace(RouterPort out, Vc vc) const {
  if (out == kPortLocal) {
    // Ejection is always accepted: the NI reassembly buffer is sized for the
    // maximum packet and delivery queues are modeled at the monitor level.
    return true;
  }
  if (out_boundary_[out] != nullptr) {
    // Cut link: credit flow control stands in for the neighbor's FreeSlots —
    // a credit is a guaranteed slot in the receiving input buffer, reflecting
    // its end-of-previous-cycle occupancy (never reading the other shard).
    return out_boundary_[out]->HasCredit(vc);
  }
  Router* next = neighbors_[out];
  if (next == nullptr) {
    return false;
  }
  // The flit will arrive on the neighbor's opposite port.
  static constexpr RouterPort kOpposite[4] = {kPortSouth, kPortNorth, kPortWest, kPortEast};
  return next->FreeSlots(kOpposite[out], vc) > 0;
}

void Router::SendDownstream(RouterPort out, const Flit& flit, Cycle now) {
  if (out == kPortLocal) {
    if (ni_ != nullptr) {
      ni_->EjectFlit(flit, now);
    }
    return;
  }
  if (out_boundary_[out] != nullptr) {
    out_boundary_[out]->Send(flit, now);
    return;
  }
  static constexpr RouterPort kOpposite[4] = {kPortSouth, kPortNorth, kPortWest, kPortEast};
  neighbors_[out]->AcceptFlit(kOpposite[out], flit);
}

bool Router::TryForward(RouterPort out, int in, int vc, Cycle now) {
  const uint32_t bit = RequestBit(in, vc);
  if ((requests_[out] & bit) == 0) {
    return false;  // Empty buffer, or its head flit routes elsewhere.
  }
  InputBuffer& buf = inputs_[in][vc];
  const Flit& flit = buf.flits.front();
  if (!DownstreamHasSpace(out, flit.vc())) {
    counters_.Add(stalls_id_);
    return false;
  }
  OutputVcState& state = outputs_[out][vc];
  if (state.owner_port == -1) {
    if (!flit.is_head()) {
      // Body flit whose ownership was released by an earlier tail: cannot
      // happen within one packet, but guard against interleaving bugs.
      return false;
    }
    state.owner_port = in;
  } else if (state.owner_port != in) {
    // Output vc is held by another packet (wormhole).
    counters_.Add(vc_blocked_id_);
    return false;
  }
  // Link fault injection: consulted once per packet per link (on the head
  // flit). The remaining flits keep flowing so wormhole state stays sane;
  // the ejecting NI discards packets marked dropped.
  if (fault_model_ != nullptr && out != kPortLocal && flit.is_head() &&
      fault_model_->OnLinkTraverse(tile(), flit, now)) {
    flit.packet->dropped = true;
    counters_.Add(fault_dropped_id_);
  }
  SendDownstream(out, flit, now);
  if (flit.is_tail()) {
    state.owner_port = -1;
  }
  buf.flits.pop_front();
  // The next head requests its own output; a later one may still take it.
  requests_[out] &= ~bit;
  RequestHead(in, vc);
  --occupancy_;
  ++flits_routed_;
  // Boundary-fed input buffer: report the freed slot to the upstream shard
  // (flushed as a credit at the end of this shard's route phase).
  if (in != kPortLocal && in_boundary_[in] != nullptr) {
    in_boundary_[in]->NotifyPop(static_cast<Vc>(vc));
  }
  return true;
}

bool Router::AcquireWeighted(RouterPort out, int vc, Cycle now) {
  // Scan the candidate head flits for this free (out, vc): per class, the
  // first candidate in input round-robin priority order.
  struct Candidate {
    int in = -1;
    uint32_t flits = 0;
  };
  std::array<Candidate, kNumArbClasses> cand;
  int num_classes = 0;
  int winner = -1;  // Last class found: the winner if it is the only one.
  bool stalled = false;
  for (uint32_t rot = RequestingInputs(out, vc); rot != 0; rot &= rot - 1) {
    const int in = (rr_input_[out] + std::countr_zero(rot)) % kNumPorts;
    const Flit& flit = inputs_[in][vc].flits.front();
    if (!flit.is_head()) {
      continue;
    }
    if (!DownstreamHasSpace(out, flit.vc())) {
      stalled = true;  // Applies to every candidate: space is per (out, vc).
      break;
    }
    const int cls = flit.packet->arb_class % kNumArbClasses;
    if (cand[cls].in == -1) {
      cand[cls].in = in;
      cand[cls].flits = flit.packet->flit_count;
      ++num_classes;
      winner = cls;
    }
  }
  if (stalled) {
    counters_.Add(stalls_id_);
    return false;
  }
  if (num_classes == 0) {
    return false;
  }
  if (num_classes == 1) {
    // No contention: pass free of charge, and restart the contest — weights
    // divide contended bandwidth only.
    class_deficit_[out].fill(0);
  } else {
    // Contested: every competing class banks its weight, idle classes reset,
    // and the largest deficit wins (ties to the lowest class id — fixed and
    // deterministic). The winner pays its packet's flit count, so over time
    // each class's grant share converges to weight / sum(weights).
    winner = -1;
    for (int cls = 0; cls < kNumArbClasses; ++cls) {
      if (cand[cls].in == -1) {
        class_deficit_[out][cls] = 0;
        continue;
      }
      const int64_t weight = class_weights_[cls] == 0 ? 1 : class_weights_[cls];
      class_deficit_[out][cls] += weight;
      if (winner == -1 || class_deficit_[out][cls] > class_deficit_[out][winner]) {
        winner = cls;
      }
    }
  }
  if (!TryForward(out, cand[winner].in, vc, now)) {
    return false;
  }
  rr_input_[out] = (cand[winner].in + 1) % kNumPorts;
  if (num_classes > 1) {
    class_deficit_[out][winner] -= static_cast<int64_t>(cand[winner].flits);
    counters_.Add(weighted_grants_id_);
  }
  return true;
}

void Router::RouteCycle(Cycle now) {
  if (fault_model_ != nullptr && fault_model_->RouterStalled(tile(), now)) {
    counters_.Add(fault_stalled_id_);
    return;  // Wedged crossbar: buffers fill, upstream backpressure builds.
  }
  requests_.fill(0);
  for (int i = 0; i < kNumPorts * kNumVcs; ++i) {
    RequestHead(i % kNumPorts, i / kNumPorts);
  }
  // One flit per output port per cycle (the physical link constraint).
  // VC-level round robin, then input-port round robin within a vc. When
  // weights are configured, acquisition of a free output vc goes through the
  // deficit arbiter instead of plain input round robin. Only requesting
  // inputs are visited: a non-requesting TryForward fails before any side
  // effect, so skipping it is exact.
  for (int out = 0; out < kNumPorts; ++out) {
    if (requests_[out] == 0) {
      continue;
    }
    bool sent = false;
    for (int vci = 0; vci < kNumVcs && !sent; ++vci) {
      const int vc = (rr_vc_[out] + vci) % kNumVcs;
      const OutputVcState& state = outputs_[out][vc];
      if (state.owner_port != -1) {
        // Continue the packet that owns this output vc.
        sent = TryForward(static_cast<RouterPort>(out), state.owner_port, vc, now);
        continue;
      }
      if (weighted_) {
        sent = AcquireWeighted(static_cast<RouterPort>(out), vc, now);
        continue;
      }
      for (uint32_t rot = RequestingInputs(out, vc); rot != 0 && !sent; rot &= rot - 1) {
        const int in = (rr_input_[out] + std::countr_zero(rot)) % kNumPorts;
        sent = TryForward(static_cast<RouterPort>(out), in, vc, now);
        if (sent) {
          rr_input_[out] = (in + 1) % kNumPorts;
        }
      }
    }
    if (sent) {
      rr_vc_[out] = (rr_vc_[out] + 1) % kNumVcs;
    }
  }
}

}  // namespace apiary
