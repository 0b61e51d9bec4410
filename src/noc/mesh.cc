#include "src/noc/mesh.h"

#include <algorithm>
#include <cstdlib>

namespace apiary {

Mesh::Mesh(MeshConfig config, SimContext* context) : config_(config) {
  if (context != nullptr) {
    pool_ = &PacketPool::ForContext(*context);
  } else {
    owned_pool_ = std::make_unique<PacketPool>();
    pool_ = owned_pool_.get();
  }
  const uint32_t n = num_tiles();
  routers_.reserve(n);
  nis_.reserve(n);
  for (uint32_t y = 0; y < config_.height; ++y) {
    for (uint32_t x = 0; x < config_.width; ++x) {
      routers_.push_back(std::make_unique<Router>(x, y, config_.width, config_.height,
                                                  config_.router_buffer_depth));
    }
  }
  for (uint32_t t = 0; t < n; ++t) {
    nis_.push_back(std::make_unique<NetworkInterface>(t, routers_[t].get(),
                                                      config_.ni_inject_queue_flits,
                                                      config_.force_single_vc, pool_));
    routers_[t]->SetLocalInterface(nis_[t].get());
  }
  // Wire up the grid.
  for (uint32_t y = 0; y < config_.height; ++y) {
    for (uint32_t x = 0; x < config_.width; ++x) {
      Router* r = routers_[y * config_.width + x].get();
      if (y > 0) {
        r->SetNeighbor(kPortNorth, routers_[(y - 1) * config_.width + x].get());
      }
      if (y + 1 < config_.height) {
        r->SetNeighbor(kPortSouth, routers_[(y + 1) * config_.width + x].get());
      }
      if (x + 1 < config_.width) {
        r->SetNeighbor(kPortEast, routers_[y * config_.width + x + 1].get());
      }
      if (x > 0) {
        r->SetNeighbor(kPortWest, routers_[y * config_.width + x - 1].get());
      }
    }
  }
  for (uint32_t t = 0; t < n; ++t) {
    routers_[t]->SetLiveList(&live_.fresh_routers);
    nis_[t]->SetLiveList(&live_.fresh_nis, WakeHint(this));
  }
  express_.Configure(this, n);
}

void Mesh::MergeFresh() {
  LiveSet& set = live_;
  // Entries are unique (the mark gates publication), so append + sort keeps
  // the list sorted ascending — the sweep order of the full loop.
  if (!set.fresh_routers.empty()) {
    set.routers.insert(set.routers.end(), set.fresh_routers.begin(), set.fresh_routers.end());
    std::sort(set.routers.begin(), set.routers.end());
    set.fresh_routers.clear();
  }
  if (!set.fresh_nis.empty()) {
    set.nis.insert(set.nis.end(), set.fresh_nis.begin(), set.fresh_nis.end());
    std::sort(set.nis.begin(), set.nis.end());
    set.fresh_nis.clear();
  }
}

void Mesh::CompactDead() {
  LiveSet& set = live_;
  size_t kept = 0;
  for (const uint32_t t : set.routers) {
    if (routers_[t]->HasBufferedFlits()) {
      set.routers[kept++] = t;
    } else {
      routers_[t]->ClearLiveMark();
    }
  }
  set.routers.resize(kept);
  kept = 0;
  for (const uint32_t t : set.nis) {
    if (nis_[t]->HasPendingInject()) {
      set.nis[kept++] = t;
    } else {
      nis_[t]->ClearLiveMark();
    }
  }
  set.nis.resize(kept);
}

void Mesh::Tick(Cycle now) {
  if (express_enabled_) {
    ExpressTickTop(now);
  }
  MergeFresh();
  // Three phases over the busy subset only: commit flits staged last cycle,
  // route one flit per output port per router, then let NIs feed the local
  // input ports (visible next cycle). Staged flits imply occupancy and
  // occupancy implies list membership, so committing live routers commits
  // every staged flit; RouteCycle and InjectCycle are no-ops on empty
  // members, so skipping them is exact.
  for (const uint32_t t : live_.routers) {
    routers_[t]->CommitStaged();
  }
  if (fault_model_ != nullptr && fault_model_->NextMeshActivity(now) <= now) {
    // An open stall window charges router.fault_stalled_cycles on every
    // wedged router, busy or not — only the full sweep reproduces that.
    for (auto& r : routers_) {
      r->RouteCycle(now);
    }
  } else {
    for (const uint32_t t : live_.routers) {
      routers_[t]->RouteCycle(now);
    }
  }
  for (const uint32_t t : live_.nis) {
    nis_[t]->InjectCycle(now);
  }
  CompactDead();
}

Cycle Mesh::NextActivity(Cycle now) const {
  // An active corridor keeps the mesh ticking on every executed cycle — the
  // exact cycles the real run would execute with those flits in flight, so
  // skip/executed-cycle counts stay byte-identical. Each such tick costs
  // O(corridors), not O(busy routers), which is where the B5 win comes from.
  if (express_.AnyActive()) {
    return now;
  }
  // The live sets are exact between ticks (marks are published on every
  // idle-to-busy transition, compaction prunes on the drain side), so the
  // busy check is a handful of emptiness tests instead of an O(tiles) scan —
  // and agrees with that scan bit for bit.
  if (LiveBusy(live_)) {
    return now;
  }
  // Empty fabric: only the fault model (stall windows charge a counter every
  // open cycle) can still need per-cycle routing work.
  return fault_model_ != nullptr ? fault_model_->NextMeshActivity(now) : kNoActivity;
}

void Mesh::SetFaultModel(NocFaultModel* model) {
  // Corridors were planned against the old model's quiet declaration.
  MaterializeExpress();
  fault_model_ = model;
  for (auto& r : routers_) {
    r->SetFaultModel(model);
  }
  RequestWake();  // The model's NextMeshActivity is part of the declaration.
}

void Mesh::SetArbClassWeight(uint8_t cls, uint32_t weight) {
  // SetClassWeight zeroes every router's deficits and may flip the weighted
  // arbitration path on or off — exactly the reconfiguration the corridor
  // replay must not paper over. Materialize first, then reconfigure.
  MaterializeExpress();
  for (auto& r : routers_) {
    r->SetClassWeight(cls, weight);
  }
}

void Mesh::SetExpressEnabled(bool enabled) {
  if (!enabled) {
    MaterializeExpress();
  }
  express_enabled_ = enabled;
  express_.SetEnabled(enabled);
  for (auto& ni : nis_) {
    ni->SetExpressLane(enabled ? &express_ : nullptr);
  }
}

void Mesh::MaterializeExpress() { express_.MaterializeAll(); }

void Mesh::ExpressTickTop(Cycle now) {
  ExpressLane& lane = express_;
  const LiveSet& set = live_;
  lane.RunCompletions(now);
  if (lane.AnyActive()) {
    // Conflict scan over the mesh's busy sets. Index-based with snapshot
    // bounds: materializing a corridor appends its own router/NI marks to
    // the fresh lists, and those can never conflict with the survivors (the
    // path/zone disjointness invariant), so new entries are safely skipped.
    const size_t routers = set.routers.size();
    const size_t fresh_routers = set.fresh_routers.size();
    const size_t nis = set.nis.size();
    const size_t fresh_nis = set.fresh_nis.size();
    for (size_t i = 0; i < routers && lane.AnyActive(); ++i) {
      lane.MaterializeTouchingRouter(set.routers[i]);
    }
    for (size_t i = 0; i < fresh_routers && lane.AnyActive(); ++i) {
      lane.MaterializeTouchingRouter(set.fresh_routers[i]);
    }
    for (size_t i = 0; i < nis && lane.AnyActive(); ++i) {
      lane.MaterializeTouchingNi(set.nis[i]);
    }
    for (size_t i = 0; i < fresh_nis && lane.AnyActive(); ++i) {
      lane.MaterializeTouchingNi(set.fresh_nis[i]);
    }
  }
  // Every observer until the next tick sees end-of-`now` state, really or
  // analytically — the uniform materialization boundary.
  lane.SetStateTime(now);
}

uint32_t Mesh::Hops(TileId a, TileId b) const {
  const int ax = static_cast<int>(a % config_.width);
  const int ay = static_cast<int>(a / config_.width);
  const int bx = static_cast<int>(b % config_.width);
  const int by = static_cast<int>(b / config_.width);
  return static_cast<uint32_t>(std::abs(ax - bx) + std::abs(ay - by));
}

CounterSet Mesh::AggregateCounters() const {
  CounterSet total;
  for (const auto& r : routers_) {
    total.Merge(r->counters());
  }
  for (const auto& ni : nis_) {
    total.Merge(ni->counters());
  }
  uint64_t forwarded = 0;
  uint64_t ejected = 0;
  express_.InFlightProgress(&forwarded, &ejected);
  if (ejected != 0) {
    total.Add("ni.flits_ejected", ejected);
  }
  return total;
}

Histogram Mesh::AggregateLatency() const {
  Histogram total;
  for (const auto& ni : nis_) {
    total.Merge(ni->latency_histogram());
  }
  return total;
}

uint64_t Mesh::TotalFlitsRouted() const {
  uint64_t total = 0;
  for (const auto& r : routers_) {
    total += r->flits_routed();
  }
  uint64_t forwarded = 0;
  uint64_t ejected = 0;
  express_.InFlightProgress(&forwarded, &ejected);
  return total + forwarded;
}

uint64_t Mesh::LogicCellCost() const {
  return static_cast<uint64_t>(num_tiles()) *
         (Router::LogicCellCost(config_.router_buffer_depth) +
          NetworkInterface::LogicCellCost());
}

}  // namespace apiary
