// 2-D mesh NoC: owns the routers and network interfaces for a board and
// orchestrates their per-cycle phases.
//
// Modern FPGAs offer hardened NoCs (Versal, Agilex — Section 4.3); this
// class models such a NoC at flit granularity so the monitor layer above it
// experiences realistic latency, bandwidth and contention.
#ifndef SRC_NOC_MESH_H_
#define SRC_NOC_MESH_H_

#include <memory>
#include <vector>

#include "src/noc/express.h"
#include "src/noc/fault_hooks.h"
#include "src/noc/network_interface.h"
#include "src/noc/packet.h"
#include "src/noc/packet_pool.h"
#include "src/noc/router.h"
#include "src/sim/clocked.h"
#include "src/sim/sim_context.h"

namespace apiary {

struct MeshConfig {
  uint32_t width = 4;
  uint32_t height = 4;
  uint32_t router_buffer_depth = 8;    // Flits per input VC buffer.
  uint32_t ni_inject_queue_flits = 512;  // Must hold the largest message.
  // Ablation knob: force all traffic onto one VC (responses share the
  // request channel), reproducing the head-of-line blocking the two-VC
  // design exists to avoid (Section 4.5).
  bool force_single_vc = false;
};

class Mesh : public Clocked {
 public:
  // `context` selects the packet pool: the domain-local pool of the owning
  // simulator's SimContext when given (the Board constructor path), or a
  // mesh-private pool when null (standalone meshes in tests/benches).
  // Either way there is no process-wide pool to contend on.
  explicit Mesh(MeshConfig config, SimContext* context = nullptr);

  void Tick(Cycle now) override;
  // Quiescent when no router buffers a flit, no NI has flits queued for
  // injection, and the installed fault model (if any) has no per-cycle mesh
  // work (open stall windows). The busy check is O(1) — the live lists are
  // exact after every tick — instead of an O(tiles) scan.
  // APIARY-WAKE(NetworkInterface::Inject): an idle NI publishing itself to
  // the live set rings the mesh's wake; FaultInjector::Fire rings it when a
  // window opens (SetFaultModel too). Routers only turn busy inside the
  // mesh's own tick or a corridor materialization, which needs a corridor
  // in flight and so an active mesh.
  [[nodiscard]] Cycle NextActivity(Cycle now) const override;
  std::string DebugName() const override { return "mesh"; }

  uint32_t width() const { return config_.width; }
  uint32_t height() const { return config_.height; }
  uint32_t num_tiles() const { return config_.width * config_.height; }

  NetworkInterface& ni(TileId tile) { return *nis_[tile]; }
  const NetworkInterface& ni(TileId tile) const { return *nis_[tile]; }
  Router& router(TileId tile) { return *routers_[tile]; }

  // The pool every packet injected into this mesh is drawn from (monitors
  // reach it through their NI).
  PacketPool& pool() { return *pool_; }
  const PacketPool& pool() const { return *pool_; }

  // Installs (or clears, with nullptr) the fault model on every router.
  void SetFaultModel(NocFaultModel* model);

  // Configures a weighted-arbitration class weight on every router (see
  // Router::SetClassWeight). Used by the kernel to give tenants
  // proportional NoC bandwidth shares.
  void SetArbClassWeight(uint8_t cls, uint32_t weight);

  // Express corridors (src/noc/express.h): timing-equivalent analytic
  // fast-forwarding of whole packets through verifiably idle routers. Off by
  // default; toggling off (or any interference hook — fault window, weight
  // reconfig) materializes in-flight corridors back into
  // ordinary buffered flits, so traces/counters/billing stay byte-identical
  // either way.
  void SetExpressEnabled(bool enabled);
  bool express_enabled() const { return express_enabled_; }
  // Converts every in-flight corridor back to buffered flits at the current
  // state boundary. Called by FaultInjector::Fire before a NoC window opens,
  // and by every reconfiguration entry point.
  void MaterializeExpress();
  // The express lane's statistics.
  ExpressStats AggregateExpressStats() const { return express_.stats(); }

  // Minimal hop count between two tiles under XY routing.
  uint32_t Hops(TileId a, TileId b) const;

  // Aggregate statistics across all routers/NIs, including the progress of
  // in-flight express corridors (ExpressLane::InFlightProgress).
  CounterSet AggregateCounters() const;
  Histogram AggregateLatency() const;
  uint64_t TotalFlitsRouted() const;

  // Total logic-cell cost of the NoC fabric (routers + NIs).
  uint64_t LogicCellCost() const;

  // The packet pool's statistics, and their reset (bench warmup boundary).
  PacketPoolStats AggregatePoolStats() const { return pool_->stats(); }
  void ResetPoolStats() { pool_->ResetStats(); }

 private:
  // The busy subset of the mesh. `routers`/`nis` are sorted ascending and
  // exact after compaction: tile t is listed iff its router buffers a flit / its
  // NI has flits queued. `fresh_*` stage idle-to-busy transitions published
  // by AcceptFlit/Inject since the last merge; merging (append + sort) at
  // the top of the next sweep keeps the tick order identical to the full
  // ascending sweep. Newly staged flits are commit-invisible until that
  // sweep anyway, so deferring a fresh router one merge is byte-exact.
  struct LiveSet {
    std::vector<uint32_t> routers;
    std::vector<uint32_t> fresh_routers;
    std::vector<uint32_t> nis;
    std::vector<uint32_t> fresh_nis;
  };

  static bool LiveBusy(const LiveSet& set) {
    return !set.routers.empty() || !set.fresh_routers.empty() || !set.nis.empty() ||
           !set.fresh_nis.empty();
  }
  // Per-executed-cycle express work, before the live merge: complete
  // corridors due this cycle, then materialize any corridor whose zone a
  // busy router (or whose path a busy NI) has entered.
  void ExpressTickTop(Cycle now);
  void MergeFresh();
  // Drops drained members and clears their marks, restoring the "listed iff
  // busy" invariant the O(1) NextActivity check relies on.
  void CompactDead();

  MeshConfig config_;
  std::unique_ptr<PacketPool> owned_pool_;  // Set only for standalone meshes.
  PacketPool* pool_;                        // Context slot pool or owned_pool_.
  std::vector<std::unique_ptr<Router>> routers_;
  std::vector<std::unique_ptr<NetworkInterface>> nis_;
  NocFaultModel* fault_model_ = nullptr;
  // The express lane reads router/NI/fault state through the friendship in
  // express.h.
  friend class ExpressLane;
  bool express_enabled_ = false;
  ExpressLane express_;
  LiveSet live_;
};

}  // namespace apiary

#endif  // SRC_NOC_MESH_H_
