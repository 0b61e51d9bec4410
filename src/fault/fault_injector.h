// FaultInjector: executes a FaultPlan against a live board.
//
// One Clocked block that fires the plan's timed events into the layers they
// target (NoC links/routers, DRAM cells, the external ethernet fabric,
// accelerator logic) and answers the NoC's per-traversal fault queries for
// windowed link faults. All probabilistic decisions flow through one Rng
// seeded from the plan, so a campaign replays byte-identically.
#ifndef SRC_FAULT_FAULT_INJECTOR_H_
#define SRC_FAULT_FAULT_INJECTOR_H_

#include <string>
#include <vector>

#include "src/core/kernel.h"
#include "src/fault/fault_plan.h"
#include "src/fpga/ethernet.h"
#include "src/mem/memory_backend.h"
#include "src/noc/fault_hooks.h"
#include "src/noc/mesh.h"
#include "src/sim/clocked.h"
#include "src/sim/random.h"
#include "src/stats/summary.h"

namespace apiary {

// The board surfaces the injector reaches into. Null members disable the
// corresponding fault kinds (events targeting them are counted as skipped).
struct FaultHooks {
  ApiaryOs* os = nullptr;          // kAccelCrash / kAccelWedge.
  Mesh* mesh = nullptr;            // Link + router faults (hooked automatically).
  MemoryBackend* memory = nullptr; // kDramBitFlip.
  ExternalNetwork* network = nullptr;  // kEthLossBurst.
};

class FaultInjector : public Clocked, public NocFaultModel {
 public:
  // Sorts the plan and self-registers: with the simulator (via hooks.os) as
  // a clocked block, and with the mesh as its fault model.
  FaultInjector(FaultPlan plan, FaultHooks hooks);
  ~FaultInjector() override;

  void Tick(Cycle now) override;
  // Skip clamping: the next plan event must fire at exactly its scheduled
  // cycle (Record stamps `now`), and every open window bounds the jump at
  // its closing cycle so window-gated predicates (Exhausted, RouterStalled)
  // flip at identical cycles with and without skipping.
  [[nodiscard]] Cycle NextActivity(Cycle now) const override;
  std::string DebugName() const override { return "fault_injector"; }

  // NocFaultModel.
  bool OnLinkTraverse(TileId router_tile, const Flit& flit, Cycle now) override;
  bool RouterStalled(TileId router_tile, Cycle now) override;
  // The mesh has per-cycle fault work (stall counters accrue on stalled
  // routers) only while a stall window is open.
  [[nodiscard]] Cycle NextMeshActivity(Cycle now) const override;
  // Quiet for express corridors iff no drop/corrupt/stall window is open:
  // with every window closed, OnLinkTraverse draws nothing and mutates
  // nothing, so the corridor's skipped traversal checks are byte-exact.
  [[nodiscard]] bool NocQuiet(Cycle now) const override;

  // fault.injected / fault.<kind> / fault.link_drops_applied / ... plus the
  // per-result DRAM counters (fault.dram_corrupted / fault.dram_ecc_corrected).
  const CounterSet& counters() const { return counters_; }

  // Human-readable, deterministic record of every fault applied (bounded).
  std::string TraceString() const;

  // True once every plan event has fired and every window has closed.
  bool Exhausted(Cycle now) const;

 private:
  struct Window {
    TileId tile;  // kInvalidTile = any router.
    Cycle until;
    double rate;
  };

  bool WindowHit(const std::vector<Window>& windows, TileId router_tile, Cycle now);
  void Fire(const FaultEvent& event, Cycle now);
  // Opens a drop/corrupt/stall window on the mesh (see the .cc for the
  // corridor materialization and the mesh wake it implies).
  void OpenNocWindow(std::vector<Window>& windows, const FaultEvent& event, double rate,
                     Cycle now);
  void Record(const FaultEvent& event, Cycle now, const std::string& note);

  FaultPlan plan_;
  FaultHooks hooks_;
  size_t next_event_ = 0;
  Rng rng_;
  std::vector<Window> drop_windows_;
  std::vector<Window> corrupt_windows_;
  std::vector<Window> stall_windows_;
  CounterSet counters_;
  std::vector<std::string> trace_;
};

}  // namespace apiary

#endif  // SRC_FAULT_FAULT_INJECTOR_H_
