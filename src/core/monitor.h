// The per-tile Apiary monitor: the trusted interposition point between an
// untrusted accelerator and the NoC (Figure 1).
//
// "The Apiary monitor serves [as] an accelerator's interface to the OS, so
// all messages go through it" (Section 4.1). The monitor implements:
//   * the standard TileApi every accelerator programs against (4.3),
//   * capability-checked sends with monitor-held capability tables (4.6),
//   * the service-name -> physical-tile indirection (4.3),
//   * per-flow token-bucket rate limiting (4.5),
//   * incoming access control with implicit request/reply rights (4.5),
//   * fail-stop fault containment: drain, sink, and bounce with errors (4.4),
//   * message-level tracing (Section 3, programmability goal).
#ifndef SRC_CORE_MONITOR_H_
#define SRC_CORE_MONITOR_H_

#include <deque>
#include <map>
#include <optional>
#include <string>

#include "src/core/accelerator.h"
#include "src/core/capability.h"
#include "src/core/message.h"
#include "src/core/trace.h"
#include "src/noc/network_interface.h"
#include "src/noc/rate_limiter.h"
#include "src/sim/clocked.h"
#include "src/stats/histogram.h"
#include "src/stats/summary.h"

namespace apiary {

enum class TileFaultState : uint8_t {
  kHealthy = 0,
  kStopped = 1,  // Fail-stopped: messages sunk, senders bounced with errors.
};

struct MonitorConfig {
  uint32_t cap_entries = 64;
  uint32_t inbox_messages = 256;
  uint32_t outbox_messages = 16;
  // Pipeline latency the monitor adds to each outgoing message (capability
  // CAM lookup + header stamp). Two cycles matches a small two-stage check.
  Cycle send_pipeline_cycles = 2;
  size_t trace_capacity = 256;
};

class Monitor : public TileApi {
 public:
  Monitor(TileId tile, NetworkInterface* ni, MonitorConfig config);

  // ------------------------------------------------------------------
  // Trusted (kernel-side) configuration interface.
  // ------------------------------------------------------------------
  CapRef InstallCap(const Capability& cap);
  bool RevokeCap(CapRef ref);
  void RevokeAllCaps();
  void AllowSender(TileId src) { allowed_senders_[src] = true; }
  void DisallowSender(TileId src) { allowed_senders_.erase(src); }
  void SetRateLimit(uint64_t flits_per_1k_cycles, uint64_t burst_flits);
  void ClearRateLimit() { limiter_ = TokenBucket(); }
  // Tenant-shared injection budget: a bucket owned by the tenant manager
  // and shared by every monitor in the tenant, drawn down alongside the
  // per-tile limiter. nullptr clears it. The monitor never owns the bucket.
  void SetSharedLimiter(TokenBucket* limiter) { shared_limiter_ = limiter; }
  // Arbitration class stamped on every packet this monitor injects (see
  // NocPacket::arb_class). Class 0 is the default/kernel class.
  void SetArbClass(uint8_t cls) { arb_class_ = cls; }
  uint8_t arb_class() const { return arb_class_; }
  void SetIdentity(AppId app, ServiceId service);

  // Wake channel to the owning Tile. Fault-plane entry points (RaiseFault,
  // FailStop) may be driven externally — injectors, the kernel, watchdogs —
  // while the tile sits parked; the state they flip is only acted on at the
  // tile's next tick, so they announce themselves through this hint.
  void SetOwnerWake(WakeHint hint) { owner_wake_ = hint; }

  // Fail-stop: sink the inbox/outbox and bounce future traffic (4.4).
  void FailStop(const std::string& reason);
  // Clears the fault state after the tile is reconfigured with fresh logic.
  void Restart();
  TileFaultState fault_state() const { return fault_state_; }
  const std::string& fault_reason() const { return fault_reason_; }

  // ------------------------------------------------------------------
  // Per-cycle processing, driven by the owning Tile.
  // ------------------------------------------------------------------
  // Updates the monitor's clock, drains the NI, applies incoming policy.
  void BeginCycle(Cycle now);
  // Moves pipeline-ready outbound messages into the NI.
  void FlushOutbox();

  // Quiescence support for the owning Tile (same contract as
  // Clocked::NextActivity): the earliest cycle BeginCycle/FlushOutbox has
  // work — NI delivery to drain, or a pipelined outbound becoming ready.
  [[nodiscard]] Cycle NextActivity(Cycle now) const {
    if (ni_->HasDeliverable()) {
      return now;
    }
    if (!outbox_.empty()) {
      // Outbox ready times are monotonic (stamped at enqueue), so the front
      // is the earliest; a backpressured front is retried every cycle.
      return outbox_.front().ready_at > now ? outbox_.front().ready_at : now;
    }
    return kNoActivity;
  }

  // The owning Tile fast-forwarded: advance the cached clock to the value
  // the last pre-resume BeginCycle would have left (resume - 1), so
  // external callers (kernel Configure, event callbacks) observe the same
  // timestamps as a cycle-by-cycle run.
  void OnFastForward(Cycle resume_cycle) { now_ = resume_cycle - 1; }

  // Delivered-but-unconsumed messages awaiting the accelerator's Receive().
  bool HasPendingInbox() const { return !inbox_.empty(); }

  // ------------------------------------------------------------------
  // TileApi (the untrusted accelerator side).
  // ------------------------------------------------------------------
  SendResult Send(Message msg, CapRef endpoint, CapRef mem, CapRef mem2) override;
  using TileApi::Send;
  SendResult Reply(const Message& request, Message response, CapRef mem) override;
  using TileApi::Reply;
  std::optional<Message> Receive() override;
  CapRef LookupService(ServiceId service) override;
  Cycle now() const override { return now_; }
  TileId tile() const override { return tile_; }
  AppId app() const override { return app_; }
  ServiceId service() const override { return service_; }
  void RaiseFault(const std::string& reason) override;

  // ------------------------------------------------------------------
  // Introspection.
  // ------------------------------------------------------------------
  const CounterSet& counters() const { return counters_; }
  const TraceRing& trace() const { return trace_; }
  const CapabilityTable& cap_table() const { return cap_table_; }
  bool accelerator_faulted() const { return accelerator_faulted_; }
  uint64_t MonitorLogicCells() const;

 private:
  SendResult SendInternal(Message msg, TileId dst_tile, CapRef mem, CapRef mem2);
  // Fills `out` from a presented memory capability; false if invalid.
  bool FillGrant(CapRef mem, SegmentGrant* out);
  void DeliverIncoming(Message msg);
  void BounceWithError(const Message& request, MsgStatus status);
  bool EnqueuePacket(const Message& msg, TileId dst_tile);
  void Trace(TraceEvent event, TileId peer, ServiceId service, uint16_t opcode,
             MsgStatus status);

  TileId tile_;
  NetworkInterface* ni_;
  MonitorConfig config_;
  Cycle now_ = 0;

  AppId app_ = kInvalidApp;
  ServiceId service_ = kInvalidService;

  CapabilityTable cap_table_;
  std::map<TileId, bool> allowed_senders_;
  // Implicit IPC rights: requests we delivered confer reply rights; requests
  // we sent make us willing to accept responses.
  std::map<TileId, uint64_t> reply_rights_;
  std::map<TileId, uint64_t> pending_responses_;

  TokenBucket limiter_;
  // Tenant-wide budget, not owned: the kernel installs one bucket across a
  // tenant's monitors by design (enforced aggregate NoC share).
  // NOLINTNEXTLINE(apiary-domain-confinement): deliberate tenant-scoped sharing; a sharded engine must split this into per-domain sub-buckets (ROADMAP item 1)
  TokenBucket* shared_limiter_ = nullptr;
  uint8_t arb_class_ = 0;
  TileFaultState fault_state_ = TileFaultState::kHealthy;
  std::string fault_reason_;
  bool accelerator_faulted_ = false;
  WakeHint owner_wake_;

  std::deque<Message> inbox_;
  struct Outbound {
    Cycle ready_at;
    TileId dst_tile;
    Message msg;
  };
  std::deque<Outbound> outbox_;

  uint64_t next_auto_request_id_ = 1;
  CounterSet counters_;
  // Counter slots, interned once so every bump is an array add.
  const CounterId accel_faults_id_ = counters_.Intern("monitor.accel_faults");
  const CounterId delivered_id_ = counters_.Intern("monitor.delivered");
  const CounterId drained_inbox_id_ = counters_.Intern("monitor.drained_inbox");
  const CounterId drained_outbox_id_ = counters_.Intern("monitor.drained_outbox");
  const CounterId error_bounces_id_ = counters_.Intern("monitor.error_bounces");
  const CounterId fail_stops_id_ = counters_.Intern("monitor.fail_stops");
  const CounterId flits_sent_id_ = counters_.Intern("monitor.flits_sent");
  const CounterId inbox_overflow_id_ = counters_.Intern("monitor.inbox_overflow");
  const CounterId malformed_id_ = counters_.Intern("monitor.malformed");
  const CounterId recv_denied_id_ = counters_.Intern("monitor.recv_denied");
  const CounterId recv_unsolicited_response_id_ =
      counters_.Intern("monitor.recv_unsolicited_response");
  const CounterId recv_while_stopped_id_ = counters_.Intern("monitor.recv_while_stopped");
  const CounterId reply_no_right_id_ = counters_.Intern("monitor.reply_no_right");
  const CounterId restarts_id_ = counters_.Intern("monitor.restarts");
  const CounterId send_backpressure_id_ = counters_.Intern("monitor.send_backpressure");
  const CounterId send_bad_mem_cap_id_ = counters_.Intern("monitor.send_bad_mem_cap");
  const CounterId send_no_cap_id_ = counters_.Intern("monitor.send_no_cap");
  const CounterId send_rate_limited_id_ = counters_.Intern("monitor.send_rate_limited");
  const CounterId send_tile_stopped_id_ = counters_.Intern("monitor.send_tile_stopped");
  const CounterId send_too_large_id_ = counters_.Intern("monitor.send_too_large");
  const CounterId sends_id_ = counters_.Intern("monitor.sends");
  const CounterId spoofed_src_id_ = counters_.Intern("monitor.spoofed_src");
  TraceRing trace_;
};

}  // namespace apiary

#endif  // SRC_CORE_MONITOR_H_
