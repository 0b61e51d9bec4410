#include "perfbench/src/probe.h"

#include <cstdio>

#include "perfbench/src/alloc_count.h"
#include "src/accel/kv_store.h"
#include "src/core/kernel.h"
#include "src/fpga/board.h"
#include "src/orch/autoscaler.h"
#include "src/orch/reconfig_scheduler.h"
#include "src/services/load_balancer.h"
#include "src/services/memory_service.h"
#include "src/services/supervisor.h"
#include "src/sim/simulator.h"
#include "src/tenant/abuse.h"
#include "src/tenant/tenant.h"

namespace perfbench {

Snapshot Delta(const Snapshot& end, const Snapshot& begin) {
  Snapshot out;
  for (const auto& [name, value] : end) {
    const auto it = begin.find(name);
    out[name] = value - (it == begin.end() ? 0 : it->second);
  }
  return out;
}

Snapshot TakeSnapshot(const Probes& p) {
  BookkeepingScope bookkeeping;
  Snapshot s;
  const apiary::Simulator& sim = *p.sim;
  s["sched.executed_cycles"] = sim.executed_cycles();
  s["sched.skipped_cycles"] = sim.skipped_cycles();
  s["sched.ticked_blocks"] = sim.ticked_blocks();
  s["sched.wheel_wakes"] = sim.wheel_wakes();
  s["sched.wake_calls"] = sim.wake_calls();

  const apiary::Mesh& mesh = p.board->mesh();
  const apiary::CounterSet noc = mesh.AggregateCounters();
  s["router.flits_routed"] = mesh.TotalFlitsRouted();
  s["router.stalls"] = noc.Get("router.stalls");
  s["router.vc_blocked"] = noc.Get("router.vc_blocked");
  s["router.weighted_grants"] = noc.Get("router.weighted_grants");
  s["ni.packets_injected"] = noc.Get("ni.packets_injected");
  s["ni.packets_delivered"] = noc.Get("ni.packets_delivered");
  s["ni.inject_backpressure"] = noc.Get("ni.inject_backpressure");
  s["ni.flits_ejected"] = noc.Get("ni.flits_ejected");

  const apiary::ExpressStats express = mesh.AggregateExpressStats();
  s["express.launches"] = express.launches;
  s["express.delivered"] = express.delivered;
  s["express.materializations"] = express.materializations;
  s["express.flits_delivered"] = express.flits_delivered;

  const apiary::PacketPoolStats pool = mesh.AggregatePoolStats();
  s["pool.acquires"] = pool.acquires;
  s["pool.heap_fallbacks"] = pool.heap_allocs;
  s["arena.chunk_allocs"] = p.sim->context().arena().stats().chunk_allocs;

  const apiary::CounterSet mon = p.os->AggregateMonitorCounters();
  s["monitor.sends"] = mon.Get("monitor.sends");
  s["monitor.delivered"] = mon.Get("monitor.delivered");
  s["monitor.send_rate_limited"] = mon.Get("monitor.send_rate_limited");
  s["monitor.send_no_cap"] =
      mon.Get("monitor.send_no_cap") + mon.Get("monitor.reply_no_right");
  s["monitor.send_backpressure"] = mon.Get("monitor.send_backpressure");
  s["monitor.send_refused_other"] = mon.Get("monitor.send_tile_stopped") +
                                    mon.Get("monitor.send_bad_mem_cap") +
                                    mon.Get("monitor.send_too_large");
  s["monitor.error_bounces"] = mon.Get("monitor.error_bounces");

  uint64_t denied = 0;
  if (p.tenants != nullptr) {
    for (const uint32_t t : p.tenant_ids) {
      denied += p.tenants->Usage(t).quota_denials;
    }
    s["tenant.escalations"] = p.tenants->counters().Get("tenant.escalations");
    s["tenant.records_cut"] = p.tenants->counters().Get("tenant.records_cut");
  } else {
    s["tenant.escalations"] = 0;
    s["tenant.records_cut"] = 0;
  }
  s["tenant.denied"] = denied;
  s["tenant.attacker_accepted"] = p.flooder != nullptr ? p.flooder->sent() : 0;

  s["lb.forwards"] = p.lb != nullptr ? p.lb->counters().Get("lb.forwards") : 0;
  s["lb.forward_failures"] = p.lb != nullptr ? p.lb->counters().Get("lb.forward_failures") : 0;
  s["memsvc.quota_deferred"] =
      p.memsvc != nullptr ? p.memsvc->counters().Get("memsvc.quota_deferred") : 0;
  uint64_t get_ok = 0;
  uint64_t get_miss = 0;
  if (p.kv != nullptr) {
    get_ok = p.kv->get_ok;
    get_miss = p.kv->get_miss;
    if (p.kv->live != nullptr) {
      get_ok += p.kv->live->counters().Get("kv.get_ok");
      get_miss += p.kv->live->counters().Get("kv.get_miss");
    }
  }
  s["kv.get_ok"] = get_ok;
  s["kv.get_miss"] = get_miss;
  s["supervisor.faults_detected"] =
      p.supervisor != nullptr ? p.supervisor->counters().Get("supervisor.faults_detected") : 0;

  s["orch.scale_ups"] = p.autoscaler != nullptr ? p.autoscaler->scale_ups() : 0;
  s["orch.scale_downs"] = p.autoscaler != nullptr ? p.autoscaler->scale_downs() : 0;
  s["orch.icap_stall_cycles"] =
      p.reconfig != nullptr ? p.reconfig->counters().Get("orch.icap_stall_cycles") : 0;
  return s;
}

double CalibrationSeconds() {
  constexpr size_t kSlots = size_t{1} << 18;
  static std::vector<uint64_t> table(kSlots, 1);
  const int64_t start = NowNs();
  uint64_t x = 88172645463325252ull;
  uint64_t acc = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    uint64_t& slot = table[x & (kSlots - 1)];
    acc += slot;
    slot = acc ^ x;
  }
  table[0] = acc;  // Keeps the loop's result observable.
  return static_cast<double>(NowNs() - start) / 1e9;
}

Tracer::Tracer(size_t max_client_spans) : max_client_spans_(max_client_spans) {
  spans_.reserve(max_client_spans + kHarnessSpans);
  open_.reserve(64);
}

uint32_t Tracer::Begin(const char* name, int64_t start_ns, bool harness) {
  const uint32_t id = next_id_++;
  const uint32_t parent = open_.empty() ? 0 : open_.back();
  if (open_.size() < open_.capacity()) {
    open_.push_back(id);
  }
  const bool keep = harness ? spans_.size() < spans_.capacity()
                           : client_spans_ < max_client_spans_;
  if (keep) {
    client_spans_ += harness ? 0 : 1;
    spans_.push_back(Span{name, start_ns, start_ns, id, parent});
  } else {
    ++dropped_;
  }
  return id;
}

void Tracer::End(uint32_t id, int64_t end_ns) {
  if (!open_.empty() && open_.back() == id) {
    open_.pop_back();
  }
  // Spans close in LIFO order, so the open span is found near the back.
  for (size_t i = spans_.size(); i > 0; --i) {
    if (spans_[i - 1].id == id) {
      spans_[i - 1].end_ns = end_ns;
      return;
    }
    if (spans_[i - 1].id < id) {
      return;
    }
  }
}

uint32_t Tracer::Open(const char* name) { return Begin(name, NowNs(), /*harness=*/true); }
void Tracer::Close(uint32_t id) { End(id, NowNs()); }

void Tracer::Record(const char* name, int64_t start_ns, int64_t end_ns) {
  End(Begin(name, start_ns, /*harness=*/true), end_ns);
}

void Tracer::Annotate(uint32_t id, Snapshot args) {
  BookkeepingScope bookkeeping;
  annotations_[id] = std::move(args);
}

bool Tracer::WriteChromeJson(const std::string& path, int64_t epoch_ns) const {
  BookkeepingScope bookkeeping;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %u, \"parent\": %u",
                 i == 0 ? "" : ",\n", s.name, static_cast<double>(s.start_ns - epoch_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.id, s.parent);
    const auto it = annotations_.find(s.id);
    if (it != annotations_.end()) {
      for (const auto& [name, value] : it->second) {
        std::fprintf(f, ", \"%s\": %llu", name.c_str(), static_cast<unsigned long long>(value));
      }
    }
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "\n], \"otherData\": {\"spans_not_kept\": %llu}}\n",
               static_cast<unsigned long long>(dropped_));
  return std::fclose(f) == 0;
}

ClientSpan::ClientSpan(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ != nullptr) {
    start_ns_ = NowNs();
    id_ = tracer_->Begin(name, start_ns_, /*harness=*/false);
  }
}

ClientSpan::~ClientSpan() {
  if (tracer_ != nullptr) {
    const int64_t end = NowNs();
    tracer_->End(id_, end);
    tracer_->client_ns += end - start_ns_;
  }
}

apiary::SendResult TimedSend(Tracer* tracer, apiary::TileApi& api, apiary::Message msg,
                             apiary::CapRef endpoint) {
  if (tracer == nullptr) {
    return api.Send(std::move(msg), endpoint);
  }
  const int64_t start = NowNs();
  const uint32_t id = tracer->Begin("monitor.send", start, /*harness=*/false);
  const apiary::SendResult r = api.Send(std::move(msg), endpoint);
  const int64_t end = NowNs();
  tracer->End(id, end);
  tracer->send_ns += end - start;
  tracer->send_hist.Record(static_cast<uint64_t>(end - start));
  return r;
}

}  // namespace perfbench
