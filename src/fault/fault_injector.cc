#include "src/fault/fault_injector.h"

#include <algorithm>

namespace apiary {

namespace {
constexpr size_t kMaxTraceEntries = 1000;
}  // namespace

FaultInjector::FaultInjector(FaultPlan plan, FaultHooks hooks)
    : plan_(std::move(plan)), hooks_(hooks), rng_(plan_.seed) {
  plan_.Sort();
  if (hooks_.os != nullptr) {
    hooks_.os->sim().Register(this);
  }
  if (hooks_.mesh != nullptr) {
    hooks_.mesh->SetFaultModel(this);
  }
}

FaultInjector::~FaultInjector() {
  if (hooks_.mesh != nullptr) {
    hooks_.mesh->SetFaultModel(nullptr);
  }
}

void FaultInjector::Record(const FaultEvent& event, Cycle now, const std::string& note) {
  if (trace_.size() >= kMaxTraceEntries) {
    counters_.Add("fault.trace_overflow");
    return;
  }
  std::string line = "cycle=" + std::to_string(now) +
                     " kind=" + FaultKindName(event.kind);
  if (event.tile != kInvalidTile) {
    line += " tile=" + std::to_string(event.tile);
  }
  if (event.duration != 0) {
    line += " duration=" + std::to_string(event.duration);
  }
  if (!note.empty()) {
    line += " " + note;
  }
  trace_.push_back(std::move(line));
}

void FaultInjector::OpenNocWindow(std::vector<Window>& windows, const FaultEvent& event,
                                  double rate, Cycle now) {
  // A window opening ends NocQuiet: corridors planned under the old
  // declaration must become real flits before any traversal can hit it.
  // A stall window also moves the mesh's own declaration (NextMeshActivity),
  // so the open wakes a parked mesh.
  if (hooks_.mesh != nullptr) {
    hooks_.mesh->MaterializeExpress();
    hooks_.mesh->RequestWake();
  }
  windows.push_back(Window{event.tile, now + event.duration, rate});
  Record(event, now, "");
}

void FaultInjector::Fire(const FaultEvent& event, Cycle now) {
  counters_.Add("fault.injected");
  counters_.Add(std::string("fault.") + FaultKindName(event.kind));
  switch (event.kind) {
    case FaultKind::kLinkDrop:
      OpenNocWindow(drop_windows_, event, event.rate, now);
      break;
    case FaultKind::kLinkCorrupt:
      OpenNocWindow(corrupt_windows_, event, event.rate, now);
      break;
    case FaultKind::kRouterStall:
      OpenNocWindow(stall_windows_, event, 1.0, now);
      break;
    case FaultKind::kDramBitFlip: {
      if (hooks_.memory == nullptr) {
        counters_.Add("fault.skipped_no_hook");
        break;
      }
      const uint64_t capacity = hooks_.memory->capacity();
      const uint64_t base = std::min(event.addr, capacity);
      const uint64_t span =
          event.len != 0 ? std::min(event.len, capacity - base) : capacity - base;
      for (uint32_t i = 0; i < event.count && span != 0; ++i) {
        const uint64_t addr = base + rng_.NextBelow(span);
        const uint32_t bit = static_cast<uint32_t>(rng_.NextBelow(8));
        switch (hooks_.memory->InjectBitFlip(addr, bit)) {
          case BitFlipResult::kCorrupted:
            counters_.Add("fault.dram_corrupted");
            Record(event, now, "addr=" + std::to_string(addr) +
                                   " bit=" + std::to_string(bit) + " corrupted");
            break;
          case BitFlipResult::kCorrectedByEcc:
            counters_.Add("fault.dram_ecc_corrected");
            Record(event, now, "addr=" + std::to_string(addr) +
                                   " bit=" + std::to_string(bit) + " ecc_corrected");
            break;
          case BitFlipResult::kOutOfRange:
            counters_.Add("fault.dram_out_of_range");
            break;
        }
      }
      break;
    }
    case FaultKind::kEthLossBurst:
      if (hooks_.network == nullptr) {
        counters_.Add("fault.skipped_no_hook");
        break;
      }
      hooks_.network->StartLossBurst(now, event.duration, event.rate, rng_.Next());
      Record(event, now, "rate=" + std::to_string(event.rate));
      break;
    case FaultKind::kAccelCrash:
      if (hooks_.os == nullptr || event.tile == kInvalidTile) {
        counters_.Add("fault.skipped_no_hook");
        break;
      }
      // The upset flips control logic into an illegal state the accelerator
      // itself detects: it raises a fault (waking the tile if parked) and
      // the tile fail-stops.
      hooks_.os->monitor(event.tile).RaiseFault("injected SEU crash");
      Record(event, now, "");
      break;
    case FaultKind::kAccelWedge:
      if (hooks_.os == nullptr || event.tile == kInvalidTile) {
        counters_.Add("fault.skipped_no_hook");
        break;
      }
      // Silent hang: the only external symptom is missed heartbeats.
      hooks_.os->tile(event.tile).InjectSeuWedge();
      Record(event, now, "");
      break;
  }
}

void FaultInjector::Tick(Cycle now) {
  auto expire = [now](std::vector<Window>& windows) {
    windows.erase(std::remove_if(windows.begin(), windows.end(),
                                 [now](const Window& w) { return now >= w.until; }),
                  windows.end());
  };
  expire(drop_windows_);
  expire(corrupt_windows_);
  expire(stall_windows_);
  while (next_event_ < plan_.events.size() && plan_.events[next_event_].at <= now) {
    Fire(plan_.events[next_event_], now);
    ++next_event_;
  }
}

// APIARY-WAKE(self): the declaration itself covers every input — plan
// events by time, and open windows by their close cycles.
Cycle FaultInjector::NextActivity(Cycle now) const {
  Cycle next = kNoActivity;
  if (next_event_ < plan_.events.size()) {
    const Cycle at = plan_.events[next_event_].at;
    next = at > now ? at : now;
  }
  // Window expiry itself is unobservable (every consumer re-checks
  // `now < until`), but the closing cycle is where window-gated state flips;
  // bounding the jump there keeps RunUntil predicates cycle-exact. A closed
  // window left unerased is inert, so it declares nothing; the next Tick
  // erases it.
  auto clamp_windows = [&next, now](const std::vector<Window>& windows) {
    for (const Window& w : windows) {
      if (w.until > now && w.until < next) {
        next = w.until;
      }
    }
  };
  clamp_windows(drop_windows_);
  clamp_windows(corrupt_windows_);
  clamp_windows(stall_windows_);
  return next;
}

Cycle FaultInjector::NextMeshActivity(Cycle now) const {
  for (const Window& w : stall_windows_) {
    if (now < w.until) {
      return now;  // Stalled routers charge a counter every open cycle.
    }
  }
  return kNoActivity;
}

bool FaultInjector::NocQuiet(Cycle now) const {
  auto open = [now](const std::vector<Window>& windows) {
    for (const Window& w : windows) {
      if (now < w.until) {
        return true;
      }
    }
    return false;
  };
  return !open(drop_windows_) && !open(corrupt_windows_) && !open(stall_windows_);
}

bool FaultInjector::WindowHit(const std::vector<Window>& windows, TileId router_tile,
                              Cycle now) {
  for (const Window& w : windows) {
    if (now < w.until && (w.tile == kInvalidTile || w.tile == router_tile)) {
      return rng_.NextBool(w.rate);
    }
  }
  return false;
}

bool FaultInjector::OnLinkTraverse(TileId router_tile, const Flit& flit, Cycle now) {
  if (WindowHit(drop_windows_, router_tile, now)) {
    counters_.Add("fault.link_drops_applied");
    return true;
  }
  if (WindowHit(corrupt_windows_, router_tile, now)) {
    // Flip one bit anywhere in the wire image (serialized header region or
    // payload) — the stale end-to-end checksum is how the ejecting NI
    // detects it, wherever it lands.
    NocPacket& packet = *flit.packet;
    if (packet.wire_bytes() > 0) {
      const size_t index = static_cast<size_t>(rng_.NextBelow(packet.wire_bytes()));
      *packet.wire_byte(index) ^= static_cast<uint8_t>(1u << rng_.NextBelow(8));
      counters_.Add("fault.link_corruptions_applied");
    }
  }
  return false;
}

bool FaultInjector::RouterStalled(TileId router_tile, Cycle now) {
  for (const Window& w : stall_windows_) {
    if (now < w.until && w.tile == router_tile) {
      return true;
    }
  }
  return false;
}

std::string FaultInjector::TraceString() const {
  std::string out;
  for (const std::string& line : trace_) {
    out += line;
    out += '\n';
  }
  return out;
}

bool FaultInjector::Exhausted(Cycle now) const {
  if (next_event_ < plan_.events.size()) {
    return false;
  }
  auto all_closed = [now](const std::vector<Window>& windows) {
    return std::all_of(windows.begin(), windows.end(),
                       [now](const Window& w) { return now >= w.until; });
  };
  return all_closed(drop_windows_) && all_closed(corrupt_windows_) &&
         all_closed(stall_windows_);
}

}  // namespace apiary
