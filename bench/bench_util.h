// Shared setup helpers for the benchmark harnesses.
//
// Also replaces the global operator new with a counting shim, so a bench's
// allocs_per_msg is real heap calls rather than a pool ledger. Each bench
// is one translation unit, which is what lets this header define the
// (non-inline, by rule) replacement functions.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/kernel.h"
#include "src/core/service_ids.h"
#include "src/fpga/board.h"
#include "src/services/memory_service.h"
#include "src/services/network_service.h"
#include "src/sim/simulator.h"
#include "src/stats/table.h"

namespace apiary {

// Global operator new calls since process start (every thread).
inline std::atomic<uint64_t> g_heap_alloc_calls{0};
inline uint64_t HeapAllocCalls() { return g_heap_alloc_calls.load(std::memory_order_relaxed); }

inline double PerMessage(uint64_t count, uint64_t messages) {
  return messages > 0 ? static_cast<double>(count) / static_cast<double>(messages) : 0;
}

}  // namespace apiary

// The array and nothrow forms forward to these two by default, and the
// default deletes accept memory from a replaced operator new. Kept out of
// line so the compiler never pairs an inlined malloc with a library delete.
[[gnu::noinline]] void* operator new(std::size_t n) {
  apiary::g_heap_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new(std::size_t n, std::align_val_t align) {
  apiary::g_heap_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, ((n == 0 ? 1 : n) + a - 1) / a * a)) {
    return p;
  }
  throw std::bad_alloc();
}

namespace apiary {

struct BenchBoardOptions {
  uint32_t width = 4;
  uint32_t height = 4;
  std::string part = "VU9P";
  MacKind mac = MacKind::k100G;
  uint64_t dram_bytes = 256ull << 20;
  double clock_mhz = 250.0;
  Cycle fabric_latency_cycles = 25;  // ~100ns one-way datacenter hop.
  // 0 keeps the BoardConfig default (100k cells). Large meshes (8x8 and up)
  // must shrink the per-tile region to fit the part's logic-cell budget.
  uint64_t tile_region_cells = 0;
};

// Simulator + external network + board + kernel, with the standard OS
// services (memory + network) deployed on the first tiles.
struct BenchBoard {
  explicit BenchBoard(BenchBoardOptions options = BenchBoardOptions{},
                      bool deploy_services = true)
      : sim(options.clock_mhz),
        net(options.fabric_latency_cycles),
        board(MakeConfig(options), sim, &net),
        os(board) {
    sim.Register(&net);
    if (deploy_services) {
      os.DeployService(kMemoryService, std::make_unique<MemoryService>(&os, &board.memory()));
      if (options.mac == MacKind::k100G) {
        os.DeployService(kNetworkService,
                         std::make_unique<NetworkService>(
                             &os, std::make_unique<Mac100GAdapter>(board.mac100g())));
      } else if (options.mac == MacKind::k10G) {
        os.DeployService(kNetworkService,
                         std::make_unique<NetworkService>(
                             &os, std::make_unique<Mac10GAdapter>(board.mac10g())));
      }
    }
  }

  static BoardConfig MakeConfig(const BenchBoardOptions& options) {
    BoardConfig cfg;
    cfg.part_number = options.part;
    cfg.mesh = MeshConfig{options.width, options.height, 8, 512};
    cfg.dram.capacity_bytes = options.dram_bytes;
    cfg.mac_kind = options.mac;
    if (options.tile_region_cells != 0) {
      cfg.tile_region_cells = options.tile_region_cells;
    }
    return cfg;
  }

  Simulator sim;
  ExternalNetwork net;
  Board board;
  ApiaryOs os;
};

// Machine-readable result emitter: the human-facing tables stay on stdout,
// and the same numbers land in a JSON file CI archives as an artifact.
// Shape: {"name": ..., "params": {...}, "rows": [{...}, ...]}.
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  void Param(const std::string& key, const std::string& value) {
    params_.emplace_back(key, Quote(value));
  }
  void Param(const std::string& key, const char* value) {
    Param(key, std::string(value));
  }
  void Param(const std::string& key, double value) {
    params_.emplace_back(key, Number(value));
  }
  void Param(const std::string& key, uint64_t value) {
    params_.emplace_back(key, std::to_string(value));
  }
  void Param(const std::string& key, int value) {
    params_.emplace_back(key, std::to_string(value));
  }

  void BeginRow() { rows_.emplace_back(); }
  void Metric(const std::string& key, const std::string& value) {
    rows_.back().emplace_back(key, Quote(value));
  }
  void Metric(const std::string& key, const char* value) {
    Metric(key, std::string(value));
  }
  void Metric(const std::string& key, double value) {
    rows_.back().emplace_back(key, Number(value));
  }
  void Metric(const std::string& key, uint64_t value) {
    rows_.back().emplace_back(key, std::to_string(value));
  }
  void Metric(const std::string& key, int value) {
    rows_.back().emplace_back(key, std::to_string(value));
  }

  std::string ToJson() const {
    std::ostringstream out;
    out << "{\n  \"name\": " << Quote(name_) << ",\n  \"params\": {";
    for (size_t i = 0; i < params_.size(); ++i) {
      out << (i == 0 ? "" : ", ") << Quote(params_[i].first) << ": "
          << params_[i].second;
    }
    out << "},\n  \"rows\": [\n";
    for (size_t r = 0; r < rows_.size(); ++r) {
      out << "    {";
      for (size_t i = 0; i < rows_[r].size(); ++i) {
        out << (i == 0 ? "" : ", ") << Quote(rows_[r][i].first) << ": "
            << rows_[r][i].second;
      }
      out << "}" << (r + 1 == rows_.size() ? "" : ",") << "\n";
    }
    out << "  ]\n}\n";
    return out.str();
  }

  // Returns false (and prints to stderr) when the file cannot be written.
  bool WriteFile(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    out << ToJson();
    return true;
  }

 private:
  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
      }
      out += c;
    }
    out += '"';
    return out;
  }
  static std::string Number(double value) {
    std::ostringstream out;
    out << value;
    return out.str();
  }

  std::string name_;
  std::vector<std::pair<std::string, std::string>> params_;
  std::vector<std::vector<std::pair<std::string, std::string>>> rows_;
};

// `--json <path>` argument, or "" when absent.
inline std::string JsonPathArg(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      return argv[i + 1];
    }
  }
  return "";
}

inline bool HasFlag(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i < argc; ++i) {
    if (argv[i] == flag) {
      return true;
    }
  }
  return false;
}

// For benches that run with audit mode on (Simulator::SetAuditEnabled):
// true when `sim` recorded no missed wake; otherwise prints the first
// violation under `label` and returns false, so the bench exits non-zero.
inline bool AuditClean(const Simulator& sim, const std::string& label) {
  if (sim.audit_violations() == 0) {
    return true;
  }
  std::printf("[FAIL] %s: %llu missed wake(s) in audit mode, first: %s\n", label.c_str(),
              static_cast<unsigned long long>(sim.audit_violations()),
              sim.audit_first_violation().c_str());
  return false;
}

}  // namespace apiary

#endif  // BENCH_BENCH_UTIL_H_
