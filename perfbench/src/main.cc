// Whole-board benchmark harness.
//
//   apiary_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--trace-out <path>]
//
// Runs one workload on the library's default engine configuration, as many
// fresh, identically seeded iterations as fit in --seconds, and prints the
// metrics as the last line of stdout:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 prints the end-to-end metrics (host times in calibrated
// seconds, see CalibrationSeconds); --trace 1 alternates untraced and
// traced iterations and prints the per-layer metrics, writing the traced
// spans to --trace-out.
//
// Correctness gates (any failure exits 1 with "correct": false): semantic
// checks of every reply, request conservation, simulated results identical
// on every iteration (traced or not), and identical to an untimed
// reference-oracle run with cycle skipping and active-set scheduling off.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/alloc_count.h"
#include "perfbench/src/probe.h"
#include "perfbench/src/workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value);
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

// The q-quantile of `v`, interpolating linearly between order statistics.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

template <typename F>
double QuantileOf(const std::vector<IterationResult>& runs, double q, F f) {
  std::vector<double> v;
  for (const IterationResult& r : runs) {
    v.push_back(f(r));
  }
  return Quantile(std::move(v), q);
}

template <typename F>
double MedianOf(const std::vector<IterationResult>& runs, F f) {
  return QuantileOf(runs, 0.5, f);
}

// Host time of the measured window, in calibrated seconds: the lower
// quartile over iterations. Calibration leaves a residual: in bursts of
// contention lasting several seconds the simulator slows by up to 30% more
// than the calibration kernel. Contention only ever slows an iteration, so
// the lower quartile ignores bursts that cover under three quarters of a
// run, where the median follows any burst covering half of it.
double WindowRefSeconds(const std::vector<IterationResult>& runs) {
  return QuantileOf(runs, 0.25, [](const IterationResult& r) { return r.measure_ref_s; });
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

// Every simulated result of an iteration, as text. `with_sched` adds the
// scheduler's own counters, which legitimately differ on the reference
// oracle (it executes and ticks everything).
std::string SimKey(const IterationResult& r, bool with_sched) {
  const Ledger& l = r.ledger;
  std::string key = "attempted=" + std::to_string(l.attempted) +
                    " completed=" + std::to_string(l.completed) +
                    " errors=" + std::to_string(l.errors) +
                    " refusals=" + std::to_string(l.refusals) +
                    " timeouts=" + std::to_string(l.timeouts) +
                    " outstanding=" + std::to_string(l.outstanding) +
                    " slo_ok=" + std::to_string(l.slo_ok) +
                    " kv_misses=" + std::to_string(l.kv_misses) +
                    " check_failures=" + std::to_string(l.check_failures) +
                    " lat_n=" + std::to_string(l.latency.count()) +
                    " lat_p50=" + std::to_string(l.latency.P50()) +
                    " lat_p99=" + std::to_string(l.latency.P99()) +
                    " lat_max=" + std::to_string(l.latency.max()) +
                    " late_p99=" + std::to_string(l.lateness.P99()) +
                    " window_cycles=" + std::to_string(r.window_cycles) +
                    " tile_cycles=" + std::to_string(r.tile_cycles) +
                    " pkt_p50=" + std::to_string(r.packet_latency_p50) +
                    " pkt_p99=" + std::to_string(r.packet_latency_p99) +
                    " replicas_max=" + std::to_string(r.replicas_max) +
                    " recovery=" + std::to_string(r.recovery_cycles) +
                    " billing=" + std::to_string(r.billing_digest);
  for (const auto& [name, value] : r.window) {
    if (with_sched || name.rfind("sched.", 0) != 0) {
      key += " " + name + "=" + std::to_string(value);
    }
  }
  return key;
}

// First differing token of two SimKeys, for the failure message.
std::string FirstDifference(const std::string& a, const std::string& b) {
  size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) {
    ++i;
  }
  const size_t start = a.rfind(' ', i) == std::string::npos ? 0 : a.rfind(' ', i) + 1;
  const size_t end_a = a.find(' ', i);
  const size_t end_b = b.find(' ', i);
  return a.substr(start, end_a - start) + " vs " + b.substr(start, end_b - start);
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

double Frac(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0 : static_cast<double>(part) / static_cast<double>(whole);
}

std::vector<Metric> EndToEndMetrics(const std::vector<IterationResult>& runs,
                                    const std::vector<double>& setup_s, double peak_rss_mb) {
  const IterationResult& sim = runs.front();  // Simulated metrics repeat exactly.
  const Ledger& l = sim.ledger;
  const double mcycles = static_cast<double>(sim.window_cycles) / 1e6;
  return {
      {"setup_s", "s", Median(setup_s)},
      {"sim_mcycles_per_s", "Mcycles/s", Ratio(mcycles, WindowRefSeconds(runs))},
      {"msgs_per_s", "1/s",
       Ratio(static_cast<double>(sim.window.at("ni.packets_delivered")), WindowRefSeconds(runs))},
      {"peak_rss_mb", "MB", peak_rss_mb},
      {"allocs_per_msg", "count",
       MedianOf(runs, [](const IterationResult& r) {
         return Ratio(static_cast<double>(r.window_allocs.calls),
                      static_cast<double>(r.window.at("ni.packets_delivered")));
       })},
      {"req_p50_cycles", "cycles", static_cast<double>(l.latency.P50())},
      {"req_p99_cycles", "cycles", static_cast<double>(l.latency.P99())},
      {"goodput_per_mcycle", "1/Mcycle", Ratio(static_cast<double>(l.completed), mcycles)},
      {"completed_frac", "fraction", Frac(l.completed, l.attempted)},
      {"slo_attain_pct", "%", 100.0 * Frac(l.slo_ok, l.attempted)},
      {"tile_mcycles", "Mcycles", static_cast<double>(sim.tile_cycles) / 1e6},
  };
}

std::vector<Metric> PerLayerMetrics(const std::vector<IterationResult>& untraced,
                                    const std::vector<IterationResult>& traced,
                                    const std::vector<IterationResult>& setups) {
  const IterationResult& sim = untraced.front();
  const Snapshot& w = sim.window;
  const auto c = [&](const char* name) { return static_cast<double>(w.at(name)); };
  const Ledger& l = sim.ledger;
  const double executed = c("sched.executed_cycles");
  const double refused = c("monitor.send_rate_limited") + c("monitor.send_no_cap") +
                         c("monitor.send_backpressure") + c("monitor.send_refused_other");
  const double send_attempts = c("monitor.sends") + refused;
  const double flits = c("router.flits_routed");
  return {
      {"setup.board_s", "s", MedianOf(setups, [](const IterationResult& r) { return r.board_s; })},
      {"setup.deploy_s", "s",
       MedianOf(setups, [](const IterationResult& r) { return r.deploy_s; })},
      {"alloc.setup_calls", "count",
       MedianOf(setups,
                [](const IterationResult& r) { return static_cast<double>(r.setup_allocs.calls); })},
      {"sched.executed_cycles", "cycles", executed},
      {"sched.skipped_frac", "fraction",
       Ratio(c("sched.skipped_cycles"), executed + c("sched.skipped_cycles"))},
      {"sched.active_fraction", "fraction",
       Ratio(c("sched.ticked_blocks"), executed * static_cast<double>(sim.block_count))},
      {"sched.ticked_blocks", "count", c("sched.ticked_blocks")},
      {"sched.wheel_wakes", "count", c("sched.wheel_wakes")},
      {"sched.wake_calls", "count", c("sched.wake_calls")},
      {"sched.host_ns_per_ticked_block", "ns",
       Ratio(WindowRefSeconds(untraced) * 1e9, c("sched.ticked_blocks"))},
      {"router.flits_routed", "count", flits},
      {"router.stalls", "count", c("router.stalls")},
      {"router.vc_blocked", "count", c("router.vc_blocked")},
      {"router.weighted_grants", "count", c("router.weighted_grants")},
      {"router.stalls_per_flit", "ratio", Ratio(c("router.stalls"), flits)},
      {"noc.host_ns_per_flit", "ns", Ratio(WindowRefSeconds(untraced) * 1e9, flits)},
      {"ni.packets_injected", "count", c("ni.packets_injected")},
      {"ni.packets_delivered", "count", c("ni.packets_delivered")},
      {"ni.inject_backpressure", "count", c("ni.inject_backpressure")},
      {"noc.packet_latency_p50_cycles", "cycles", static_cast<double>(sim.packet_latency_p50)},
      {"noc.packet_latency_p99_cycles", "cycles", static_cast<double>(sim.packet_latency_p99)},
      {"express.launches", "count", c("express.launches")},
      {"express.delivered_frac", "fraction", Ratio(c("express.delivered"), c("express.launches"))},
      {"express.materializations", "count", c("express.materializations")},
      {"express.flit_share", "fraction", Ratio(c("express.flits_delivered"), c("ni.flits_ejected"))},
      {"pool.acquires", "count", c("pool.acquires")},
      {"pool.heap_fallbacks", "count", c("pool.heap_fallbacks")},
      {"arena.chunk_allocs", "count", c("arena.chunk_allocs")},
      {"alloc.calls", "count",
       MedianOf(untraced,
                [](const IterationResult& r) { return static_cast<double>(r.window_allocs.calls); })},
      {"alloc.bytes", "bytes",
       MedianOf(untraced,
                [](const IterationResult& r) { return static_cast<double>(r.window_allocs.bytes); })},
      {"alloc.calls_per_flit", "count",
       MedianOf(untraced,
                [&](const IterationResult& r) {
                  return Ratio(static_cast<double>(r.window_allocs.calls), flits);
                })},
      {"monitor.sends", "count", c("monitor.sends")},
      {"monitor.delivered", "count", c("monitor.delivered")},
      {"monitor.send_refused_frac", "fraction", Ratio(refused, send_attempts)},
      {"monitor.send_refused_rate_limited_frac", "fraction",
       Ratio(c("monitor.send_rate_limited"), send_attempts)},
      {"monitor.send_refused_no_cap_frac", "fraction",
       Ratio(c("monitor.send_no_cap"), send_attempts)},
      {"monitor.send_refused_backpressure_frac", "fraction",
       Ratio(c("monitor.send_backpressure"), send_attempts)},
      {"monitor.error_bounces", "count", c("monitor.error_bounces")},
      {"monitor.send_host_ns_p50", "ns",
       MedianOf(traced,
                [](const IterationResult& r) { return static_cast<double>(r.send_ns_p50); })},
      {"monitor.send_host_ns_p99", "ns",
       MedianOf(traced,
                [](const IterationResult& r) { return static_cast<double>(r.send_ns_p99); })},
      {"tenant.denied", "count", c("tenant.denied")},
      {"tenant.escalations", "count", c("tenant.escalations")},
      {"tenant.records_cut", "count", c("tenant.records_cut")},
      {"tenant.attacker_accepted", "count", c("tenant.attacker_accepted")},
      {"lb.forwards", "count", c("lb.forwards")},
      {"lb.forward_failures", "count", c("lb.forward_failures")},
      {"memsvc.quota_deferred", "count", c("memsvc.quota_deferred")},
      {"kv.get_ok", "count", c("kv.get_ok")},
      {"kv.get_miss", "count", c("kv.get_miss")},
      {"supervisor.faults_detected", "count", c("supervisor.faults_detected")},
      {"supervisor.recovery_cycles", "cycles", static_cast<double>(sim.recovery_cycles)},
      {"orch.scale_ups", "count", c("orch.scale_ups")},
      {"orch.scale_downs", "count", c("orch.scale_downs")},
      {"orch.icap_stall_cycles", "cycles", c("orch.icap_stall_cycles")},
      {"orch.replicas_max", "count", static_cast<double>(sim.replicas_max)},
      {"workload.client_host_ns", "ns/req",
       MedianOf(traced,
                [&](const IterationResult& r) {
                  return Ratio(static_cast<double>(r.client_self_ns),
                               static_cast<double>(l.attempted));
                })},
      {"workload.send_lateness_p99_cycles", "cycles", static_cast<double>(l.lateness.P99())},
      {"workload.requests", "count", static_cast<double>(l.attempted)},
      {"req.failed_frac", "fraction", Frac(l.failed(), l.attempted)},
      {"run.measure_s", "s", MedianOf(untraced, [](const IterationResult& r) { return r.measure_s; })},
      {"run.calibration_s", "s",
       MedianOf(untraced, [](const IterationResult& r) { return Median(r.calib_s); })},
      {"run.slice_s_p50", "s",
       MedianOf(untraced, [](const IterationResult& r) { return Median(r.slice_s); })},
      {"run.slice_s_max", "s",
       MedianOf(untraced,
                [](const IterationResult& r) {
                  return *std::max_element(r.slice_s.begin(), r.slice_s.end());
                })},
      {"run.unattributed_frac", "fraction",
       MedianOf(traced,
                [](const IterationResult& r) {
                  return Ratio(r.measure_s * 1e9 - static_cast<double>(r.client_ns),
                               r.measure_s * 1e9);
                })},
      {"trace.overhead_frac", "fraction",
       Ratio(WindowRefSeconds(traced), WindowRefSeconds(untraced)) - 1.0},
  };
}

}  // namespace

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <path>]\n",
                 argv[0]);
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; known:", args.workload.c_str());
    for (const WorkloadSpec& w : Workloads()) {
      std::fprintf(stderr, " %s", w.name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }

  const Inputs inputs = MakeInputs(*spec, args.seed);

  // The reference oracle runs first, untimed; it also warms the process
  // (page faults, allocator free lists) before the timed iterations.
  IterationMode oracle_mode;
  oracle_mode.reference = true;
  const IterationResult oracle = RunIteration(*spec, inputs, oracle_mode);

  constexpr size_t kMinIterations = 3;
  constexpr size_t kMaxClientSpans = 50'000;
  std::vector<IterationResult> untraced;
  std::vector<IterationResult> traced;
  std::unique_ptr<Tracer> kept_tracer;  // The first traced iteration's spans.
  int64_t kept_epoch = 0;
  const int64_t start = NowNs();
  while (true) {
    const double elapsed = static_cast<double>(NowNs() - start) / 1e9;
    const size_t done = std::min(untraced.size(), args.trace == 1 ? traced.size() : SIZE_MAX);
    if (elapsed >= args.seconds && done >= kMinIterations) {
      break;
    }
    untraced.push_back(RunIteration(*spec, inputs, IterationMode{}));
    if (args.trace == 1) {
      auto tracer = std::make_unique<Tracer>(kept_tracer == nullptr ? kMaxClientSpans : 0);
      IterationMode mode;
      mode.tracer = tracer.get();
      const int64_t epoch = NowNs();
      IterationResult r = RunIteration(*spec, inputs, mode);
      r.client_ns = tracer->client_ns;
      r.client_self_ns = tracer->client_ns - tracer->send_ns;
      r.send_ns_p50 = tracer->send_hist.P50();
      r.send_ns_p99 = tracer->send_hist.P99();
      traced.push_back(std::move(r));
      if (kept_tracer == nullptr) {
        kept_tracer = std::move(tracer);
        kept_epoch = epoch;
      }
    }
  }
  const double peak_rss_mb = PeakRssMb();

  // Set-up time: every timed iteration's set-up plus set-up-only repeats.
  constexpr int kSetupRepeats = 10;
  std::vector<IterationResult> setups;
  for (const IterationResult& r : untraced) {
    setups.push_back(r);
  }
  IterationMode setup_mode;
  setup_mode.setup_only = true;
  for (int i = 0; i < kSetupRepeats; ++i) {
    setups.push_back(RunIteration(*spec, inputs, setup_mode));
  }
  std::vector<double> setup_s;
  for (const IterationResult& r : setups) {
    setup_s.push_back(r.board_s + r.deploy_s);
  }

  // ---- Correctness gates. ----
  std::vector<std::string> failures;
  const auto gate = [&](bool ok, const std::string& what) {
    if (!ok) {
      failures.push_back(what);
    }
  };
  std::vector<const IterationResult*> all;
  for (const IterationResult& r : untraced) {
    all.push_back(&r);
  }
  for (const IterationResult& r : traced) {
    all.push_back(&r);
  }
  const IterationResult& first = *all.front();
  for (const auto& [engine, r] : {std::pair<const char*, const IterationResult*>{
                                      "reference oracle", &oracle},
                                  {"default engine", &first}}) {
    const Ledger& l = r->ledger;
    const std::string where = std::string(engine) + ": ";
    gate(l.check_failures == 0, where + "semantic check: " + l.first_failure + " (" +
                                    std::to_string(l.check_failures) + " replies)");
    gate(l.attempted == l.completed + l.failed() + l.outstanding,
         where + "request conservation: attempted " + std::to_string(l.attempted) +
             " != completed " + std::to_string(l.completed) + " + failed " +
             std::to_string(l.failed()) + " + outstanding " + std::to_string(l.outstanding));
    gate(l.attempted > 0 && l.completed > 0, where + "the workload completed no requests");
  }
  const std::string first_key = SimKey(first, /*with_sched=*/true);
  for (size_t i = 1; i < all.size(); ++i) {
    const std::string key = SimKey(*all[i], /*with_sched=*/true);
    gate(key == first_key, "simulated results differ between iterations (" +
                               std::string(i < untraced.size() ? "untraced" : "traced") +
                               "): " + FirstDifference(first_key, key));
  }
  const std::string oracle_key = SimKey(oracle, /*with_sched=*/false);
  const std::string default_key = SimKey(first, /*with_sched=*/false);
  gate(oracle_key == default_key,
       "reference oracle differs from the default engine: " +
           FirstDifference(oracle_key, default_key));

  // ---- Report. ----
  const Ledger& l = first.ledger;
  std::fprintf(stdout,
               "perfbench %s seed=%llu: %zu untraced + %zu traced iterations of %llu simulated "
               "cycles; requests attempted=%llu completed=%llu failed=%llu (errors=%llu "
               "refusals=%llu timeouts=%llu) outstanding=%llu; p99 over %llu samples; SLO "
               "%llu cycles\n",
               spec->name.c_str(), static_cast<unsigned long long>(args.seed), untraced.size(),
               traced.size(), static_cast<unsigned long long>(first.window_cycles),
               static_cast<unsigned long long>(l.attempted),
               static_cast<unsigned long long>(l.completed),
               static_cast<unsigned long long>(l.failed()),
               static_cast<unsigned long long>(l.errors),
               static_cast<unsigned long long>(l.refusals),
               static_cast<unsigned long long>(l.timeouts),
               static_cast<unsigned long long>(l.outstanding),
               static_cast<unsigned long long>(l.latency.count()),
               static_cast<unsigned long long>(spec->slo_cycles));
  for (const std::string& f : failures) {
    std::fprintf(stdout, "GATE FAILED: %s\n", f.c_str());
  }
  if (kept_tracer != nullptr && !args.trace_out.empty()) {
    if (!kept_tracer->WriteChromeJson(args.trace_out, kept_epoch)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
      return 1;
    }
    std::fprintf(stdout, "spans: %zu kept in %s\n", kept_tracer->spans().size(),
                 args.trace_out.c_str());
  }
  const std::vector<Metric> metrics = args.trace == 1
                                          ? PerLayerMetrics(untraced, traced, setups)
                                          : EndToEndMetrics(untraced, setup_s, peak_rss_mb);
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const IterationResult* r : all) {
    attempted += r->ledger.attempted;
    failed += r->ledger.check_failures;
  }
  const bool correct = failures.empty();
  PrintResult(correct, attempted, failed, metrics);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
