#!/usr/bin/env python3
"""Steadiness report for the whole-board benchmark.

    python3 perfbench/steady.py [--runs 5] [--seeds 1] [--seconds 10]
                                [--workloads saturated-echo,...]

Runs every workload --runs times at each seed of --seeds (through
perfbench/run.py, so the harness is built first) and prints, for every
end-to-end metric, the median, the quartiles and the quartile spread as a
share of the median, next to the bound in BENCHMARK.json. The host's
processor count, CPU model, compiler and build type are printed with the
numbers. Exits 1 if a run fails, or if a simulated metric differs between
two runs at the same seed (simulated metrics must repeat exactly).
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Metrics in simulated cycles: exactly deterministic for a seed.
SIM_METRICS = ("req_p50_cycles", "req_p99_cycles", "goodput_per_mcycle",
               "completed_frac", "slo_attain_pct", "tile_mcycles")


def host_info():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        compiler = subprocess.run(["c++", "--version"], capture_output=True, text=True,
                                  check=False).stdout.splitlines()[0]
    except (OSError, IndexError):
        compiler = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu, "compiler": compiler,
            "build_type": "RelWithDebInfo"}


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr[-2000:])
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect result")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seeds", default=None,
                        help="comma-separated seeds (default: the default seed)")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--workloads", default=None)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "metrics.json")) as f:
        notes = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    seeds = ([int(s) for s in args.seeds.split(",")] if args.seeds
             else [notes["seeds"]["default"]])
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    print(json.dumps(host_info()))
    ok = True
    for workload in workloads:
        values = {}
        sim_by_seed = {}
        for seed in seeds:
            for _ in range(args.runs):
                metrics = run_once(workload, seed, seconds)
                for name, value in metrics.items():
                    values.setdefault(name, []).append(value)
                sim = tuple(metrics[name] for name in SIM_METRICS)
                first = sim_by_seed.setdefault(seed, sim)
                if sim != first:
                    print(f"FAIL {workload} seed {seed}: simulated metrics differ "
                          f"between runs: {first} vs {sim}")
                    ok = False
        print(f"\n{workload}: {len(seeds)} seed(s) x {args.runs} run(s), {seconds} s each")
        print(f"  {'metric':22} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            q1, med, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                           else (vals[0], vals[0], vals[0]))
            spread = (q3 - q1) / med if med else float("inf")
            print(f"  {name:22} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} "
                  f"{bounds.get(name, float('nan')):6.3f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
