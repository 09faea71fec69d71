#!/usr/bin/env python3
"""Repository benchmark for dcdl: builds dcdl_bench from source and runs it.

One workload run (the form BENCHMARK.json's "command" is invoked with):

    python3 dcdlbench/run.py --workload W --seed N --seconds S --trace 0|1

builds dcdlbench/ (which compiles the library from src/) into the build
directory, runs the workload and passes its output through: the last stdout
line is the JSON result {correct, attempted, failed, metrics}.

Every workload, several seeds, one summary (the gate):

    python3 dcdlbench/run.py --all [--seconds S] [--write-baseline]

runs every workload on seeds 1..10 and one traced run each, writes the
report to the build directory and prints each end-to-end metric with its
unit, median, spread (interquartile range over median) and sample count,
plus the traced per-layer table. It exits non-zero when a workload's failed
fraction exceeds the one recorded in dcdlbench/baseline.json, or when a
median is worse than that baseline by more than the metric's bound from
BENCHMARK.json; a baseline taken on a host with another fingerprint is
reported but not gated. --write-baseline stores the result as the new
baseline.

    python3 dcdlbench/run.py            build and run dcdl_bench's smoke test

The build directory is $CARGO_TARGET_DIR/dcdlbench when that is set, else
.bench_build/dcdlbench, relative to the repository root.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BASELINE = BENCH_DIR / "baseline.json"
RUN_TIMEOUT_S = 170
SEEDS = 10  # untraced runs per workload in --all

# Which end-to-end metric each per-layer metric should move, on which
# workloads the layer does its work, and where it should stay put.
LAYER_MOVES = {
    "sim": {"metrics": ["sim.events", "sim.heap_high_water", "sim.queue_op_ns",
                        "sim.queue_share"],
            "moves": ["sim_ms_per_s"], "works_on": ["fabric_permutation"],
            "quiet_on": ["boundary_sweep"]},
    "routing": {"metrics": ["routing.lookup_ns", "routing.lookups",
                            "routing.install_ms"],
                "moves": ["sim_ms_per_s", "setup_s"],
                "works_on": ["fabric_permutation"],
                "quiet_on": ["boundary_sweep"]},
    "device": {"metrics": ["device.hops", "device.events_per_hop",
                           "device.ns_per_hop", "device.pause_assertions",
                           "device.ttl_drops", "device.network_ctor_ms"],
               "moves": ["sim_ms_per_s", "runs_per_s"],
               "works_on": ["fabric_permutation", "boundary_sweep"],
               "quiet_on": []},
    "topo": {"metrics": ["topo.build_ms", "topo.partition_ms"],
             "moves": ["setup_s"], "works_on": ["fabric_permutation"],
             "quiet_on": ["boundary_sweep"]},
    # Measured on the sharded pass of fabric_permutation's traced run; no
    # end-to-end workload runs sharded (see CHANGES.md).
    "shard": {"metrics": ["shard.windows", "shard.cross_shard_events",
                          "shard.idle_windows", "shard.events_per_window",
                          "shard.imbalance", "shard.barrier_wait_share",
                          "shard.mailbox_share", "shard.replay_share",
                          "shard.control_share"],
              "moves": ["sim_ms_per_s of a sharded run"],
              "works_on": ["fabric_permutation"],
              "quiet_on": ["boundary_sweep"]},
    "analysis": {"metrics": ["analysis.snapshot_wait_for_us",
                             "analysis.risk_assess_ms",
                             "analysis.eq3_mismatches"],
                 "moves": ["runs_per_s"], "works_on": ["boundary_sweep"],
                 "quiet_on": ["fabric_permutation"]},
    "instruments": {"metrics": ["probe.overhead_frac", "watch.overhead_frac",
                                "dataplane.overhead_frac",
                                "telemetry.overhead_frac"],
                    "moves": ["runs_per_s"], "works_on": ["boundary_sweep"],
                    "quiet_on": ["fabric_permutation"]},
    "campaign": {"metrics": ["campaign.run_ms_p50", "campaign.run_ms_p90",
                             "campaign.scenario_make_ms",
                             "campaign.pool_busy_frac"],
                 "moves": ["runs_per_s"], "works_on": ["boundary_sweep"],
                 "quiet_on": ["fabric_permutation"]},
}


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "dcdlbench"


def build():
    """Configures (once) and builds dcdl_bench; returns its path."""
    bdir = build_dir()
    cache = bdir / "CMakeCache.txt"
    home = f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}\n"
    if cache.exists() and home not in cache.read_text(errors="replace"):
        shutil.rmtree(bdir)  # configured for another checkout
    tmp = bdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (bdir / "Makefile").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                      "-G", "Unix Makefiles",
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                      "-DCMAKE_CXX_FLAGS=-pipe"])
    steps.append(["cmake", "--build", str(bdir), "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"run.py: build step failed: {' '.join(cmd)}")
    return bdir / "dcdl_bench"


def run_bench(binary, args, capture_stderr=False):
    """Runs dcdl_bench; returns (exit code, stdout, stderr or None)."""
    try:
        done = subprocess.run(
            [str(binary)] + args, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE if capture_stderr else None, text=True,
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: dcdl_bench exceeded {RUN_TIMEOUT_S} s: {args}")
    return done.returncode, done.stdout, done.stderr


def spread(values):
    """Interquartile range over median, as statistics.quantiles gives it."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def last_json(stdout):
    """dcdl_bench's result line, or None when it printed none."""
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def fingerprint_of(stderr):
    for line in stderr.splitlines():
        if line.startswith("# host: "):
            return line[len("# host: "):]
    return "unknown"


def run_all(binary, opts):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    baseline = json.loads(BASELINE.read_text()) if BASELINE.exists() else None
    report = {"schema": "dcdlbench.baseline.v1", "seconds": opts.seconds,
              "runs": SEEDS, "layer_moves": LAYER_MOVES, "workloads": {}}
    gate_failed = False
    for wl in spec["workloads"]:
        name = wl["name"]
        samples, attempted, failed, digests = {}, 0, 0, {}
        for seed in range(1, SEEDS + 1):
            code, out, err = run_bench(
                binary, ["--workload", name, "--seed", str(seed),
                         "--seconds", str(opts.seconds), "--trace", "0"], True)
            result = last_json(out)
            if result is None:
                print(f"# {name} seed {seed}: exit {code}, no result\n{err}",
                      file=sys.stderr)
                attempted, failed = attempted + 1, failed + 1
                continue
            report["fingerprint"] = fingerprint_of(err)
            attempted += result["attempted"]
            failed += result["failed"]
            digests[str(seed)] = [line[2:] for line in err.splitlines()
                                  if line.startswith("# digest")]
            for key, m in result["metrics"].items():
                samples.setdefault(key, []).append(m["value"])
            print(f"# {name} seed {seed}: exit {code}, "
                  f"{result['failed']}/{result['attempted']} failed",
                  file=sys.stderr)
        code, out, err = run_bench(
            binary, ["--workload", name, "--seed", "1", "--seconds",
                     str(opts.seconds), "--trace", "1"], True)
        traced = last_json(out) or {"correct": False, "metrics": {}}
        entry = {"why": wl["why"], "failed_frac": failed / max(attempted, 1),
                 "attempted": attempted,
                 "digests": digests,
                 "end_to_end": {}, "per_layer": {},
                 "per_layer_seed": 1, "traced_correct": traced["correct"]}
        for key, vals in samples.items():
            entry["end_to_end"][key] = {
                "unit": bounds[key]["unit"], "median": statistics.median(vals),
                "spread": spread(vals), "n": len(vals), "values": vals}
        for key, m in traced["metrics"].items():
            entry["per_layer"][key] = {"value": m["value"], "unit": m["unit"]}
        report["workloads"][name] = entry

    same_host = baseline is not None and (
        baseline.get("fingerprint") == report.get("fingerprint"))
    print(f"host: {report.get('fingerprint')}")
    if baseline is not None and not same_host:
        print("baseline from other host, not gated")
    for name, entry in report["workloads"].items():
        base = (baseline or {}).get("workloads", {}).get(name, {})
        print(f"\n== {name}: failed_frac {entry['failed_frac']:.4g} "
              f"({entry['attempted']} operations)")
        if entry["failed_frac"] > base.get("failed_frac", 0.0):
            print(f"   FAILED: failed_frac above baseline "
                  f"{base.get('failed_frac', 0.0):.4g}")
            gate_failed = True
        if not entry["traced_correct"]:
            print("   FAILED: the traced run failed a check")
            gate_failed = True
        moved = [seed for seed, lines in entry["digests"].items()
                 if seed in base.get("digests", {})
                 and base["digests"][seed] != lines]
        if moved:
            print(f"   simulated statistics changed for seeds "
                  f"{', '.join(moved)} (reported, not gated)")
        for key, e in entry["end_to_end"].items():
            b = bounds[key]
            line = (f"   {key:<14} {e['median']:>14.6g} {e['unit']:<5} "
                    f"spread {e['spread']:6.2%}  n={e['n']}")
            ref = base.get("end_to_end", {}).get(key)
            if ref and ref["median"]:
                change = e["median"] / ref["median"] - 1
                worse = -change if b["better"] == "higher" else change
                line += f"  vs baseline {change:+.2%}"
                if same_host and worse > b["bound"]:
                    line += f"  REGRESSED (bound {b['bound']:.0%})"
                    gate_failed = True
            print(line)
        print("   per-layer (traced, seed 1):")
        for key, m in entry["per_layer"].items():
            print(f"     {key:<32} {m['value']:>14.6g} {m['unit']}")

    out_path = build_dir() / "report.json"
    out_path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"\nwrote {out_path}")
    if opts.write_baseline:
        BASELINE.write_text(json.dumps(report, indent=1) + "\n")
        print(f"wrote {BASELINE}")
    return 1 if gate_failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measurement window per run (default: "
                        "BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--write-baseline", action="store_true")
    opts = parser.parse_args()

    if opts.seconds is None:
        opts.seconds = json.loads(
            (ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    binary = build()
    if opts.all:
        return run_all(binary, opts)
    if opts.workload is None:
        return run_bench(binary, [])[0]
    code, out, _ = run_bench(binary, [
        "--workload", opts.workload, "--seed", str(opts.seed),
        "--seconds", f"{opts.seconds:g}", "--trace", str(opts.trace)])
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
