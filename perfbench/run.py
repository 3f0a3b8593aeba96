#!/usr/bin/env python3
"""Run one workload of the benchmark and print its result.

Run from the repository root:

    python3 perfbench/run.py --workload regen --seed 1 --seconds 20 --trace 0

Builds the `perfbench` crate from source (into $CARGO_TARGET_DIR, default
`.bench_build`), probes the host, measures set-up in separate processes,
runs the workload in a process of its own, probes the host again, and
prints a metric table followed by one JSON result line holding every metric
BENCHMARK.json names: its `end_to_end` metrics with --trace 0, its
`per_layer` metrics with --trace 1. See README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

WORKLOADS = ("regen", "whatif", "sched-replay")

# The phases each workload runs. A per-layer metric is named
# `<phase>.<what>`; one of a phase the workload never runs reads 0, since
# none of the workload's time or work went there.
PHASES = {"regen": ("regen",), "whatif": ("cold", "warm"), "sched-replay": ("replay",)}
ALL_PHASES = {p for ps in PHASES.values() for p in ps}

# Set-up is timed in this many processes (the measured run included), and
# `setup_s` is their median, so one slow start does not move it. A `regen`
# set-up is one ~1 s pass, a `whatif` one a ~4 s cold session and a
# `sched-replay` one a ~2 s smoke and replay.
SETUP_PROCESSES = 3

# Every process of a run has ended this many seconds after the build. A
# build is a no-op after the first run in a checkout, whose cold build may
# take minutes.
RUN_LIMIT_S = 170

# glibc gives short-lived threads malloc arenas of their own, and whether a
# new thread reuses a freed arena depends on when the last one exited, so
# peak RSS jumps by whole arenas from run to run. The cap is one arena per
# thread that allocates at the same time as another. `regen` has two at a
# time (the engine worker or the main thread, plus one kernel helper): with
# three arenas its peak RSS still landed 13 MB higher in 1-3 runs of 10,
# with two it repeated within 0.5 MB and pass times did not move. `whatif`
# answered warm requests ~10 % slower with two arenas, since its two request
# workers then share one, and its peak RSS repeats with three.
MALLOC_ARENAS = {"regen": 2, "whatif": 3, "sched-replay": 3}
ENV = dict(os.environ)


def die(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build(root):
    if not os.path.isfile(os.path.join(root, "crates", "core", "Cargo.toml")):
        die("program sources not found; run from the repository root")
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(root, ".bench_build"))
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    if subprocess.run(cmd, env=env, cwd=root).returncode != 0:
        die("building perfbench failed")
    return os.path.join(os.path.abspath(os.path.join(root, target)), "release", "perfbench")


def manifest(root):
    """The end-to-end and per-layer metrics of BENCHMARK.json: name -> unit."""
    path = os.path.join(root, "BENCHMARK.json")
    try:
        with open(path) as f:
            m = json.load(f)
    except (OSError, ValueError) as e:
        die(f"reading {path}: {e}")
    return ({x["name"]: x["unit"] for x in m["end_to_end"]},
            {x["name"]: x["unit"] for x in m["per_layer"]})


def select(rows, wanted, workload):
    """The rows BENCHMARK.json asks for, in its order, with its units.

    A per-layer metric of a phase the workload does not run is 0; any other
    metric the workload did not report is an error.
    """
    got = {name: (value, unit, n) for name, value, unit, n in rows}
    out = []
    for name, unit in wanted.items():
        phase = name.split(".")[0]
        if name in got:
            value, got_unit, n = got.pop(name)
            if got_unit != unit:
                die(f"{name} reported in {got_unit}, BENCHMARK.json says {unit}")
        elif phase in ALL_PHASES and phase not in PHASES[workload]:
            value, n = 0, 0
        else:
            die(f"workload {workload} did not report {name}")
        out.append((name, value, unit, n))
    for name in got:
        print(f"run.py: {name} is not in BENCHMARK.json; left out", file=sys.stderr)
    return out


def json_line(stdout, what):
    lines = stdout.decode().strip().splitlines()
    if not lines:
        die(f"{what} printed nothing")
    return json.loads(lines[-1])


def run_child(cmd, what, deadline):
    """Run a helper process to completion and parse its JSON line."""
    timeout = max(1.0, deadline - time.monotonic())
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=timeout, env=ENV)
    except subprocess.TimeoutExpired:
        die(f"{what} ran out of time")
    if done.returncode != 0:
        die(f"{what} failed with exit code {done.returncode}")
    return json_line(done.stdout, what)


def run_measured(cmd, deadline):
    """Run the workload process; return its JSON line and peak RSS in MB."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=ENV)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        stdout = proc.stdout.read()
        # wait4 reaps this child alone, so the peak RSS is the workload's
        # own, not that of cargo or the host probe.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        watchdog.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        die(f"workload process failed with exit code {proc.returncode}")
    return json_line(stdout, "workload process"), usage.ru_maxrss * 1024 / 1e6


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    ENV["MALLOC_ARENA_MAX"] = str(MALLOC_ARENAS[args.workload])

    root = os.getcwd()
    end_to_end, per_layer = manifest(root)
    binary = build(root)
    deadline = time.monotonic() + RUN_LIMIT_S
    scratch = os.path.join(root, ".bench_work")
    work = os.path.join(scratch, f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    spans = os.path.join(scratch, f"spans-{args.workload}-seed{args.seed}.csv")
    common = ["--workload", args.workload, "--seed", str(args.seed), "--root", root]
    probe = [binary, "probe"]
    try:
        before = run_child(probe, "host probe", deadline)
        setups = []
        # A traced run reports no set-up time, so it times set-up only once.
        for i in range(SETUP_PROCESSES - 1 if args.trace == 0 else 0):
            cmd = [binary, "setup", *common, "--work", os.path.join(work, f"setup{i}")]
            setups.append(run_child(cmd, "set-up process", deadline)["setup_s"])
        cmd = [binary, "run", *common, "--work", os.path.join(work, "run"),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--spans", spans]
        child, peak_rss_mb = run_measured(cmd, deadline - 20)
        after = run_child(probe, "host probe", deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(child["setup_s"])

    rows = [(m["name"], m["value"], m["unit"], m["samples"]) for m in child["metrics"]]
    if args.trace == 0:
        rows += [("setup_s", statistics.median(setups), "s", len(setups)),
                 ("peak_rss_mb", peak_rss_mb, "MB", 1)]
        rows = select(rows, end_to_end, args.workload)
    else:
        for key, unit in (("fma_gflops", "GFLOP/s"), ("triad_gbs", "GB/s")):
            rows.append((f"host.{key}", statistics.mean([before[key], after[key]]), unit, 2))
        rows = select(rows, per_layer, args.workload)

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for probe_name, p in (("before", before), ("after", after)):
        print(f"# host probe {probe_name}: FMA {p['fma_gflops']:.2f} GFLOP/s (1 thread), "
              f"triad {p['triad_gbs']:.2f} GB/s ({p['threads']} threads, 3 arrays of "
              f"{p['triad_array_mib']} MiB vs {p['llc_mib']} MiB LLC)")
    for name, value, unit, samples in rows:
        print(f"{name:<34} {value:>18.6g} {unit:<8} n={samples}")
    result = {
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in rows},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
