#!/usr/bin/env python3
"""End-to-end reproduction benchmark.

    python3 perfbench/run.py --workload model --seed 1 --seconds 36 --trace 0

Builds the worker with dune, then runs the workload in rounds, each run
in a fresh process.  With --trace 0 a round runs every input of a fixed
set: data seeds --seed + k * 10^6 for k below the workload's input
count (INPUTS).  The cost of the model workload depends strongly on its
input traces, so one invocation covers several inputs, and the set is
the same however fast the program is.  Rounds repeat while the next one
fits in --seconds; there is always at least one.  The last line of
stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  Each is
first reduced to one value per input (the median over its rounds);
times are then the median over the inputs, peak memory the mean (it
depends on the input through GC timing, so it is bimodal over inputs).

The times are scaled to a reference host speed.  calib.exe, a fixed
kernel independent of the program, runs before the first run and after
every run; each run's times are multiplied by CALIB_REF_S over the mean
of the two probes around it.  On a shared host the program slows down
and speeds up by tens of percent over minutes, and the probe with it
(NOTES.md).  The unscaled medians go to stderr.

--trace 1 runs only data seed --seed, each round untraced and then
traced, and reports the per-layer metrics of the traced run with the
median wall time, plus the tracing overhead.

Every experiment's output is checked (see src/check.ml); `attempted`
counts experiment runs and `failed` those that raised or failed a
check.  The first run's result digests (data seed --seed) are compared
with reference_digests.json, and the ids whose tables changed go to
stderr, for information only.

Other options: --quick runs every workload on the quick context (the
smoke test uses it); --record-digests stores this seed's digests as the
reference.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = ROOT / "_build" / "default" / "perfbench" / "worker.exe"
CALIB = ROOT / "_build" / "default" / "perfbench" / "calib.exe"
# The reference probe time, about the probe's typical time on the
# 2-vCPU host the benchmark was written on.  Scaled times read as the
# runs would have taken with the probe at this time.
CALIB_REF_S = 0.25
REFERENCE = HERE / "reference_digests.json"
# Inputs per --trace 0 invocation.  One round takes about 23 s at full
# size on a quiet 2-vCPU host, so it still ends near 40 s on a host
# running twice as slow (NOTES.md).
INPUTS = {"model": 6, "trace-sim": 4, "packet": 7}
MAX_RUNS = 24
SEED_STRIDE = 1_000_000
RUN_TIMEOUT_S = 120


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", str(ROOT), "-j", "2",
           "--display", "quiet", "./perfbench/worker.exe", "./perfbench/calib.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr)
    except FileNotFoundError:
        log("dune not found on PATH")
        return False
    return done.returncode == 0 and WORKER.exists() and CALIB.exists()


def probe():
    """Seconds the host-speed probe takes now."""
    done = subprocess.run([str(CALIB)], cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"calib.exe exited with code {done.returncode}")
    return float(done.stdout.split()[-1])


def measure(args, seed, traced):
    cmd = [str(WORKER), "--workload", args.workload, "--seed", str(seed)]
    if args.quick:
        cmd.append("--quick")
    if traced:
        cmd.append("--traced")
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with code {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["seed"] = seed
    return result


def repeat(args, seeds, traced_too):
    """Rounds of fresh-process runs over `seeds` until --seconds is spent.

    Returns (plain, traced): each maps a seed to its runs, one per round.
    Each run carries `calib_s`, the mean of the probes before and after it.
    """
    plain = {seed: [] for seed in seeds}
    traced = {seed: [] for seed in seeds}
    per_round = len(seeds) * (2 if traced_too else 1)
    before = [probe()]

    def probed(seed, traced_run):
        run = measure(args, seed, traced_run)
        before.append(probe())
        run["calib_s"] = (before[-2] + before[-1]) / 2
        return run

    start = time.monotonic()
    for _ in range(max(1, MAX_RUNS // per_round)):
        t0 = time.monotonic()
        for seed in seeds:
            plain[seed].append(probed(seed, False))
            if traced_too:
                traced[seed].append(probed(seed, True))
        took = time.monotonic() - t0
        if time.monotonic() - start + took > args.seconds:
            break
    return plain, traced


def tally(runs):
    attempted = failed = 0
    for r in runs:
        for x in r["experiments"]:
            attempted += 1
            if x["problems"]:
                failed += 1
                for p in x["problems"]:
                    log(f"{x['id']}: {p}")
    return attempted, failed


def digests(run):
    return {x["id"]: x["digest"] for x in run["experiments"]}


def compare_digests(args, plain, traced):
    for a, b in zip(plain, traced):
        changed = sorted(i for i, d in digests(a).items() if digests(b)[i] != d)
        if changed:
            log(f"tracing changed the tables of seed {a['seed']}: {', '.join(changed)}")
    first = digests(plain[0])
    size = "quick" if args.quick else "standard"
    key = str(args.seed)
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    if args.record_digests:
        reference.setdefault(args.workload, {}).setdefault(size, {})[key] = first
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
        log(f"recorded {len(first)} digests for {args.workload}/{size}/seed {key}")
        return
    ref = reference.get(args.workload, {}).get(size, {}).get(key)
    if ref is None:
        log(f"no reference digests for {args.workload}/{size}/seed {key}")
        return
    changed = sorted(i for i in first if ref.get(i) != first[i])
    if changed:
        log(f"tables changed against the reference: {', '.join(changed)}")
    else:
        log(f"all {len(ref)} tables match the reference")


def per_input(plain, key, scaled=False):
    """One value per input: the median of `key` over its rounds, each
    run's value scaled to the reference host speed if `scaled`."""
    def value(r):
        return r[key] * CALIB_REF_S / r["calib_s"] if scaled else r[key]
    return [statistics.median(value(r) for r in runs) for runs in plain.values()]


def end_to_end(plain, attempted, failed):
    times = ("setup_s", "wall_s", "cpu_s")
    raw = {k: statistics.median(per_input(plain, k)) for k in times + ("calib_s",)}
    log("unscaled medians: " + ", ".join(f"{k} {v:.4f}" for k, v in raw.items()))
    log("scaled wall_s per input: " + ", ".join(
        f"{seed} {v:.3f}" for seed, v in zip(plain, per_input(plain, "wall_s", scaled=True))))
    values = {k: statistics.median(per_input(plain, k, scaled=True)) for k in times}
    values["peak_rss_mb"] = statistics.mean(per_input(plain, "peak_rss_mb"))
    values["passed_frac"] = (attempted - failed) / attempted
    return values


def per_layer(plain, traced):
    """Layers of the median-wall traced run of the single traced input.

    Its solver and sweep counters are fixed by the input, and its times
    add up within one run.
    """
    chosen = sorted(traced, key=lambda r: r["wall_s"])[(len(traced) - 1) // 2]
    values = dict(chosen["layers"])
    values["bench.traced_wall_s"] = chosen["wall_s"]
    values["bench.traced_setup_s"] = chosen["setup_s"]
    values["bench.trace_overhead_s"] = statistics.median(
        t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced))
    values["bench.calib_s"] = statistics.median(r["calib_s"] for r in plain + traced)
    return values


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--quick", action="store_true")
    p.add_argument("--record-digests", action="store_true")
    args = p.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload!r}")
        return 2
    if not build():
        log("build failed")
        return 1

    inputs = 1 if args.trace == 1 else INPUTS[args.workload]
    seeds = [args.seed + k * SEED_STRIDE for k in range(inputs)]
    try:
        plain, traced = repeat(args, seeds, traced_too=args.trace == 1)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as e:
        log(f"run failed: {e}")
        return 1
    first_plain, first_traced = plain[args.seed], traced[args.seed]
    attempted, failed = tally([r for runs in [*plain.values(), *traced.values()] for r in runs])
    compare_digests(args, first_plain, first_traced)

    if args.trace == 1:
        wanted, values = spec["per_layer"], per_layer(first_plain, first_traced)
    else:
        wanted, values = spec["end_to_end"], end_to_end(plain, attempted, failed)
    metrics = {}
    for m in wanted:
        v = values.get(m["name"])
        if not isinstance(v, (int, float)) or v != v:
            log(f"metric {m['name']} was not measured")
            return 1
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    runs = sum(len(r) for r in plain.values())
    log(f"{runs} untraced and {len(first_traced)} traced runs over {len(seeds)} inputs")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
