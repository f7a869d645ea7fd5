#!/usr/bin/env python3
"""Smoke test of run.py, at quick size (about a minute).

    python3 perfbench/test/smoke.py

For every workload and both --trace modes it checks that run.py exits
0, prints every metric of BENCHMARK.json with its unit, finds no
failed experiment, and that in a traced run the per-entry times plus
the residual add up to the traced wall time and the set-up layers to
the traced set-up time.  Last, it checks that run.py fails without
printing a result in a directory that holds only BENCHMARK.json and
perfbench/.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_LAYERS = ["trace.mtv_synth_s", "trace.bellcore_synth_s", "trace.histogram_s",
                "trace.epochs_s", "parallel.pool_create_s"]


def run(root, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--quick"]
    return subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)


def check_result(workload, trace):
    done = run(ROOT, workload, trace)
    assert done.returncode == 0, f"{workload}/{trace}: exit {done.returncode}\n{done.stderr}"
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in wanted), sorted(metrics)
    for m in wanted:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), got
    if trace:
        v = {k: x["value"] for k, x in metrics.items()}
        entries = sum(x for k, x in v.items()
                      if k.startswith("experiments.") and k.endswith("_s"))
        assert abs(entries - v["bench.traced_wall_s"]) < 1e-6, (entries, v["bench.traced_wall_s"])
        setup = sum(v[k] for k in SETUP_LAYERS)
        assert abs(setup - v["bench.traced_setup_s"]) < 1e-3, (setup, v["bench.traced_setup_s"])
    print(f"ok   {workload} --trace {trace}")


def check_bare_directory():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run(tmp, "packet", 0)
        assert done.returncode != 0, "run.py succeeded without the program"
        assert '"metrics"' not in done.stdout, done.stdout
    print("ok   fails without the program")


def main():
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            check_result(w["name"], trace)
    check_bare_directory()


if __name__ == "__main__":
    main()
