"""Benchmark runner for eps-softmax.

Usage, from the root of a checkout:

    python3 bench/run.py --workload train_default --seed 0 --seconds 15 --trace 0

Workloads: train_default, train_wide, sweep_grid, verify (see bench/spec.json
for what each runs and why). The runner is the only load generator: it times
fresh interpreters importing the package (set-up), then starts one workload
interpreter (bench/workload.py) and waits for it. It prints the host block,
every metric by name with its unit, and as its last line one JSON object:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
IMPORT_PROBES = 3  # before the workload, and as many again after it
CHILD_TIMEOUT_S = 170


def gated_metrics(trace: int) -> list[dict]:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    return config["per_layer" if trace else "end_to_end"]


def import_seconds(env: dict, n: int) -> list[float]:
    """Wall times of n fresh interpreters each importing the package."""
    samples = []
    for _ in range(n):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import eps_softmax"], env=env, check=True)
        samples.append(time.perf_counter() - started)
    return samples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (ROOT / "src" / "eps_softmax" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'eps_softmax'}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )

    work_dir = ROOT / ".bench_work" / str(os.getpid())
    work_dir.mkdir(parents=True)
    command = [sys.executable, str(BENCH / "workload.py"), "--work-dir", str(work_dir)]
    for flag in ("workload", "seed", "seconds", "trace"):
        command += [f"--{flag}", str(getattr(args, flag))]
    try:
        import_seconds(env, 1)  # warm-up: bytecode caches
        imports = import_seconds(env, IMPORT_PROBES)
        # a new process group, so a timeout also stops the pool workers it started
        with subprocess.Popen(
            command, env=env, cwd=work_dir, stdout=subprocess.PIPE, text=True,
            start_new_session=True,
        ) as child:
            try:
                stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(child.pid, signal.SIGKILL)
                child.wait()
                print(f"error: workload ran over {CHILD_TIMEOUT_S} s", file=sys.stderr)
                return 1
        if child.returncode != 0:
            print(f"error: workload interpreter exited {child.returncode}", file=sys.stderr)
            return 1
        # the host's speed drifts within a run, so sample set-up on both sides
        imports += import_seconds(env, IMPORT_PROBES)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    setup_import_s = statistics.median(imports)
    raw = json.loads(stdout.splitlines()[-1])

    report = raw["report"]
    run_setup_s = report.pop("run_setup_s")[0]
    report["setup_s"] = (setup_import_s + run_setup_s, "s")
    measured = raw.get("layers", {}) if args.trace else report

    print("host " + json.dumps(raw["host"]))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"  setup_s parts: import {setup_import_s:.4f} s (median of {len(imports)}), "
          f"per-run set-up {run_setup_s:.4f} s")
    for name, (value, unit) in {**report, **raw.get("layers", {})}.items():
        print(f"  {name:48s} {value:.6g} {unit}")
    metrics = {}
    for metric in gated_metrics(args.trace):
        value, unit = measured[metric["name"]]
        if unit != metric["unit"]:
            raise ValueError(f"{metric['name']}: measured in {unit}, declared {metric['unit']}")
        metrics[metric["name"]] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
