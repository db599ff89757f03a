"""One benchmark workload, run in a fresh interpreter started by run.py.

Prints the workload's measurements as one JSON line on stdout; the package's
own stdout is captured so that line stays last. Operations are timed from
outside the package. With --trace 1 the run alternates untraced and traced
operations of the workload, then runs the tour: one traced operation each of
train_default, verify (cli verify + gradcheck) and pool (a sweep through the
CLI's process pool), skipping the workload's own, so that every layer metric
is measured on every workload; then the microbenchmarks.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from eps_softmax import cli, experiment
from eps_softmax.core import softmax_rows
from eps_softmax.data import DatasetSpec
from eps_softmax.losses import LOSS_KINDS, LossSpec, batch_loss
from eps_softmax.mlp import MlpSpec, OptimSpec
from eps_softmax.noise import NoiseSpec
from eps_softmax.transform import eps_softmax_rows
from tracing import Tracer, install_package_wrappers

SPEC = json.loads(Path(__file__).with_name("spec.json").read_text())
# verify (cli verify + gradcheck) is not a gated workload: one operation fills a
# run, and its time follows the host's slow phases (IQR/median up to 0.44 over
# ten runs); it runs once in every traced run instead
WORKLOADS = ("train_default", "train_wide", "sweep_grid")
# traced runs add one operation of each of these the workload is not, so every
# layer metric is measured on every workload; "pool" is the sweep through the
# CLI's process pool at its default --jobs, which is too unsteady to gate
TOUR = ("train_default", "verify", "pool")
POOL_EPOCHS = 20
SWEEP_KINDS = ("ce", "ce_eps_mae")
SWEEP_ETAS = (0.0, 0.2, 0.4, 0.6)
ROBUST = {"m": 1e4, "alpha": 0.1}


def default_config(seed: int, kind: str = "ce_eps_mae") -> experiment.ExperimentConfig:
    """The README default run; equal to the sweep's config for (kind, eta 0.6, seed)."""
    loss = LossSpec(kind, **ROBUST) if kind == "ce_eps_mae" else LossSpec(kind)
    return dataclasses.replace(
        cli.default_config(seed),
        loss=loss,
        noise=NoiseSpec("symmetric", eta=0.6, n_classes=4, seed=seed),
    )


def wide_config(seed: int) -> experiment.ExperimentConfig:
    return experiment.ExperimentConfig(
        dataset=DatasetSpec(
            source="blobs", n_classes=10, n_train=4096, n_test=1000, dim=128, separation=10.0
        ),
        mlp=MlpSpec((128, 512, 512, 10), init_seed=seed),
        loss=LossSpec("ce"),
        noise=NoiseSpec("symmetric", eta=0.4, n_classes=10, seed=seed),
        optim=OptimSpec(epochs=10, batch_size=512),
        seed=seed,
    )


def steps_of(config: experiment.ExperimentConfig) -> int:
    return config.optim.epochs * math.ceil(config.dataset.n_train / config.optim.batch_size)


def cpu_seconds() -> float:
    """CPU time of this process and of its children that have been waited for."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def peak_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


@dataclass
class Op:
    """One timed operation: a training run, a sweep grid, or verify + gradcheck."""

    kind: str
    phase: str  # "own" or "tour"
    traced: bool
    wall: float = 0.0
    steps: int = 0
    cpu: float = 0.0  # pool operations only, with child_peak_mb
    child_peak_mb: float = 0.0
    top1: float = math.nan
    epoch_ms: list[float] = field(default_factory=list)
    run_setup_s: float | None = None
    verify_s: float | None = None
    gradcheck_s: float | None = None


class Bench:
    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.tracer = Tracer()
        self.ops: list[Op] = []
        self.attempted = 0
        self.failed = 0
        self.first_output: dict[str, bytes] = {}
        self.sweep_top1: dict[tuple[str, int], float] = {}

    # -- verdicts -----------------------------------------------------------

    def verdict(self, ok: bool, what: str) -> None:
        """Count one operation: a training run, a verify check or a gradcheck check."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"bench: FAILED {what}", file=sys.stderr)

    def same_as_first(self, key: str, output: bytes) -> bool:
        """False when an earlier operation of the same config gave other bytes."""
        return self.first_output.setdefault(key, output) == output

    def check_results(self, path: Path, key: str, reference: str | None) -> float:
        """Verdict on one results file; returns its last_test_top1."""
        raw = path.read_bytes()
        lines = [json.loads(line) for line in raw.decode().splitlines()]
        summary = lines[-1]
        values = [v for r in lines[:-1] for v in (r["train_loss"], r["test_top1"])]
        values += [summary["last_test_top1"], summary["final_train_loss"]]
        top1 = summary["last_test_top1"]
        ok = all(math.isfinite(v) for v in values)
        if reference is not None:
            ref = SPEC["reference_top1"][reference]
            ok = ok and abs(top1 - ref["value"]) <= ref["tolerance"]
        ok = self.same_as_first(key, raw) and ok
        self.verdict(ok, f"run {key}: last_test_top1 {top1}")
        return top1

    # -- operations -----------------------------------------------------------

    @contextlib.contextmanager
    def operation(self, op: Op, n_checks: int):
        """Trace the operation if asked; an exception fails its n_checks operations."""
        self.tracer.op = len(self.ops)
        self.ops.append(op)
        if op.traced:
            install_package_wrappers(self.tracer)
        try:
            yield self.work_dir / f"op{len(self.ops)}"
        except Exception:
            traceback.print_exc()
            self.attempted += n_checks
            self.failed += n_checks
        finally:
            self.tracer.uninstall()

    @staticmethod
    def cli(argv: list[str]) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        return rc, buf.getvalue()

    def train(self, kind, config, key, reference, phase="own", traced=False) -> Op:
        op = Op(kind, phase, traced, steps=steps_of(config))
        with self.operation(op, 1) as path:
            started = time.perf_counter()
            records, summary = experiment.run_experiment(
                config, on_epoch=lambda r: op.epoch_ms.append(r.wall_time_ms)
            )
            run_wall = time.perf_counter() - started
            experiment.emit_results(records, summary, str(path))
            op.wall = time.perf_counter() - started
            op.run_setup_s = run_wall - sum(op.epoch_ms) / 1000.0
            op.top1 = self.check_results(path, key, reference)
        return op

    def sweep(self, kind: str, phase="own", traced=False) -> Op:
        """kind "sweep_grid": the gated grid at --jobs 1; kind "pool": a short grid
        through the CLI's process pool at its default --jobs."""
        pool = kind == "pool"
        config = default_config(self.seed)
        epochs = POOL_EPOCHS if pool else config.optim.epochs
        runs = len(SWEEP_KINDS) * len(SWEEP_ETAS)
        steps_per_epoch = steps_of(config) // config.optim.epochs
        op = Op(kind, phase, traced, steps=runs * epochs * steps_per_epoch)
        with self.operation(op, runs) as out_dir:
            argv = ["sweep", "--out-dir", str(out_dir), "--losses", ",".join(SWEEP_KINDS)]
            argv += ["--etas", ",".join(f"{e:g}" for e in SWEEP_ETAS), "--seeds", str(self.seed)]
            argv += ["--m", f"{ROBUST['m']:g}", "--alpha", f"{ROBUST['alpha']:g}"]
            argv += ["--epochs", str(epochs)] if pool else ["--jobs", "1"]
            started, cpu0 = time.perf_counter(), cpu_seconds()
            rc, _ = self.cli(argv)
            op.wall = time.perf_counter() - started
            op.cpu = cpu_seconds() - cpu0
            op.child_peak_mb = peak_mb(resource.RUSAGE_CHILDREN)
            if rc != 0:
                raise RuntimeError(f"sweep exited {rc}")
            for loss in SWEEP_KINDS:
                for eta in SWEEP_ETAS:
                    path = out_dir / f"{loss}_eta{eta:g}_seed{self.seed}.jsonl"
                    if pool:
                        self.check_results(path, f"pool/{loss}/{eta}/{self.seed}", None)
                        continue
                    # the grid's robust run at eta 0.6 is train_default's config
                    default = loss == "ce_eps_mae" and eta == 0.6
                    key = f"train_default/{self.seed}" if default else f"{loss}/{eta}/{self.seed}"
                    top1 = self.check_results(path, key, "train_default" if default else None)
                    if eta == 0.6:
                        self.sweep_top1[loss, self.seed] = top1
        return op

    def verify(self, phase="own", traced=False) -> Op:
        op = Op("verify", phase, traced)
        with self.operation(op, 1):
            started = time.perf_counter()
            outputs = {}
            for command in ("verify", "gradcheck"):
                t0 = time.perf_counter()
                rc, outputs[command] = self.cli([command])
                setattr(op, f"{command}_s", time.perf_counter() - t0)
                if rc not in (0, 2):  # 2 means a check failed, and its line says which
                    raise RuntimeError(f"{command} exited {rc}")
            op.wall = time.perf_counter() - started
            for command, text in outputs.items():
                rerun_ok = self.same_as_first(command, text.encode())
                for line in text.splitlines():
                    report = json.loads(line)
                    self.verdict(report["passed"] and rerun_ok, f"{command} {report['name']}")
        return op

    def run_op(self, workload: str, phase="own", traced=False) -> Op:
        s = self.seed
        if workload == "train_default":
            return self.train(
                workload, default_config(s), f"train_default/{s}", workload, phase, traced
            )
        if workload == "train_wide":
            return self.train(workload, wide_config(s), f"train_wide/{s}", workload, phase, traced)
        if workload in ("sweep_grid", "pool"):
            return self.sweep(workload, phase, traced)
        return self.verify(phase, traced)

    # -- the run --------------------------------------------------------------

    def run(self, workload: str, seconds: float, trace: bool) -> None:
        """Repeat the workload's operation until --seconds have passed; a traced
        run alternates untraced and traced operations, at least one of each."""
        started = time.perf_counter()
        n = 0
        while time.perf_counter() - started < seconds or (trace and n < 2):
            self.run_op(workload, traced=trace and n % 2 == 1)
            n += 1
        if workload == "sweep_grid":
            self.sweep_followups(trace)
        if trace:
            for other in TOUR:
                if other != workload:
                    self.run_op(other, phase="tour", traced=True)

    def sweep_followups(self, traced: bool) -> None:
        """Rerun the grid's robust eta-0.6 config in process (it must match the
        grid's file byte for byte), then check the paper's claim averaged over
        this seed and the next ones."""
        s = self.seed
        seeds = range(s, s + SPEC["claim"]["seeds"])
        self.train("rerun", default_config(s), f"train_default/{s}", "train_default", traced=traced)
        for seed in seeds[1:]:
            for kind in SWEEP_KINDS:
                ref = "train_default" if kind == "ce_eps_mae" else None
                config = default_config(seed, kind)
                op = self.train("rerun", config, f"{kind}/0.6/{seed}", ref, traced=traced)
                self.sweep_top1[kind, seed] = op.top1
        gaps = [
            self.sweep_top1.get(("ce_eps_mae", seed), math.nan)
            - self.sweep_top1.get(("ce", seed), math.nan)
            for seed in seeds
        ]
        gap = statistics.mean(gaps)
        ok = gap >= SPEC["claim"]["min_gap"]
        self.verdict(ok, f"paper claim: ce_eps_mae - ce at eta 0.6 = {gap:.4f} over {list(seeds)}")

    # -- metrics ----------------------------------------------------------------

    def own(self, workload: str, traced: bool) -> list[Op]:
        return [o for o in self.ops if o.kind == workload and o.phase == "own" and o.traced == traced]

    def report(self, workload: str) -> dict:
        """End-to-end figures from the workload's untraced operations, as (value, unit)."""
        ops = self.own(workload, traced=False)
        out = {
            "steps_per_s": (rate(ops), "1/s"),
            "op_s": (statistics.median(o.wall for o in ops), "s"),
            "peak_rss_mb": (peak_mb(resource.RUSAGE_SELF) + peak_mb(resource.RUSAGE_CHILDREN), "MB"),
            "error_rate": (self.failed / max(self.attempted, 1), "1"),
        }
        epochs = [ms for o in ops for ms in o.epoch_ms]
        if epochs:
            p50, p90 = np.percentile(epochs, [50, 90])
            out["epoch_ms.p50"] = (float(p50), "ms")
            out["epoch_ms.p90"] = (float(p90), "ms")
            out["epoch_ms.n"] = (len(epochs), "count")
        setups = [o.run_setup_s for o in self.ops if o.run_setup_s is not None and not o.traced]
        out["run_setup_s"] = (statistics.median(setups) if setups else 0.0, "s")
        return out

    def layers(self, workload: str) -> dict:
        """Per-layer figures from spans of the workload's own traced operations
        where they call the function, otherwise from the tour's."""
        own_ids = {i for i, o in enumerate(self.ops) if o.phase == "own" and o.traced}
        tour_ids = {i for i, o in enumerate(self.ops) if o.phase == "tour"}
        own, tour = self.tracer.durations(own_ids), self.tracer.durations(tour_ids)

        def ids_for(name):
            return own_ids if name in own else tour_ids

        def mean(name, scale):
            return statistics.mean(own.get(name) or tour[name]) * scale

        out = {}
        for fn in ("forward", "backward", "clip_grad_norm", "sgd_step"):
            out[f"mlp.{fn}.us_per_call"] = (mean(f"mlp.{fn}", 1e6), "us")
        out["mlp.evaluate.ms_per_call"] = (mean("mlp.evaluate", 1e3), "ms")
        clip_ids = ids_for("mlp.clip_grad_norm")
        fired = [scale < 1.0 for op, scale in self.tracer.clip_scales if op in clip_ids]
        out["mlp.clip_grad_norm.fire_rate"] = (sum(fired) / len(fired), "1")
        out["losses.batch_loss.us_per_call"] = (mean("losses.batch_loss", 1e6), "us")
        name = "losses.evaluate_loss"
        calls = [s.op for s in self.tracer.spans if s.name == name and s.op in ids_for(name)]
        out[f"{name}.calls"] = (statistics.median(calls.count(i) for i in set(calls)), "count")
        out[f"{name}.us_per_call"] = (mean(name, 1e6), "us")
        name = "experiment.run_experiment"
        out[f"{name}.self_share"] = (self.tracer.self_share(name, ids_for(name)), "1")
        out["experiment.emit_results.ms"] = (mean("experiment.emit_results", 1e3), "ms")
        out["data.build_dataset.ms"] = (mean("data.build_dataset", 1e3), "ms")
        out["noise.corrupt_labels.ms"] = (mean("noise.corrupt_labels", 1e3), "ms")
        for fn in (
            "one_hot_bound_grid",
            "verify_calibration",
            "verify_symmetric_term_cancellation",
            "delta_sweep",
            "verify_excess_risk",
            "gradcheck_losses",
            "gradcheck_mlp",
        ):
            out[f"theory.{fn}.s"] = (mean(f"theory.{fn}", 1.0), "s")
        (check,) = [o for o in self.ops if o.kind == "verify"]
        out["cli.verify.s"] = (check.verify_s, "s")
        out["cli.gradcheck.s"] = (check.gradcheck_s, "s")
        sweeps = [o for o in self.ops if o.kind == "pool"]
        wall = sum(o.wall for o in sweeps)
        cpu = sum(o.cpu for o in sweeps)
        out["cli.sweep.cpu_per_wall"] = (cpu / wall, "1")
        out["cli.sweep.cpu_ms_per_step"] = (cpu * 1e3 / sum(o.steps for o in sweeps), "ms")
        out["cli.sweep.child_peak_rss_mb"] = (max(o.child_peak_mb for o in sweeps), "MB")
        plain, traced = (self.own(workload, traced=t) for t in (False, True))
        out["trace.overhead_pct"] = ((1.0 - rate(traced) / rate(plain)) * 100.0, "%")
        out.update(microbenchmarks(self.seed))
        return out


def rate(ops: list[Op]) -> float:
    """SGD steps per wall second over the operations."""
    return sum(o.steps for o in ops) / sum(o.wall for o in ops)


def per_call_s(fn, *args, blocks: int = 5, min_block_s: float = 0.005) -> float:
    """Median over blocks of the mean time per call, blocks at least min_block_s long."""
    n = 1
    while True:
        started = time.perf_counter()
        for _ in range(n):
            fn(*args)
        if time.perf_counter() - started >= min_block_s:
            break
        n *= 2
    samples = []
    for _ in range(blocks):
        started = time.perf_counter()
        for _ in range(n):
            fn(*args)
        samples.append((time.perf_counter() - started) / n)
    return statistics.median(samples)


def microbenchmarks(seed: int) -> dict:
    """Layer kernels called directly on inputs drawn from the seed, K = 4."""
    rng = np.random.default_rng(seed)
    out = {}
    for batch in (128, 4096):
        logits = rng.normal(0.0, 3.0, size=(batch, 4))
        labels = rng.integers(0, 4, size=batch)
        for kind in LOSS_KINDS:
            spec = LossSpec(kind, **ROBUST)
            t = per_call_s(batch_loss, logits, labels, spec)
            out[f"losses.batch_loss.{kind}.us_b{batch}"] = (t * 1e6, "us")
        out[f"core.softmax_rows.us_b{batch}"] = (per_call_s(softmax_rows, logits) * 1e6, "us")
    t = per_call_s(eps_softmax_rows, logits, ROBUST["m"])
    out["transform.eps_softmax_rows.ns_per_row"] = (t * 1e9 / logits.shape[0], "ns")
    return out


def host_block() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "load": "closed loop: one runner process starts one workload interpreter at a time; "
        "sweep_grid passes --jobs 1; the traced run's pool operation uses the CLI's own "
        "default --jobs",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    args = parser.parse_args()
    bench = Bench(args.seed, args.work_dir)
    bench.run(args.workload, args.seconds, bool(args.trace))
    result = {
        "attempted": bench.attempted,
        "failed": bench.failed,
        "host": host_block(),
        "report": bench.report(args.workload),
    }
    if args.trace:
        result["layers"] = bench.layers(args.workload)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
