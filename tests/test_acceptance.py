"""End-to-end acceptance gate for the package.

Each test prints one [PASS]/[FAIL] line with its headline numbers so a full
run doubles as a checklist; the assertion then fails the test if the check
did not hold. Thresholds and runtime budgets are pinned here on purpose:
loosening them is a behavior change, not a test fix.

The final test exercises an MNIST-format IDX dataset and is skipped unless
EPS_SOFTMAX_MNIST_DIR points at a directory holding the four uncompressed
files (train-images-idx3-ubyte, train-labels-idx1-ubyte, t10k-images-idx3-ubyte,
t10k-labels-idx1-ubyte).
"""

import dataclasses
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from eps_softmax.cli import default_config
from eps_softmax.data import DatasetSpec
from eps_softmax.experiment import ExperimentConfig, run_experiment
from eps_softmax.losses import LOSS_KINDS, LossSpec
from eps_softmax.mlp import MlpSpec, OptimSpec
from eps_softmax.noise import NoiseSpec, corrupt_labels, transition_matrix
from eps_softmax.theory import (
    delta_sweep,
    gradcheck_losses,
    gradcheck_mlp,
    one_hot_bound_grid,
    verify_calibration,
    verify_symmetric_term_cancellation,
)


@pytest.fixture
def report(capsys):
    def _report(name: str, ok: bool, detail: str = "") -> None:
        line = f"[{'PASS' if ok else 'FAIL'}] {name}"
        if detail:
            line += f"  ({detail})"
        with capsys.disabled():
            print(line, flush=True)

    return _report


def test_01_one_hot_distance_bound_fuzz(report):
    """10^5 random logit draws per (K, m) never exceed the closed-form bound."""
    started = time.perf_counter()
    reports = one_hot_bound_grid(trials=100_000)
    elapsed = time.perf_counter() - started
    violations = sum(r.stats["violations"] for r in reports)
    cells = [f"one_hot_bound_K{k}_m{m:g}" for k in (2, 10, 100) for m in (0.0, 1.0, 10.0, 100.0)]
    ok = all(r.passed for r in reports) and violations == 0 and elapsed < 30.0
    ok = ok and [r.name for r in reports] == cells
    report(
        "one-hot distance bound fuzz",
        ok,
        f"12 grid cells x 100000 trials, {violations} violations, {elapsed:.1f} s",
    )
    assert ok


def test_02_gradients_match_finite_differences(report):
    """Analytic loss and end-to-end network gradients agree with central FD."""
    started = time.perf_counter()
    loss_reports = gradcheck_losses(kinds=LOSS_KINDS, cases=1000)
    mlp_reports = gradcheck_mlp(kinds=LOSS_KINDS)
    elapsed = time.perf_counter() - started
    worst_loss = max(r.stats["max_rel_err"] for r in loss_reports)
    worst_mlp = max(r.stats["max_rel_err"] for r in mlp_reports)
    ok = (
        all(r.passed for r in loss_reports + mlp_reports)
        and worst_loss < 1e-5
        and worst_mlp < 1e-4
        and elapsed < 60.0
    )
    report(
        f"gradient oracle ({len(LOSS_KINDS)} loss kinds x 1000 cases + network)",
        ok,
        f"worst loss rel err {worst_loss:.2e}, worst network rel err {worst_mlp:.2e}, "
        f"{elapsed:.1f} s",
    )
    assert ok


def test_03_calibrated_optimum_matches_closed_form(report):
    """Numeric risk minimizers hit the closed form and preserve label ranks."""
    started = time.perf_counter()
    reports = verify_calibration(n_classes=4, ms=(1.0, 10.0, 100.0, 1e4), n_distributions=100)
    elapsed = time.perf_counter() - started
    worst = max(r.stats["max_abs_err"] for r in reports)
    ranks = all(r.stats["rank_preserving"] for r in reports)
    ok = all(r.passed for r in reports) and worst < 1e-3 and ranks and elapsed < 60.0
    report(
        "calibrated optimum closed form (100 distributions, m in {1, 10, 100, 1e4})",
        ok,
        f"max component err {worst:.2e}, rank preserving {ranks}, {elapsed:.1f} s",
    )
    assert ok


def test_04_bounded_term_cancels_in_symmetric_sums(report):
    """The weighted MAE term drops out of symmetric-sum differences exactly."""
    worsts = []
    ok = True
    for k in (2, 10):
        rep = verify_symmetric_term_cancellation(n_classes=k, trials=10_000)
        worsts.append(rep.stats["max_abs_discrepancy"])
        ok = ok and rep.passed and rep.stats["max_abs_discrepancy"] <= 1e-9
    report(
        "bounded-term cancellation (10^4 pairs, K in {2, 10})",
        ok,
        f"max discrepancy {max(worsts):.2e} <= 1e-9",
    )
    assert ok


def test_05_symmetric_sum_spread_shrinks_with_amplification(report):
    """The measured spread of symmetric sums strictly decreases along m."""
    rep = delta_sweep(n_classes=10, ms=(1.0, 10.0, 100.0, 1000.0), trials=1000)
    deltas = ", ".join(f"{d:.2f}" for d in rep.stats["deltas"])
    report(
        "spread shrinks along m in {1, 10, 100, 1000}",
        rep.passed,
        f"deltas [{deltas}]",
    )
    assert rep.passed


def _empirical_matrix(spec: NoiseSpec, n: int) -> np.ndarray:
    labels = np.arange(n) % spec.n_classes
    noisy = corrupt_labels(labels, spec)
    k = spec.n_classes
    mat = np.zeros((k, k))
    for i in range(k):
        sel = noisy[labels == i]
        mat[i] = np.bincount(sel, minlength=k) / sel.size
    return mat


def test_06_empirical_transition_matrices(report):
    """10^5 corrupted labels reproduce every analytic transition matrix."""
    cases = [NoiseSpec("symmetric", eta=eta, n_classes=10, seed=0) for eta in (0.2, 0.4, 0.8)]
    cases += [
        NoiseSpec("asymmetric_shift", eta=eta, n_classes=k, seed=0)
        for k in (3, 10)
        for eta in (0.1, 0.3)
    ]
    worst = 0.0
    for spec in cases:
        diff = np.abs(_empirical_matrix(spec, 100_000) - transition_matrix(spec)).max()
        worst = max(worst, diff)
    ok = worst <= 0.01
    report(
        "empirical transition matrices (7 noise settings)",
        ok,
        f"max entry deviation {worst:.4f} <= 0.01",
    )
    assert ok


def _directional_run(seed: int, loss: LossSpec, noise: NoiseSpec) -> tuple[float, float]:
    config = dataclasses.replace(default_config(seed), loss=loss, noise=noise)
    started = time.perf_counter()
    _, summary = run_experiment(config)
    return summary.last_test_top1, time.perf_counter() - started


def test_07_robust_loss_survives_heavy_noise(report):
    """Seed-averaged final accuracy: the combined loss beats CE by >= 10 points
    at 60% symmetric noise while staying within 2 points on clean labels."""
    seeds = (0, 1, 2)
    ce = LossSpec("ce")
    robust = LossSpec("ce_eps_mae", m=1e4, alpha=0.1, beta=1.0)
    slowest = 0.0
    accs = {}
    for label, loss in (("ce", ce), ("robust", robust)):
        for setting in ("noisy", "clean"):
            totals = []
            for seed in seeds:
                noise = (
                    NoiseSpec("symmetric", eta=0.6, n_classes=4, seed=seed)
                    if setting == "noisy"
                    else NoiseSpec("none", n_classes=4, seed=seed)
                )
                acc, took = _directional_run(seed, loss, noise)
                slowest = max(slowest, took)
                totals.append(acc)
            accs[label, setting] = float(np.mean(totals))
    noisy_gap = accs["robust", "noisy"] - accs["ce", "noisy"]
    clean_gap = abs(accs["robust", "clean"] - accs["ce", "clean"])
    ok = noisy_gap >= 0.10 and clean_gap <= 0.02 and slowest < 180.0
    # report only: the robust loss at m = 0, which shows what amplification adds
    control = LossSpec("ce_eps_mae", m=0.0, alpha=0.1, beta=1.0)
    m0_noisy = np.mean([
        _directional_run(seed, control, NoiseSpec("symmetric", eta=0.6, n_classes=4, seed=seed))[0]
        for seed in seeds
    ])
    report(
        "directional robustness at 60% symmetric noise (3 seeds)",
        ok,
        f"noisy top1 ce {accs['ce', 'noisy']:.4f} vs robust {accs['robust', 'noisy']:.4f} "
        f"(gap {noisy_gap * 100:.1f} pts >= 10), clean gap {clean_gap * 100:.1f} pts <= 2, "
        f"slowest run {slowest:.1f} s; m=0 control noisy top1 {m0_noisy:.4f} (not gated)",
    )
    assert ok


def test_08_zero_amplification_reduces_to_ce_bitwise(report):
    """With m=0, alpha=1, beta=0 the combined loss trains exactly like CE."""
    base = dataclasses.replace(
        default_config(0), noise=NoiseSpec("symmetric", eta=0.4, n_classes=4, seed=0)
    )
    rec_ce, _ = run_experiment(dataclasses.replace(base, loss=LossSpec("ce")))
    rec_red, _ = run_experiment(
        dataclasses.replace(base, loss=LossSpec("ce_eps_mae", m=0.0, alpha=1.0, beta=0.0))
    )
    ok = len(rec_ce) == len(rec_red)
    for a, b in zip(rec_ce, rec_red):
        ok = ok and (
            a.epoch == b.epoch
            and a.lr == b.lr
            and a.train_loss == b.train_loss
            and a.test_top1 == b.test_top1
        )
    report(
        "m=0 combined loss reduces to CE bitwise",
        ok,
        f"{len(rec_ce)} epochs compared field by field",
    )
    assert ok


def test_09_repeated_train_runs_are_byte_identical(report, tmp_path):
    """The train command rerun with one config emits byte-identical files."""
    argv = [
        sys.executable,
        "-m",
        "eps_softmax",
        "train",
        "--epochs",
        "15",
        "--noise-kind",
        "symmetric",
        "--eta",
        "0.4",
        "--seed",
        "0",
        "--log-every",
        "0",
    ]
    paths = [str(tmp_path / "first.jsonl"), str(tmp_path / "second.jsonl")]
    for path in paths:
        proc = subprocess.run(
            argv + ["--out", path], capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
    first, second = (Path(p).read_bytes() for p in paths)
    ok = first == second and len(first) > 0
    report(
        "repeated train invocations are byte-identical",
        ok,
        f"two subprocess runs, {len(first)} bytes each",
    )
    assert ok


def _mnist_paths():
    root = os.environ.get("EPS_SOFTMAX_MNIST_DIR")
    if not root:
        return None
    names = (
        "train-images-idx3-ubyte",
        "train-labels-idx1-ubyte",
        "t10k-images-idx3-ubyte",
        "t10k-labels-idx1-ubyte",
    )
    paths = [os.path.join(root, n) for n in names]
    return paths if all(os.path.exists(p) for p in paths) else None


def test_10_mnist_subset_directional_check(report):
    """Optional: on a 10k MNIST-format subset at 60% symmetric noise the
    combined loss beats CE by >= 10 points in 50 epochs."""
    paths = _mnist_paths()
    if paths is None:
        pytest.skip("EPS_SOFTMAX_MNIST_DIR not set or IDX files missing")
    dataset = DatasetSpec(
        source="idx",
        n_classes=10,
        n_train=10_000,
        n_test=10_000,
        train_images_path=paths[0],
        train_labels_path=paths[1],
        test_images_path=paths[2],
        test_labels_path=paths[3],
    )
    started = time.perf_counter()
    results = {}
    for label, loss in (
        ("ce", LossSpec("ce")),
        ("robust", LossSpec("ce_eps_mae", m=1e4, alpha=0.1, beta=1.0)),
    ):
        config = ExperimentConfig(
            dataset=dataset,
            mlp=MlpSpec((784, 256, 10), init_seed=0),
            loss=loss,
            noise=NoiseSpec("symmetric", eta=0.6, n_classes=10, seed=0),
            optim=OptimSpec(epochs=50),
            seed=0,
        )
        _, summary = run_experiment(config)
        results[label] = summary.last_test_top1
    elapsed = time.perf_counter() - started
    gap = results["robust"] - results["ce"]
    ok = gap >= 0.10 and elapsed < 600.0
    report(
        "mnist subset directional check",
        ok,
        f"ce {results['ce']:.4f} vs robust {results['robust']:.4f} "
        f"(gap {gap * 100:.1f} pts), {elapsed:.0f} s",
    )
    assert ok
