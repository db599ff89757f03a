"""Numeric verification of the transform's guarantees.

Each check here corresponds to a property the loss family is supposed to
have: the one-hot approximation bound of the transform, the closed form of
the risk-minimizing prediction under label uncertainty, the cancellation of
symmetric loss terms, the shrinking symmetric-sum spread that drives noise
tolerance, and an end-to-end excess-risk demonstration on a tiny synthetic
task. Verifiers return machine-readable CheckReport records so the CLI can
print one line per check. The finite-difference helpers double as an
independent oracle for every analytic gradient in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import LOG_FLOOR, check_prob_vector, make_rng, softmax_rows
from .data import DatasetSpec, generate_blobs
from .errors import ConfigError
from .losses import LOSS_KINDS, LossSpec, batch_loss, evaluate_loss, symmetric_sums
from .mlp import (
    MlpSpec,
    Workspace,
    backward,
    forward,
    init_params,
    sgd_step,
    zeros_like_params,
)
from .noise import NoiseSpec, clean_dominance_margin, corrupt_labels, expected_clean_weight
from .transform import distances_to_one_hot_rows, eps_bound, eps_softmax_rows


@dataclass
class CheckReport:
    """One verification outcome: a name, a verdict, and supporting numbers."""

    name: str
    passed: bool
    stats: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# One-hot approximation bound
# ---------------------------------------------------------------------------


def verify_one_hot_bound(
    n_classes: int,
    m: float,
    trials: int = 100_000,
    seed: int = 0,
    chunk: int = 20_000,
) -> CheckReport:
    """Fuzz the bound: no transformed output may sit farther than eps(K, m)
    from the one-hot set, for logits drawn uniformly from [-10, 10]."""
    rng = make_rng(seed)
    bound = eps_bound(n_classes, m)
    worst = 0.0
    violations = 0
    remaining = trials
    while remaining > 0:
        n = min(chunk, remaining)
        logits = rng.uniform(-10.0, 10.0, size=(n, n_classes))
        dist = distances_to_one_hot_rows(eps_softmax_rows(logits, m))
        worst = max(worst, float(dist.max()))
        violations += int((dist > bound).sum())
        remaining -= n
    return CheckReport(
        name=f"one_hot_bound_K{n_classes}_m{m:g}",
        passed=violations == 0,
        stats={"max_observed": worst, "bound": bound, "violations": violations, "trials": trials},
    )


def one_hot_bound_grid(
    ks=(2, 10, 100),
    ms=(0.0, 1.0, 10.0, 100.0),
    trials: int = 100_000,
    seed: int = 0,
) -> list[CheckReport]:
    return [verify_one_hot_bound(k, m, trials, seed) for k in ks for m in ms]


# ---------------------------------------------------------------------------
# Risk-minimizing prediction under label uncertainty
# ---------------------------------------------------------------------------


def closed_form_optimum(q, m: float) -> np.ndarray:
    """Softmax probabilities minimizing the expected eps CE under label
    distribution q: the winner gives up m worth of mass, everyone else is
    scaled up by m + 1."""
    arr = check_prob_vector(q)
    t = int(np.argmax(arr))
    p = arr * (m + 1.0)
    p[t] = arr[t] * (1.0 + m) - m
    return p


def _expected_ce_eps_grad(h_rows: np.ndarray, q_rows: np.ndarray, m: float) -> np.ndarray:
    """Gradient of E_{y ~ q}[eps CE(h, y)] with respect to the logits.

    Averaging the per-class gradients gives (p - q) plus a correction on the
    argmax class whose fit term is damped by p_t / (p_t + m).
    """
    p = softmax_rows(h_rows)
    rows = np.arange(p.shape[0])
    t = np.argmax(p, axis=1)
    pt = p[rows, t]
    qt = q_rows[rows, t]
    coeff = qt * (pt / (pt + m) - 1.0)
    grad = (p - q_rows) + coeff[:, None] * p
    grad[rows, t] -= coeff
    return grad


def _calibration_optima_batch(
    q_rows: np.ndarray,
    m: float,
    lr: float = 0.1,
    max_steps: int = 100_000,
    tol: float = 1e-10,
) -> np.ndarray:
    h = np.log(np.maximum(q_rows, LOG_FLOOR))
    for _ in range(max_steps):
        grad = _expected_ce_eps_grad(h, q_rows, m)
        if float(np.linalg.norm(grad, axis=1).max()) <= tol:
            break
        h -= lr * grad
    return softmax_rows(h)


def calibration_optimum(
    q,
    m: float,
    lr: float = 0.1,
    max_steps: int = 100_000,
    tol: float = 1e-10,
) -> np.ndarray:
    """Numerically minimize the expected eps CE over predictions.

    Requires the top-two gap of q to exceed m / (m + 1); below that threshold
    the closed form leaves the simplex and the optimum is no longer interior.
    """
    arr = check_prob_vector(q)
    top = np.sort(arr)[::-1]
    gap = float(top[0] - top[1])
    if gap <= m / (m + 1.0):
        raise ConfigError(
            f"top-two gap {gap:.6g} must exceed m/(m+1) = {m / (m + 1.0):.6g}"
        )
    return _calibration_optima_batch(arr[None, :], m, lr, max_steps, tol)[0]


def sample_gapped_distribution(
    n_classes: int,
    m: float,
    rng: np.random.Generator,
    min_component: float = 1e-3,
) -> np.ndarray:
    """Random label distribution satisfying the top-two gap condition for m.

    The non-winning mass is Dirichlet; the winner is placed a random fraction
    of the way between the gap threshold and 1. A floor on the smallest
    component keeps the slowest gradient-descent coordinate well conditioned.
    """
    g0 = m / (m + 1.0)
    while True:
        rest = rng.dirichlet(np.ones(n_classes - 1))
        threshold = (g0 + rest.max()) / (1.0 + rest.max())
        qt = threshold + (1.0 - threshold) * rng.uniform(0.1, 0.9)
        if ((1.0 - qt) * rest).min() < min_component:
            continue
        t = int(rng.integers(n_classes))
        q = np.insert((1.0 - qt) * rest, t, qt)
        return q


def check_rank_preserving(f, q) -> np.ndarray:
    """For each k, does f order the top k classes of q correctly?

    Entry k - 1 is true when every class strictly above q's (k+1)-th value
    stays strictly above f's, and every class strictly below q's k-th value
    stays strictly below f's. Non-strict cases impose no constraint.
    """
    fv = np.asarray(f, dtype=np.float64)
    qv = np.asarray(q, dtype=np.float64)
    if fv.shape != qv.shape:
        raise ValueError(f"shape mismatch: {fv.shape} vs {qv.shape}")
    k_count = qv.size
    q_sorted = np.sort(qv)[::-1]
    f_sorted = np.sort(fv)[::-1]
    out = np.empty(k_count, dtype=bool)
    for k in range(1, k_count + 1):
        ok = True
        if k < k_count:
            above = qv > q_sorted[k]  # strictly above the (k+1)-th value
            ok = ok and bool((fv[above] > f_sorted[k]).all())
        below = qv < q_sorted[k - 1]
        ok = ok and bool((fv[below] < f_sorted[k - 1]).all())
        out[k - 1] = ok
    return out


def verify_calibration(
    n_classes: int = 4,
    ms=(1.0, 10.0),
    n_distributions: int = 100,
    seed: int = 0,
    tol: float = 1e-3,
) -> list[CheckReport]:
    """Numeric optimum vs closed form, plus rank preservation, per m."""
    reports = []
    for m in ms:
        rng = make_rng(seed)
        qs = np.stack(
            [sample_gapped_distribution(n_classes, m, rng) for _ in range(n_distributions)]
        )
        optima = _calibration_optima_batch(qs, m)
        targets = np.stack([closed_form_optimum(q, m) for q in qs])
        max_err = float(np.abs(optima - targets).max())
        ranks_ok = all(check_rank_preserving(p, q).all() for p, q in zip(optima, qs))
        reports.append(
            CheckReport(
                name=f"calibration_optimum_m{m:g}",
                passed=max_err < tol and ranks_ok,
                stats={
                    "max_abs_err": max_err,
                    "tolerance": tol,
                    "rank_preserving": ranks_ok,
                    "n_distributions": n_distributions,
                },
            )
        )
    return reports


# ---------------------------------------------------------------------------
# Symmetric-term cancellation and the shrinking symmetric-sum spread
# ---------------------------------------------------------------------------


def verify_symmetric_term_cancellation(
    m: float = 10.0,
    alpha: float = 0.5,
    beta: float = 2.0,
    n_classes: int = 10,
    trials: int = 10_000,
    seed: int = 0,
    tol: float = 1e-9,
) -> CheckReport:
    """Adding a constant-symmetric-sum loss (MAE) to the eps CE must not move
    symmetric-sum differences: the MAE contributions cancel pair by pair."""
    rng = make_rng(seed)
    p1 = rng.dirichlet(np.ones(n_classes), size=trials)
    p2 = rng.dirichlet(np.ones(n_classes), size=trials)
    ce_eps = LossSpec("ce_eps", m=m)
    ce1, ce2 = symmetric_sums(p1, ce_eps), symmetric_sums(p2, ce_eps)
    mae1 = 2.0 * (n_classes - p1.sum(axis=1))
    mae2 = 2.0 * (n_classes - p2.sum(axis=1))
    lhs = (alpha * ce1 + beta * mae1) - (alpha * ce2 + beta * mae2)
    rhs = alpha * (ce1 - ce2)
    worst = float(np.abs(lhs - rhs).max())
    return CheckReport(
        name=f"symmetric_term_cancellation_K{n_classes}",
        passed=worst <= tol,
        stats={"max_abs_discrepancy": worst, "tolerance": tol, "trials": trials},
    )


def measure_delta(n_classes: int, m: float, trials: int = 1000, seed: int = 0) -> float:
    """Monte Carlo sup of the symmetric-sum discrepancy at amplification m.

    Draws pairs of predictions through the transform (so both sit within
    eps(K, m) of the one-hot set) and returns the largest absolute difference
    of their symmetric sums. This is the empirical delta in the excess-risk
    bound; it shrinks as m grows.
    """
    rng = make_rng(seed)
    logits1 = rng.uniform(-10.0, 10.0, size=(trials, n_classes))
    logits2 = rng.uniform(-10.0, 10.0, size=(trials, n_classes))
    ce_eps = LossSpec("ce_eps", m=m)
    s1 = symmetric_sums(softmax_rows(logits1), ce_eps)
    s2 = symmetric_sums(softmax_rows(logits2), ce_eps)
    return float(np.abs(s1 - s2).max())


def delta_sweep(
    n_classes: int = 10,
    ms=(1.0, 10.0, 100.0, 1000.0),
    trials: int = 1000,
    seed: int = 0,
) -> CheckReport:
    """Check that the measured delta strictly decreases along increasing m."""
    deltas = [measure_delta(n_classes, m, trials, seed) for m in ms]
    decreasing = all(b < a for a, b in zip(deltas, deltas[1:]))
    return CheckReport(
        name=f"delta_shrinks_K{n_classes}",
        passed=decreasing,
        stats={"ms": list(ms), "deltas": deltas, "trials": trials},
    )


# ---------------------------------------------------------------------------
# Excess-risk demonstration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RiskReport:
    """Measured quantities of the excess-risk bound on a small synthetic task.

    bound = 2 * delta + 2 * c * delta / a, where c is the average clean-label
    weight and a the worst-case clean dominance margin of the noise model.
    """

    delta_measured: float
    c: float
    a: float
    bound: float
    clean_risk_of_noisy_minimizer: float
    clean_risk_of_clean_minimizer: float
    risk_gap: float
    max_output_distance: float
    eps: float
    within_bound: bool


def _train_linear_softmax(
    features: np.ndarray,
    labels: np.ndarray,
    n_classes: int,
    spec: LossSpec,
    seed: int,
    steps: int,
    lr: float,
    momentum: float = 0.9,
):
    params = init_params(MlpSpec((features.shape[1], n_classes), init_seed=seed))
    velocity = zeros_like_params(params)
    ws = Workspace(params.layer_sizes)
    n = labels.size
    for _ in range(steps):
        logits, cache = forward(params, features, ws)
        _, grad_logits = batch_loss(logits, labels, spec)
        grads = backward(cache, grad_logits / n)
        sgd_step(params, grads, velocity, lr, momentum)
    return params


def excess_risk_demo(
    n_classes: int,
    noise_spec: NoiseSpec,
    m: float,
    n_points: int = 200,
    dim: int = 2,
    separation: float = 8.0,
    seed: int = 0,
    steps: int = 4000,
    lr: float = 0.2,
) -> RiskReport:
    """Train a linear softmax model on clean and on corrupted labels and check
    that the clean-risk gap respects the excess-risk bound.

    delta is measured empirically as the spread of symmetric sums over the
    transformed outputs both models actually produce. The task is kept tiny
    (K <= 4, at most 200 points) so the demo runs in well under a second.
    """
    if n_classes > 4 or n_points > 200:
        raise ConfigError("the demo is desk-scale: K <= 4 and n_points <= 200")
    if noise_spec.n_classes != n_classes:
        raise ConfigError("noise_spec.n_classes must match n_classes")
    a = clean_dominance_margin(noise_spec)
    if a <= 0:
        raise ConfigError(f"clean dominance margin a = {a:.3g} must be positive")

    data_spec = DatasetSpec(
        source="blobs",
        n_classes=n_classes,
        n_train=n_points,
        n_test=n_classes,
        dim=dim,
        separation=separation,
    )
    train, _ = generate_blobs(data_spec, seed)
    corruption = corrupt_labels(train.labels, noise_spec)
    loss_spec = LossSpec("ce_eps", m=m)

    clean_params = _train_linear_softmax(
        train.features, train.labels, n_classes, loss_spec, seed, steps, lr
    )
    noisy_params = _train_linear_softmax(
        train.features, corruption.noisy_labels, n_classes, loss_spec, seed, steps, lr
    )

    logits_clean = forward(clean_params, train.features)[0]
    logits_noisy = forward(noisy_params, train.features)[0]
    p_all = softmax_rows(np.vstack([logits_clean, logits_noisy]))
    sums = symmetric_sums(p_all, loss_spec)
    delta = float(sums.max() - sums.min())

    outputs = eps_softmax_rows(np.vstack([logits_clean, logits_noisy]), m)
    max_dist = float(distances_to_one_hot_rows(outputs).max())

    risk_clean = float(batch_loss(logits_clean, train.labels, loss_spec)[0].mean())
    risk_noisy = float(batch_loss(logits_noisy, train.labels, loss_spec)[0].mean())

    c = expected_clean_weight(noise_spec)
    bound = 2.0 * delta + 2.0 * c * delta / a
    gap = risk_noisy - risk_clean
    return RiskReport(
        delta_measured=delta,
        c=c,
        a=a,
        bound=bound,
        clean_risk_of_noisy_minimizer=risk_noisy,
        clean_risk_of_clean_minimizer=risk_clean,
        risk_gap=gap,
        max_output_distance=max_dist,
        eps=eps_bound(n_classes, m),
        within_bound=gap <= bound,
    )


def verify_excess_risk(
    noise_spec: NoiseSpec,
    m: float = 1e4,
    seed: int = 0,
) -> CheckReport:
    report = excess_risk_demo(noise_spec.n_classes, noise_spec, m, seed=seed)
    finite = all(
        math.isfinite(v)
        for v in (report.delta_measured, report.bound, report.risk_gap, report.c, report.a)
    )
    return CheckReport(
        name=f"excess_risk_{noise_spec.kind}_eta{noise_spec.eta:g}",
        passed=report.within_bound and finite and report.max_output_distance <= report.eps,
        stats={
            "delta": report.delta_measured,
            "c": report.c,
            "a": report.a,
            "bound": report.bound,
            "risk_gap": report.risk_gap,
            "max_output_distance": report.max_output_distance,
            "eps": report.eps,
        },
    )


# ---------------------------------------------------------------------------
# Finite-difference gradient oracle
# ---------------------------------------------------------------------------


def fd_gradient(fun, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function, one coordinate at a time."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.empty_like(x)
    for i in range(x.size):
        xp = x.copy()
        xp.flat[i] += h
        xm = x.copy()
        xm.flat[i] -= h
        grad.flat[i] = (fun(xp) - fun(xm)) / (2.0 * h)
    return grad


def _relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = max(float(np.abs(analytic).max()), float(np.abs(numeric).max()), 1e-12)
    return float(np.abs(analytic - numeric).max()) / scale


def _random_spec(kind: str, rng: np.random.Generator) -> LossSpec:
    return LossSpec(
        kind,
        m=float(rng.choice([0.0, 0.5, 1.0, 10.0])),
        alpha=float(rng.uniform(0.2, 3.0)),
        beta=float(rng.uniform(0.2, 3.0)),
        gamma=float(rng.choice([0.0, 0.1, 0.5, 1.0, 2.0])),
        q=float(rng.uniform(0.05, 1.0)),
        A=float(rng.uniform(-6.0, -1.0)),
    )


def _draw_case(rng: np.random.Generator, gap_floor: float = 1e-4):
    """Random (logits, label) with the top-two softmax gap bounded away from 0.

    Near argmax ties the eps losses switch branches, so the analytic gradient
    is one-sided there and finite differences straddle the seam; such draws
    are excluded rather than compared.
    """
    while True:
        n_classes = int(rng.choice([2, 3, 5, 10]))
        logits = rng.uniform(-3.0, 3.0, size=n_classes)
        p = np.sort(softmax_rows(logits[None, :])[0])
        if p[-1] - p[-2] >= gap_floor:
            return logits, int(rng.integers(n_classes))


def gradcheck_losses(
    kinds=LOSS_KINDS,
    cases: int = 1000,
    seed: int = 0,
    h: float = 1e-6,
    tol: float = 1e-5,
) -> list[CheckReport]:
    """Analytic loss gradients vs central finite differences, per kind."""
    reports = []
    for kind in kinds:
        rng = make_rng(seed)
        worst = 0.0
        for _ in range(cases):
            logits, y = _draw_case(rng)
            spec = _random_spec(kind, rng)
            analytic = evaluate_loss(logits, y, spec).grad_logits
            numeric = fd_gradient(lambda x: evaluate_loss(x, y, spec).value, logits, h)
            worst = max(worst, _relative_error(analytic, numeric))
        reports.append(
            CheckReport(
                name=f"gradcheck_loss_{kind}",
                passed=worst < tol,
                stats={"max_rel_err": worst, "tolerance": tol, "cases": cases},
            )
        )
    return reports


def gradcheck_mlp(
    kinds=LOSS_KINDS,
    seed: int = 0,
    h: float = 1e-6,
    tol: float = 1e-4,
) -> list[CheckReport]:
    """End-to-end parameter gradients of mean batch loss vs finite differences."""
    rng = make_rng(seed)
    spec_net = MlpSpec((4, 8, 3), init_seed=seed)
    x = rng.standard_normal((5, 4))
    y = rng.integers(0, 3, size=5)
    reports = []
    for kind in kinds:
        loss_spec = _random_spec(kind, make_rng(seed + 1))
        params = init_params(spec_net)
        logits, cache = forward(params, x)
        _, grad_logits = batch_loss(logits, y, loss_spec)
        analytic = backward(cache, grad_logits / y.size).flat

        probe = init_params(spec_net)
        ws = Workspace(spec_net.layer_sizes)

        def mean_loss(flat: np.ndarray) -> float:
            probe.flat[...] = flat
            values, _ = batch_loss(forward(probe, x, ws)[0], y, loss_spec)
            return float(values.mean())

        numeric = fd_gradient(mean_loss, params.flat, h)
        err = _relative_error(analytic, numeric)
        reports.append(
            CheckReport(
                name=f"gradcheck_mlp_{kind}",
                passed=err < tol,
                stats={"max_rel_err": err, "tolerance": tol},
            )
        )
    return reports


def run_verification_suite(trials: int = 100_000, seed: int = 0) -> list[CheckReport]:
    """The full battery behind the CLI verify subcommand."""
    reports = one_hot_bound_grid(trials=trials, seed=seed)
    reports += verify_calibration(seed=seed)
    reports.append(verify_symmetric_term_cancellation(n_classes=2, seed=seed))
    reports.append(verify_symmetric_term_cancellation(n_classes=10, seed=seed))
    reports.append(delta_sweep(seed=seed))
    reports.append(
        verify_excess_risk(NoiseSpec("symmetric", eta=0.4, n_classes=4, seed=seed), seed=seed)
    )
    reports.append(
        verify_excess_risk(
            NoiseSpec("asymmetric_shift", eta=0.3, n_classes=4, seed=seed), seed=seed
        )
    )
    reports.append(
        verify_excess_risk(NoiseSpec("none", n_classes=4, seed=seed), seed=seed)
    )
    return reports
