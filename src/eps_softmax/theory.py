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
from .experiment import train_step
from .losses import LOSS_KINDS, LossSpec, batch_loss, evaluate_loss, symmetric_sums
from .mlp import MlpSpec, OptimSpec, Workspace, backward, forward, init_params, zeros_like_params
from .noise import NoiseSpec, clean_dominance_margin, corrupt_labels, expected_clean_weight
from .transform import distances_to_one_hot_rows, eps_bound, eps_softmax_rows


@dataclass
class CheckReport:
    """One verification outcome: a name, a verdict, and supporting numbers."""

    name: str
    passed: bool
    stats: dict = field(default_factory=dict)


def _require_at_least(name: str, value: int, floor: int = 1) -> None:
    if value < floor:
        raise ConfigError(f"{name} must be at least {floor}, got {value}")


# ---------------------------------------------------------------------------
# One-hot approximation bound
# ---------------------------------------------------------------------------


def verify_one_hot_bound(
    n_classes: int,
    m: float,
    trials: int = 100_000,
    seed: int = 0,
) -> CheckReport:
    """Fuzz the bound: no transformed output may sit farther than eps(K, m)
    from the one-hot set, for logits drawn uniformly from [-10, 10]."""
    _require_at_least("trials", trials)
    rng = make_rng(seed)
    bound = eps_bound(n_classes, m)
    worst = 0.0
    violations = 0
    remaining = trials
    while remaining > 0:
        n = min(20_000, remaining)
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


# The calibration solver stops once every row's gradient norm is at most
# CALIBRATION_TOL; a solve still above it after CALIBRATION_MAX_STEPS steps
# has not converged, and its check fails.
CALIBRATION_MAX_STEPS = 1000
CALIBRATION_TOL = 1e-10


def _expected_ce_eps_grad(p: np.ndarray, q_rows: np.ndarray, m: float) -> np.ndarray:
    """Gradient of E_{y ~ q}[eps CE(h, y)] with respect to the logits h, at
    softmax probabilities p = softmax(h).

    Averaging the per-class gradients gives (p - q) plus a correction on the
    argmax class whose fit term is damped by p_t / (p_t + m).
    """
    rows = np.arange(p.shape[0])
    t = np.argmax(p, axis=1)
    pt = p[rows, t]
    qt = q_rows[rows, t]
    coeff = qt * (pt / (pt + m) - 1.0)
    grad = (p - q_rows) + coeff[:, None] * p
    grad[rows, t] -= coeff
    return grad


def _calibration_optima(q_rows: np.ndarray, m: float) -> tuple[np.ndarray, int, float]:
    """Minimize the expected eps CE over predictions for every row of q.

    Each step divides the gradient by p, so a class moves in proportion to
    its log-probability error rather than to its tiny probability. Returns
    (optima, steps, residual), the residual being the largest row gradient
    norm at the returned optima. The minimum is interior only when q's
    top-two gap exceeds m / (m + 1); below that the solve does not converge.
    """
    h = np.log(np.maximum(q_rows, LOG_FLOOR))
    for steps in range(CALIBRATION_MAX_STEPS + 1):
        p = softmax_rows(h)
        grad = _expected_ce_eps_grad(p, q_rows, m)
        residual = float(np.linalg.norm(grad, axis=1).max())
        if residual <= CALIBRATION_TOL or steps == CALIBRATION_MAX_STEPS:
            return p, steps, residual
        h -= grad / p


def sample_gapped_distribution(n_classes: int, m: float, rng: np.random.Generator) -> np.ndarray:
    """Random label distribution satisfying the top-two gap condition for m.

    The non-winning mass is Dirichlet; the winner is placed a random fraction
    of the way between the gap threshold and 1.
    """
    g0 = m / (m + 1.0)
    rest = rng.dirichlet(np.ones(n_classes - 1))
    threshold = (g0 + rest.max()) / (1.0 + rest.max())
    qt = threshold + (1.0 - threshold) * rng.uniform(0.1, 0.9)
    t = int(rng.integers(n_classes))
    return np.insert((1.0 - qt) * rest, t, qt)


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
    """Numeric optimum vs closed form, plus rank preservation and solver
    convergence, per m."""
    _require_at_least("n_distributions", n_distributions)
    reports = []
    for m in ms:
        rng = make_rng(seed)
        qs = np.stack(
            [sample_gapped_distribution(n_classes, m, rng) for _ in range(n_distributions)]
        )
        optima, steps, residual = _calibration_optima(qs, m)
        targets = np.stack([closed_form_optimum(q, m) for q in qs])
        max_err = float(np.abs(optima - targets).max())
        ranks_ok = all(check_rank_preserving(p, q).all() for p, q in zip(optima, qs))
        reports.append(
            CheckReport(
                name=f"calibration_optimum_m{m:g}",
                passed=max_err < tol and ranks_ok and residual <= CALIBRATION_TOL,
                stats={
                    "max_abs_err": max_err,
                    "tolerance": tol,
                    "rank_preserving": ranks_ok,
                    "n_distributions": n_distributions,
                    "steps": steps,
                    "residual": residual,
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
    _require_at_least("trials", trials)
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
    _require_at_least("trials", trials)
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
    _require_at_least("the number of m values", len(ms), 2)
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


def verify_excess_risk(
    noise_spec: NoiseSpec,
    m: float = 1e4,
    seed: int = 0,
    n_points: int = 200,
    steps: int = 4000,
) -> CheckReport:
    """Train a linear softmax model on clean and on corrupted labels and check
    that the clean-risk gap respects the excess-risk bound.

    bound = 2 * delta + 2 * c * delta / a, where c is the average clean-label
    weight and a the worst-case clean dominance margin of the noise model.
    delta is measured empirically as the spread of symmetric sums over the
    transformed outputs both models actually produce, each trained by
    train_step at full batch without clipping or weight decay. The task is
    tiny (2-D blobs, K <= 4, at most 200 points); one check at the defaults
    takes about 1.1-1.3 s on a 2-CPU host.
    """
    n_classes = noise_spec.n_classes
    if n_classes > 4 or n_points > 200:
        raise ConfigError("the excess-risk check is desk-scale: K <= 4 and n_points <= 200")
    a = clean_dominance_margin(noise_spec)
    if a <= 0:
        raise ConfigError(f"clean dominance margin a = {a:.3g} must be positive")

    data_spec = DatasetSpec(
        source="blobs",
        n_classes=n_classes,
        n_train=n_points,
        n_test=n_classes,
        dim=2,
        separation=8.0,
    )
    train, _ = generate_blobs(data_spec, seed)
    corruption = corrupt_labels(train.labels, noise_spec)
    loss_spec = LossSpec("ce_eps", m=m)
    optim = OptimSpec(lr0=0.2, momentum=0.9, weight_decay=0.0, clip_norm=math.inf)

    trained = []
    for labels in (train.labels, corruption.noisy_labels):
        params = init_params(MlpSpec((data_spec.dim, n_classes), init_seed=seed))
        velocity = zeros_like_params(params)
        ws = Workspace(params.layer_sizes)
        for _ in range(steps):
            train_step(params, velocity, ws, train.features, labels, loss_spec, optim.lr0, optim)
        trained.append(forward(params, train.features)[0])
    logits_clean, logits_noisy = trained
    both = np.vstack(trained)
    sums = symmetric_sums(softmax_rows(both), loss_spec)
    delta = float(sums.max() - sums.min())

    outputs = eps_softmax_rows(both, m)
    max_dist = float(distances_to_one_hot_rows(outputs).max())

    risk_clean = float(batch_loss(logits_clean, train.labels, loss_spec)[0].mean())
    risk_noisy = float(batch_loss(logits_noisy, train.labels, loss_spec)[0].mean())

    c = expected_clean_weight(noise_spec)
    bound = 2.0 * delta + 2.0 * c * delta / a
    gap = risk_noisy - risk_clean
    eps = eps_bound(n_classes, m)
    finite = all(math.isfinite(v) for v in (delta, bound, gap, c, a))
    return CheckReport(
        name=f"excess_risk_{noise_spec.kind}_eta{noise_spec.eta:g}",
        passed=gap <= bound and finite and max_dist <= eps,
        stats={
            "delta": delta,
            "c": c,
            "a": a,
            "bound": bound,
            "risk_gap": gap,
            "max_output_distance": max_dist,
            "eps": eps,
        },
    )


# ---------------------------------------------------------------------------
# Finite-difference gradient oracle
# ---------------------------------------------------------------------------


def fd_gradient(fun, x: np.ndarray) -> np.ndarray:
    """Central finite differences of a scalar function, one coordinate at a
    time, with step 1e-6."""
    h = 1e-6
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


def _draw_case(rng: np.random.Generator):
    """Random (logits, label) with the top-two softmax gap at least 1e-4.

    Near argmax ties the eps losses switch branches, so the analytic gradient
    is one-sided there and finite differences straddle the seam; such draws
    are excluded rather than compared.
    """
    while True:
        n_classes = int(rng.choice([2, 3, 5, 10]))
        logits = rng.uniform(-3.0, 3.0, size=n_classes)
        p = np.sort(softmax_rows(logits[None, :])[0])
        if p[-1] - p[-2] >= 1e-4:
            return logits, int(rng.integers(n_classes))


def gradcheck_losses(
    kinds=LOSS_KINDS,
    cases: int = 1000,
    seed: int = 0,
    tol: float = 1e-5,
) -> list[CheckReport]:
    """Analytic loss gradients vs central finite differences, per kind."""
    _require_at_least("cases", cases)
    reports = []
    for kind in kinds:
        rng = make_rng(seed)
        worst = 0.0
        for _ in range(cases):
            logits, y = _draw_case(rng)
            spec = _random_spec(kind, rng)
            analytic = evaluate_loss(logits, y, spec).grad_logits
            numeric = fd_gradient(lambda x: evaluate_loss(x, y, spec).value, logits)
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

        numeric = fd_gradient(mean_loss, params.flat)
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
    for kind, eta in (("symmetric", 0.4), ("asymmetric_shift", 0.3), ("none", 0.0)):
        noise = NoiseSpec(kind, eta=eta, n_classes=4, seed=seed)
        reports.append(verify_excess_risk(noise, seed=seed))
    return reports
