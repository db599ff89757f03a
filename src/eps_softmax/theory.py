"""Numeric verification of the transform's guarantees.

Each check here corresponds to a property the loss family is supposed to
have: the one-hot approximation bound of the transform, the closed form of
the risk-minimizing prediction under label uncertainty, the cancellation of
symmetric loss terms, the shrinking symmetric-sum spread that drives noise
tolerance (for ce_eps the fall comes from LOG_FLOOR, not the transform:
without the floor delta_sweep's deltas are 81.16-81.58 at m = 1 to 1e3), and
the excess-risk bound at the noisy population minimizer. Verifiers return
machine-readable CheckReport records so the CLI can print one line per check.
The finite-difference helpers double as an independent oracle for every
analytic gradient in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import LOG_FLOOR, check_prob_vector, make_rng, softmax_rows
from .errors import ConfigError
from .losses import LOSS_KINDS, LossSpec, batch_loss, evaluate_loss, symmetric_sums
from .mlp import MlpSpec, Workspace, backward, forward, init_params
from .noise import NoiseSpec, clean_dominance_margin, expected_clean_weight, transition_matrix
from .transform import amplify, argmax_mask, check_m, distances_to_one_hot_rows, eps_bound


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


#: The (K, m) grid of the bound fuzzing.
BOUND_GRID_KS = (2, 10, 100)
BOUND_GRID_MS = (0.0, 1.0, 10.0, 100.0)


def one_hot_bound_grid(trials: int = 100_000, seed: int = 0) -> list[CheckReport]:
    """Fuzz the bound: no transformed output may sit farther than eps(K, m)
    from the one-hot set, for logits drawn uniformly from [-10, 10]. Each K
    draws and softmaxes its trials once, in chunks of 20,000 rows, and every m
    amplifies the same probabilities. One report per (K, m), K-major."""
    _require_at_least("trials", trials)
    reports = []
    for k in BOUND_GRID_KS:
        rng = make_rng(seed)
        bounds = [eps_bound(k, m) for m in BOUND_GRID_MS]
        worst = [0.0] * len(BOUND_GRID_MS)
        violations = [0] * len(BOUND_GRID_MS)
        for start in range(0, trials, 20_000):
            p = softmax_rows(rng.uniform(-10.0, 10.0, size=(min(20_000, trials - start), k)))
            top = argmax_mask(p)
            for i, m in enumerate(BOUND_GRID_MS):
                dist = distances_to_one_hot_rows(amplify(p, top, m))
                # np.maximum and "not <=" count a NaN distance, where max() and > drop it
                worst[i] = float(np.maximum(worst[i], dist.max()))
                violations[i] += int(np.count_nonzero(~(dist <= bounds[i])))
        for m, bound, w, v in zip(BOUND_GRID_MS, bounds, worst, violations):
            reports.append(
                CheckReport(
                    name=f"one_hot_bound_K{k}_m{m:g}",
                    passed=v == 0,
                    stats={"max_observed": w, "bound": bound, "violations": v, "trials": trials},
                )
            )
    return reports


# ---------------------------------------------------------------------------
# Risk-minimizing prediction under label uncertainty
# ---------------------------------------------------------------------------


def closed_form_optimum(q, m: float) -> np.ndarray:
    """Softmax probabilities minimizing the expected eps CE under label
    distribution q: the winner gives up m worth of mass, everyone else is
    scaled up by m + 1. Raises ConfigError for a negative or non-finite m, and
    ValueError when q's top-two gap is below m / (m + 1): no minimum then."""
    m = check_m(m)
    arr = check_prob_vector(q)
    second, top = np.partition(arr, -2)[-2:]
    if top - second < m / (m + 1.0):
        raise ValueError(f"q's top-two gap {float(top - second)} is below m / (m + 1) at m = {m}")
    t = int(np.argmax(arr))
    p = arr * (m + 1.0)
    p[t] = arr[t] * (1.0 + m) - m
    return p


# The calibration solver stops once every row's gradient norm is at most
# CALIBRATION_TOL; a solve still above it after CALIBRATION_MAX_STEPS steps
# has not converged, and its check fails. So does one whose optima sit
# CALIBRATION_MAX_ERR or farther from the closed form.
CALIBRATION_MAX_STEPS = 1000
CALIBRATION_TOL = 1e-10
CALIBRATION_MAX_ERR = 1e-3


def _calibration_optima(q_rows: np.ndarray, m: float) -> tuple[np.ndarray, int, float]:
    """Minimize the expected eps CE over predictions for every row of q.

    The expected gradient is the q-weighted sum, over the K labels, of the
    loss table's ce_eps logit gradients, taken in one batch_loss call over the
    K stacked copies of each row. Each step divides it by p, and the winner's
    entry, whose own-label gradient amplification scales by p / (p + m), by
    p * p / (p + m), so every class moves by its log-probability error at any
    m; a step is clipped to 1 nat. Returns (optima, steps, residual), the
    residual being the largest row gradient norm at the returned optima. The
    minimum is interior only when q's top-two gap exceeds m / (m + 1); below
    that the solve does not converge.
    """
    n, k = q_rows.shape
    spec = LossSpec("ce_eps", m=m)
    labels = np.tile(np.arange(k), n)
    h = np.log(np.maximum(q_rows, LOG_FLOOR))
    for steps in range(CALIBRATION_MAX_STEPS + 1):
        p = softmax_rows(h)
        _, grads = batch_loss(np.repeat(h, k, axis=0), labels, spec)
        grad = np.einsum("nj,njk->nk", q_rows, grads.reshape(n, k, k))
        residual = float(np.linalg.norm(grad, axis=1).max())
        if residual <= CALIBRATION_TOL or steps == CALIBRATION_MAX_STEPS:
            return p, steps, residual
        h -= np.clip(grad / np.where(argmax_mask(p), p * p / (p + m), p), -1.0, 1.0)


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


def check_rank_preserving(f, q) -> bool:
    """Does f keep q's strict order: q_i > q_j implies f_i > f_j for every
    pair? Ties in q impose no constraint."""
    fv = np.asarray(f, dtype=np.float64)
    qv = np.asarray(q, dtype=np.float64)
    if fv.shape != qv.shape:
        raise ValueError(f"shape mismatch: {fv.shape} vs {qv.shape}")
    return bool((fv[:, None] > fv)[qv[:, None] > qv].all())


def verify_calibration(
    n_classes: int = 4, ms=(1.0, 10.0, 100.0, 1e4), n_distributions: int = 100, seed: int = 0
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
        ranks_ok = all(check_rank_preserving(p, q) for p, q in zip(optima, qs))
        reports.append(
            CheckReport(
                name=f"calibration_optimum_m{m:g}",
                passed=max_err < CALIBRATION_MAX_ERR and ranks_ok and residual <= CALIBRATION_TOL,
                stats={
                    "max_abs_err": max_err,
                    "tolerance": CALIBRATION_MAX_ERR,
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


#: The combined loss whose bounded term must cancel, and the largest
#: discrepancy the cancellation check allows.
CANCELLATION_SPEC = LossSpec("ce_eps_mae", m=10.0, alpha=0.5, beta=2.0)
CANCELLATION_TOL = 1e-9


def verify_symmetric_term_cancellation(
    n_classes: int = 10, trials: int = 10_000, seed: int = 0
) -> CheckReport:
    """Adding a constant-symmetric-sum loss (MAE) to the eps CE must not move
    symmetric-sum differences: the MAE contributions cancel pair by pair.
    Both sides are the loss table's symmetric sums, so a ce_eps_mae row whose
    bounded term breaks this fails here."""
    _require_at_least("trials", trials)
    rng = make_rng(seed)
    p1 = rng.dirichlet(np.ones(n_classes), size=trials)
    p2 = rng.dirichlet(np.ones(n_classes), size=trials)
    combined = CANCELLATION_SPEC
    ce_eps = LossSpec("ce_eps", m=combined.m)
    lhs = symmetric_sums(p1, combined) - symmetric_sums(p2, combined)
    rhs = combined.alpha * (symmetric_sums(p1, ce_eps) - symmetric_sums(p2, ce_eps))
    worst = float(np.abs(lhs - rhs).max())
    return CheckReport(
        name=f"symmetric_term_cancellation_K{n_classes}",
        passed=worst <= CANCELLATION_TOL,
        stats={"max_abs_discrepancy": worst, "tolerance": CANCELLATION_TOL, "trials": trials},
    )


def delta_sweep(
    n_classes: int = 10,
    ms=(1.0, 10.0, 100.0, 1000.0),
    trials: int = 1000,
    seed: int = 0,
) -> CheckReport:
    """Check that the measured delta, the empirical delta of the excess-risk
    bound, strictly decreases along increasing m. delta at m is the largest
    difference of the ce_eps symmetric sums over pairs of softmax predictions
    from uniform logits, drawn and softmaxed once for every m."""
    _require_at_least("the number of m values", len(ms), 2)
    _require_at_least("trials", trials)
    rng = make_rng(seed)
    p1 = softmax_rows(rng.uniform(-10.0, 10.0, size=(trials, n_classes)))
    p2 = softmax_rows(rng.uniform(-10.0, 10.0, size=(trials, n_classes)))
    deltas = []
    for m in ms:
        ce_eps = LossSpec("ce_eps", m=m)
        deltas.append(float(np.abs(symmetric_sums(p1, ce_eps) - symmetric_sums(p2, ce_eps)).max()))
    decreasing = all(b < a for a, b in zip(deltas, deltas[1:]))
    return CheckReport(
        name=f"delta_shrinks_K{n_classes}",
        passed=decreasing,
        stats={"ms": list(ms), "deltas": deltas, "trials": trials},
    )


# ---------------------------------------------------------------------------
# Excess risk at the noisy population minimizer
# ---------------------------------------------------------------------------


#: How close, relative to its closed-form limit, each excess-risk gap must come.
EXCESS_RISK_REL_TOL = 1e-2


def _minimizer_family(spec: NoiseSpec) -> tuple[np.ndarray, float]:
    """Class-0 predictions that approach the argmax tie where the noisy
    minimizer lies, and s*, the winner's probability at that tie. Under shift
    noise the winner a leads the shift's target b = a (1 - d), which leads
    K - 2 equal others b u; a and b tie at 1/2 as d and u fall. Otherwise the
    winner s = 1/K + (1 - 1/K) d leads K - 1 equal others, which it ties at
    1/K (s* = 1 without noise). d and u crowd both ends of (0, 1), so no row
    holds an exact zero or an argmax tie."""
    k, ends = spec.n_classes, np.geomspace(1e-6, 1e-2, 64, endpoint=False)
    d = np.concatenate([ends, np.linspace(1e-2, 0.99, 64, endpoint=False), 1.0 - ends[::-1]])
    if spec.kind == "asymmetric_shift" and k > 2:
        d, u = (g.ravel() for g in np.meshgrid(d, d))
        a = 1.0 / (1.0 + (1.0 - d) * (1.0 + (k - 2) * u))
        lead, rest, s_star = [a, a * (1.0 - d)], a * (1.0 - d) * u, 0.5
    else:
        s = 1.0 / k + (1.0 - 1.0 / k) * d
        lead, rest, s_star = [s], (1.0 - s) / (k - 1), 1.0 if spec.kind == "none" else 1.0 / k
    return np.column_stack([*lead, np.repeat(rest[:, None], k - len(lead), axis=1)]), s_star


def _gap_at_noisy_argmin(logits: np.ndarray, noisy_row: np.ndarray, m: float) -> float:
    """The clean ce_eps risk, less its least value, at the noisy risk's argmin;
    both risks weigh the batch_loss value of every label."""
    n, k = logits.shape
    labels = np.tile(np.arange(k), n)
    values = batch_loss(np.repeat(logits, k, axis=0), labels, LossSpec("ce_eps", m=m))[0]
    values = values.reshape(n, k)
    return float(values[np.argmin(values @ noisy_row), 0] - values[:, 0].min())


def verify_excess_risk(noise_specs, m: float = 1e4) -> list[CheckReport]:
    """Check the ce_eps excess-risk bound at the noisy population minimizer;
    one report per spec, in order. A class-0 sample's noisy label distribution
    is row 0 of the spec's transition matrix. A line passes when the clean gap
    at the noisy argmin over _minimizer_family is within EXCESS_RISK_REL_TOL of
    its limit -log((s* + m) / (m + 1)) and at most bound = 2 delta (1 + c / a),
    and every amplified prediction lies within eps(K, m) of the one-hot set.
    delta is the spread of the family's symmetric sums, c the average
    clean-label weight and a the clean dominance margin; the gap at m = 0,
    where ce_eps is ce, is a control. The specs must share one K <= 4."""
    _require_at_least("the number of noise specs", len(noise_specs))
    class_counts = sorted({spec.n_classes for spec in noise_specs})
    if len(class_counts) > 1:
        raise ConfigError(f"the noise specs must share one class count, got {class_counts}")
    if class_counts[0] > 4:
        raise ConfigError("the excess-risk check is desk-scale: K <= 4")
    eps = eps_bound(class_counts[0], m)
    reports = []
    for noise_spec in noise_specs:
        rows, s_star = _minimizer_family(noise_spec)
        logits, noisy_row = np.log(rows), transition_matrix(noise_spec)[0]
        gap = _gap_at_noisy_argmin(logits, noisy_row, m)
        limit = math.log((m + 1.0) / (s_star + m))
        p = softmax_rows(logits)
        delta = float(np.ptp(symmetric_sums(p, LossSpec("ce_eps", m=m))))
        max_dist = float(distances_to_one_hot_rows(amplify(p, argmax_mask(p), m)).max())
        c, a = expected_clean_weight(noise_spec), clean_dominance_margin(noise_spec)
        bound = 2.0 * delta * (1.0 + c / a)
        # a NaN or infinite gap is never near its finite limit
        near = abs(gap - limit) <= EXCESS_RISK_REL_TOL * limit
        reports.append(
            CheckReport(
                name=f"excess_risk_{noise_spec.kind}_eta{noise_spec.eta:g}",
                passed=near and gap <= bound and max_dist <= eps,
                stats={"risk_gap": gap, "limit": limit, "tolerance": EXCESS_RISK_REL_TOL,
                       "risk_gap_m0": _gap_at_noisy_argmin(logits, noisy_row, 0.0),
                       "delta": delta, "c": c, "a": a, "bound": bound,
                       "max_output_distance": max_dist, "eps": eps},
            )
        )
    return reports


# ---------------------------------------------------------------------------
# Finite-difference gradient oracle
# ---------------------------------------------------------------------------


def fd_gradient(fun, x: np.ndarray) -> np.ndarray:
    """Central finite differences with step 1e-6 of a function of a stack of
    points: fun maps shape (n, *x.shape) to (n,). The 2 x.size perturbed points
    x + h e_i, then x - h e_i, go to fun in one call."""
    h = 1e-6
    x = np.asarray(x, dtype=np.float64)
    step = h * np.eye(x.size).reshape(x.size, *x.shape)
    values = fun(np.concatenate([x + step, x - step]))
    return ((values[: x.size] - values[x.size :]) / (2.0 * h)).reshape(x.shape)


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


#: Largest relative error gradcheck_losses and gradcheck_mlp allow.
GRADCHECK_LOSS_TOL = 1e-5
GRADCHECK_MLP_TOL = 1e-4


def gradcheck_losses(kinds=LOSS_KINDS, cases: int = 1000, seed: int = 0) -> list[CheckReport]:
    """Analytic loss gradients (evaluate_loss) vs central finite differences
    (one batch_loss call over each case's 2K perturbed rows), per kind."""
    _require_at_least("cases", cases)
    reports = []
    for kind in kinds:
        rng = make_rng(seed)
        errors = []
        for _ in range(cases):
            logits, y = _draw_case(rng)
            spec = _random_spec(kind, rng)
            analytic = evaluate_loss(logits, y, spec).grad_logits
            numeric = fd_gradient(lambda xs: batch_loss(xs, np.full(len(xs), y), spec)[0], logits)
            errors.append(_relative_error(analytic, numeric))
        worst = float(np.max(errors))  # NaN if any case is NaN, which max() would drop
        reports.append(
            CheckReport(
                name=f"gradcheck_loss_{kind}",
                passed=worst < GRADCHECK_LOSS_TOL,
                stats={"max_rel_err": worst, "tolerance": GRADCHECK_LOSS_TOL, "cases": cases},
            )
        )
    return reports


def gradcheck_mlp(kinds=LOSS_KINDS, seed: int = 0) -> list[CheckReport]:
    """End-to-end parameter gradients of mean batch loss vs finite differences."""
    rng = make_rng(seed)
    spec_net = MlpSpec((4, 8, 3), init_seed=seed)
    x = rng.standard_normal((5, 4))
    y = rng.integers(0, 3, size=5)
    ws = Workspace(spec_net.layer_sizes, len(x))
    reports = []
    for kind in kinds:
        loss_spec = _random_spec(kind, make_rng(seed + 1))
        params = init_params(spec_net)
        _, grad_logits = batch_loss(forward(params, x, ws), y, loss_spec)
        analytic = backward(ws, grad_logits / y.size).flat  # ws.grads: the probes leave it be

        probe = init_params(spec_net)

        def mean_loss(flat: np.ndarray) -> float:
            probe.flat[...] = flat
            values, _ = batch_loss(forward(probe, x, ws), y, loss_spec)
            return float(values.mean())

        numeric = fd_gradient(lambda flats: np.array([mean_loss(f) for f in flats]), params.flat)
        err = _relative_error(analytic, numeric)
        reports.append(
            CheckReport(
                name=f"gradcheck_mlp_{kind}",
                passed=err < GRADCHECK_MLP_TOL,
                stats={"max_rel_err": err, "tolerance": GRADCHECK_MLP_TOL},
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
    noises = [
        NoiseSpec(kind, eta=eta, n_classes=4, seed=seed)
        for kind, eta in (("symmetric", 0.4), ("asymmetric_shift", 0.3), ("none", 0.0))
    ]
    reports += verify_excess_risk(noises)
    return reports
