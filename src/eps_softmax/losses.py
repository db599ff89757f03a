"""Classification losses with analytic logit gradients.

Every loss reads the standard softmax probabilities p = softmax(logits); the
eps kinds read the transformed output component instead, branching on whether
the argmax hit the target class. Gradients treat the argmax index as locally
constant and are taken with respect to the logits, so their components sum to
zero.

Batch entry points vectorize over rows and skip validation (the training loop
is the caller). The per-sample functions validate their inputs and delegate to
the batch path with a single row.

The combined kinds pair an eps loss with mean absolute error computed on the
plain softmax output: the eps part supplies a shrinking-error fit term, the
bounded MAE part supplies noise tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import log_clamped, softmax_rows
from .errors import ConfigError
from .transform import eps_transform_probs

LOSS_KINDS = (
    "ce",
    "fl",
    "mae",
    "ce_eps",
    "fl_eps",
    "ce_eps_mae",
    "fl_eps_mae",
    "gce",
    "sce",
)
EPS_KINDS = ("ce_eps", "fl_eps", "ce_eps_mae", "fl_eps_mae")
FOCAL_KINDS = ("fl", "fl_eps", "fl_eps_mae")
COMBINED_KINDS = ("ce_eps_mae", "fl_eps_mae")


@dataclass(frozen=True)
class LossSpec:
    """Selects a loss family and its hyperparameters; unused fields are ignored.

    m       amplification of the winning probability (eps kinds)
    alpha   weight of the fit term (combined kinds, sce)
    beta    weight of the bounded term (combined kinds, sce)
    gamma   focal down-weighting exponent (fl kinds)
    q       exponent interpolating CE (q -> 0) and MAE/2 (q = 1) for gce
    A       negative stand-in for log 0 in sce's reverse term
    """

    kind: str
    m: float = 0.0
    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 0.5
    q: float = 0.7
    A: float = -4.0

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ConfigError(f"unknown loss kind {self.kind!r}")
        if self.kind in EPS_KINDS and self.m < 0:
            raise ConfigError("m must be nonnegative")
        if self.kind in FOCAL_KINDS and self.gamma < 0:
            raise ConfigError("gamma must be nonnegative")
        if self.kind == "gce" and not 0.0 < self.q <= 1.0:
            raise ConfigError("q must lie in (0, 1]")
        if self.kind == "sce" and self.A >= 0:
            raise ConfigError("A must be negative")
        if self.kind in COMBINED_KINDS or self.kind == "sce":
            if self.alpha < 0 or self.beta < 0 or self.alpha + self.beta == 0:
                raise ConfigError("alpha and beta must be nonnegative, not both zero")


@dataclass(frozen=True)
class LossOutput:
    """A per-sample loss value and its gradient with respect to the logits."""

    value: float
    grad_logits: np.ndarray


def _target_direction(p, rows, labels):
    """e_y - p: the pullback of d/dp_y through the softmax, up to a p_y factor."""
    d = -p
    d[rows, labels] += 1.0
    return d


def _ce_batch(p, py, rows, labels):
    values = -log_clamped(py)
    grads = p.copy()
    grads[rows, labels] -= 1.0
    return values, grads


def _mae_batch(py, d):
    values = 2.0 * (1.0 - py)
    grads = (-2.0 * py)[:, None] * d
    return values, grads


def _eps_scale(p, py, labels, m):
    """Argmax hit mask, transformed target component, and the fit-term damping.

    On argmax-hit rows the gradient shrinks by p_y / (p_y + m); elsewhere it
    matches plain CE because the transform only shifts the target's log by a
    constant.
    """
    on_target = np.argmax(p, axis=1) == labels
    fy = np.where(on_target, py + m, py) / (m + 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(on_target, py / (py + m), 1.0)
    return on_target, fy, scale


def _ce_eps_batch(p, py, labels, m, d):
    _, fy, scale = _eps_scale(p, py, labels, m)
    values = -log_clamped(fy)
    grads = -(scale[:, None] * d)
    return values, grads


def _focal_eps_batch(p, py, labels, m, gamma, d):
    """Focal loss on the transformed target component; m = 0 is plain focal."""
    _, fy, scale = _eps_scale(p, py, labels, m)
    logf = log_clamped(fy)
    one_minus = 1.0 - fy
    mod = one_minus**gamma  # gamma == 0 gives exactly 1
    values = -mod * logf
    coeff = np.zeros_like(py)
    if gamma > 0.0:
        pos = one_minus > 0.0
        coeff[pos] = gamma * one_minus[pos] ** (gamma - 1.0) * logf[pos] * (py[pos] / (m + 1.0))
    coeff -= mod * scale
    grads = coeff[:, None] * d
    return values, grads


def _gce_batch(py, q, d):
    pq = py**q
    values = (1.0 - pq) / q
    grads = (-pq)[:, None] * d
    return values, grads


def _sce_batch(p, py, rows, labels, alpha, beta, A):
    ce_values, ce_grads = _ce_batch(p, py, rows, labels)
    rce_values = -A * (1.0 - py)
    rce_grads = (A * py)[:, None] * _target_direction(p, rows, labels)
    return alpha * ce_values + beta * rce_values, alpha * ce_grads + beta * rce_grads


def batch_loss(logits, labels, spec: LossSpec):
    """Per-sample values (n,) and logit gradients (n, K) for a batch.

    Rows are independent; no validation happens here. Zero-weight terms of the
    combined kinds are skipped entirely so degenerate settings reproduce their
    base loss bit for bit.
    """
    p = softmax_rows(np.asarray(logits, dtype=np.float64))
    labels = np.asarray(labels)
    rows = np.arange(p.shape[0])
    py = p[rows, labels]
    kind = spec.kind
    if kind == "ce":
        return _ce_batch(p, py, rows, labels)
    if kind == "sce":
        return _sce_batch(p, py, rows, labels, spec.alpha, spec.beta, spec.A)
    d = _target_direction(p, rows, labels)
    if kind == "mae":
        return _mae_batch(py, d)
    if kind == "ce_eps":
        return _ce_eps_batch(p, py, labels, spec.m, d)
    if kind == "fl":
        return _focal_eps_batch(p, py, labels, 0.0, spec.gamma, d)
    if kind == "fl_eps":
        return _focal_eps_batch(p, py, labels, spec.m, spec.gamma, d)
    if kind == "gce":
        return _gce_batch(py, spec.q, d)
    # combined kinds: both terms share d; the scalar 0.0 start keeps the sum
    # equal to 0.0 + beta * MAE, signed zeros included, when alpha is 0
    values, grads = 0.0, 0.0
    if spec.alpha != 0.0:
        if kind == "ce_eps_mae":
            bv, bg = _ce_eps_batch(p, py, labels, spec.m, d)
        else:
            bv, bg = _focal_eps_batch(p, py, labels, spec.m, spec.gamma, d)
        values = spec.alpha * bv
        grads = spec.alpha * bg
    if spec.beta != 0.0:
        mv, mg = _mae_batch(py, d)
        values += spec.beta * mv
        grads += spec.beta * mg
    return values, grads


def evaluate_loss(logits, y: int, spec: LossSpec) -> LossOutput:
    """Validated single-sample loss evaluation."""
    x = np.asarray(logits, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-D logit vector, got shape {x.shape}")
    if x.size < 2:
        raise ValueError("need at least 2 classes")
    if not np.isfinite(x).all():
        raise ValueError("logits must be finite")
    if not 0 <= y < x.size:
        raise IndexError(f"label {y} out of range for {x.size} classes")
    values, grads = batch_loss(x[None, :], np.array([y]), spec)
    return LossOutput(float(values[0]), grads[0])


def loss_ce(logits, y: int) -> LossOutput:
    """Cross entropy: -log p_y."""
    return evaluate_loss(logits, y, LossSpec("ce"))


def loss_mae(logits, y: int) -> LossOutput:
    """Mean absolute error on the simplex: 2 (1 - p_y), bounded and symmetric."""
    return evaluate_loss(logits, y, LossSpec("mae"))


def loss_ce_eps(logits, y: int, m: float) -> LossOutput:
    """Cross entropy on the amplified output.

    When the argmax already equals the target, the gradient is plain CE damped
    by p_y / (p_y + m), so confident correct fits stop moving as m grows; when
    it does not, the gradient equals plain CE and keeps pulling.
    """
    return evaluate_loss(logits, y, LossSpec("ce_eps", m=m))


def loss_fl(logits, y: int, gamma: float) -> LossOutput:
    """Focal loss: -(1 - p_y)^gamma log p_y; gamma = 0 recovers CE."""
    return evaluate_loss(logits, y, LossSpec("fl", gamma=gamma))


def loss_fl_eps(logits, y: int, m: float, gamma: float) -> LossOutput:
    """Focal loss on the amplified output; gamma = 0 recovers loss_ce_eps."""
    return evaluate_loss(logits, y, LossSpec("fl_eps", m=m, gamma=gamma))


def loss_gce(logits, y: int, q: float) -> LossOutput:
    """Generalized cross entropy: (1 - p_y^q) / q."""
    return evaluate_loss(logits, y, LossSpec("gce", q=q))


def loss_sce(logits, y: int, alpha: float, beta: float, A: float) -> LossOutput:
    """Symmetric cross entropy: alpha * CE + beta * (-A) (1 - p_y)."""
    return evaluate_loss(logits, y, LossSpec("sce", alpha=alpha, beta=beta, A=A))


def loss_combined(logits, y: int, spec: LossSpec) -> LossOutput:
    """alpha * (eps loss) + beta * MAE, the noise-tolerant workhorse."""
    if spec.kind not in COMBINED_KINDS:
        raise ConfigError(f"loss_combined expects a combined kind, got {spec.kind!r}")
    return evaluate_loss(logits, y, spec)


# ---------------------------------------------------------------------------
# Losses as functions on the simplex, used by the symmetric-sum analysis.
# ---------------------------------------------------------------------------


def ce_on_probs(p, k: int) -> float:
    return -log_clamped(float(np.asarray(p, dtype=np.float64)[k]))


def mae_on_probs(p, k: int) -> float:
    return 2.0 * (1.0 - float(np.asarray(p, dtype=np.float64)[k]))


def ce_eps_on_probs(p, k: int, m: float) -> float:
    """CE read off the amplified prediction: -log of the transformed component."""
    u = eps_transform_probs(p, m)
    return -log_clamped(float(u[k]))


def symmetric_sum(loss_on_probs: Callable[[np.ndarray, int], float], p) -> float:
    """Sum of the loss over every possible target class at a fixed prediction.

    Losses whose symmetric sum is constant (MAE gives 2 (K - 1) for every p)
    contribute nothing to differences of this quantity, which is what makes
    them noise-tolerant.
    """
    arr = np.asarray(p, dtype=np.float64)
    return float(sum(loss_on_probs(arr, k) for k in range(arr.size)))


def ce_eps_symmetric_sums(p_rows: np.ndarray, m: float) -> np.ndarray:
    """Row-wise symmetric sum of the eps CE value, vectorized for sweeps."""
    t = np.argmax(p_rows, axis=1)
    u = p_rows / (m + 1.0)
    rows = np.arange(p_rows.shape[0])
    u[rows, t] = (p_rows[rows, t] + m) / (m + 1.0)
    return -log_clamped(u).sum(axis=1)
