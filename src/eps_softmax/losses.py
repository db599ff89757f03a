"""Classification losses as one table of terms with one gradient pullback.

Every kind is a function of the label's probability p_y = softmax(logits)_y
and, for the eps kinds, of whether the argmax hit the label. So every logit
gradient has the form c · (e_y − p): the chain rule through the softmax gives
dp_y/dlogits = p_y (e_y − p), and the argmax index is treated as locally
constant. Each term reads one view of the label's output component:

    term(v, spec) -> (value, coefficient)

where v = (f, slope, damp) is the component f with the two chain factors of
its gradient, df = slope · (e_y − p) and d log f = damp · (e_y − p). The plain
view is (p_y, p_y, 1). The amplified view is the eps-softmax component
f_y = (p_y + m [hit]) / (m + 1), with slope p_y / (m + 1), and damp
p_y / (p_y + m) on argmax-hit rows and 1 elsewhere. A term g(f) writes its
coefficient as g'(f) · slope or as f g'(f) · damp, so it is right on either
view. Each table entry names the view its term reads: ce_eps is the log term
on the amplified view, fl_eps the focal term, and an eps variant of any term
is one row. The shared pullback turns each coefficient into
coefficient · (e_y − p).

The terms are elementwise in the view, so batch_loss (one label per row),
evaluate_loss (one validated sample) and symmetric_sums (every label of every
row, for the symmetric-sum analysis) all evaluate the same rows. A new loss
is one row; gradcheck then covers it through LOSS_KINDS.

batch_loss works class-major: it transposes the logits once and runs the
softmax, the label gather, the argmax-hit mask and the direction e_y - p on
(K, n) arrays, so its reductions over the K classes are elementwise over the
batch. Each operation rounds as it did on rows, so the values and the
(n, K) gradients it returns are the row-major form's bytes.

Weighted terms accumulate in table order: zero weights are skipped, the first
term is assigned and later ones are added to a 0.0 start, so a combined kind
with beta = 0 reproduces its fit term bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .core import LOG_FLOOR, check_labels, check_logit_vector, softmax_cols
from .errors import ConfigError, check_fields
from .transform import amplify, argmax_mask


class _View(NamedTuple):
    """What a term reads: the component f, and slope and damp with
    df = slope · (e_y - p) and d log f = damp · (e_y - p)."""

    f: np.ndarray
    slope: np.ndarray
    damp: np.ndarray | float


def _log_floor(f):
    """log max(f, LOG_FLOOR), unchecked: f is a probability the table computed."""
    return np.log(np.maximum(f, LOG_FLOOR))


def _log_term(v, spec):
    """-log f: CE, or eps CE on the amplified view."""
    return -_log_floor(v.f), -v.damp


def _focal_term(v, spec):
    """-(1 - f)^gamma log f; gamma = 0 gives the log term."""
    logf = _log_floor(v.f)
    one_minus = 1.0 - v.f
    mod = one_minus**spec.gamma  # gamma == 0 gives exactly 1
    coeff = np.zeros_like(v.f)
    if spec.gamma > 0.0:
        pos = one_minus > 0.0
        coeff[pos] = spec.gamma * one_minus[pos] ** (spec.gamma - 1.0) * logf[pos] * v.slope[pos]
    coeff -= mod * v.damp
    return -mod * logf, coeff


def _mae_term(v, spec):
    """2 (1 - f), bounded and symmetric on the plain view."""
    return 2.0 * (1.0 - v.f), -2.0 * v.slope


def _gce_term(v, spec):
    """(1 - f^q) / q."""
    fq = v.f**spec.q
    return (1.0 - fq) / spec.q, -fq * v.damp


def _rce_term(v, spec):
    """sce's reverse term -A (1 - f)."""
    return -spec.A * (1.0 - v.f), spec.A * v.slope


# kind -> ((weight field or None, reads the amplified view, term), ...); sce
# lists its reverse term first so that with beta = 0 the CE value is added to
# the 0.0 start, as the two-term sum always gave (+0.0 at p_y = 1)
_TABLE = {
    "ce": ((None, False, _log_term),),
    "fl": ((None, False, _focal_term),),
    "mae": ((None, False, _mae_term),),
    "ce_eps": ((None, True, _log_term),),
    "fl_eps": ((None, True, _focal_term),),
    "ce_eps_mae": (("alpha", True, _log_term), ("beta", False, _mae_term)),
    "fl_eps_mae": (("alpha", True, _focal_term), ("beta", False, _mae_term)),
    "gce": ((None, False, _gce_term),),
    "sce": (("beta", False, _rce_term), ("alpha", False, _log_term)),
}
LOSS_KINDS = tuple(_TABLE)
_TERM_FIELD = {_focal_term: "gamma", _gce_term: "q", _rce_term: "A"}


@dataclass(frozen=True)
class LossSpec:
    """Selects a loss family and its hyperparameters; a field that its kind's
    table row does not read is checked, then set to its default.

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
        check_fields(self)
        if self.kind not in _TABLE:
            raise ConfigError(f"unknown loss kind {self.kind!r}")
        reads = set()
        for field, amplified, term in _TABLE[self.kind]:
            reads |= {field, "m" if amplified else None, _TERM_FIELD.get(term)}
        for f in fields(self)[1:]:
            if f.name not in reads:
                object.__setattr__(self, f.name, f.default)  # specs are frozen
        # every default passes these checks
        if self.m < 0:
            raise ConfigError("m must be nonnegative")
        if self.gamma < 0:
            raise ConfigError("gamma must be nonnegative")
        if not 0.0 < self.q <= 1.0:
            raise ConfigError("q must lie in (0, 1]")
        if self.A >= 0:
            raise ConfigError("A must be negative")
        if self.alpha < 0 or self.beta < 0 or self.alpha + self.beta == 0:
            raise ConfigError("alpha and beta must be nonnegative, not both zero")


@dataclass(frozen=True)
class LossOutput:
    """A per-sample loss value and its gradient with respect to the logits."""

    value: float
    grad_logits: np.ndarray


def _amplified_view(py, hit, m: float) -> _View:
    damp = np.divide(py, py + m, out=np.ones_like(py), where=hit)
    return _View(amplify(py, hit, m), py / (m + 1.0), damp)


def _accumulate(total, part, weight: float, first: bool):
    if weight != 1.0:
        part = weight * part
    if first:
        return part
    total += part
    return total


def _weighted_sum(py, hit_mask, spec: LossSpec, direction=None):
    """Values and, given direction = e_y - p as a class-major (K, n) array,
    the class-major logit gradients: each term's coefficient is pulled back as
    coefficient · (e_y - p) before weighting. hit_mask() gives the argmax-hit
    mask; it is called, and the amplified view built, only when a term with a
    nonzero weight reads that view."""
    plain, amp = _View(py, py, 1.0), None
    values = grads = 0.0
    for i, (field, amplified, term) in enumerate(_TABLE[spec.kind]):
        weight = 1.0 if field is None else getattr(spec, field)
        if weight == 0.0:
            continue
        if amplified and amp is None:
            amp = _amplified_view(py, hit_mask(), spec.m)
        value, coeff = term(amp if amplified else plain, spec)
        values = _accumulate(values, value, weight, i == 0)
        if direction is not None:
            grad = coeff * direction
            grads = _accumulate(grads, grad, weight, i == 0)
    return values, grads


def batch_loss(logits, labels, spec: LossSpec):
    """Per-sample values (n,) and logit gradients, a C-contiguous (n, K)
    array, for a batch.

    Rows are independent; no validation happens here.
    """
    p = softmax_cols(np.asarray(logits, dtype=np.float64).T)
    labels = np.asarray(labels)
    n = p.shape[1]
    # flat positions of the label entries (labels[j], j) in the (K, n) arrays
    at_label = np.multiply(labels, n, dtype=np.intp)
    at_label += np.arange(n)
    py = p.take(at_label)
    direction = -p
    direction.ravel()[at_label] += 1.0
    values, grads = _weighted_sum(py, lambda: np.argmax(p, axis=0) == labels, spec, direction)
    return values, np.ascontiguousarray(grads.T)


def evaluate_loss(logits, y: int, spec: LossSpec) -> LossOutput:
    """Validated single-sample loss evaluation."""
    x = check_logit_vector(logits)
    labels = check_labels([y], x.size)
    with np.errstate(over="ignore"):  # finite - finite may still overflow to -inf
        values, grads = batch_loss(x[None, :], labels, spec)
    return LossOutput(float(values[0]), grads[0])


def symmetric_sums(p_rows, spec: LossSpec) -> np.ndarray:
    """Row-wise sum of the loss value over every possible label at prediction p.

    Losses whose symmetric sum is constant (MAE gives 2 (K - 1) for every p)
    contribute nothing to differences of this quantity, which is what makes
    them noise-tolerant.
    """
    p = np.asarray(p_rows, dtype=np.float64)
    return _weighted_sum(p, lambda: argmax_mask(p), spec)[0].sum(axis=1)
