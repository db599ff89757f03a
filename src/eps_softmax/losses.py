"""Classification losses as one table of terms with one gradient pullback.

Every kind is a function of the label's probability p_y = softmax(logits)_y
and, for the eps kinds, of whether the argmax hit the label. So every logit
gradient has the form c · (e_y − p): the chain rule through the softmax gives
dp_y/dlogits = p_y (e_y − p), and the argmax index is treated as locally
constant. The table below maps each kind to weighted terms:

    term(p_y, amp, spec) -> (value, coefficient)

where amp carries the output component the term reads. For the eps kinds it
is the amplified component f_y = (p_y + m [hit]) / (m + 1), whose log has
slope p_y / (p_y + m) in log p_y on hit rows (the damping) and 1 elsewhere;
for the other kinds f_y = p_y and the damping is 1. So ce_eps is the CE term
read through the amplified output, and fl_eps the focal term. The shared
pullback turns each coefficient into coefficient · (e_y − p).

The table's terms are elementwise in p_y, so batch_loss (one label per row),
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

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import LOG_FLOOR, check_logit_vector, softmax_cols
from .errors import ConfigError
from .transform import amplify, argmax_mask


class _Amplified(NamedTuple):
    """What a term reads besides p_y: the amplified label component f_y, its
    damping p_y / (p_y + m) on argmax-hit rows (1 elsewhere), and m. The plain
    kinds read f_y = p_y, damping 1 and m = 0."""

    fy: np.ndarray
    damp: np.ndarray | float
    m: float


def _log_floor(f):
    """log max(f, LOG_FLOOR), unchecked: f is a probability the table computed."""
    return np.log(np.maximum(f, LOG_FLOOR))


def _log_term(py, amp, spec):
    """-log f_y: CE, or eps CE on the amplified component."""
    return -_log_floor(amp.fy), -amp.damp


def _focal_term(py, amp, spec):
    """-(1 - f_y)^gamma log f_y; gamma = 0 gives the log term."""
    logf = _log_floor(amp.fy)
    one_minus = 1.0 - amp.fy
    mod = one_minus**spec.gamma  # gamma == 0 gives exactly 1
    coeff = np.zeros_like(py)
    if spec.gamma > 0.0:
        pos = one_minus > 0.0
        coeff[pos] = (
            spec.gamma
            * one_minus[pos] ** (spec.gamma - 1.0)
            * logf[pos]
            * (py[pos] / (amp.m + 1.0))
        )
    coeff -= mod * amp.damp
    return -mod * logf, coeff


def _mae_term(py, amp, spec):
    """2 (1 - p_y) on the plain softmax output, bounded and symmetric."""
    return 2.0 * (1.0 - py), -2.0 * py


def _gce_term(py, amp, spec):
    """(1 - p_y^q) / q."""
    pq = py**spec.q
    return (1.0 - pq) / spec.q, -pq


def _rce_term(py, amp, spec):
    """sce's reverse term -A (1 - p_y)."""
    return -spec.A * (1.0 - py), spec.A * py


# kind -> (reads the amplified output, ((weight field or None, term), ...));
# sce lists its reverse term first so that with beta = 0 the CE value is
# added to the 0.0 start, as the two-term sum always gave (+0.0 at p_y = 1)
_TABLE = {
    "ce": (False, ((None, _log_term),)),
    "fl": (False, ((None, _focal_term),)),
    "mae": (False, ((None, _mae_term),)),
    "ce_eps": (True, ((None, _log_term),)),
    "fl_eps": (True, ((None, _focal_term),)),
    "ce_eps_mae": (True, (("alpha", _log_term), ("beta", _mae_term))),
    "fl_eps_mae": (True, (("alpha", _focal_term), ("beta", _mae_term))),
    "gce": (False, ((None, _gce_term),)),
    "sce": (False, (("beta", _rce_term), ("alpha", _log_term))),
}
LOSS_KINDS = tuple(_TABLE)


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
        if self.kind not in _TABLE:
            raise ConfigError(f"unknown loss kind {self.kind!r}")
        amplified, terms = _TABLE[self.kind]
        reads = {term for _, term in terms}
        if amplified and self.m < 0:
            raise ConfigError("m must be nonnegative")
        if _focal_term in reads and self.gamma < 0:
            raise ConfigError("gamma must be nonnegative")
        if _gce_term in reads and not 0.0 < self.q <= 1.0:
            raise ConfigError("q must lie in (0, 1]")
        if _rce_term in reads and self.A >= 0:
            raise ConfigError("A must be negative")
        if terms[0][0] is not None:
            if self.alpha < 0 or self.beta < 0 or self.alpha + self.beta == 0:
                raise ConfigError("alpha and beta must be nonnegative, not both zero")


@dataclass(frozen=True)
class LossOutput:
    """A per-sample loss value and its gradient with respect to the logits."""

    value: float
    grad_logits: np.ndarray


def _amplified(py, hit_mask, spec: LossSpec) -> _Amplified:
    """The kind's view of p_y. hit_mask() gives the argmax-hit mask; it is
    called, and f_y and the damping computed, only for the kinds that read them."""
    if not _TABLE[spec.kind][0]:
        return _Amplified(py, 1.0, 0.0)
    m = spec.m
    hit = hit_mask()
    damp = np.divide(py, py + m, out=np.ones_like(py), where=hit)
    return _Amplified(amplify(py, hit, m), damp, m)


def _accumulate(total, part, weight: float, first: bool):
    if weight != 1.0:
        part = weight * part
    if first:
        return part
    total += part
    return total


def _weighted_sum(py, amp, spec: LossSpec, direction=None):
    """Values and, given direction = e_y - p as a class-major (K, n) array,
    the class-major logit gradients: each term's coefficient is pulled back as
    coefficient · (e_y - p) before weighting."""
    values = grads = 0.0
    for i, (field, term) in enumerate(_TABLE[spec.kind][1]):
        weight = 1.0 if field is None else getattr(spec, field)
        if weight == 0.0:
            continue
        value, coeff = term(py, amp, spec)
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
    amp = _amplified(py, lambda: np.argmax(p, axis=0) == labels, spec)
    direction = -p
    direction.ravel()[at_label] += 1.0
    values, grads = _weighted_sum(py, amp, spec, direction)
    return values, np.ascontiguousarray(grads.T)


def evaluate_loss(logits, y: int, spec: LossSpec) -> LossOutput:
    """Validated single-sample loss evaluation."""
    x = check_logit_vector(logits)
    if not 0 <= y < x.size:
        raise IndexError(f"label {y} out of range for {x.size} classes")
    with np.errstate(over="ignore"):  # finite - finite may still overflow to -inf
        values, grads = batch_loss(x[None, :], np.array([y]), spec)
    return LossOutput(float(values[0]), grads[0])


def symmetric_sums(p_rows, spec: LossSpec) -> np.ndarray:
    """Row-wise sum of the loss value over every possible label at prediction p.

    Losses whose symmetric sum is constant (MAE gives 2 (K - 1) for every p)
    contribute nothing to differences of this quantity, which is what makes
    them noise-tolerant.
    """
    p = np.asarray(p_rows, dtype=np.float64)
    amp = _amplified(p, lambda: argmax_mask(p), spec)
    return _weighted_sum(p, amp, spec)[0].sum(axis=1)
