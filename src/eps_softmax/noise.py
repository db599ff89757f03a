"""Synthetic label corruption with known transition structure.

Two stochastic kinds: symmetric noise spreads a flip budget eta uniformly over
the wrong classes, and asymmetric shift moves it entirely onto the next class
modulo K. Both keep the clean class dominant (symmetric needs
eta < (K - 1) / K, shift needs eta < 1/2), which is the regime the
noise-tolerance analysis covers.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import make_rng
from .errors import ConfigError, check_finite_fields

NOISE_KINDS = ("none", "symmetric", "asymmetric_shift")


@dataclass(frozen=True)
class NoiseSpec:
    """Corruption model: kind, flip rate eta, class count, and its own seed."""

    kind: str
    eta: float = 0.0
    n_classes: int = 2
    seed: int = 0

    def __post_init__(self):
        check_finite_fields(self)
        if self.kind not in NOISE_KINDS:
            raise ConfigError(f"unknown noise kind {self.kind!r}")
        if not 0.0 <= self.eta < 1.0:
            raise ConfigError("eta must lie in [0, 1)")
        if self.n_classes < 2:
            raise ConfigError("need at least 2 classes")
        if self.kind == "none" and self.eta != 0.0:
            raise ConfigError("kind 'none' requires eta = 0")
        if self.kind == "asymmetric_shift" and self.eta >= 0.5:
            raise ConfigError("asymmetric_shift requires eta < 0.5 (clean class must dominate)")
        if self.kind == "symmetric" and self.eta >= (self.n_classes - 1) / self.n_classes:
            warnings.warn(
                f"symmetric eta={self.eta} at K={self.n_classes} leaves the clean "
                "class without a plurality; labels are no longer recoverable",
                stacklevel=2,
            )


@dataclass
class CorruptionResult:
    noisy_labels: np.ndarray
    flip_mask: np.ndarray
    realized_rate: float


def transition_matrix(spec: NoiseSpec) -> np.ndarray:
    """Row-stochastic K x K matrix; entry (i, j) is P(noisy = j | clean = i)."""
    k = spec.n_classes
    if spec.kind == "none" or spec.eta == 0.0:
        return np.eye(k)
    if spec.kind == "symmetric":
        mat = np.full((k, k), spec.eta / (k - 1))
        np.fill_diagonal(mat, 1.0 - spec.eta)
        return mat
    # asymmetric_shift: nudge the diagonal by at most one ulp so each row sums
    # to exactly 1.0 in floating point
    diag = 1.0 - spec.eta
    while diag + spec.eta != 1.0:
        diag = np.nextafter(diag, np.inf if diag + spec.eta < 1.0 else -np.inf)
    mat = np.zeros((k, k))
    for i in range(k):
        mat[i, i] = diag
        mat[i, (i + 1) % k] = spec.eta
    return mat


def corrupt_labels(labels, spec: NoiseSpec) -> CorruptionResult:
    """Corrupt an integer label array according to spec.

    Deterministic: the same labels and spec always produce the same result.
    Each label independently flips with probability eta; a symmetric flip picks
    uniformly among the K - 1 wrong classes, a shift flip picks (y + 1) mod K.
    """
    arr = np.asarray(labels)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D label array, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError("labels must be integers")
    arr = arr.astype(np.int64)
    k = spec.n_classes
    if arr.size and (arr.min() < 0 or arr.max() >= k):
        raise IndexError(f"labels must lie in [0, {k})")

    if spec.kind == "none" or spec.eta == 0.0:
        noisy = arr.copy()
    else:
        rng = make_rng(spec.seed)
        flip = rng.random(arr.size) < spec.eta
        if spec.kind == "symmetric":
            offsets = rng.integers(0, k - 1, size=arr.size)
            targets = offsets + (offsets >= arr)  # skip the clean class
        else:
            targets = (arr + 1) % k
        noisy = np.where(flip, targets, arr)
    mask = noisy != arr
    return CorruptionResult(noisy, mask, float(mask.mean()) if arr.size else 0.0)


def expected_clean_weight(spec: NoiseSpec) -> float:
    """Average probability that a label survives corruption: the mean of the
    transition matrix's diagonal, for balanced classes."""
    return float(np.diag(transition_matrix(spec)).mean())


def clean_dominance_margin(spec: NoiseSpec) -> float:
    """Worst-case margin min_i (T_ii - max_{j != i} T_ij) of the transition
    matrix T between the clean class weight and any wrong class.

    Positive exactly when every clean class keeps a strict plurality after
    corruption, the premise of the excess-risk bound.
    """
    mat = transition_matrix(spec)
    clean = np.diag(mat)
    # entries are nonnegative, so zeroing the diagonal leaves each row's
    # largest wrong-class weight as its maximum
    return float((clean - (mat - np.diag(clean)).max(axis=1)).min())
