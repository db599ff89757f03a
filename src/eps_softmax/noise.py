"""Synthetic label corruption with known transition structure.

Two stochastic kinds: symmetric noise spreads a flip budget eta uniformly over
the wrong classes, and asymmetric shift moves it entirely onto the next class
modulo K. The noise-tolerance analysis covers only noise that keeps each clean
class dominant, so ``NoiseSpec`` refuses any spec whose clean dominance margin
is not positive: symmetric needs eta < (K - 1) / K, shift needs eta < 1/2.
``corrupt_labels`` returns the noisy labels, which differ where a label flipped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import check_labels, make_rng
from .errors import ConfigError, check_fields

NOISE_KINDS = ("none", "symmetric", "asymmetric_shift")


@dataclass(frozen=True)
class NoiseSpec:
    """Corruption model: kind, flip rate eta, class count, and its own seed;
    any kind at eta 0 flips nothing and is stored as "none"."""

    kind: str
    eta: float = 0.0
    n_classes: int = 2
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.kind not in NOISE_KINDS:
            raise ConfigError(f"unknown noise kind {self.kind!r}")
        if not 0.0 <= self.eta < 1.0:
            raise ConfigError("eta must lie in [0, 1)")
        if self.n_classes < 2:
            raise ConfigError("need at least 2 classes")
        if self.kind == "none" and self.eta != 0.0:
            raise ConfigError("kind 'none' requires eta = 0")
        if self.eta == 0.0:
            object.__setattr__(self, "kind", "none")  # specs are frozen
        if (margin := clean_dominance_margin(self)) <= 0.0:
            raise ConfigError(
                f"{self.kind} eta={self.eta} at K={self.n_classes} leaves the clean class "
                f"without a strict plurality: its dominance margin {margin:.3g} is not positive"
            )


def transition_matrix(spec: NoiseSpec) -> np.ndarray:
    """Row-stochastic K x K matrix; entry (i, j) is P(noisy = j | clean = i)."""
    k, eta = spec.n_classes, spec.eta
    if spec.kind == "symmetric":
        mat = np.full((k, k), eta / (k - 1))
    else:  # the shift, or none at eta 0
        mat = np.roll(np.eye(k), 1, axis=1) * eta
    # for the shift at eta < 1/2, fl(1 - eta) is within 2^-54 of 1 - eta, so
    # each row's two entries sum to exactly 1.0
    np.fill_diagonal(mat, 1.0 - eta)
    return mat


def corrupt_labels(labels, spec: NoiseSpec) -> np.ndarray:
    """The noisy copy of an integer label array, corrupted according to spec.

    Deterministic: the same labels and spec always produce the same copy.
    Each label independently flips with probability eta; a symmetric flip picks
    uniformly among the K - 1 wrong classes, a shift flip picks (y + 1) mod K.
    """
    k = spec.n_classes
    arr = check_labels(labels, k)

    if spec.kind == "none":
        return arr.copy()
    rng = make_rng(spec.seed)
    flip = rng.random(arr.size) < spec.eta
    if spec.kind == "symmetric":
        offsets = rng.integers(0, k - 1, size=arr.size)
        targets = offsets + (offsets >= arr)  # skip the clean class
    else:
        targets = (arr + 1) % k
    return np.where(flip, targets, arr)


def expected_clean_weight(spec: NoiseSpec) -> float:
    """c: the probability that a label survives corruption, T's diagonal entry,
    which every class shares."""
    return float(1.0 - spec.eta)


def clean_dominance_margin(spec: NoiseSpec) -> float:
    """a = min_i (T_ii - max_{j != i} T_ij): the clean weight less the largest
    wrong-class weight of ``transition_matrix``, the same for every row.

    Positive exactly when every clean class keeps a strict plurality after
    corruption, the premise of the excess-risk bound; ``NoiseSpec`` refuses
    every spec whose margin is not positive. No K x K matrix is built.
    """
    wrong = spec.eta / (spec.n_classes - 1) if spec.kind == "symmetric" else spec.eta
    return float((1.0 - spec.eta) - wrong)
