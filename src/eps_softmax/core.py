"""Minimal dense numeric kernel: row softmax, clamped log, seeded RNG.

Everything runs in float64. All functions are pure; Generator instances are
the only stateful objects and should stay confined to a single thread.
"""

from __future__ import annotations

import numpy as np

#: Floor applied inside every log evaluation.
LOG_FLOOR = 1e-8

_MASK64 = (1 << 64) - 1


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic counter-based generator.

    The same (seed, stream) pair yields the same draw sequence on every
    platform, which keeps label corruption and experiment tables reproducible.
    """
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def check_prob_vector(p, tol: float = 1e-9) -> np.ndarray:
    """Validate a probability vector: entries in [0, 1] summing to 1 within tol."""
    arr = np.asarray(p, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D array, got shape {arr.shape}")
    if arr.size < 2:
        raise ValueError("need at least 2 classes")
    if (arr < 0.0).any() or (arr > 1.0).any():
        raise ValueError("probabilities must lie in [0, 1]")
    total = float(arr.sum())
    if abs(total - 1.0) > tol:
        raise ValueError(f"probabilities sum to {total!r}, not 1")
    return arr


def check_logit_vector(logits) -> np.ndarray:
    """Validate a logit vector: 1-D, at least 2 entries, all finite."""
    arr = np.asarray(logits, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D logit vector, got shape {arr.shape}")
    if arr.size < 2:
        raise ValueError("need at least 2 classes")
    if not np.isfinite(arr).all():
        raise ValueError("logits must be finite")
    return arr


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax for a batch of logit vectors. No input validation."""
    z = np.exp(logits - logits.max(axis=1, keepdims=True))
    return z / z.sum(axis=1, keepdims=True)


def log_clamped(x):
    """ln(max(x, LOG_FLOOR)) for x >= 0. Accepts scalars or arrays."""
    arr = np.asarray(x, dtype=np.float64)
    if (arr < 0.0).any():
        raise ValueError("log_clamped requires nonnegative input")
    out = np.log(np.maximum(arr, LOG_FLOOR))
    return float(out) if out.ndim == 0 else out

