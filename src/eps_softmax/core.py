"""Minimal dense numeric kernel: softmax, clamped log, seeded RNG.

Everything runs in float64. All functions are pure; Generator instances are
the only stateful objects and should stay confined to a single thread.

The softmax sums the K classes in numpy's own order for a row of K. Below 8
classes it reduces along the class axis of a (K, n) array, an elementwise
operation over n-long rows that adds the classes one by one, as numpy's
pairwise sum adds fewer than 8 entries. From 8 classes on it reduces along the
contiguous rows of an (n, K) array, where that pairwise sum runs itself. So
either layout gives the bytes of the row-major softmax at every K.
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
    if not np.isfinite(arr).all():
        raise ValueError("probabilities must be finite")
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


#: Class count from which the softmax sums along contiguous rows of K. Below
#: it numpy's pairwise sum adds a row's entries one by one, the order in which
#: a reduction over axis 0 of a (K, n) array adds its K rows.
_ROW_SUM_FROM = 8


def _softmax(z: np.ndarray, axis: int) -> np.ndarray:
    """Softmax along axis of a float64 array, in place."""
    z -= np.maximum.reduce(z, axis=axis, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=axis, keepdims=True)
    return z


def softmax_cols(logits: np.ndarray) -> np.ndarray:
    """Softmax over axis 0 of a (K, n) array of n logit columns, as a new
    C-contiguous (K, n) array. No input validation."""
    if len(logits) >= _ROW_SUM_FROM:
        return np.ascontiguousarray(softmax_rows(np.transpose(logits)).T)
    return _softmax(np.array(logits, dtype=np.float64, order="C"), axis=0)


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax for a batch of logit vectors, as a new C-contiguous
    (n, K) array. No input validation."""
    logits = np.asarray(logits)
    if logits.shape[-1] < _ROW_SUM_FROM:
        return np.ascontiguousarray(softmax_cols(logits.T).T)
    return _softmax(np.array(logits, dtype=np.float64, order="C"), axis=-1)


def log_clamped(x):
    """ln(max(x, LOG_FLOOR)) for x >= 0. Accepts scalars or arrays."""
    arr = np.asarray(x, dtype=np.float64)
    if (arr < 0.0).any():
        raise ValueError("log_clamped requires nonnegative input")
    out = np.log(np.maximum(arr, LOG_FLOOR))
    return float(out) if out.ndim == 0 else out

