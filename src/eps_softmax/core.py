"""Minimal dense numeric kernel: softmax, clamped log, seeded RNG.

Everything runs in float64. All functions are pure; Generator instances are
the only stateful objects and should stay confined to a single thread.

The softmax runs class-major: on a (K, n) array whose rows are classes, so
every reduction over the K classes is an elementwise operation over n-long
rows rather than a reduction along a short axis. class_sum adds the K rows in
the order numpy's pairwise sum adds a row of K entries, so the class-major
softmax gives the bytes of the row-major one at every K.
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


#: Entries numpy's pairwise sum adds one by one, and the block size above
#: which it splits a sum in two (numpy/_core/src/umath/loops_utils.h.src).
_PAIRWISE_UNROLL = 8
_PAIRWISE_BLOCK = 128


def class_sum(x: np.ndarray) -> np.ndarray:
    """Sum over axis 0 of a (K, ...) array, adding the K entries of each column
    in the order ``x.T.sum(axis=-1)`` adds a contiguous row of K: one by one
    below 8 entries, in 8 interleaved accumulators up to 128, and split in two
    halves above that."""
    k = x.shape[0]
    if k < _PAIRWISE_UNROLL:
        return np.add.reduce(x, axis=0)
    if k <= _PAIRWISE_BLOCK:
        stop = k - k % _PAIRWISE_UNROLL
        blocks = x[:stop].reshape(-1, _PAIRWISE_UNROLL, *x.shape[1:])
        r = np.add.reduce(blocks, axis=0)  # r[j] = x[j] + x[j + 8] + ...
        r = r[0::2] + r[1::2]
        r = r[0::2] + r[1::2]
        total = r[0] + r[1]  # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for i in range(stop, k):
            total += x[i]
        return total
    half = k // 2
    half -= half % _PAIRWISE_UNROLL
    return class_sum(x[:half]) + class_sum(x[half:])


def softmax_cols(logits: np.ndarray) -> np.ndarray:
    """Softmax over axis 0 of a (K, n) array of n logit columns, as a new
    C-contiguous (K, n) array. No input validation."""
    z = np.array(logits, dtype=np.float64, order="C")
    z -= np.maximum.reduce(z, axis=0)
    np.exp(z, out=z)
    z /= class_sum(z)
    return z


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax for a batch of logit vectors, as a C-contiguous (n, K)
    array. No input validation."""
    return np.ascontiguousarray(softmax_cols(np.asarray(logits).T).T)


def log_clamped(x):
    """ln(max(x, LOG_FLOOR)) for x >= 0. Accepts scalars or arrays."""
    arr = np.asarray(x, dtype=np.float64)
    if (arr < 0.0).any():
        raise ValueError("log_clamped requires nonnegative input")
    out = np.log(np.maximum(arr, LOG_FLOOR))
    return float(out) if out.ndim == 0 else out

