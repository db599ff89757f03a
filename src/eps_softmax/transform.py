"""The eps-softmax transform: amplify the winning probability, renormalize.

Adding m to the largest softmax probability and dividing everything by m + 1
pulls the output within sqrt(1 - 1/K) / (m + 1) of a one-hot vector while
preserving the argmax. m = 0 leaves the softmax output untouched; growing m
lets the output approximate a hard one-hot decision as closely as desired
while the map stays differentiable almost everywhere.
"""

from __future__ import annotations

import math

import numpy as np

from .core import check_logit_vector, softmax_rows
from .errors import ConfigError, check_value


def amplify(p, is_top, m: float):
    """(p + m [k = argmax]) / (m + 1), component by component.

    The one place the transform is written: the full output rows, a loss's
    label column and the symmetric sums all read a component through it.
    is_top is a boolean array broadcastable against p.
    """
    return (p + m * is_top) / (m + 1.0)


def argmax_mask(p) -> np.ndarray:
    """Boolean mask of the argmax along the last axis; ties go to the lowest index."""
    return np.arange(p.shape[-1]) == np.argmax(p, axis=-1)[..., None]


def check_m(m) -> float:
    """m as a float: the float rule of errors.check_value, and nonnegative."""
    if (m := check_value("m", m, "float")) < 0:
        raise ConfigError("m must be nonnegative")
    return m


def eps_softmax(logits, m: float = 0.0) -> np.ndarray:
    """Softmax, then add m to the largest probability and divide all by m + 1."""
    m = check_m(m)
    with np.errstate(over="ignore"):  # finite - finite may still overflow to -inf
        return eps_softmax_rows(check_logit_vector(logits)[None], m)[0]


def eps_softmax_rows(logits: np.ndarray, m: float) -> np.ndarray:
    """Batched transform over rows of logits. No input validation."""
    p = softmax_rows(logits)
    return amplify(p, argmax_mask(p), m)


def eps_bound(n_classes: int, m: float) -> float:
    """Worst-case distance from the transformed output to the one-hot set."""
    k = check_value("n_classes", n_classes, "int", at_least=2)
    return math.sqrt(1.0 - 1.0 / k) / (check_m(m) + 1.0)


def distance_to_one_hot(p) -> float:
    """Distance from a probability vector to the nearest one-hot vector.

    The nearest vertex is the one at the argmax, so the squared distance
    collapses to 1 - 2 p_t + sum(p^2).
    """
    # delegate so the scalar and row forms share one reduction order: the
    # squared term cancels almost completely near a vertex, where even a
    # one-ulp summation difference is visible after the square root
    arr = np.asarray(p, dtype=np.float64)
    return float(distances_to_one_hot_rows(arr[None, :])[0])


def distances_to_one_hot_rows(p: np.ndarray) -> np.ndarray:
    """Row-wise distance_to_one_hot for a batch of probability vectors."""
    pt = p.max(axis=1)
    sq = 1.0 - 2.0 * pt + np.einsum("ij,ij->i", p, p)
    return np.sqrt(np.maximum(sq, 0.0))
