"""Numeric primitives: rng construction, validation, softmax."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eps_softmax.core import (
    check_labels,
    check_prob_vector,
    make_rng,
    softmax_cols,
    softmax_rows,
)
from eps_softmax.transform import eps_softmax

from conftest import logit_vectors


def test_make_rng_is_reproducible():
    a = make_rng(7).random(5)
    b = make_rng(7).random(5)
    assert np.array_equal(a, b)


def test_make_rng_streams_are_independent():
    a = make_rng(7, stream=0).random(5)
    b = make_rng(7, stream=1).random(5)
    assert not np.array_equal(a, b)


def test_make_rng_accepts_negative_seed():
    # seeds are masked to 64 bits rather than rejected
    assert make_rng(-1).random() == make_rng(-1).random()


def test_check_prob_vector_accepts_valid():
    p = check_prob_vector([0.25, 0.75])
    assert p.dtype == np.float64


def test_check_prob_vector_rejects_bad_shapes_and_values():
    with pytest.raises(ValueError):
        check_prob_vector([[0.5, 0.5]])
    with pytest.raises(ValueError):
        check_prob_vector([1.0])
    with pytest.raises(ValueError):
        check_prob_vector([-0.1, 1.1])
    with pytest.raises(ValueError):
        check_prob_vector([0.5, 0.6])


@pytest.mark.parametrize("bad", [[math.nan, 1.0], [0.5, math.nan], [math.inf, 0.0], [-math.inf, 1.0]])
def test_check_prob_vector_rejects_non_finite_entries(bad):
    # every comparison with nan is false, so only an explicit check refuses it
    with pytest.raises(ValueError, match="finite"):
        check_prob_vector(bad)


# eps_softmax at its default m = 0 is the validated single-vector softmax


def test_check_labels_returns_int64_and_copies_only_to_convert():
    labels = np.array([0, 2, 1])
    assert check_labels(labels, 3) is labels
    narrow = np.array([0, 2, 1], dtype=np.int32)
    out = check_labels(narrow, 3)
    assert out.dtype == np.int64 and np.array_equal(out, narrow)
    assert check_labels(np.array([], dtype=np.int64), 3).size == 0


def test_softmax_known_values():
    p = eps_softmax([1.0, 0.0, 0.0])
    assert p[0] == pytest.approx(0.5761168847658291, abs=1e-15)
    assert p[1] == pytest.approx(0.21194155761708547, abs=1e-15)
    assert p[1] == p[2]


def test_softmax_huge_logits_do_not_overflow():
    p = eps_softmax([1000.0, 0.0])
    assert np.isfinite(p).all()
    assert p[0] == pytest.approx(1.0)
    assert p[1] == pytest.approx(0.0)


@given(logit_vectors())
def test_softmax_is_a_distribution(x):
    p = eps_softmax(x)
    assert (p >= 0).all()
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


@given(logit_vectors(), st.floats(-100, 100, allow_nan=False))
def test_softmax_shift_invariance(x, c):
    assert np.allclose(eps_softmax(x + c), eps_softmax(x), atol=1e-12)


@given(logit_vectors())
def test_softmax_rows_matches_single(x):
    rows = softmax_rows(np.stack([x, x * 0.5]))
    assert np.array_equal(rows[0], eps_softmax(x))
    assert np.array_equal(rows[1], eps_softmax(x * 0.5))


@pytest.mark.parametrize("k", [*range(2, 11), 16, 17, 100, 128, 129, 300])
def test_softmax_is_the_row_major_softmax_bit_for_bit(k):
    # both layouts must add the K classes in the order numpy adds a row of K
    rng = np.random.default_rng(k)
    for n in (1, 5, 128):
        logits = rng.normal(size=(n, k)) * rng.exponential(size=(n, k)) ** 3
        z = np.exp(logits - logits.max(axis=1, keepdims=True))
        want = z / z.sum(axis=1, keepdims=True)
        assert softmax_rows(logits).tobytes() == want.tobytes()
        cols = softmax_cols(np.ascontiguousarray(logits.T))
        assert cols.flags.c_contiguous
        assert cols.tobytes() == np.ascontiguousarray(want.T).tobytes()


@pytest.mark.parametrize("n, k", [(1, 2), (128, 4), (7, 10), (3, 129)])
def test_softmax_rows_returns_c_contiguous_rows(n, k):
    logits = np.random.default_rng(0).normal(size=(n, k))
    p = softmax_rows(logits)
    assert p.shape == (n, k)
    assert p.flags.c_contiguous
