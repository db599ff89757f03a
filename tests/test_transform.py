"""The amplification transform and its one-hot approximation bound."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from eps_softmax.core import softmax_rows
from eps_softmax.errors import ConfigError
from eps_softmax.losses import LossSpec
from eps_softmax.noise import NoiseSpec
from eps_softmax.transform import (
    amplify,
    argmax_mask,
    distance_to_one_hot,
    distances_to_one_hot_rows,
    eps_bound,
    eps_softmax,
    eps_softmax_rows,
)
from eps_softmax.theory import closed_form_optimum, verify_excess_risk

from conftest import amplifications, logit_vectors, prob_vectors


def test_config_rejects_negative_amplification():
    with pytest.raises(ConfigError):
        eps_softmax([1.0, 0.0], -0.5)


@pytest.mark.parametrize("m", [np.nan, np.inf, -np.inf])
def test_transform_entry_points_refuse_a_non_finite_amplification(m):
    with pytest.raises(ConfigError, match="m must be a finite number"):
        eps_softmax([1.0, 0.0], m)
    with pytest.raises(ConfigError, match="m must be a finite number"):
        eps_bound(4, m)


@pytest.mark.parametrize(
    "m",
    ["10", True, np.True_, b"1", None, [2.0], 2 + 0j, 10**400],
    ids=["str", "bool", "numpy-bool", "bytes", "none", "list", "complex", "huge-int"],
)
def test_transform_entry_points_refuse_an_amplification_that_is_not_a_number(m):
    with pytest.raises(ConfigError, match="m must be a finite number"):
        eps_softmax([1.0, 2.0], m)
    with pytest.raises(ConfigError, match="m must be a finite number"):
        eps_bound(3, m)
    with pytest.raises(ConfigError, match="m must be a finite number"):
        closed_form_optimum([0.9, 0.05, 0.05], m)


def test_transform_entry_points_take_numpy_and_integer_amplifications():
    assert np.array_equal(eps_softmax([1.0, 2.0], np.float32(2.0)), eps_softmax([1.0, 2.0], 2.0))
    assert eps_bound(3, 2) == eps_bound(3, 2.0)
    q = [0.9, 0.05, 0.05]
    assert np.array_equal(closed_form_optimum(q, np.float32(1.0)), closed_form_optimum(q, 1.0))
    # a numpy float is the float it equals, for a spec and a check alike
    m = LossSpec("ce_eps", m=np.float32(2.0)).m
    assert type(m) is float and m == 2.0
    specs = [NoiseSpec("symmetric", eta=0.4, n_classes=4)]
    assert [r.stats for r in verify_excess_risk(specs, m=np.float32(1e4))] == [
        r.stats for r in verify_excess_risk(specs, m=1e4)
    ]


def test_transform_entry_points_refuse_a_negative_zero_amplification():
    # -0.0 equals 0.0, so m refuses it as a spec's float field does
    for call in (
        lambda: eps_softmax([1.0, 0.0], -0.0),
        lambda: eps_bound(3, -0.0),
        lambda: closed_form_optimum([0.9, 0.1], -0.0),
    ):
        with pytest.raises(ConfigError, match="^m must not be -0.0$"):
            call()


def test_eps_softmax_validates_its_logits():
    for bad in ([[1.0, 0.0]], [1.0], [1.0, np.nan], [np.inf, 0.0]):
        with pytest.raises(ValueError):
            eps_softmax(bad)
    with np.errstate(over="raise"):  # the max subtraction may overflow; it is silenced
        p = eps_softmax([1e308, -1e308])
    assert np.array_equal(p, [1.0, 0.0])


def test_transform_tie_goes_to_lowest_index():
    p = np.array([0.5, 0.5])
    out = amplify(p, argmax_mask(p), m=1.0)
    assert np.array_equal(out, [0.75, 0.25])


def test_transform_known_values():
    p = softmax_rows(np.array([[1.0, 0.0, 0.0]]))[0]
    out = amplify(p, argmax_mask(p), m=10.0)
    assert out[0] == pytest.approx(0.9614651713423481, abs=1e-12)
    assert out[1] == pytest.approx(0.019267414328825953, abs=1e-12)
    assert out[1] == out[2]


@given(prob_vectors())
def test_transform_with_zero_amplification_is_identity(p):
    assert np.array_equal(amplify(p, argmax_mask(p), 0.0), p)


@given(prob_vectors(), amplifications)
def test_transform_output_is_a_distribution(p, m):
    out = amplify(p, argmax_mask(p), m)
    assert (out >= 0).all()
    assert out.sum() == pytest.approx(1.0, abs=1e-9)


@given(prob_vectors(), amplifications)
def test_transform_never_shrinks_the_top_probability(p, m):
    t = int(np.argmax(p))
    out = amplify(p, argmax_mask(p), m)
    assert out[t] >= p[t] - 1e-15
    assert int(np.argmax(out)) == t


@given(prob_vectors(), amplifications)
@example(np.array([0.7, 0.1, 0.10000000000000002]), 10.0)
@example(np.array([0.4, 0.2, 0.4]), 1.0)
def test_transform_preserves_the_ordering(p, m):
    # non-target entries all scale by 1/(m+1), and correctly rounded division is
    # monotone, so no pair swaps; two entries an ulp apart may round to a tie
    out = amplify(p, argmax_mask(p), m)
    assert int(np.argmax(out)) == int(np.argmax(p))
    assert (out[:, None] >= out[None, :])[p[:, None] > p[None, :]].all()
    # a tie at the top is broken: only the lowest index is amplified
    off = ~argmax_mask(p)
    q, r = p[off], out[off]
    assert (r[:, None] == r[None, :])[q[:, None] == q[None, :]].all()


@given(logit_vectors(), amplifications)
def test_transformed_output_stays_within_the_bound(x, m):
    out = eps_softmax(x, m)
    assert distance_to_one_hot(out) <= eps_bound(x.size, m) + 1e-12


def test_bound_known_values():
    assert eps_bound(10, 0.0) == pytest.approx(0.9486832980505138, abs=1e-15)
    assert eps_bound(2, 0.0) == pytest.approx(0.7071067811865476, abs=1e-15)
    assert eps_bound(100, 10.0) == pytest.approx(0.09045340337332909, abs=1e-15)


def test_bound_shrinks_with_amplification_and_grows_with_classes():
    assert eps_bound(10, 10.0) < eps_bound(10, 1.0) < eps_bound(10, 0.0)
    assert eps_bound(2, 1.0) < eps_bound(10, 1.0) < eps_bound(100, 1.0)


def test_bound_rejects_degenerate_arguments():
    with pytest.raises(ConfigError):
        eps_bound(1, 0.0)
    with pytest.raises(ConfigError):
        eps_bound(10, -1.0)
    with pytest.raises(ConfigError, match="^n_classes must be .*an integer"):
        eps_bound(2.5, 1.0)


def test_distance_to_one_hot_known_value():
    assert distance_to_one_hot([0.5, 0.5]) == pytest.approx(
        0.7071067811865476, abs=1e-15
    )
    assert distance_to_one_hot([1.0, 0.0]) == 0.0


@given(prob_vectors())
def test_distance_matches_explicit_l2(p):
    t = int(np.argmax(p))
    one_hot = np.zeros_like(p)
    one_hot[t] = 1.0
    assert distance_to_one_hot(p) == pytest.approx(np.linalg.norm(p - one_hot), abs=1e-12)


@given(logit_vectors(), amplifications)
def test_eps_softmax_composes_softmax_and_transform(x, m):
    p = softmax_rows(x[None, :])[0]
    assert np.array_equal(eps_softmax(x, m), amplify(p, argmax_mask(p), m))


@given(logit_vectors(), amplifications)
def test_row_helpers_match_single_vector_forms(x, m):
    batch = np.stack([x, -x])
    rows = eps_softmax_rows(batch, m)
    assert np.array_equal(rows[0], eps_softmax(x, m))
    assert np.array_equal(rows[1], eps_softmax(-x, m))
    dists = distances_to_one_hot_rows(rows)
    assert dists[0] == pytest.approx(distance_to_one_hot(rows[0]), abs=1e-12)


@given(st.integers(2, 50), amplifications)
def test_bound_is_tight_at_the_uniform_distribution(k, m):
    # the uniform distribution attains the worst case exactly
    uniform = np.full(k, 1.0 / k)
    d = distance_to_one_hot(amplify(uniform, argmax_mask(uniform), m))
    assert d == pytest.approx(eps_bound(k, m), rel=1e-9)
