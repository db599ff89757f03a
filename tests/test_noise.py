"""Label corruption: transition matrices, determinism, realized rates."""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eps_softmax.errors import ConfigError
from eps_softmax.noise import (
    NOISE_KINDS,
    NoiseSpec,
    clean_dominance_margin,
    corrupt_labels,
    expected_clean_weight,
    transition_matrix,
)


def test_spec_rejects_bad_settings():
    with pytest.raises(ConfigError):
        NoiseSpec("salt_and_pepper", eta=0.1)
    with pytest.raises(ConfigError):
        NoiseSpec("symmetric", eta=1.0)
    with pytest.raises(ConfigError):
        NoiseSpec("symmetric", eta=-0.1)
    with pytest.raises(ConfigError):
        NoiseSpec("symmetric", eta=0.1, n_classes=1)
    with pytest.raises(ConfigError):
        NoiseSpec("none", eta=0.1)
    with pytest.raises(ConfigError):
        NoiseSpec("asymmetric_shift", eta=0.5)


@pytest.mark.parametrize("kind", NOISE_KINDS)
def test_spec_refuses_a_negative_zero_eta(kind):
    # -0.0 == 0.0, so a spec that kept it would equal eta 0's spec yet write
    # "eta": -0.0 into its results
    with pytest.raises(ConfigError, match=r"^eta must not be -0.0$"):
        NoiseSpec(kind, eta=-0.0)
    for zero in (0.0, 0):  # a JSON config may hold either
        assert NoiseSpec(kind, eta=zero).eta == 0


@pytest.mark.parametrize("kind", NOISE_KINDS)
def test_every_kind_at_eta_zero_is_kind_none(kind):
    # no label flips at eta 0, so the spec is the one of a run without noise
    assert NoiseSpec(kind, eta=0, n_classes=4, seed=3) == NoiseSpec("none", n_classes=4, seed=3)


def test_spec_refuses_symmetric_noise_that_drowns_the_clean_class():
    message = r"^symmetric eta=0.95 at K=10 leaves the clean class without a strict plurality"
    with pytest.raises(ConfigError, match=message):
        NoiseSpec("symmetric", eta=0.95, n_classes=10)


@pytest.mark.parametrize(
    "kind, eta, k, accepted",
    [
        ("asymmetric_shift", 0.5, 4, False),
        ("asymmetric_shift", math.nextafter(0.5, 0.0), 4, True),
        ("symmetric", 0.75, 4, False),
        ("symmetric", 0.5, 2, False),
        ("symmetric", math.nextafter(0.75, 0.0), 4, True),
        ("symmetric", 2 / 3, 3, True),  # fl(2/3) rounds down: margin +5.6e-17
        ("none", 0.0, 4, True),
    ],
)
def test_spec_refuses_exactly_the_specs_without_a_positive_margin(kind, eta, k, accepted):
    margin = clean_dominance_margin(SimpleNamespace(kind=kind, eta=eta, n_classes=k))
    assert (margin > 0.0) is accepted
    if accepted:
        assert clean_dominance_margin(NoiseSpec(kind, eta=eta, n_classes=k)) == margin
    else:
        with pytest.raises(ConfigError, match="without a strict plurality"):
            NoiseSpec(kind, eta=eta, n_classes=k)


@given(st.sampled_from(NOISE_KINDS[1:]), st.floats(0.0, 1.0, exclude_max=True), st.integers(2, 12))
def test_spec_is_refused_exactly_when_its_margin_is_not_positive(kind, eta, k):
    margin = clean_dominance_margin(SimpleNamespace(kind=kind, eta=eta, n_classes=k))
    if margin > 0.0:
        NoiseSpec(kind, eta=eta, n_classes=k)
    else:
        with pytest.raises(ConfigError):
            NoiseSpec(kind, eta=eta, n_classes=k)


def test_transition_matrix_none_is_identity():
    mat = transition_matrix(NoiseSpec("none", n_classes=5))
    assert np.array_equal(mat, np.eye(5))


def test_transition_matrix_symmetric_values():
    mat = transition_matrix(NoiseSpec("symmetric", eta=0.3, n_classes=4))
    assert np.allclose(np.diag(mat), 0.7)
    off = mat[~np.eye(4, dtype=bool)]
    assert np.allclose(off, 0.1)


def test_transition_matrix_shift_structure():
    mat = transition_matrix(NoiseSpec("asymmetric_shift", eta=0.2, n_classes=4))
    for i in range(4):
        assert mat[i, (i + 1) % 4] == 0.2
        assert mat[i, i] == pytest.approx(0.8, abs=1e-15)


@pytest.mark.parametrize("eta", [0.0, 0.1, 0.3, 0.45])
def test_shift_rows_sum_to_exactly_one(eta):
    # fl(1 - eta) + eta rounds to 1.0 for every eta in [0, 1/2)
    mat = transition_matrix(NoiseSpec("asymmetric_shift", eta=eta, n_classes=7))
    assert (mat.sum(axis=1) == 1.0).all()


def test_shift_rows_sum_to_exactly_one_over_a_dense_grid_of_etas():
    rng = np.random.default_rng(0)
    edges = [5e-324, 2.0**-54, 2.0**-53, 1e-17, np.nextafter(0.5, 0.0)]
    etas = np.concatenate([np.linspace(0.0, 0.5, 4001)[:-1], rng.uniform(0.0, 0.5, 4000), edges])
    for eta in etas:
        mat = transition_matrix(NoiseSpec("asymmetric_shift", eta=float(eta), n_classes=3))
        assert (mat.sum(axis=1) == 1.0).all(), eta


@pytest.mark.parametrize("eta", [0.0, 0.1, 0.3, 0.45])
def test_symmetric_rows_sum_to_one_within_an_ulp(eta):
    mat = transition_matrix(NoiseSpec("symmetric", eta=eta, n_classes=7))
    assert np.abs(mat.sum(axis=1) - 1.0).max() <= 1e-15


def test_corrupt_labels_is_deterministic():
    labels = np.arange(1000) % 10
    spec = NoiseSpec("symmetric", eta=0.4, n_classes=10, seed=3)
    assert np.array_equal(corrupt_labels(labels, spec), corrupt_labels(labels, spec))


def test_corrupt_labels_seed_changes_the_draw():
    labels = np.arange(1000) % 10
    a = corrupt_labels(labels, NoiseSpec("symmetric", eta=0.4, n_classes=10, seed=0))
    b = corrupt_labels(labels, NoiseSpec("symmetric", eta=0.4, n_classes=10, seed=1))
    assert not np.array_equal(a, b)


def test_corrupt_labels_none_is_a_copy():
    labels = np.array([0, 1, 2])
    res = corrupt_labels(labels, NoiseSpec("none", n_classes=3))
    assert np.array_equal(res, labels)
    assert res is not labels


def test_symmetric_flips_never_keep_the_clean_class():
    labels = np.arange(20000) % 5
    res = corrupt_labels(labels, NoiseSpec("symmetric", eta=0.5, n_classes=5, seed=0))
    # a flip must land on a wrong class, so the labels differ at rate eta, not
    # at the 0.4 of a flip drawn from all five classes
    assert (res != labels).mean() == pytest.approx(0.5, abs=0.02)


def test_shift_flips_go_to_the_next_class():
    labels = np.arange(10000) % 4
    res = corrupt_labels(labels, NoiseSpec("asymmetric_shift", eta=0.3, n_classes=4, seed=0))
    flipped = res != labels
    assert np.array_equal(res[flipped], (labels[flipped] + 1) % 4)


def test_corrupt_labels_validates_input():
    spec = NoiseSpec("symmetric", eta=0.2, n_classes=4)
    with pytest.raises(ValueError):
        corrupt_labels(np.zeros((2, 2), dtype=np.int64), spec)
    with pytest.raises(ValueError):
        corrupt_labels(np.array([0.5, 1.0]), spec)
    with pytest.raises(IndexError):
        corrupt_labels(np.array([0, 4]), spec)
    with pytest.raises(IndexError):
        corrupt_labels(np.array([-1]), spec)


def test_corrupt_labels_empty_input():
    res = corrupt_labels(np.array([], dtype=np.int64), NoiseSpec("symmetric", eta=0.2, n_classes=4))
    assert res.size == 0


@given(st.integers(4, 12), st.floats(0.0, 0.7))
def test_realized_rate_tracks_eta(k, eta):
    labels = np.arange(50000) % k
    res = corrupt_labels(labels, NoiseSpec("symmetric", eta=eta, n_classes=k, seed=9))
    assert (res != labels).mean() == pytest.approx(eta, abs=0.02)


def test_expected_clean_weight():
    assert expected_clean_weight(NoiseSpec("symmetric", eta=0.4, n_classes=4)) == pytest.approx(0.6)
    assert expected_clean_weight(NoiseSpec("none", n_classes=4)) == 1.0


def test_noise_constants_are_closed_forms_of_the_transition_matrix():
    # c and a are computed from eta and K alone; T is the reference they must
    # match, across the refusal boundaries (K - 1)/K and 1/2 too
    for kind in NOISE_KINDS:
        for k in [*range(2, 13), 100]:
            edges = [(k - 1) / k, 0.5, 2 / 3]
            etas = [*np.linspace(0.0, 0.99, 199), *edges, *(math.nextafter(e, 0.0) for e in edges)]
            for eta in [0.0] if kind == "none" else etas:
                spec = SimpleNamespace(kind=kind, eta=float(eta), n_classes=k)
                mat = transition_matrix(spec)
                wrong = np.where(np.eye(k, dtype=bool), -np.inf, mat).max(axis=1)
                reading = float((np.diag(mat) - wrong).min())
                assert clean_dominance_margin(spec).hex() == reading.hex(), (kind, k, eta)
                c = expected_clean_weight(spec)
                assert c == 1.0 - eta
                # the diagonal mean rounds a K-term sum, within K ulps of c
                assert abs(c - np.diag(mat).mean()) <= k * math.ulp(c), (kind, k, eta)


@pytest.mark.parametrize("kind, eta", [("none", 0.0), ("symmetric", 0.6), ("asymmetric_shift", 0.3)])
def test_building_a_spec_allocates_no_k_by_k_matrix(kind, eta):
    tracemalloc.start()
    try:
        NoiseSpec(kind, eta=eta, n_classes=2000)  # a K x K float64 T would be 30.5 MiB
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_clean_dominance_margin():
    sym = NoiseSpec("symmetric", eta=0.4, n_classes=4)
    assert clean_dominance_margin(sym) == pytest.approx(1.0 - 0.4 - 0.4 / 3.0)
    shift = NoiseSpec("asymmetric_shift", eta=0.2, n_classes=4)
    assert clean_dominance_margin(shift) == pytest.approx(0.6)
    assert clean_dominance_margin(NoiseSpec("none", n_classes=4)) == 1.0
