"""Loss family: frozen reference values, exact reductions, simplex identities."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eps_softmax import losses
from eps_softmax.core import LOG_FLOOR, softmax_rows
from eps_softmax.errors import ConfigError
from eps_softmax.losses import LOSS_KINDS, LossSpec, batch_loss, evaluate_loss, symmetric_sums
from eps_softmax.theory import gradcheck_losses
from eps_softmax.transform import amplify, argmax_mask

from conftest import labeled_logits, prob_vectors


# ---------------------------------------------------------------------------
# Spec validation
# ---------------------------------------------------------------------------


def test_spec_rejects_unknown_kind():
    with pytest.raises(ConfigError):
        LossSpec("nll")


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kind="ce_eps", m=-1.0),
        dict(kind="fl", gamma=-0.1),
        dict(kind="gce", q=0.0),
        dict(kind="gce", q=1.5),
        dict(kind="sce", A=0.0),
        dict(kind="sce", A=1.0),
        dict(kind="ce_eps_mae", alpha=-0.1),
        dict(kind="ce_eps_mae", beta=-0.1),
        dict(kind="ce_eps_mae", alpha=0.0, beta=0.0),
        dict(kind="sce", alpha=0.0, beta=0.0),
    ],
)
def test_spec_rejects_bad_parameters(kwargs):
    with pytest.raises(ConfigError):
        LossSpec(**kwargs)


def test_spec_allows_one_zero_weight():
    # degenerate but useful: a single-term combined loss
    LossSpec("ce_eps_mae", alpha=1.0, beta=0.0)
    LossSpec("ce_eps_mae", alpha=0.0, beta=1.0)


def test_all_kinds_are_constructible():
    for kind in LOSS_KINDS:
        LossSpec(kind)


# the fields each kind's table row reads
READS = {
    "ce": (), "fl": ("gamma",), "mae": (), "ce_eps": ("m",), "fl_eps": ("m", "gamma"),
    "ce_eps_mae": ("m", "alpha", "beta"), "fl_eps_mae": ("m", "gamma", "alpha", "beta"),
    "gce": ("q",), "sce": ("alpha", "beta", "A"),
}
OFF_DEFAULT = dict(m=3.0, alpha=0.25, beta=2.5, gamma=1.5, q=0.3, A=-2.0)


@pytest.mark.parametrize("kind", LOSS_KINDS)
def test_a_spec_keeps_only_the_fields_its_kind_reads(kind):
    # an unread field holds its default, so one run has one spec
    read = {name: OFF_DEFAULT[name] for name in READS[kind]}
    spec = LossSpec(kind, **OFF_DEFAULT)
    assert spec == LossSpec(kind, **read)
    assert {name: getattr(spec, name) for name in read} == read


# ---------------------------------------------------------------------------
# Frozen reference values (computed independently with the math module)
# ---------------------------------------------------------------------------

LOGITS3 = np.array([1.0, 0.0, 0.0])
PY3 = 0.5761168847658291  # softmax(LOGITS3)[0]


def test_ce_reference_values():
    out = evaluate_loss([0.0, 0.0], 0, LossSpec("ce"))
    assert out.value == pytest.approx(math.log(2.0), abs=1e-15)
    assert np.allclose(out.grad_logits, [-0.5, 0.5], atol=1e-15)
    out = evaluate_loss(LOGITS3, 0, LossSpec("ce"))
    assert out.value == pytest.approx(0.5514447139320511, abs=1e-14)


def test_mae_reference_values():
    out = evaluate_loss([0.0, 0.0], 0, LossSpec("mae"))
    assert out.value == pytest.approx(1.0, abs=1e-15)
    # -2 p_y (e_y - p) at p = (1/2, 1/2)
    assert np.allclose(out.grad_logits, [-0.5, 0.5], atol=1e-15)


def test_ce_eps_reference_values_on_target():
    out = evaluate_loss(LOGITS3, 0, LossSpec("ce_eps", m=1.0))
    assert out.value == pytest.approx(0.23818302641382824, abs=1e-14)


def test_ce_eps_reference_value_off_target():
    # argmax is class 1, label is 0: the loss falls back to a shifted CE
    out = evaluate_loss([0.0, 3.0, 0.0], 0, LossSpec("ce_eps", m=1.0))
    assert out.value == pytest.approx(3.788070136980906, abs=1e-13)


def test_ce_eps_off_target_gradient_equals_ce_gradient():
    ce = evaluate_loss([0.0, 3.0, 0.0], 0, LossSpec("ce"))
    eps = evaluate_loss([0.0, 3.0, 0.0], 0, LossSpec("ce_eps", m=1.0))
    assert np.array_equal(eps.grad_logits, ce.grad_logits)


def test_ce_eps_on_target_gradient_is_damped_ce():
    # at p_y = 1/2 and m = 1 the damping factor is exactly p_y / (p_y + m) = 1/3
    ce = evaluate_loss([0.0, 0.0], 0, LossSpec("ce"))
    eps = evaluate_loss([0.0, 0.0], 0, LossSpec("ce_eps", m=1.0))
    assert np.allclose(eps.grad_logits, ce.grad_logits * (0.5 / 1.5), atol=1e-16)


@pytest.mark.parametrize("m", [0.5, 1e4])
@pytest.mark.parametrize("k", [2, 4, 10])
def test_ce_eps_logit_gradient_is_ce_on_misses_and_damped_ce_on_hits(k, m):
    """The gradient identity behind the damping: on rows whose argmax misses
    the label the ce_eps logit gradient is ce's, and on rows where it hits it
    is p_y / (p_y + m) times ce's, bit for bit."""
    rng = np.random.default_rng(k)
    logits = rng.uniform(-4.0, 4.0, size=(20_000, k))
    labels = rng.integers(0, k, size=20_000)
    _, ce = batch_loss(logits, labels, LossSpec("ce"))
    _, eps = batch_loss(logits, labels, LossSpec("ce_eps", m=m))
    p = softmax_rows(logits)
    hit = np.argmax(p, axis=1) == labels  # ties go to the lowest index
    assert 0 < hit.sum() < hit.size
    py = p[np.arange(labels.size), labels][:, None]
    assert np.array_equal(eps[~hit], ce[~hit])
    assert np.array_equal(eps[hit], (py / (py + m))[hit] * ce[hit])


def test_fl_reference_values():
    assert evaluate_loss(LOGITS3, 0, LossSpec("fl", gamma=2.0)).value == pytest.approx(
        0.09908187417336804, abs=1e-14
    )
    assert evaluate_loss(LOGITS3, 0, LossSpec("fl", gamma=0.5)).value == pytest.approx(
        0.3590252858961713, abs=1e-14
    )


def test_gce_reference_values():
    out = evaluate_loss([0.0, 0.0], 0, LossSpec("gce", q=0.7))
    assert out.value == pytest.approx(0.5491825618964884, abs=1e-14)
    assert np.allclose(
        out.grad_logits, [-0.3077861033362291, 0.3077861033362291], atol=1e-14
    )


def test_sce_reference_value():
    out = evaluate_loss([0.0, 0.0], 0, LossSpec("sce", alpha=1.0, beta=1.0, A=-4.0))
    assert out.value == pytest.approx(2.6931471805599454, abs=1e-14)


@pytest.mark.parametrize("spec", [LossSpec("ce"), LossSpec("ce_eps", m=1e4)], ids=["ce", "ce_eps"])
def test_log_floor_caps_the_loss_of_a_vanishing_label_probability(spec):
    # p_y = e**-1000 underflows to 0, and label 1 misses the argmax, so ce_eps
    # takes the unamplified log too: both read -log(LOG_FLOOR)
    values, _ = batch_loss(np.array([[0.0, -1000.0]]), np.array([1]), spec)
    assert values[0] == -math.log(LOG_FLOOR) == 18.420680743952367


# ---------------------------------------------------------------------------
# Exact reductions between kinds
# ---------------------------------------------------------------------------


@given(labeled_logits())
def test_ce_eps_with_zero_amplification_is_ce_bitwise(case):
    x, y = case
    a = evaluate_loss(x, y, LossSpec("ce"))
    b = evaluate_loss(x, y, LossSpec("ce_eps", m=0.0))
    assert a.value == b.value
    assert np.array_equal(a.grad_logits, b.grad_logits)


@given(labeled_logits())
def test_fl_with_zero_gamma_is_ce_bitwise(case):
    x, y = case
    a = evaluate_loss(x, y, LossSpec("ce"))
    b = evaluate_loss(x, y, LossSpec("fl", gamma=0.0))
    assert a.value == b.value
    assert np.array_equal(a.grad_logits, b.grad_logits)


@given(labeled_logits())
def test_fl_eps_degenerate_corners(case):
    x, y = case
    fl_eps = evaluate_loss(x, y, LossSpec("fl_eps", m=0.0, gamma=1.5))
    assert fl_eps.value == evaluate_loss(x, y, LossSpec("fl", gamma=1.5)).value
    fl_eps = evaluate_loss(x, y, LossSpec("fl_eps", m=4.0, gamma=0.0))
    assert fl_eps.value == evaluate_loss(x, y, LossSpec("ce_eps", m=4.0)).value


@given(labeled_logits())
def test_combined_with_zero_weights_reduces_to_parts(case):
    x, y = case
    only_fit = evaluate_loss(x, y, LossSpec("ce_eps_mae", m=2.0, alpha=1.0, beta=0.0))
    only_mae = evaluate_loss(x, y, LossSpec("ce_eps_mae", m=2.0, alpha=0.0, beta=1.0))
    fit = evaluate_loss(x, y, LossSpec("ce_eps", m=2.0))
    mae = evaluate_loss(x, y, LossSpec("mae"))
    assert only_fit.value == fit.value
    assert np.array_equal(only_fit.grad_logits, fit.grad_logits)
    assert only_mae.value == mae.value
    assert np.array_equal(only_mae.grad_logits, mae.grad_logits)


@given(labeled_logits())
def test_combined_is_the_weighted_sum(case):
    x, y = case
    spec = LossSpec("ce_eps_mae", m=3.0, alpha=0.7, beta=1.3)
    combined = evaluate_loss(x, y, spec)
    fit = evaluate_loss(x, y, LossSpec("ce_eps", m=3.0))
    mae = evaluate_loss(x, y, LossSpec("mae"))
    expect = 0.7 * fit.value + 1.3 * mae.value
    assert combined.value == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("kind, fit_kind", [("ce_eps_mae", "ce_eps"), ("fl_eps_mae", "fl_eps")])
@pytest.mark.parametrize("alpha, beta", [(0.1, 1.0), (1.0, 0.0), (0.0, 2.0)])
def test_combined_batch_is_the_zero_started_weighted_sum_bitwise(kind, fit_kind, alpha, beta):
    rng = np.random.default_rng(7)
    logits = rng.normal(0.0, 3.0, size=(64, 5))
    logits[:4] = [60.0, 0.0, 0.0, 0.0, 0.0]  # p_y == 1: MAE gradients with signed zeros
    labels = rng.integers(0, 5, size=64)
    labels[:2] = 0
    values, grads = batch_loss(logits, labels, LossSpec(kind, m=2.0, alpha=alpha, beta=beta))
    fit_v, fit_g = batch_loss(logits, labels, LossSpec(fit_kind, m=2.0))
    mae_v, mae_g = batch_loss(logits, labels, LossSpec("mae"))
    # zero-filled accumulators, each nonzero weight's term added in turn
    want_v, want_g = np.zeros_like(fit_v), np.zeros_like(fit_g)
    if alpha != 0.0:
        want_v, want_g = alpha * fit_v, alpha * fit_g
    if beta != 0.0:
        want_v, want_g = want_v + beta * mae_v, want_g + beta * mae_g
    assert values.tobytes() == want_v.tobytes()
    assert grads.tobytes() == want_g.tobytes()


# ---------------------------------------------------------------------------
# Batch evaluation
# ---------------------------------------------------------------------------


@given(st.lists(labeled_logits(min_k=4, max_k=4), min_size=1, max_size=6))
def test_batch_matches_per_sample_evaluation(cases):
    logits = np.stack([x for x, _ in cases])
    labels = np.array([y for _, y in cases])
    for kind in LOSS_KINDS:
        spec = LossSpec(kind, m=2.0)
        values, grads = batch_loss(logits, labels, spec)
        for i, (x, y) in enumerate(cases):
            single = evaluate_loss(x, y, spec)
            assert values[i] == single.value
            assert np.array_equal(grads[i], single.grad_logits)


def test_evaluate_loss_validates_inputs():
    spec = LossSpec("ce")
    with pytest.raises(ValueError):
        evaluate_loss([[0.0, 1.0]], 0, spec)
    with pytest.raises(ValueError):
        evaluate_loss([1.0], 0, spec)
    with pytest.raises(ValueError):
        evaluate_loss([0.0, float("nan")], 0, spec)
    with pytest.raises(IndexError):
        evaluate_loss([0.0, 1.0], 2, spec)


@pytest.mark.parametrize("label", [1.5, 1.0, np.float64(2.0), True], ids=repr)
def test_evaluate_loss_refuses_a_label_that_is_not_an_integer(label):
    # True would otherwise score as class 1, and a float index fails inside numpy
    with pytest.raises(ValueError, match="labels must be integers"):
        evaluate_loss([0.0, 1.0, 2.0], label, LossSpec("ce"))


def test_evaluate_loss_silences_the_overflow_of_its_max_subtraction():
    # -1e308 - 1e308 overflows to -inf, whose exp is an exact 0; warnings are
    # errors under this suite, as in eps_softmax's test
    with np.errstate(over="raise"):
        out = evaluate_loss([1e308, -1e308], 0, LossSpec("ce"))
    assert math.isfinite(out.value)
    assert np.isfinite(out.grad_logits).all()
    assert out.value == 0.0
    assert np.array_equal(out.grad_logits, [0.0, 0.0])


@pytest.mark.parametrize("n, k", [(1, 2), (128, 4), (7, 10), (3, 129)])
def test_batch_loss_gradients_are_c_contiguous_rows(n, k):
    rng = np.random.default_rng(n * k)
    logits = rng.normal(size=(n, k))
    labels = rng.integers(0, k, size=n)
    for kind in LOSS_KINDS:
        values, grads = batch_loss(logits, labels, LossSpec(kind, m=2.0))
        assert values.shape == (n,)
        assert grads.shape == (n, k)
        assert grads.flags.c_contiguous, kind


def test_grad_shape_matches_logits():
    out = evaluate_loss([0.5, -0.5, 2.0], 1, LossSpec("fl_eps_mae", m=5.0))
    assert out.grad_logits.shape == (3,)


# ---------------------------------------------------------------------------
# Symmetric sums: every kind's value summed over all labels at one prediction
# ---------------------------------------------------------------------------


@given(prob_vectors())
def test_mae_symmetric_sum_is_constant(p):
    k = p.size
    assert symmetric_sums(p[None, :], LossSpec("mae"))[0] == pytest.approx(
        2.0 * (k - 1), abs=1e-12
    )


@given(prob_vectors())
def test_ce_symmetric_sum_is_not_constant_in_general(p):
    # plain CE is not a symmetric loss; just confirm the sum is finite
    assert math.isfinite(symmetric_sums(p[None, :], LossSpec("ce"))[0])


def test_ce_eps_on_probs_matches_transform_then_log():
    # the eps CE value is -log of the amplified component, on and off the argmax
    p = np.array([0.6, 0.3, 0.1])
    spec = LossSpec("ce_eps", m=4.0)
    got = evaluate_loss(np.log(p), 0, spec).value
    assert got == pytest.approx(-math.log((0.6 + 4.0) / 5.0), abs=1e-14)
    off = evaluate_loss(np.log(p), 2, spec).value
    assert off == pytest.approx(-math.log(0.1 / 5.0), abs=1e-14)


@given(prob_vectors(min_k=3, max_k=6))
def test_vectorized_symmetric_sums_match_scalar_loop(p):
    m = 7.0
    rows = np.stack([p, np.roll(p, 1)])
    got = symmetric_sums(rows, LossSpec("ce_eps", m=m))
    for row, total in zip(rows, got):
        u = amplify(row, argmax_mask(row), m)
        expect = sum(-math.log(max(float(u[k]), 1e-8)) for k in range(row.size))
        assert total == pytest.approx(expect, rel=1e-12)


@given(prob_vectors(min_k=2, max_k=6))
def test_mae_on_probs_identity(p):
    got = evaluate_loss(np.log(p), 0, LossSpec("mae")).value
    assert got == pytest.approx(2.0 * (1.0 - p[0]), abs=1e-12)


@given(labeled_logits(max_k=6))
def test_symmetric_sums_add_up_the_per_label_values(case):
    # one table row gives both: the sum over labels of evaluate_loss's values
    x, _ = case
    p = softmax_rows(x[None, :])
    for kind in LOSS_KINDS:
        spec = LossSpec(kind, m=3.0, alpha=0.4, beta=1.5)
        per_label = [evaluate_loss(x, k, spec).value for k in range(x.size)]
        assert symmetric_sums(p, spec)[0] == pytest.approx(math.fsum(per_label), rel=1e-12)


# ---------------------------------------------------------------------------
# An eps variant of any term is one table row
# ---------------------------------------------------------------------------

EPS_ROWS = {
    "gce_eps": ((None, True, losses._gce_term),),
    "mae_eps": ((None, True, losses._mae_term),),
    "rce_eps": ((None, True, losses._rce_term),),
    "sce_eps": (("beta", True, losses._rce_term), ("alpha", True, losses._log_term)),
    "gce_eps_mae": (("alpha", True, losses._gce_term), ("beta", False, losses._mae_term)),
}


@pytest.fixture
def eps_rows(monkeypatch):
    for kind, row in EPS_ROWS.items():
        monkeypatch.setitem(losses._TABLE, kind, row)
    return tuple(EPS_ROWS)


def test_eps_rows_of_existing_terms_pass_gradcheck(eps_rows):
    reports = gradcheck_losses(kinds=eps_rows, cases=300, seed=0)
    assert [r.name for r in reports] == [f"gradcheck_loss_{kind}" for kind in eps_rows]
    for report in reports:
        assert report.passed, (report.name, report.stats)


def test_eps_rows_read_the_amplified_component(eps_rows):
    p = np.array([0.6, 0.3, 0.1])
    m, q, A = 4.0, 0.7, -4.0
    for y in range(p.size):
        f = float(amplify(p, argmax_mask(p), m)[y])
        values = {
            kind: evaluate_loss(np.log(p), y, LossSpec(kind, m=m, q=q, A=A)).value
            for kind in eps_rows
        }
        assert values["gce_eps"] == pytest.approx((1.0 - f**q) / q, abs=1e-14)
        assert values["mae_eps"] == pytest.approx(2.0 * (1.0 - f), abs=1e-14)
        assert values["rce_eps"] == pytest.approx(-A * (1.0 - f), abs=1e-14)


def test_an_eps_row_refuses_a_negative_m(eps_rows):
    # the m check keys on a term reading the amplified view, not on the kind
    for kind in eps_rows:
        with pytest.raises(ConfigError, match="m must be nonnegative"):
            LossSpec(kind, m=-1.0)
    LossSpec("gce", m=-1.0)  # gce reads the plain view and ignores m
