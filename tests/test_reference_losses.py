"""The loss table against a copy of the per-family loss code it replaced.

The reference below is the earlier losses module: one batch function per
family, the label-column amplification written inline, the vectorized eps-CE
symmetric sums, and the row and vector forms of the transform. The table in
eps_softmax.losses must give the same values byte for byte, the same
gradients up to the sign of exact zeros, and the same symmetric sums and
amplified outputs byte for byte: the rewrite changed how losses are
organized, never the arithmetic.

The one documented difference: the reference formed CE's gradient as p - e_y,
the table as -1 · (e_y - p). On a row with p_y == 1 the label entry is
therefore +0.0 in the reference and -0.0 in the table, for ce and for sce's CE
term; every other entry and every value is the same bytes.
"""

import numpy as np
import pytest

from eps_softmax.core import LOG_FLOOR, softmax_rows
from eps_softmax.losses import LossSpec, batch_loss, evaluate_loss, symmetric_sums
from eps_softmax.transform import amplify, argmax_mask, eps_softmax, eps_softmax_rows

# ---------------------------------------------------------------------------
# Reference: the per-family batch functions, verbatim
# ---------------------------------------------------------------------------


def log_clamped(x):
    return np.log(np.maximum(x, LOG_FLOOR))


def _target_direction(p, rows, labels):
    d = -p
    d[rows, labels] += 1.0
    return d


def _ce_batch(p, py, rows, labels):
    values = -log_clamped(py)
    grads = p.copy()
    grads[rows, labels] -= 1.0
    return values, grads


def _mae_batch(py, d):
    values = 2.0 * (1.0 - py)
    grads = (-2.0 * py)[:, None] * d
    return values, grads


def _eps_scale(p, py, labels, m):
    on_target = np.argmax(p, axis=1) == labels
    fy = np.where(on_target, py + m, py) / (m + 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(on_target, py / (py + m), 1.0)
    return on_target, fy, scale


def _ce_eps_batch(p, py, labels, m, d):
    _, fy, scale = _eps_scale(p, py, labels, m)
    values = -log_clamped(fy)
    grads = -(scale[:, None] * d)
    return values, grads


def _focal_eps_batch(p, py, labels, m, gamma, d):
    _, fy, scale = _eps_scale(p, py, labels, m)
    logf = log_clamped(fy)
    one_minus = 1.0 - fy
    mod = one_minus**gamma
    values = -mod * logf
    coeff = np.zeros_like(py)
    if gamma > 0.0:
        pos = one_minus > 0.0
        coeff[pos] = gamma * one_minus[pos] ** (gamma - 1.0) * logf[pos] * (py[pos] / (m + 1.0))
    coeff -= mod * scale
    grads = coeff[:, None] * d
    return values, grads


def _gce_batch(py, q, d):
    pq = py**q
    values = (1.0 - pq) / q
    grads = (-pq)[:, None] * d
    return values, grads


def _sce_batch(p, py, rows, labels, alpha, beta, A):
    ce_values, ce_grads = _ce_batch(p, py, rows, labels)
    rce_values = -A * (1.0 - py)
    rce_grads = (A * py)[:, None] * _target_direction(p, rows, labels)
    return alpha * ce_values + beta * rce_values, alpha * ce_grads + beta * rce_grads


def ref_batch_loss(logits, labels, spec):
    p = softmax_rows(np.asarray(logits, dtype=np.float64))
    labels = np.asarray(labels)
    rows = np.arange(p.shape[0])
    py = p[rows, labels]
    kind = spec.kind
    if kind == "ce":
        return _ce_batch(p, py, rows, labels)
    if kind == "sce":
        return _sce_batch(p, py, rows, labels, spec.alpha, spec.beta, spec.A)
    d = _target_direction(p, rows, labels)
    if kind == "mae":
        return _mae_batch(py, d)
    if kind == "ce_eps":
        return _ce_eps_batch(p, py, labels, spec.m, d)
    if kind == "fl":
        return _focal_eps_batch(p, py, labels, 0.0, spec.gamma, d)
    if kind == "fl_eps":
        return _focal_eps_batch(p, py, labels, spec.m, spec.gamma, d)
    if kind == "gce":
        return _gce_batch(py, spec.q, d)
    values, grads = 0.0, 0.0
    if spec.alpha != 0.0:
        if kind == "ce_eps_mae":
            bv, bg = _ce_eps_batch(p, py, labels, spec.m, d)
        else:
            bv, bg = _focal_eps_batch(p, py, labels, spec.m, spec.gamma, d)
        values = spec.alpha * bv
        grads = spec.alpha * bg
    if spec.beta != 0.0:
        mv, mg = _mae_batch(py, d)
        values += spec.beta * mv
        grads += spec.beta * mg
    return values, grads


def ref_ce_eps_symmetric_sums(p_rows, m):
    t = np.argmax(p_rows, axis=1)
    u = p_rows / (m + 1.0)
    rows = np.arange(p_rows.shape[0])
    u[rows, t] = (p_rows[rows, t] + m) / (m + 1.0)
    return -log_clamped(u).sum(axis=1)


def ref_stable_softmax(logits):
    x = np.asarray(logits, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-D logit vector, got shape {x.shape}")
    if x.size < 2:
        raise ValueError("softmax needs at least 2 classes")
    if not np.isfinite(x).all():
        raise ValueError("logits must be finite")
    with np.errstate(over="ignore"):  # finite - finite may still overflow to -inf
        z = np.exp(x - x.max())
    return z / z.sum()


def ref_eps_transform_probs(p, m):
    arr = np.asarray(p, dtype=np.float64)
    t = int(np.argmax(arr))
    out = arr / (m + 1.0)
    out[t] = (arr[t] + m) / (m + 1.0)
    return out


def ref_eps_softmax_rows(logits, m):
    p = softmax_rows(logits)
    t = np.argmax(p, axis=1)
    out = p / (m + 1.0)
    rows = np.arange(p.shape[0])
    out[rows, t] = (p[rows, t] + m) / (m + 1.0)
    return out


# ---------------------------------------------------------------------------
# Inputs: moderate and large logits, exact ties, saturated rows
# ---------------------------------------------------------------------------

# the kinds the reference knows; a kind added to the table later has no reference
KINDS = ("ce", "fl", "mae", "ce_eps", "fl_eps", "ce_eps_mae", "fl_eps_mae", "gce", "sce")
AMPLIFICATIONS = (0.0, 0.5, 1e4)
GAMMAS = (0.0, 0.5, 2.0)
# kinds whose gradient the reference formed as p - e_y, not c * (e_y - p)
SIGNED_ZERO_KINDS = ("ce", "sce")


def logit_batch(rng, n_classes, scale):
    """64 rows: random logits at the given scale, then exact ties and rows
    saturated to p = (1, 0, ..., 0) under labels on and off the winner."""
    logits = rng.normal(0.0, scale, size=(64, n_classes))
    labels = rng.integers(0, n_classes, size=64)
    logits[:4] = 0.0  # every class tied
    logits[4:8] = rng.normal(0.0, scale, size=n_classes)
    logits[4:8, :2] = logits[4:8].max() + 1.0  # the top two tied
    logits[8:12] = 0.0
    logits[8:12, 0] = 60.0  # p_y == 1 on label 0
    labels[8:10] = 0
    return logits, labels


def random_specs(kind, rng):
    """Specs over the m and gamma grids, with each weight in turn set to zero."""
    weights = [(float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.1, 3.0))), (0.0, 1.3), (0.7, 0.0)]
    for m in AMPLIFICATIONS:
        for gamma in GAMMAS:
            for alpha, beta in weights:
                yield LossSpec(
                    kind,
                    m=m,
                    alpha=alpha,
                    beta=beta,
                    gamma=gamma,
                    q=float(rng.uniform(0.05, 1.0)),
                    A=float(rng.uniform(-6.0, -1.0)),
                )


def batches(seed):
    rng = np.random.default_rng(seed)
    for n_classes in (2, 3, 4, 10):
        for scale in (0.1, 3.0, 30.0):
            yield logit_batch(rng, n_classes, scale)


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
def test_batch_loss_matches_the_reference(kind):
    rng = np.random.default_rng(KINDS.index(kind))
    for logits, labels in batches(11):
        for spec in random_specs(kind, rng):
            values, grads = batch_loss(logits, labels, spec)
            want_v, want_g = ref_batch_loss(logits, labels, spec)
            assert values.tobytes() == want_v.tobytes(), spec
            assert np.array_equal(grads, want_g), spec
            if kind not in SIGNED_ZERO_KINDS:
                assert grads.tobytes() == want_g.tobytes(), spec


@pytest.mark.parametrize("kind", SIGNED_ZERO_KINDS)
def test_signed_zeros_differ_only_at_saturated_labels(kind):
    logits = np.array([[60.0, 0.0, 0.0], [1.0, 0.5, -2.0], [60.0, 0.0, 0.0]])
    labels = np.array([0, 1, 2])
    spec = LossSpec(kind, alpha=0.7, beta=1.3)
    grads = batch_loss(logits, labels, spec)[1]
    want = ref_batch_loss(logits, labels, spec)[1]
    differs = np.signbit(grads) != np.signbit(want)
    assert np.argwhere(differs).tolist() == [[0, 0]]
    assert grads[0, 0] == want[0, 0] == 0.0


def test_evaluate_loss_matches_the_reference_rows():
    rng = np.random.default_rng(3)
    logits, labels = logit_batch(rng, 5, 3.0)
    for kind in KINDS:
        spec = LossSpec(kind, m=0.5, gamma=2.0, alpha=0.3, beta=1.1)
        want_v, want_g = ref_batch_loss(logits, labels, spec)
        for i in range(logits.shape[0]):
            out = evaluate_loss(logits[i], int(labels[i]), spec)
            assert np.float64(out.value).tobytes() == want_v[i].tobytes()
            assert np.array_equal(out.grad_logits, want_g[i])


@pytest.mark.parametrize("m", AMPLIFICATIONS + (1.0, 10.0, 100.0, 1000.0))
def test_symmetric_sums_match_the_reference(m):
    rng = np.random.default_rng(5)
    spec = LossSpec("ce_eps", m=m)
    for logits, _ in batches(13):
        p = softmax_rows(logits)
        assert symmetric_sums(p, spec).tobytes() == ref_ce_eps_symmetric_sums(p, m).tobytes()
    p = rng.dirichlet(np.ones(10), size=500)
    assert symmetric_sums(p, spec).tobytes() == ref_ce_eps_symmetric_sums(p, m).tobytes()


@pytest.mark.parametrize("m", AMPLIFICATIONS + (10.0,))
def test_amplified_outputs_match_the_reference(m):
    for logits, _ in batches(17):
        rows = eps_softmax_rows(logits, m)
        assert rows.tobytes() == ref_eps_softmax_rows(logits, m).tobytes()
        p = softmax_rows(logits)
        for i in range(logits.shape[0]):
            want = ref_eps_transform_probs(p[i], m)
            assert amplify(p[i], argmax_mask(p[i]), m).tobytes() == want.tobytes()
            assert rows[i].tobytes() == want.tobytes()
        want = ref_eps_transform_probs(ref_stable_softmax(logits[0]), m)
        assert eps_softmax(logits[0], m).tobytes() == want.tobytes()


def test_eps_softmax_at_zero_is_the_reference_softmax():
    # every row of every batch, plus logits whose max subtraction overflows
    for logits, _ in batches(19):
        for row in logits:
            assert eps_softmax(row).tobytes() == ref_stable_softmax(row).tobytes()
    extreme = np.array([1e308, -1e308, 0.0])
    with np.errstate(over="raise"):
        assert eps_softmax(extreme).tobytes() == ref_stable_softmax(extreme).tobytes()
