"""Verification helpers: bound fuzzing, calibrated optima, risk bound, FD oracle."""

import ast
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eps_softmax import losses, theory, transform
from eps_softmax.core import LOG_FLOOR, make_rng, softmax_rows
from eps_softmax.errors import ConfigError
from eps_softmax.noise import NoiseSpec
from eps_softmax.theory import (
    BOUND_GRID_KS,
    BOUND_GRID_MS,
    CALIBRATION_MAX_STEPS,
    CALIBRATION_TOL,
    _calibration_optima,
    check_rank_preserving,
    closed_form_optimum,
    delta_sweep,
    fd_gradient,
    gradcheck_losses,
    gradcheck_mlp,
    one_hot_bound_grid,
    sample_gapped_distribution,
    verify_calibration,
    verify_excess_risk,
    verify_symmetric_term_cancellation,
)
from eps_softmax.transform import distances_to_one_hot_rows, eps_bound, eps_softmax_rows


def test_one_hot_bound_fuzz_smoke():
    reports = one_hot_bound_grid(trials=2000, seed=0)
    assert len(reports) == len(BOUND_GRID_KS) * len(BOUND_GRID_MS)
    for report in reports:
        assert report.passed
        assert report.stats["violations"] == 0
        assert report.stats["max_observed"] <= report.stats["bound"]


def ref_one_hot_bound(n_classes, m, trials, seed):
    """The per-(K, m) check the grid replaced: it draws and softmaxes the
    logits anew for every m. Returns (max_observed, violations)."""
    rng = make_rng(seed)
    worst, violations, remaining = 0.0, 0, trials
    while remaining > 0:
        logits = rng.uniform(-10.0, 10.0, size=(min(20_000, remaining), n_classes))
        dist = distances_to_one_hot_rows(eps_softmax_rows(logits, m))
        worst = max(worst, float(dist.max()))
        violations += int((dist > eps_bound(n_classes, m)).sum())
        remaining -= len(logits)
    return worst, violations


def test_one_hot_bound_grid_takes_one_softmax_per_k_and_chunk(monkeypatch):
    # 45,000 trials are 3 chunks of at most 20,000 rows; every softmax the grid
    # takes, through theory or through the transform, is counted, and every
    # cell still reports what the per-cell check reports
    calls = []
    for module in (theory, transform):
        original = module.softmax_rows
        monkeypatch.setattr(
            module, "softmax_rows", lambda z, _f=original: calls.append(z.shape) or _f(z)
        )
    reports = one_hot_bound_grid(trials=45_000, seed=3)
    assert calls == [(n, k) for k in BOUND_GRID_KS for n in (20_000, 20_000, 5_000)]
    monkeypatch.undo()
    cells = [(k, m) for k in BOUND_GRID_KS for m in BOUND_GRID_MS]
    assert [r.name for r in reports] == [f"one_hot_bound_K{k}_m{m:g}" for k, m in cells]
    for report, (k, m) in zip(reports, cells):
        stats = report.stats
        assert (stats["max_observed"], stats["violations"]) == ref_one_hot_bound(k, m, 45_000, 3)
        assert stats["bound"] == eps_bound(k, m) and stats["trials"] == 45_000


def test_a_nan_distance_fails_every_one_hot_bound_line(monkeypatch):
    # one NaN row per amplify call: > and max() would drop it, and every line pass
    def one_nan_row(*args):
        out = transform.amplify(*args)
        out[0] = np.nan
        return out

    monkeypatch.setattr(theory, "amplify", one_nan_row)
    for report in one_hot_bound_grid(trials=2000, seed=0):
        assert not report.passed, report.name
        assert report.stats["violations"] == 1
        assert math.isnan(report.stats["max_observed"])


def test_closed_form_optimum_known_value():
    opt = closed_form_optimum([0.78, 0.22], m=1.0)
    assert np.allclose(opt, [0.56, 0.44], atol=1e-15)


def test_closed_form_optimum_with_zero_amplification_is_q():
    q = np.array([0.5, 0.3, 0.2])
    assert np.array_equal(closed_form_optimum(q, 0.0), q)


def test_closed_form_optimum_refuses_a_nan_distribution():
    with pytest.raises(ValueError, match="finite"):
        closed_form_optimum([math.nan, 1.0], 1.0)


@pytest.mark.parametrize("m", [math.nan, math.inf, -0.5])
def test_closed_form_optimum_refuses_an_m_the_transform_refuses(m):
    with pytest.raises(ConfigError, match="^m must be (a finite number, got|nonnegative$)"):
        closed_form_optimum([0.9, 0.1], m)


def test_closed_form_optimum_refuses_a_gap_below_the_threshold():
    # below m / (m + 1) there is no interior minimum; the formula's [0.2, 0.8]
    # would not even keep q's argmax
    with pytest.raises(ValueError, match="top-two gap"):
        closed_form_optimum([0.6, 0.4], 1.0)
    # the threshold itself is allowed: gap 0.5 at m = 1, and a tie at m = 0
    assert np.array_equal(closed_form_optimum([0.75, 0.25], 1.0), [0.5, 0.5])
    assert np.array_equal(closed_form_optimum([0.4, 0.4, 0.2], 0.0), [0.4, 0.4, 0.2])


def test_closed_form_optimum_is_a_distribution():
    opt = closed_form_optimum([0.9, 0.06, 0.04], m=4.0)
    assert opt.sum() == pytest.approx(1.0, abs=1e-12)
    assert (opt >= 0).all()


def test_numeric_optimum_matches_closed_form():
    q = np.array([0.8, 0.12, 0.08])
    got, steps, residual = _calibration_optima(q[None, :], m=1.0)
    assert residual <= CALIBRATION_TOL
    assert steps < CALIBRATION_MAX_STEPS
    assert np.allclose(got[0], closed_form_optimum(q, 1.0), atol=1e-6)


def test_numeric_optimum_rejects_small_gaps():
    # gap 0.2 is below the m=1 threshold of 1/2: there is no interior minimum
    # to converge to, so the solver stops at its cap and says so
    _, steps, residual = _calibration_optima(np.array([[0.6, 0.4]]), m=1.0)
    assert steps == CALIBRATION_MAX_STEPS
    assert residual > 1e-3


def test_calibration_check_fails_when_the_solver_does_not_converge(monkeypatch):
    # at m = 50 the solver needs 176 steps; capped at 100, the optima
    # are already close enough for the error and rank checks, so only the
    # residual can fail the check
    monkeypatch.setattr(theory, "CALIBRATION_MAX_STEPS", 100)
    (report,) = verify_calibration(n_classes=4, ms=(50.0,), n_distributions=5, seed=0)
    assert report.stats["max_abs_err"] < report.stats["tolerance"]
    assert report.stats["rank_preserving"]
    assert report.stats["steps"] == 100
    assert report.stats["residual"] > CALIBRATION_TOL
    assert not report.passed


def test_sampled_distributions_respect_the_gap():
    rng = make_rng(0)
    # at m = 1000 the other classes share less than 1e-3, so a floor on the
    # smallest component could never be met
    for m in (1.0, 10.0, 300.0, 1000.0):
        threshold = m / (m + 1.0)
        for _ in range(50):
            q = np.sort(sample_gapped_distribution(4, m, rng))[::-1]
            assert q[0] - q[1] > threshold
            assert q.sum() == pytest.approx(1.0, abs=1e-12)


def test_rank_preserving_on_aligned_predictions():
    q = np.array([0.7, 0.2, 0.1])
    assert check_rank_preserving(np.array([0.96, 0.03, 0.01]), q)


def test_rank_preserving_flags_a_swap():
    q = np.array([0.7, 0.2, 0.1])
    assert not check_rank_preserving(np.array([0.96, 0.01, 0.03]), q)


def rank_preserving_per_cutoff(f, q) -> np.ndarray:
    """The reference: for each k, does f order the top k classes of q correctly?

    Entry k - 1 is true when every class strictly above q's (k+1)-th value
    stays strictly above f's, and every class strictly below q's k-th value
    stays strictly below f's. Non-strict cases impose no constraint.
    """
    k_count = q.size
    q_sorted = np.sort(q)[::-1]
    f_sorted = np.sort(f)[::-1]
    out = np.empty(k_count, dtype=bool)
    for k in range(1, k_count + 1):
        ok = True
        if k < k_count:
            above = q > q_sorted[k]  # strictly above the (k+1)-th value
            ok = ok and bool((f[above] > f_sorted[k]).all())
        below = q < q_sorted[k - 1]
        ok = ok and bool((f[below] < f_sorted[k - 1]).all())
        out[k - 1] = ok
    return out


@given(
    st.integers(2, 6).flatmap(
        lambda k: st.tuples(*[st.lists(st.integers(0, 3), min_size=k, max_size=k)] * 2)
    )
)
def test_pairwise_rank_check_agrees_with_the_per_cutoff_reference(fq):
    # small integers make ties in f and in q common
    f, q = (np.array(v, dtype=np.float64) for v in fq)
    assert check_rank_preserving(f, q) == rank_preserving_per_cutoff(f, q).all()


def test_verify_calibration_smoke():
    reports = verify_calibration(n_classes=3, ms=(1.0,), n_distributions=5, seed=0)
    assert len(reports) == 1
    assert reports[0].passed
    assert reports[0].stats["max_abs_err"] < 1e-3
    assert reports[0].stats["residual"] <= CALIBRATION_TOL
    assert 0 < reports[0].stats["steps"] < CALIBRATION_MAX_STEPS


def test_symmetric_term_cancellation():
    report = verify_symmetric_term_cancellation(trials=500, n_classes=6, seed=0)
    assert report.passed
    assert report.stats["max_abs_discrepancy"] <= 1e-9


def _undamped_log_term(v, spec):
    return -np.log(np.maximum(v.f, LOG_FLOOR)), -1.0


def test_calibration_reads_the_loss_table(monkeypatch):
    # without the damping p_y / (p_y + m) the ce_eps gradient is CE's, whose
    # minimizer is q itself rather than the closed form
    monkeypatch.setitem(losses._TABLE, "ce_eps", ((None, True, _undamped_log_term),))
    (report,) = verify_calibration(n_classes=3, ms=(1.0,), n_distributions=5, seed=0)
    assert report.stats["max_abs_err"] > report.stats["tolerance"]
    assert not report.passed


def test_symmetric_term_cancellation_reads_the_loss_table(monkeypatch):
    # gce's symmetric sum varies with p, so a beta term built from it does not cancel
    rows = (("alpha", True, losses._log_term), ("beta", False, losses._gce_term))
    monkeypatch.setitem(losses._TABLE, "ce_eps_mae", rows)
    report = verify_symmetric_term_cancellation(trials=500, n_classes=6, seed=0)
    assert report.stats["max_abs_discrepancy"] > 1e-3
    assert not report.passed


def test_measured_delta_shrinks_with_amplification():
    large, small = delta_sweep(5, ms=(1.0, 1000.0), trials=300, seed=0).stats["deltas"]
    assert small < large


def test_delta_sweep_draws_once_for_every_m(monkeypatch):
    # the reference is the per-m measurement the sweep replaced, which drew
    # and softmaxed both prediction sets anew for each m
    ms = (1.0, 10.0, 100.0)
    calls = []
    monkeypatch.setattr(theory, "softmax_rows", lambda z: calls.append(z.shape) or softmax_rows(z))
    deltas = delta_sweep(6, ms=ms, trials=200, seed=4).stats["deltas"]
    assert calls == [(200, 6), (200, 6)]
    for m, delta in zip(ms, deltas):
        rng = make_rng(4)
        p1, p2 = (softmax_rows(rng.uniform(-10.0, 10.0, size=(200, 6))) for _ in range(2))
        spec = losses.LossSpec("ce_eps", m=m)
        sums1, sums2 = losses.symmetric_sums(p1, spec), losses.symmetric_sums(p2, spec)
        assert delta == float(np.abs(sums1 - sums2).max())


def test_delta_sweep_smoke():
    report = delta_sweep(n_classes=5, ms=(1.0, 100.0), trials=300, seed=0)
    assert report.passed
    assert len(report.stats["deltas"]) == 2


@pytest.mark.parametrize(
    "check, kwargs",
    [
        (one_hot_bound_grid, {"trials": 0}),
        (verify_calibration, {"n_distributions": 0}),
        (verify_symmetric_term_cancellation, {"trials": 0}),
        (verify_excess_risk, {"noise_specs": []}),
        (delta_sweep, {"trials": 0}),
        (delta_sweep, {"ms": ()}),
        (delta_sweep, {"ms": (1.0,)}),
        (gradcheck_losses, {"cases": 0}),
        (one_hot_bound_grid, {"trials": True}),
        (one_hot_bound_grid, {"trials": 2.5}),
        (gradcheck_losses, {"cases": True}),
        (verify_calibration, {"n_classes": 1}),
        (verify_symmetric_term_cancellation, {"n_classes": 1}),
        (delta_sweep, {"n_classes": 1}),
    ],
)
def test_checks_below_their_minimum_count_are_config_errors(check, kwargs):
    # an empty or one-point check would pass without checking anything
    with pytest.raises(ConfigError, match="must be at least"):
        check(**kwargs)


def test_excess_risk_demo_clean_labels_have_zero_gap():
    # without noise the noisy risk is the clean one: one argmin, so the gap is exactly zero
    spec = NoiseSpec("none", n_classes=4)
    (report,) = verify_excess_risk([spec], m=100.0)
    assert report.stats["risk_gap"] == 0.0
    assert report.stats["risk_gap"] <= report.stats["bound"]
    assert report.passed


def test_excess_risk_demo_noisy_gap_within_bound():
    spec = NoiseSpec("symmetric", eta=0.3, n_classes=4, seed=0)
    (report,) = verify_excess_risk([spec], m=1e4)
    assert report.passed
    assert report.stats["risk_gap"] <= report.stats["bound"]
    assert report.stats["max_output_distance"] <= report.stats["eps"] + 1e-12


def test_excess_risk_demo_rejects_degenerate_margins():
    # eta = 0.5 on two classes leaves no clean majority, so the bound's a is 0;
    # NoiseSpec refuses it, so no such spec reaches the check
    with pytest.raises(ConfigError, match="dominance margin 0 is not positive"):
        NoiseSpec("symmetric", eta=0.5, n_classes=2)


@pytest.mark.parametrize(
    "kind, etas, m, table_gap",
    [
        ("symmetric", (0.2, 0.4, 0.6), 100.0, 7.45e-3),
        ("symmetric", (0.2, 0.4, 0.6), 1e4, 7.5e-5),
        ("asymmetric_shift", (0.2, 0.4), 100.0, 4.96e-3),
        ("asymmetric_shift", (0.2, 0.4), 1e4, 4.99e-5),
    ],
)
def test_the_excess_risk_gap_at_the_noisy_minimizer_is_its_limit_at_every_eta(
    kind, etas, m, table_gap
):
    # ROADMAP item 2's population table: (1 - s*) / (m + 1) whatever eta, with
    # s* = 1/K under symmetric noise and 1/2 under the shift
    reports = verify_excess_risk([NoiseSpec(kind, eta=eta, n_classes=4) for eta in etas], m=m)
    s_star = 0.25 if kind == "symmetric" else 0.5
    for report in reports:
        gap, limit, tol = (report.stats[key] for key in ("risk_gap", "limit", "tolerance"))
        assert report.passed
        assert tol == theory.EXCESS_RISK_REL_TOL
        assert abs(gap - table_gap) <= tol * table_gap
        assert abs(gap - limit) <= tol / 2 * limit
        assert limit == pytest.approx(-math.log((s_star + m) / (m + 1)))


def test_the_m0_control_gap_is_plain_ce_at_the_noisy_minimizer():
    # at m = 0 the minimizer predicts the noisy label distribution, p_0 = 1 - eta
    for report, spec in zip(verify_excess_risk(MUTATION_NOISE), MUTATION_NOISE):
        assert report.stats["risk_gap_m0"] == pytest.approx(-math.log(1.0 - spec.eta), rel=0.02)


def test_the_noisy_excess_risk_lines_fail_at_m0():
    # ce_eps at m = 0 is ce, whose gap grows with eta instead of reaching the limit
    sym, shift, none = verify_excess_risk(MUTATION_NOISE, m=0.0)
    assert not sym.passed and not shift.passed and none.passed
    for report in (sym, shift):
        assert report.stats["risk_gap"] == report.stats["risk_gap_m0"]
        assert report.stats["risk_gap"] < report.stats["bound"]  # the bound half alone passes


def test_excess_risk_stats_name_every_figure_of_the_line():
    for report in verify_excess_risk(MUTATION_NOISE):
        assert set(report.stats) == {"risk_gap", "limit", "tolerance", "risk_gap_m0", "delta",
                                     "c", "a", "bound", "max_output_distance", "eps"}
        assert all(math.isfinite(v) for v in report.stats.values())


def test_the_verify_suite_makes_no_train_step_call(monkeypatch):
    """The excess-risk lines score a grid of predictions; nothing is trained.
    Every train_step call makes one call of the sgd_step it looks up in
    experiment."""
    from eps_softmax import experiment

    calls = []

    def counted(*args, _original=experiment.sgd_step):
        calls.append(None)
        return _original(*args)

    monkeypatch.setattr(experiment, "sgd_step", counted)
    assert all(r.passed for r in theory.run_verification_suite(trials=2000))
    assert calls == []


def test_importing_theory_loads_neither_the_training_harness_nor_the_data():
    code = "import sys, eps_softmax.theory; print(sorted(sys.modules))"
    src = os.path.dirname(os.path.dirname(theory.__file__))
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    loaded = set(ast.literal_eval(done.stdout))
    assert "eps_softmax.theory" in loaded
    assert not loaded & {"eps_softmax.experiment", "eps_softmax.data"}


def test_excess_risk_refuses_bad_spec_lists_before_any_training(monkeypatch):
    # before any risk is evaluated: no batch_loss call
    calls = []
    monkeypatch.setattr(theory, "batch_loss", lambda *args: calls.append(None))
    clean = NoiseSpec("none", n_classes=4)
    for specs, match in (
        ([], "must be at least 1"),
        ([clean, NoiseSpec("none", n_classes=3)], "one class count"),
        ([NoiseSpec("none", n_classes=5)], "K <= 4"),
    ):
        with pytest.raises(ConfigError, match=match):
            verify_excess_risk(specs)
    # a spec with no margin cannot be built, so it never reaches the check
    with pytest.raises(ConfigError, match="margin"):
        NoiseSpec("symmetric", eta=0.75, n_classes=4)
    assert calls == []


def test_fd_gradient_on_a_quadratic():
    grad = fd_gradient(lambda vs: (vs**2).sum(axis=1), np.array([1.0, -2.0, 3.0]))
    assert np.allclose(grad, [2.0, -4.0, 6.0], atol=1e-5)


def ref_fd_gradient(fun, x):
    """The per-coordinate loop fd_gradient replaced: fun takes one point."""
    h = 1e-6
    grad = np.empty_like(x)
    for i in range(x.size):
        xp = x.copy()
        xp.flat[i] += h
        xm = x.copy()
        xm.flat[i] -= h
        grad.flat[i] = (fun(xp) - fun(xm)) / (2.0 * h)
    return grad


def test_fd_gradient_is_the_per_coordinate_loop_in_one_call():
    x = np.array([[1.0, -2.0], [0.5, 3.0]])
    stacks = []

    def cubes(xs):
        stacks.append(xs.shape)
        return (xs**3).sum(axis=(1, 2))

    grad = fd_gradient(cubes, x)
    assert stacks == [(8, 2, 2)]
    assert np.array_equal(grad, ref_fd_gradient(lambda v: cubes(v[None])[0], x))
    # on the loss table: one batch_loss over the stack, the loop's bytes
    rng = make_rng(0)
    for kind in losses.LOSS_KINDS:
        for _ in range(5):
            logits, y = theory._draw_case(rng)
            spec = theory._random_spec(kind, rng)
            stacked = fd_gradient(
                lambda xs: losses.batch_loss(xs, np.full(len(xs), y), spec)[0], logits
            )
            looped = ref_fd_gradient(lambda v: losses.evaluate_loss(v, y, spec).value, logits)
            assert np.array_equal(stacked, looped)


def test_gradcheck_losses_takes_one_call_of_each_loss_entry_point_per_case(monkeypatch):
    # bench/tracing.py wraps theory.evaluate_loss: gradcheck must keep calling
    # it once per case, and the finite differences go through one batch_loss
    calls = {"evaluate_loss": 0, "batch_loss": 0}
    for name in calls:

        def counted(*args, _name=name, _original=getattr(theory, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(theory, name, counted)
    kinds = ("ce", "fl_eps_mae", "gce")
    reports = gradcheck_losses(kinds=kinds, cases=7, seed=0)
    assert all(r.passed for r in reports)
    assert calls == {"evaluate_loss": 7 * len(kinds), "batch_loss": 7 * len(kinds)}


def test_a_nan_gradient_fails_gradcheck(monkeypatch):
    # a NaN in one case of five: max() would keep the finite worst and pass
    calls = []

    def nan_on_second_case(logits, y, spec):
        out = losses.evaluate_loss(logits, y, spec)
        calls.append(None)
        if len(calls) % 5 == 2:
            out.grad_logits[...] = np.nan
        return out

    monkeypatch.setattr(theory, "evaluate_loss", nan_on_second_case)
    for report in gradcheck_losses(kinds=("ce", "ce_eps_mae"), cases=5, seed=0):
        assert not report.passed, report.name
        assert math.isnan(report.stats["max_rel_err"])


def test_gradcheck_losses_smoke():
    reports = gradcheck_losses(kinds=("ce", "ce_eps_mae", "gce"), cases=40, seed=0)
    assert all(r.passed for r in reports)
    assert all(r.stats["max_rel_err"] < 1e-5 for r in reports)


def test_gradcheck_mlp_smoke():
    reports = gradcheck_mlp(kinds=("ce", "fl_eps"), seed=0)
    assert all(r.passed for r in reports)


# ---------------------------------------------------------------------------
# Mutation table: each fault below fails exactly the named lines of a small
# battery of every verify and gradcheck check but calibration and cancellation
# (which test_calibration_reads_the_loss_table and
# test_symmetric_term_cancellation_reads_the_loss_table pin); the plain-view
# fault runs it with the two cancellation lines added
# ---------------------------------------------------------------------------

MUTATION_NOISE = [
    NoiseSpec("symmetric", eta=0.4, n_classes=4, seed=0),
    NoiseSpec("asymmetric_shift", eta=0.3, n_classes=4, seed=0),
    NoiseSpec("none", n_classes=4, seed=0),
]
EPS_KINDS = ("ce_eps", "fl_eps", "ce_eps_mae", "fl_eps_mae")
NOISY_EXCESS_RISK = {"excess_risk_symmetric_eta0.4", "excess_risk_asymmetric_shift_eta0.3"}


def failed_lines() -> set:
    reports = (
        one_hot_bound_grid(trials=2000, seed=0)
        + [delta_sweep(trials=200, seed=0)]
        + verify_excess_risk(MUTATION_NOISE)
        + gradcheck_losses(cases=40, seed=0)
        + gradcheck_mlp(seed=0)
    )
    return {r.name for r in reports if not r.passed}


def bound_lines(cells) -> set:
    return {f"one_hot_bound_K{k}_m{m:g}" for k, m in cells}


def gradcheck_lines(kinds) -> set:
    return {f"gradcheck_{part}_{kind}" for part in ("loss", "mlp") for kind in kinds}


def _replace_amplify(monkeypatch, mutant):
    for module in (theory, losses):
        monkeypatch.setattr(module, "amplify", mutant)


def test_the_mutation_battery_passes_unmutated():
    assert failed_lines() == set()


def test_an_amplify_that_ignores_m_fails_the_bound_delta_and_eps_lines(monkeypatch):
    _replace_amplify(monkeypatch, lambda p, is_top, m: p + 0.0 * is_top)
    positive_m = bound_lines((k, m) for k in BOUND_GRID_KS for m in BOUND_GRID_MS if m > 0)
    assert failed_lines() == (
        positive_m | {"delta_shrinks_K10", "excess_risk_none_eta0"} | NOISY_EXCESS_RISK
        | gradcheck_lines(EPS_KINDS)
    )


def test_an_amplify_that_divides_by_m_fails_the_bound_risk_and_focal_lines(monkeypatch):
    # by m instead of m + 1, and by 1 at m = 0, where m + 1 is 1 too
    _replace_amplify(monkeypatch, lambda p, is_top, m: (p + m * is_top) / (m or 1.0))
    cells = [(k, m) for k in (2, 10) for m in (1.0, 10.0, 100.0)] + [(100, 1.0)]
    with np.errstate(invalid="ignore"):  # a hit's f > 1, so (1 - f) ** gamma is NaN
        failed = failed_lines()
    assert failed == (
        bound_lines(cells) | {"excess_risk_none_eta0"} | NOISY_EXCESS_RISK
        | gradcheck_lines(("fl_eps", "fl_eps_mae"))
    )


def test_a_raised_log_floor_fails_the_noisy_excess_risk_lines(monkeypatch):
    # their bound rests on the floor: d measures the least confident prediction
    monkeypatch.setattr(losses, "LOG_FLOOR", 1e-4)
    assert failed_lines() == NOISY_EXCESS_RISK


def test_a_fit_term_on_the_plain_view_fails_only_the_cancellation_lines(monkeypatch):
    # ce_eps_mae's CE term on p_y: the pair differences of its symmetric sums
    # then move with p, so they no longer equal ce_eps's
    rows = (("alpha", False, losses._log_term), ("beta", False, losses._mae_term))
    monkeypatch.setitem(losses._TABLE, "ce_eps_mae", rows)
    cancellation = [
        verify_symmetric_term_cancellation(n_classes=k, trials=500, seed=0) for k in (2, 10)
    ]
    failed = failed_lines() | {r.name for r in cancellation if not r.passed}
    assert failed == {"symmetric_term_cancellation_K2", "symmetric_term_cancellation_K10"}


def test_dropping_the_damping_on_hit_rows_fails_every_eps_gradcheck_line(monkeypatch):
    original = losses._amplified_view
    monkeypatch.setattr(
        losses, "_amplified_view", lambda py, hit, m: original(py, hit, m)._replace(damp=1.0)
    )
    assert failed_lines() == gradcheck_lines(EPS_KINDS)
