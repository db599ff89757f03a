"""Verification helpers: bound fuzzing, calibrated optima, risk bound, FD oracle."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from eps_softmax.core import make_rng
from eps_softmax.errors import ConfigError
from eps_softmax.noise import NoiseSpec
from eps_softmax.theory import (
    CALIBRATION_MAX_STEPS,
    CALIBRATION_TOL,
    _calibration_optima,
    check_rank_preserving,
    closed_form_optimum,
    delta_sweep,
    fd_gradient,
    gradcheck_losses,
    gradcheck_mlp,
    measure_delta,
    sample_gapped_distribution,
    verify_calibration,
    verify_excess_risk,
    verify_one_hot_bound,
    verify_symmetric_term_cancellation,
)


def test_one_hot_bound_fuzz_smoke():
    report = verify_one_hot_bound(n_classes=5, m=1.0, trials=2000, seed=0)
    assert report.passed
    assert report.stats["violations"] == 0
    assert report.stats["max_observed"] <= report.stats["bound"]


def test_closed_form_optimum_known_value():
    opt = closed_form_optimum([0.78, 0.22], m=1.0)
    assert np.allclose(opt, [0.56, 0.44], atol=1e-15)


def test_closed_form_optimum_with_zero_amplification_is_q():
    q = np.array([0.5, 0.3, 0.2])
    assert np.array_equal(closed_form_optimum(q, 0.0), q)


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


def test_calibration_check_fails_when_the_solver_does_not_converge():
    # at m = 50 the solver needs more steps than its cap allows; the optima
    # are already close enough for the error and rank checks, so only the
    # residual can fail the check
    (report,) = verify_calibration(n_classes=4, ms=(50.0,), n_distributions=5, seed=0)
    assert report.stats["max_abs_err"] < report.stats["tolerance"]
    assert report.stats["rank_preserving"]
    assert report.stats["steps"] == CALIBRATION_MAX_STEPS
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
    assert check_rank_preserving(np.array([0.96, 0.03, 0.01]), q).all()


def test_rank_preserving_flags_a_swap():
    q = np.array([0.7, 0.2, 0.1])
    assert not check_rank_preserving(np.array([0.96, 0.01, 0.03]), q).all()


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


def test_measured_delta_shrinks_with_amplification():
    small = measure_delta(5, m=1000.0, trials=300, seed=0)
    large = measure_delta(5, m=1.0, trials=300, seed=0)
    assert small < large


def test_delta_sweep_smoke():
    report = delta_sweep(n_classes=5, ms=(1.0, 100.0), trials=300, seed=0)
    assert report.passed
    assert len(report.stats["deltas"]) == 2


def _delta_shrinkage_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "delta_shrinkage.py"
    spec = importlib.util.spec_from_file_location("delta_shrinkage", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "ms, code, rows",
    [("1,100", 0, 2), ("100,1", 2, 2), ("5", 1, 0), ("1,x", 1, 0)],
    ids=["decreasing", "increasing", "one_value", "not_a_number"],
)
def test_delta_shrinkage_script_exit_codes(monkeypatch, capsys, ms, code, rows):
    script = _delta_shrinkage_script()
    monkeypatch.setattr(sys, "argv", ["delta_shrinkage.py", "--ms", ms, "--trials", "50"])
    assert script.main() == code
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == (rows + 1 if rows else 0)  # header and rows
    assert err.startswith({0: "", 1: "error: ", 2: "warning: "}[code])
    assert bool(err) == (code != 0)


@pytest.mark.parametrize(
    "check, kwargs",
    [
        (verify_one_hot_bound, {"n_classes": 3, "m": 1.0, "trials": 0}),
        (verify_calibration, {"n_distributions": 0}),
        (verify_symmetric_term_cancellation, {"trials": 0}),
        (measure_delta, {"n_classes": 3, "m": 1.0, "trials": 0}),
        (delta_sweep, {"trials": 0}),
        (delta_sweep, {"ms": ()}),
        (delta_sweep, {"ms": (1.0,)}),
        (gradcheck_losses, {"cases": 0}),
    ],
)
def test_checks_below_their_minimum_count_are_config_errors(check, kwargs):
    # an empty or one-point check would pass without checking anything
    with pytest.raises(ConfigError, match="must be at least"):
        check(**kwargs)


def test_excess_risk_demo_clean_labels_have_zero_gap():
    # same labels, same init: both models coincide, so the gap is exactly zero
    report = verify_excess_risk(NoiseSpec("none", n_classes=4), m=100.0, n_points=80, steps=600)
    assert report.stats["risk_gap"] == 0.0
    assert report.stats["risk_gap"] <= report.stats["bound"]
    assert report.passed


def test_excess_risk_demo_noisy_gap_within_bound():
    spec = NoiseSpec("symmetric", eta=0.3, n_classes=4, seed=0)
    report = verify_excess_risk(spec, m=1e4, n_points=120, steps=1500)
    assert report.passed
    assert report.stats["risk_gap"] <= report.stats["bound"]
    assert report.stats["max_output_distance"] <= report.stats["eps"] + 1e-12


def test_excess_risk_demo_rejects_degenerate_margins():
    # eta = 0.5 on two classes leaves no clean majority; NoiseSpec already
    # warns at construction, and the check then rejects the zero margin
    with pytest.warns(UserWarning):
        spec = NoiseSpec("symmetric", eta=0.5, n_classes=2)
    with pytest.raises(ConfigError):
        verify_excess_risk(spec, m=10.0)


def test_excess_risk_demo_rejects_large_tasks():
    with pytest.raises(ConfigError):
        verify_excess_risk(NoiseSpec("none", n_classes=4), m=10.0, n_points=500)


def test_fd_gradient_on_a_quadratic():
    grad = fd_gradient(lambda v: float((v**2).sum()), np.array([1.0, -2.0, 3.0]))
    assert np.allclose(grad, [2.0, -4.0, 6.0], atol=1e-5)


def test_gradcheck_losses_smoke():
    reports = gradcheck_losses(kinds=("ce", "ce_eps_mae", "gce"), cases=40, seed=0)
    assert all(r.passed for r in reports)
    assert all(r.stats["max_rel_err"] < 1e-5 for r in reports)


def test_gradcheck_mlp_smoke():
    reports = gradcheck_mlp(kinds=("ce", "fl_eps"), seed=0)
    assert all(r.passed for r in reports)
