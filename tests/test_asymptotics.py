import math

import numpy as np
import pytest

from cplab import (FitDomainError, Geometry, InvalidParameterError,
                   LatticePeriodicityWarning, ModelParams, TraceSystem,
                   binding_energy_exact, build_lattice, convergence_study,
                   fit_power_law, fourth_order_main, make_custom_profile,
                   make_gaussian_profile, sweep_R, trace_word)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_constant_evaluator():
    grid = [1.0, 2.0, 4.0]
    sweep = sweep_R(grid, lambda R: 1.0)
    np.testing.assert_allclose(sweep.r7_scaled, np.array(grid) ** 7)
    np.testing.assert_allclose(sweep.r9_scaled, np.array(grid) ** 9)
    assert sweep.gaps == []


def test_sweep_records_gaps():
    def flaky(R):
        if R == 2.0:
            raise InvalidParameterError("boom")
        return 1.0 / R

    sweep = sweep_R([1.0, 2.0, 3.0], flaky)
    assert list(sweep.R) == [1.0, 3.0]
    assert len(sweep.gaps) == 1 and sweep.gaps[0][0] == 2.0
    assert "boom" in sweep.gaps[0][1]


def test_sweep_propagates_programming_errors():
    def buggy(R):
        if R == 2.0:
            return len(R)  # TypeError: a bug, not an evaluation failure
        return 1.0 / R

    with pytest.raises(TypeError):
        sweep_R([1.0, 2.0, 3.0], buggy)

    # no cplab route raises LinAlgError either, so one is a bug too
    def singular(R):
        return float(np.linalg.inv(np.zeros((2, 2)))[0, 0])

    with pytest.raises(np.linalg.LinAlgError):
        sweep_R([1.0, 2.0], singular)


def test_sweep_validates_grid():
    with pytest.raises(InvalidParameterError):
        sweep_R([], lambda R: 1.0)
    with pytest.raises(InvalidParameterError):
        sweep_R([2.0, 1.0], lambda R: 1.0)
    # non-finite entries would give non-finite rows with no gap
    for grid in ([math.nan], [1.0, math.inf], [math.nan, 2.0]):
        with pytest.raises(InvalidParameterError):
            sweep_R(grid, lambda R: 1.0)


def test_sweep_rejects_non_callable_evaluator():
    # a name or a number is a typed error before the grid is walked
    for evaluator in ("continuum-main", "no-such-evaluator", None, 1.0):
        with pytest.raises(InvalidParameterError, match="callable"):
            sweep_R([1.0, 2.0], evaluator)


def test_sweep_lattice_binding_warns_past_half_box():
    # the sweep passes the binding's own periodicity warning through, once,
    # for the one separation at or past half the box
    params = ModelParams(e=0.5, nu0=3.0)
    prof = make_gaussian_profile(0.25)
    lat = build_lattice(1.0, 1.0)
    with pytest.warns(LatticePeriodicityWarning) as record:
        sweep = sweep_R([0.2, 0.3, 0.6], lambda R: binding_energy_exact(
            params, lat, prof, R))
    assert [w.category for w in record] == [LatticePeriodicityWarning]
    assert "0.6" in str(record[0].message)
    assert sweep.R.tolist() == [0.2, 0.3, 0.6] and sweep.gaps == []


def test_sweep_determinism(default_params, gaussian):
    def main(R):
        return fourth_order_main(R, default_params, gaussian).value

    a = sweep_R([30.0, 60.0], main)
    b = sweep_R([30.0, 60.0], main)
    assert list(a.value) == list(b.value)
    assert list(a.r7_scaled) == list(b.r7_scaled)


# ---------------------------------------------------------------------------
# power-law fits
# ---------------------------------------------------------------------------

def test_fit_exact_power_law():
    rr = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    fit = fit_power_law((rr, 5.0 * rr ** -7))
    assert fit.exponent == pytest.approx(-7.0, abs=1e-10)
    assert fit.coefficient == pytest.approx(5.0, rel=1e-10)
    assert fit.residual_rms < 1e-12
    assert not fit.low_confidence


def test_fit_with_subleading_correction():
    rr = np.linspace(30.0, 120.0, 7)
    fit = fit_power_law((rr, rr ** -7 * (1 + 10.0 / rr ** 2)))
    assert -7.1 < fit.exponent < -6.9


def test_fit_negative_values_carry_sign():
    rr = np.array([1.0, 2.0, 4.0])
    fit = fit_power_law((rr, -3.0 * rr ** -2.0))
    assert fit.exponent == pytest.approx(-2.0, abs=1e-10)
    assert fit.coefficient == pytest.approx(-3.0, rel=1e-10)


def test_fit_two_points_low_confidence():
    # two distinct R make an exact fit however many points repeat them
    for points in (([1.0, 2.0], [1.0, 0.25]),
                   ([1.0, 1.0, 2.0], [1.0, 1.0, 0.25])):
        fit = fit_power_law(points)
        assert fit.low_confidence
        assert fit.exponent == pytest.approx(-2.0, abs=1e-12)
        assert fit.residual_rms < 1e-14


def test_fit_sign_change_rejected():
    with pytest.raises(FitDomainError):
        fit_power_law(([1.0, 2.0, 3.0], [1.0, -1.0, 1.0]))
    with pytest.raises(FitDomainError):
        fit_power_law(([1.0], [1.0]))


def test_fit_non_finite_rejected():
    # a NaN value (or R) inside the window would give an all-NaN fit
    for rr, vv in (([1.0, 2.0, 3.0], [1.0, math.nan, 0.1]),
                   ([1.0, 2.0, 3.0], [1.0, math.inf, 0.1]),
                   ([1.0, math.nan, 3.0], [1.0, 0.5, 0.1]),
                   ([-1.0, 2.0, 3.0], [1.0, 0.5, 0.1])):
        with pytest.raises(FitDomainError):
            fit_power_law((rr, vv))
    # outside the window a NaN is never read
    fit = fit_power_law(([1.0, 2.0, 4.0], [math.nan, 0.25, 0.0625]),
                        window=(2.0, 4.0))
    assert fit.exponent == pytest.approx(-2.0, abs=1e-12)


def test_fit_malformed_points_rejected():
    # no points, a point without a value, unequal R and value arrays, one
    # distinct R, and a sequence of (R, value) pairs, which a 2-tuple of
    # pairs would silently transpose
    for points in ([], [(1.0,)], ([1.0, 2.0], [1.0]),
                   [(1.0, 1.0, 1.0), (2.0, 0.5, 0.5)],
                   ([[1.0, 2.0]], [[1.0, 0.25]]),
                   ([1.0, 1.0], [1.0, 2.0]),
                   [(1.0, 2.0), (3.0, 2.0 ** -7)]):
        with pytest.raises(FitDomainError):
            fit_power_law(points)


def test_fit_window_selection():
    rr = np.array([1.0, 2.0, 10.0, 20.0, 40.0])
    vv = 2.0 * rr ** -3
    vv[:2] *= 5.0  # contaminate the pre-asymptotic points
    fit = fit_power_law((rr, vv), window=(10.0, 40.0))
    assert fit.exponent == pytest.approx(-3.0, abs=1e-10)
    assert fit.window == (10.0, 40.0)


# ---------------------------------------------------------------------------
# refinement study
# ---------------------------------------------------------------------------

def test_convergence_zero_profile_rows_identical(default_params):
    zp = make_custom_profile(
        lambda r: np.zeros_like(np.asarray(r, dtype=float)))
    rows = convergence_study([1.0, 2.0], [1.0], default_params, zp, 0.3)
    shift = 1.5 * default_params.e * default_params.nu
    for row in rows:
        assert row["E1"] == shift
        assert row["binding"] == 0.0


def test_convergence_gaps_shrink():
    params = ModelParams(e=0.5, nu0=3.0)
    prof = make_gaussian_profile(0.25)
    rows = convergence_study([1.0, 2.0, 3.0], [1.0], params, prof, 0.3)
    diffs = [abs(r["dE1"]) for r in rows if not math.isnan(r["dE1"])]
    assert len(diffs) == 2
    assert diffs[1] < diffs[0]


def test_convergence_validates_ladders(default_params, gaussian):
    with pytest.raises(InvalidParameterError):
        convergence_study([2.0, 1.0], [1.0], default_params, gaussian, 0.3)
    with pytest.raises(InvalidParameterError):
        convergence_study([1.0, 2.0], [1.0], default_params, gaussian, 0.6)
    # an empty box or cutoff ladder has no rows to refine
    for boxes, cutoffs in (([], [1.0]), ([1.0, 2.0], [])):
        with pytest.raises(InvalidParameterError):
            convergence_study(boxes, cutoffs, default_params, gaussian, 0.3)


def test_lattice_fourth_order_approaches_continuum():
    # refinement of the leading crossed-pair word toward its continuum value
    params = ModelParams(e=0.5, nu0=2.0)
    prof = make_gaussian_profile(1.0)
    R = 2.0
    continuum = fourth_order_main(R, params, prof).value
    vals = []
    for box, cut in ((4.0, 2.0), (8.0, 2.0)):
        system = TraceSystem(params, build_lattice(box, cut), prof,
                             Geometry(R))
        vals.append(trace_word((1, 1, 2, 2), system)
                    + trace_word((2, 2, 1, 1), system))
    gaps = [abs(v - continuum) / abs(continuum) for v in vals]
    assert gaps[1] < gaps[0]
    ladder_error = abs(vals[1] - vals[0])
    assert abs(vals[1] - continuum) <= 3.0 * ladder_error
