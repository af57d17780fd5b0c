import math
from fractions import Fraction

import numpy as np
import pytest

from cplab import (AccuracyError, InvalidParameterError, ModelParams,
                   QuadratureSpec, fourth_order_error, integrate_half_line,
                   integrate_interval, make_gaussian_profile, sweep_R)
from cplab.quadrature import (_G7_WEIGHTS, _K15_NODES, _K15_WEIGHTS,
                              _PANEL_COST, _half_line_nodes, _initial_panels,
                              _panel_nodes, _panel_values)


def test_interval_polynomial_exact():
    val = integrate_interval(lambda x: x ** 2, 0.0, 1.0)
    assert val == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_nested_rule_exactness_and_symmetry():
    # K15 integrates x^0..x^22 exactly on [-1, 1], and the G7 rule on its
    # odd-indexed nodes x^0..x^13; neither reaches the next even power
    x, wk, wg = _K15_NODES, _K15_WEIGHTS, _G7_WEIGHTS
    eps = np.finfo(float).eps
    assert len(x) == len(wk) == _PANEL_COST == 15 and len(wg) == 7
    assert np.all(np.diff(x) > 0) and np.all(x == -x[::-1]) and x[7] == 0.0
    assert np.all(wk == wk[::-1]) and np.all(wg == wg[::-1])
    gauss = np.polynomial.legendre.leggauss(7)
    assert np.allclose(x[1::2], gauss[0], rtol=0, atol=4 * eps)
    assert np.allclose(wg, gauss[1], rtol=0, atol=4 * eps)
    for nodes, w, degree in ((x, wk, 22), (x[1::2], wg, 13)):
        for k in range(degree + 3):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            err = abs(nodes ** k @ w - exact)
            # odd powers vanish by symmetry at every degree
            assert (err <= 8 * eps) == (k <= degree or k % 2 == 1), (
                degree, k, err)


def test_panel_calls_integrand_on_fifteen_nodes():
    calls = []

    def f(x):
        calls.append(x.copy())
        return np.cos(x)

    res = integrate_interval(f, 0.0, 1.0, QuadratureSpec(rel_tol=1e-8),
                             initial_panels=1, full_output=True)
    assert [len(x) for x in calls] == [_PANEL_COST]
    assert np.array_equal(calls[0], 0.5 + 0.5 * _K15_NODES)
    assert res.nodes_used == _PANEL_COST
    assert res.value == pytest.approx(math.sin(1.0), rel=1e-15)


def test_initial_panels_are_shared_and_read_only():
    cached = _initial_panels(0.0, 1.0, 8)
    lo, hi, half, x = cached
    u, s, jac = _half_line_nodes()
    for again, first in ((_initial_panels(0.0, 1.0, 8), cached),
                         (_half_line_nodes(), (u, s, jac))):
        assert all(a is b for a, b in zip(again, first))
    assert u is x
    assert not any(a.flags.writeable for a in (lo, hi, half, x, s, jac))
    edges = np.linspace(0.0, 1.0, 9)
    assert np.array_equal(lo, edges[:-1]) and np.array_equal(hi, edges[1:])
    # the arithmetic that builds a refined batch's nodes, and the map
    assert np.array_equal(half, 0.5 * (hi - lo))
    assert np.array_equal(x, (0.5 * (lo + hi)[:, None]
                              + half[:, None] * _K15_NODES).ravel())
    assert np.array_equal(s, x / (1.0 - x))
    assert np.array_equal(jac, (1.0 - x) ** 2)


def _peak(x):
    return 1.0 / (1e-4 + (x - 0.3) ** 2)


@pytest.mark.parametrize("integrate", [
    lambda f: integrate_interval(f, 0.0, 1.0, full_output=True),
    lambda f: integrate_half_line(f, full_output=True),
])
def test_integrand_gets_read_only_nodes(integrate):
    # the initial nodes are shared by every call, so an integrand that
    # writes into them raises instead of corrupting the next call
    def decay(x):
        return 1.0 / (1.0 + x) ** 2

    def writer(x):
        x += 1.0
        return 1.0 / x ** 2

    ref = integrate(decay)
    with pytest.raises(ValueError, match="read-only"):
        integrate(writer)
    again = integrate(decay)
    assert again.value == ref.value
    assert again.error_estimate == ref.error_estimate
    assert again.nodes_used == ref.nodes_used == 8 * _PANEL_COST
    # refined panels build new nodes, read-only too; the half line's
    # first batch is its cached map of the initial nodes
    seen = []

    def record(x):
        seen.append(x)
        return _peak(x)

    assert integrate(record).nodes_used > 8 * _PANEL_COST
    assert len(seen) > 1 and not any(x.flags.writeable for x in seen)
    assert any(seen[0] is a for a in _initial_panels(0.0, 1.0, 8)
               + _half_line_nodes())


def test_initial_panels_validated():
    calls = []

    def f(x):
        calls.append(x)
        return np.exp(-x)

    for bad in (0, -1, 2.0, "3", True, False, None, 1.5, np.float64(2.0),
                np.array([2])):
        with pytest.raises(InvalidParameterError, match="^initial_panels"):
            integrate_interval(f, 0.0, 1.0, initial_panels=bad)
    assert calls == []
    for good in (1, 3, np.int64(3), np.array(3)):
        res = integrate_interval(f, 0.0, 1.0, initial_panels=good,
                                 full_output=True)
        assert res.nodes_used == int(good) * _PANEL_COST
        assert res.value == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)
    # the cache is keyed on the int, so the three-panel runs share nodes
    assert calls[2] is calls[1] is calls[3] is _initial_panels(0.0, 1.0, 3)[3]


@pytest.mark.parametrize("k", [None, 1, 3])
def test_batched_panel_reduction_matches_component_loop(rng, k):
    # one (K, panels, 15) product per rule gives each component, bit for
    # bit, the per-component reduction it replaced
    edges = np.sort(rng.uniform(0.0, 3.0, 12))
    lo, hi = edges[:-1], edges[1:]
    shape = (len(lo) * _PANEL_COST,) + (() if k is None else (k,))
    y = rng.standard_normal(shape) * np.exp(rng.uniform(-20.0, 20.0, shape))
    v_hi, errs, vector = _panel_values(lambda x: y, lo, hi,
                                       *_panel_nodes(lo, hi))
    assert vector == (k is not None)
    half = 0.5 * (hi - lo)
    for row, (value, err) in enumerate(zip(v_hi, errs)):
        column = np.ascontiguousarray(y[:, row] if vector else y)
        panels = column.reshape(len(lo), _PANEL_COST)
        ref_hi = half * (panels @ _K15_WEIGHTS)
        ref_lo = half * (panels[:, 1::2] @ _G7_WEIGHTS)
        assert np.array_equal(value, ref_hi)
        assert np.array_equal(err, np.abs(ref_hi - ref_lo))


def test_non_finite_bounds_rejected():
    calls = []

    def f(x):
        calls.append(len(x))
        return np.exp(-x)

    for a, b in ((0.0, np.inf), (-np.inf, 0.0), (math.nan, 1.0),
                 (0.0, "x"), (0.0, 10 ** 400)):
        with pytest.raises(InvalidParameterError, match="finite"):
            integrate_interval(f, a, b)
    assert calls == []


def test_non_finite_integrand_is_accuracy_error():
    # a NaN error estimate never exceeds a share of the budget nor equals
    # the largest one, so no panel would split and no node be spent: the
    # refinement must stop on it, not loop
    with pytest.raises(AccuracyError, match=r"panel \[0\.5, 0\.625\]") as err:
        integrate_interval(lambda x: np.where(x > 0.5, np.nan, 1.0), 0.0, 1.0)
    assert math.isnan(err.value.best_estimate)
    assert err.value.achieved_tol == math.inf
    # infinite values, of one sign or both, raise it without a warning
    for inf in (np.inf, np.where(np.arange(_PANEL_COST) % 2, np.inf,
                                 -np.inf)):
        with pytest.raises(AccuracyError, match="not finite"):
            integrate_interval(lambda x: np.where(
                x > 0.25, np.resize(inf, len(x)), 1.0), 0.0, 1.0)
    with pytest.raises(AccuracyError, match="not finite") as err:
        integrate_half_line(lambda s: np.stack(
            [np.exp(-s), np.where(s > 3.0, np.nan, 0.0)], 1))
    assert err.value.best_estimate.shape == (2,)
    # a sweep records it as a gap and goes on
    sweep = sweep_R([1.0, 2.0, 3.0], lambda R: integrate_interval(
        lambda x: np.where(x > R / 2.5, np.nan, 1.0), 0.0, 1.0))
    assert [r for r, _ in sweep.gaps] == [1.0, 2.0]
    assert all("AccuracyError" in diag for _, diag in sweep.gaps)
    assert sweep.R.tolist() == [3.0]
    assert sweep.value[0] == pytest.approx(1.0, rel=1e-15)


def test_half_line_exponential():
    val = integrate_half_line(lambda s: np.exp(-s))
    assert val == pytest.approx(1.0, rel=1e-12)


def test_half_line_rational_tail():
    val = integrate_half_line(lambda s: 1.0 / (1.0 + s) ** 2)
    assert val == pytest.approx(1.0, rel=1e-12)


def test_half_line_lorentzian_square():
    # Int_0^inf s^2/(s^2+a)^2 ds = pi/(4 sqrt(a))
    a = 3.7
    val = integrate_half_line(lambda s: s * s / (s * s + a) ** 2)
    assert val == pytest.approx(math.pi / (4 * math.sqrt(a)), rel=1e-12)


def test_zero_integrand_terminates():
    val = integrate_half_line(lambda s: np.zeros_like(s))
    assert val == 0.0


def test_budget_exhaustion_carries_estimate():
    spec = QuadratureSpec(rel_tol=1e-14, max_nodes=500)

    def nasty(x):
        return np.abs(np.sin(50.0 / (x + 1e-3))) / (1 + x * x)

    with pytest.raises(AccuracyError) as err:
        integrate_half_line(nasty, spec)
    assert err.value.best_estimate > 0.0
    assert err.value.achieved_tol > 1e-14
    # a vector integrand carries every component's estimate
    with pytest.raises(AccuracyError) as err:
        integrate_half_line(lambda s: np.stack([np.exp(-s), nasty(s)], 1),
                            spec)
    assert err.value.best_estimate.shape == (2,)
    assert np.all(err.value.best_estimate > 0.0)
    assert err.value.achieved_tol > 1e-14


def test_half_line_rejects_late_oscillation():
    # inside the s**-2 decay, but the map s = u / (1 - u) packs infinitely
    # many oscillations next to u = 1: the contract excludes it
    with pytest.raises(AccuracyError, match="budget 400000 exhausted"):
        integrate_half_line(lambda s: np.cos(40.0 * s) / (1.0 + s ** 4))


def test_roundoff_stall_fails_fast():
    # this term stalls near 1.7e-13 relative: its splits stop shrinking
    # the error long before the 400,000-node budget
    with pytest.raises(AccuracyError, match="^roundoff") as err:
        fourth_order_error(120.0, ModelParams(0.5, 2.0),
                           make_gaussian_profile(0.25), rel_tol=1e-13)
    assert 1e-13 < err.value.achieved_tol < 1e-11


def test_spec_validation():
    for bad in ({"rel_tol": 0.0}, {"rel_tol": -1e-8},
                {"rel_tol": math.nan}, {"rel_tol": math.inf},
                {"abs_tol": -1.0}, {"abs_tol": math.nan},
                {"abs_tol": math.inf}, {"abs_tol": (0.0, math.nan)},
                {"abs_tol": (1e-3, -1e-9)}, {"abs_tol": (math.inf,)},
                {"abs_tol": ()}, {"abs_tol": (0.5,)},
                {"abs_tol": (0.5, 0.25)}, {"abs_tol": [1e-3, 0.0]},
                {"abs_tol": np.array([0.5])}, {"max_nodes": 10},
                {"max_nodes": math.nan}, {"max_nodes": math.inf},
                {"max_nodes": 1000.5}, {"rel_tol": "x"},
                {"rel_tol": None}, {"abs_tol": "x"}, {"max_nodes": "x"},
                {"rel_tol": 10 ** 400}, {"abs_tol": 10 ** 400}):
        with pytest.raises(InvalidParameterError):
            QuadratureSpec(**bad)


def test_spec_stores_validated_floats():
    # whatever form an accepted tolerance takes, the spec holds the float
    # it was validated as
    for raw in ("0.5", b"0.5", np.array("0.5"), np.array(0.5),
                np.float32(0.5), Fraction(1, 2)):
        spec = QuadratureSpec(abs_tol=raw)
        assert type(spec.abs_tol) is float and spec.abs_tol == 0.5, raw
    for raw, stored in ((True, 1.0), (1, 1.0), (np.float64(1e-8), 1e-8),
                        (np.array(1e-8), 1e-8), (Fraction(1, 4), 0.25)):
        spec = QuadratureSpec(rel_tol=raw)
        assert type(spec.rel_tol) is float and spec.rel_tol == stored, raw
    spec = QuadratureSpec(max_nodes=np.int64(500))
    assert type(spec.max_nodes) is int and spec.max_nodes == 500


# ---------------------------------------------------------------------------
# vector-valued integrands
# ---------------------------------------------------------------------------

_COMPONENTS = (
    lambda s: np.exp(-s),
    lambda s: 1.0 / (1.0 + s) ** 2,
    lambda s: s * s / (s * s + 3.7) ** 2,
    lambda s: 1e-40 * np.exp(-3.0 * s),
)


def _stacked(x):
    return np.stack([f(x) for f in _COMPONENTS], axis=1)


def test_vector_components_match_scalar_runs():
    spec = QuadratureSpec(rel_tol=1e-12)
    res = integrate_half_line(_stacked, spec, full_output=True)
    assert res.value.shape == res.error_estimate.shape == (4,)
    exact = (1.0, 1.0, math.pi / (4 * math.sqrt(3.7)), 1e-40 / 3.0)
    for k, f in enumerate(_COMPONENTS):
        ref = integrate_half_line(f, spec, full_output=True)
        # each component meets its own tolerance, the 1e-40 one included
        assert res.error_estimate[k] <= 1e-12 * abs(res.value[k])
        assert abs(res.value[k] - ref.value) <= (res.error_estimate[k]
                                                 + ref.error_estimate)
        assert res.value[k] == pytest.approx(exact[k], rel=1e-12)
        assert res.nodes_used >= ref.nodes_used


def test_stiff_component_refines_shared_panels():
    # a narrow peak forces splits; the polynomial converges on the initial
    # panels alone but is evaluated, and stays exact, on the refined ones
    def smooth(x):
        return x ** 2

    def peak(x):
        return 1.0 / (1e-4 + (x - 0.3) ** 2)

    spec = QuadratureSpec(rel_tol=1e-11)
    alone = integrate_interval(smooth, 0.0, 1.0, spec, full_output=True)
    assert alone.nodes_used == 8 * _PANEL_COST
    stiff = integrate_interval(peak, 0.0, 1.0, spec, full_output=True)
    assert stiff.nodes_used > 8 * _PANEL_COST
    both = integrate_interval(lambda x: np.stack([smooth(x), peak(x)], 1),
                              0.0, 1.0, spec, full_output=True)
    assert both.nodes_used == stiff.nodes_used
    assert both.value[0] == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert both.error_estimate[0] <= alone.error_estimate
    exact = 100.0 * (math.atan(70.0) + math.atan(30.0))
    assert both.error_estimate[1] <= 1e-11 * abs(both.value[1])
    assert abs(both.value[1] - exact) <= both.error_estimate[1] + 1e-12 * exact
    assert both.value[1] == stiff.value


@pytest.mark.parametrize("f", [
    lambda x: np.exp(-x) * np.cos(3.0 * x),
    lambda x: np.abs(np.sin(5.0 / (x + 1e-2))) / (1 + x * x),
])
def test_one_component_is_bit_equal_to_scalar(f):
    # the second integrand refines far beyond the initial panels
    spec = QuadratureSpec(rel_tol=1e-12)
    for integrate in (lambda g: integrate_interval(g, 0.0, 2.0, spec,
                                                   full_output=True),
                      lambda g: integrate_half_line(g, spec,
                                                    full_output=True)):
        scalar = integrate(f)
        column = integrate(lambda x: f(x)[:, None])
        assert type(scalar.value) is float
        assert column.value.shape == (1,)
        assert column.value[0] == scalar.value
        assert column.error_estimate[0] == scalar.error_estimate
        assert column.nodes_used == scalar.nodes_used


def test_per_component_abs_tol():
    # a zero component converges on the one scalar floor beside a column
    # resolved by rel_tol (a sequence floor: see test_spec_validation)
    spec = QuadratureSpec(abs_tol=1e-20)
    val = integrate_half_line(
        lambda s: np.stack([np.exp(-s), np.zeros_like(s)], 1), spec)
    assert val[0] == pytest.approx(1.0, rel=1e-12) and val[1] == 0.0


def test_initial_panels_respect_node_budget():
    calls = []

    def f(x):
        calls.append(len(x))
        return 1.0 / (1.0 + x) ** 2

    with pytest.raises(InvalidParameterError):
        integrate_half_line(f, QuadratureSpec(max_nodes=100))
    assert calls == []
    res = integrate_half_line(f, QuadratureSpec(max_nodes=8 * _PANEL_COST),
                              full_output=True)
    assert res.nodes_used == 8 * _PANEL_COST == sum(calls)
    assert res.value == pytest.approx(1.0, rel=1e-12)
