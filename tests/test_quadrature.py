import math

import numpy as np
import pytest

from cplab import (AccuracyError, InvalidParameterError, QuadratureSpec,
                   integrate_half_line, integrate_interval)


def test_interval_polynomial_exact():
    val = integrate_interval(lambda x: x ** 2, 0.0, 1.0)
    assert val == pytest.approx(1.0 / 3.0, rel=1e-14)


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


def test_spec_validation():
    for bad in ({"rel_tol": 0.0}, {"rel_tol": -1e-8},
                {"rel_tol": math.nan}, {"rel_tol": math.inf},
                {"abs_tol": -1.0}, {"abs_tol": math.nan},
                {"abs_tol": math.inf}, {"max_nodes": 10},
                {"max_nodes": math.nan}):
        with pytest.raises(InvalidParameterError):
            QuadratureSpec(**bad)
