import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from cplab import (InvalidParameterError, ModelParams,
                   TripleResolventIntegral, ab_identity_check,
                   angular_bracket_kernels, angular_factor, closed_integral,
                   cp_constant, fourth_order_error, fourth_order_main,
                   integral_quadrature_oracle, make_gaussian_profile)
from cplab.continuum import _ANGULAR_COEFF, _radial_grid
from conftest import PARAM_SETS

KINDS = {"111": (1, 1, 1), "221": (2, 2, 1), "212": (2, 1, 2),
         "311": (3, 1, 1)}


# ---------------------------------------------------------------------------
# closed integrals
# ---------------------------------------------------------------------------

def test_unit_arguments():
    assert closed_integral("111", 1.0, 1.0, 1.0) == pytest.approx(0.125)
    assert integral_quadrature_oracle(1, 1, 1, 1.0, 1.0, 1.0) \
        == pytest.approx(0.125, rel=1e-10)


def test_example_values():
    # A=3, B=5, C=4 for arguments (1, 4, 9)
    assert closed_integral("111", 1.0, 4.0, 9.0) == pytest.approx(1.0 / 60.0)


def test_permutation_symmetry_of_base_kind(rng):
    for _ in range(10):
        a, b, c = rng.uniform(0.1, 10.0, size=3)
        base = closed_integral("111", a, b, c)
        for perm in ((a, c, b), (b, a, c), (c, b, a)):
            assert closed_integral("111", *perm) == pytest.approx(
                base, rel=1e-14)


def test_closed_forms_match_oracle(rng):
    worst = 0.0
    for _ in range(25):
        a, b, c = rng.uniform(0.1, 10.0, size=3)
        for kind, exps in KINDS.items():
            closed = closed_integral(kind, a, b, c)
            oracle = integral_quadrature_oracle(*exps, a, b, c)
            worst = max(worst, abs(closed / oracle - 1.0))
    assert worst < 1e-8


def test_closed_forms_match_scipy(rng):
    # independent oracle with a different quadrature engine
    for _ in range(5):
        a, b, c = rng.uniform(0.2, 8.0, size=3)
        for kind, (na, nb, nc) in KINDS.items():
            ref, _ = scipy_quad(
                lambda s: s * s / ((s * s + a) ** na * (s * s + b) ** nb
                                   * (s * s + c) ** nc),
                0.0, np.inf, epsrel=1e-12, limit=300)
            assert closed_integral(kind, a, b, c) == pytest.approx(
                2.0 * ref / math.pi, rel=1e-9)


def test_index_swap_identity(rng):
    for _ in range(20):
        a, b, c = rng.uniform(0.1, 10.0, size=3)
        assert closed_integral("221", a, b, c) == pytest.approx(
            closed_integral("212", a, c, b), rel=1e-12)


def test_domain_errors():
    with pytest.raises(InvalidParameterError):
        closed_integral("111", -1.0, 1.0, 1.0)
    with pytest.raises(InvalidParameterError):
        closed_integral("999", 1.0, 1.0, 1.0)
    with pytest.raises(InvalidParameterError):
        integral_quadrature_oracle(1, 0, 1, 1.0, 1.0, 1.0)
    with pytest.raises(InvalidParameterError):
        TripleResolventIntegral("111", 1.0, 0.0, 1.0)


def test_triple_resolvent_dataclass():
    tri = TripleResolventIntegral("221", 4.0, 9.0, 16.0)
    assert (tri.A, tri.B, tri.C) == (5.0, 7.0, 6.0)
    assert tri.value() == pytest.approx(
        closed_integral("221", 4.0, 9.0, 16.0), rel=1e-15)


# ---------------------------------------------------------------------------
# angular reductions
# ---------------------------------------------------------------------------

def angular_factor_quadrature(x1, x2, n=256):
    """Defining double azimuth integral on a periodic trapezoid grid."""
    phi = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
    y1 = math.sqrt(1.0 - x1 * x1)
    y2 = math.sqrt(1.0 - x2 * x2)
    dphi = phi[:, None] - phi[None, :]
    integrand = 1.0 + (np.cos(dphi) * y1 * y2 + x1 * x2) ** 2
    return float(np.sum(integrand)) * (2 * math.pi / n) ** 2


def test_angular_factor_values():
    assert angular_factor(0.0, 0.0) == pytest.approx(6 * math.pi ** 2)
    assert angular_factor(1.0, 1.0) == pytest.approx(8 * math.pi ** 2)
    assert angular_factor(1.0, 1.0) == pytest.approx(
        angular_factor_quadrature(1.0, 1.0), abs=1e-8)


def test_angular_factor_matches_quadrature_grid():
    for x1 in np.linspace(-1.0, 1.0, 5):
        for x2 in np.linspace(-1.0, 1.0, 5):
            assert angular_factor(x1, x2) == pytest.approx(
                angular_factor_quadrature(x1, x2), abs=1e-8)


def test_angular_factor_symmetries(rng):
    for _ in range(20):
        x1, x2 = rng.uniform(-1.0, 1.0, size=2)
        v = angular_factor(x1, x2)
        assert angular_factor(x2, x1) == pytest.approx(v, rel=1e-15)
        assert angular_factor(-x1, x2) == pytest.approx(v, rel=1e-15)
    with pytest.raises(InvalidParameterError):
        angular_factor(1.5, 0.0)


def test_bracket_kernels_limits_and_values():
    j0, j2 = angular_bracket_kernels(0.0)
    assert (j0, j2) == pytest.approx((2.0, 2.0 / 3.0))
    _, j2_pi = angular_bracket_kernels(math.pi)
    assert j2_pi == pytest.approx(-4.0 / math.pi ** 2, rel=1e-12)


def test_bracket_kernels_match_quadrature(rng):
    for r in rng.uniform(0.0, 30.0, size=8):
        j0_ref, _ = scipy_quad(lambda x: math.cos(r * x), -1.0, 1.0)
        j2_ref, _ = scipy_quad(lambda x: x * x * math.cos(r * x), -1.0, 1.0)
        j0, j2 = angular_bracket_kernels(float(r))
        assert j0 == pytest.approx(j0_ref, abs=1e-12)
        assert j2 == pytest.approx(j2_ref, abs=1e-12)


def test_bracket_kernels_bounded():
    r = np.linspace(0.0, 200.0, 4001)
    j0, j2 = angular_bracket_kernels(r)
    assert np.all(np.abs(j0) <= 2.0 + 1e-15)
    assert np.all(np.abs(j2) <= 2.0 + 1e-15)


def test_bracket_kernels_series_matches_closed_form():
    # the series branch agrees with the closed form where both are usable
    for r in (3e-4, 6e-4, 9.9e-4):
        j0, j2 = angular_bracket_kernels(r)
        assert j0 == pytest.approx(2 * math.sin(r) / r, rel=1e-12)
        closed = 2 * ((r * r - 2) * math.sin(r) + 2 * r * math.cos(r)) / r ** 3
        assert j2 == pytest.approx(closed, rel=1e-7)


# ---------------------------------------------------------------------------
# kernel identity and the limiting constant
# ---------------------------------------------------------------------------

def test_rational_kernel_identity():
    value = ab_identity_check()
    assert value == pytest.approx(23.0 * math.pi, rel=1e-6)
    # exact component integrals: 3 pi/2, 4 pi, 33 pi/2
    int_aa, _ = scipy_quad(
        lambda t: ((12 * t * t - 4) / (1 + t * t) ** 3) ** 2, 0, np.inf)
    int_bb, _ = scipy_quad(
        lambda t: (4 * (t * t - 3) / (1 + t * t) ** 3) ** 2, 0, np.inf)
    int_ab, _ = scipy_quad(
        lambda t: (12 * t * t - 4) * 4 * (t * t - 3) / (1 + t * t) ** 6,
        0, np.inf)
    assert int_aa == pytest.approx(1.5 * math.pi, rel=1e-9)
    assert int_bb == pytest.approx(16.5 * math.pi, rel=1e-9)
    assert int_ab == pytest.approx(4.0 * math.pi, rel=1e-9)
    assert int_aa > 0.0 and int_bb > 0.0
    # the (2 pi)^2 convention shift reproduces the historically quoted value
    assert value * (2 * math.pi) ** 2 == pytest.approx(92 * math.pi ** 3,
                                                       rel=1e-6)


def test_cp_constant_values_and_scaling():
    assert cp_constant(1.0) == pytest.approx(2.89760e-3, rel=1e-5)
    assert cp_constant(2.0) == pytest.approx(1.81100e-4, rel=1e-5)
    assert cp_constant(0.5) / cp_constant(1.0) == pytest.approx(16.0,
                                                                rel=1e-12)
    with pytest.raises(InvalidParameterError):
        cp_constant(-1.0)


# ---------------------------------------------------------------------------
# fourth-order terms
# ---------------------------------------------------------------------------

def test_main_term_routes_agree(default_params, gaussian):
    for R in (20.0, 50.0, 120.0):
        a = fourth_order_main(R, default_params, gaussian)
        b = fourth_order_main(R, default_params, gaussian,
                              route="direct-quadrature")
        assert a.value == pytest.approx(b.value, rel=1e-6)
        assert a.route == "t-representation"
        assert a.value > 0.0
        assert a.value == pytest.approx(a.retarded_part + a.remainder_part,
                                        rel=1e-12)


def test_main_term_approaches_limit(default_params, gaussian):
    ref = cp_constant(default_params.nu0)
    r7 = [R ** 7 * fourth_order_main(R, default_params, gaussian).value
          for R in (30.0, 60.0, 120.0)]
    devs = [abs(v - ref) / ref for v in r7]
    assert devs[-1] < 5e-3
    assert devs[0] > devs[1] > devs[2]


def test_error_term_routes_agree(default_params, gaussian):
    for R in (40.0, 120.0):
        a = fourth_order_error(R, default_params, gaussian)
        b = fourth_order_error(R, default_params, gaussian,
                               route="direct-quadrature")
        assert a.value == pytest.approx(b.value, rel=1e-6)
        assert a.value > 0.0


def _dense_direct_integrand(params, profile, R, kinds):
    """Test oracle: the full M x M direct-route integrand, built densely."""
    r, w = _radial_grid(profile, R)
    u = profile.radial(r / R) ** 2
    j0, j2 = angular_bracket_kernels(r)
    kernels = {0: j0, 2: j2}
    a0 = (params.e * params.nu) ** 2
    bsq = (r / R) ** 2
    tri = sum(closed_integral(k, a0, bsq[:, None], bsq[None, :])
              for k in kinds) / len(kinds)
    core = np.zeros_like(tri)
    for (p, q), coef in _ANGULAR_COEFF.items():
        core += coef * np.outer(kernels[p], kernels[q])
    base = w * r ** 4 * u
    return base, core * tri


def dense_main_direct(params, profile, R):
    """Oracle main term: shell partial sums of the full grid + Aitken."""
    base, kernel = _dense_direct_integrand(params, profile, R,
                                           ("221", "212"))
    integrand = np.outer(base, base) * kernel
    n_per = 12
    n_pan = len(base) // n_per
    blocks = integrand.reshape(n_pan, n_per, n_pan, n_per).sum(axis=(1, 3))
    shells = np.array([blocks[m, : m + 1].sum() + blocks[: m, m].sum()
                       for m in range(n_pan)])
    partial = np.cumsum(shells)
    total = partial[-1]
    s0, s1, s2 = partial[-3], partial[-2], partial[-1]
    denom = s2 - 2.0 * s1 + s0
    if denom != 0.0 and abs(s2 - s1) > 1e-15 * abs(s2):
        total = s2 - (s2 - s1) ** 2 / denom
    pref = 2.0 * R ** -10 * (params.e ** 4 / 2.0)
    return pref * float(total), pref * float(np.abs(integrand).sum())


def dense_error_direct(params, profile, R):
    """Oracle error term: ``base @ (core * tri) @ base`` on the full grid."""
    base, kernel = _dense_direct_integrand(params, profile, R, ("311",))
    pref = R ** -10 * (params.e ** 4 / 2.0)
    return (pref * float(base @ kernel @ base),
            pref * float(np.abs(base) @ np.abs(kernel) @ np.abs(base)))


@pytest.mark.parametrize("e,nu0,xi", PARAM_SETS)
def test_direct_route_matches_dense_oracle(e, nu0, xi):
    # the streamed upper triangle reproduces the full-grid sums to within
    # the sums' own conditioning, eps * sum |W_ij|
    params, profile = ModelParams(e=e, nu0=nu0), make_gaussian_profile(xi)
    eps = np.finfo(float).eps
    for R in (5.0, 20.0, 40.0):
        for fn, oracle in ((fourth_order_main, dense_main_direct),
                           (fourth_order_error, dense_error_direct)):
            ref, abs_sum = oracle(params, profile, R)
            got = fn(R, params, profile, route="direct-quadrature")
            assert abs(got.value - ref) <= 64 * eps * abs_sum, (fn, R)


def test_direct_route_streams_in_small_memory():
    # one panel row at a time: each call's peak stays far below one M x M
    # array of doubles
    params, profile, R = ModelParams(e=0.5, nu0=2.0), \
        make_gaussian_profile(1.0), 120.0
    m = len(_radial_grid(profile, R)[0])
    for fn in (fourth_order_main, fourth_order_error):
        tracemalloc.start()
        try:
            fn(R, params, profile, route="direct-quadrature")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < m * m * 8 / 8, (fn, peak)


@pytest.mark.parametrize("e,nu0,xi,R", [
    (0.5, 2.0, 1.0, 30.0), (0.5, 2.0, 1.0, 120.0), (1.2, 1.5, 1.5, 120.0),
    (0.5, 3.0, 0.25, 60.0)])
def test_route_error_estimates_bound_disagreement(e, nu0, xi, R):
    params, profile = ModelParams(e=e, nu0=nu0), make_gaussian_profile(xi)
    for fn in (fourth_order_main, fourth_order_error):
        a = fn(R, params, profile)
        b = fn(R, params, profile, route="direct-quadrature")
        assert a.nodes > 0 and b.nodes > 0
        assert 0.0 < a.estimated_error < 1e-6 * abs(a.value)
        assert 0.0 < b.estimated_error
        assert abs(a.value - b.value) <= a.estimated_error + b.estimated_error


def test_error_term_decays_to_zero(default_params, gaussian):
    v30 = fourth_order_error(30.0, default_params, gaussian).value
    v120 = fourth_order_error(120.0, default_params, gaussian).value
    assert abs(v120) < abs(v30) * 1e-4


def test_crossed_over_main_ratio_shrinks(default_params, gaussian):
    ratios = []
    for R in (30.0, 60.0, 120.0):
        main = fourth_order_main(R, default_params, gaussian).value
        crossed = 2.0 * fourth_order_error(R, default_params, gaussian).value
        ratios.append(abs(crossed / main))
    assert ratios[0] > ratios[1] > ratios[2]
    assert ratios[2] < 0.03


def test_error_term_coupling_scaling(gaussian):
    # the R^9-scaled value depends on the couplings through 1/(e^2 nu^6)
    R = 60.0
    base = ModelParams(e=0.5, nu0=2.0)
    other = ModelParams(e=0.7, nu0=2.6)
    va = fourth_order_error(R, base, gaussian).value
    vb = fourth_order_error(R, other, gaussian).value
    predicted = ((base.e ** 2 * base.nu ** 6)
                 / (other.e ** 2 * other.nu ** 6))
    assert vb / va == pytest.approx(predicted, rel=2e-2)


def test_fourth_order_rejects_bad_inputs(default_params, gaussian):
    with pytest.raises(InvalidParameterError):
        fourth_order_main(0.0, default_params, gaussian)
    with pytest.raises(InvalidParameterError):
        fourth_order_main(10.0, default_params, gaussian, route="bogus")
