import itertools
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from cplab import (InvalidParameterError, ModelParams, ab_identity_check,
                   angular_bracket_kernels, angular_factor, closed_integral,
                   cp_constant, fourth_order_error, fourth_order_main,
                   integral_quadrature_oracle, make_custom_profile,
                   make_gaussian_profile)
from cplab import continuum
from cplab.cli import emit, parse_config, run
from cplab.continuum import (_ANGULAR_MATRIX, _EXP_CUTOFF, _RadialTables,
                             _damping, _envelope_cutoff, _radial_basis)
from cplab.model import _CHUNK_ELEMS
from cplab.quadrature import _PANEL_COST
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


def test_angular_matrix_matches_closed_form():
    # both fourth-order routes and the dense oracle read the coefficient
    # table; it must reproduce the closed angular factor it stands for
    for x1 in np.linspace(-1.0, 1.0, 21):
        for x2 in np.linspace(-1.0, 1.0, 21):
            got = np.array([1.0, x1 * x1]) @ _ANGULAR_MATRIX \
                @ np.array([1.0, x2 * x2])
            assert got == pytest.approx(angular_factor(x1, x2), rel=1e-14)


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


def test_bracket_kernels_accurate_below_unit_argument():
    # below r = 1 the closed form of J2 cancels (9e-10 relative at r =
    # 1e-3); the series keeps both kernels within a few roundings of an
    # adaptive quadrature of the defining integrals
    eps = np.finfo(float).eps
    r = np.geomspace(1e-4, 1.0, 60)
    for p, got in zip((0, 2), angular_bracket_kernels(r)):
        ref = np.array([scipy_quad(lambda x: x ** p * math.cos(ri * x),
                                   -1.0, 1.0)[0] for ri in r])
        assert np.all(np.abs(got - ref) <= 4 * eps * np.abs(ref)), p


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


def test_only_route_a_main_term_has_parts(default_params, gaussian):
    # the retarded/remainder split is route A's main term alone; a result
    # that makes no split says so instead of reading 0.0
    a = fourth_order_main(50.0, default_params, gaussian)
    assert isinstance(a.retarded_part, float)
    assert isinstance(a.remainder_part, float)
    for result in (fourth_order_main(50.0, default_params, gaussian,
                                     route="direct-quadrature"),
                   fourth_order_error(50.0, default_params, gaussian),
                   fourth_order_error(50.0, default_params, gaussian,
                                      route="direct-quadrature")):
        assert result.retarded_part is None
        assert result.remainder_part is None


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
    basis = _radial_basis(profile, R)
    r, w = basis.r, basis.w
    u = profile.radial(r / R) ** 2
    j = np.stack(angular_bracket_kernels(r), axis=1)
    a0 = (params.e * params.nu) ** 2
    bsq = (r / R) ** 2
    tri = sum(closed_integral(k, a0, bsq[:, None], bsq[None, :])
              for k in kinds) / len(kinds)
    core = j @ _ANGULAR_MATRIX @ j.T
    base = w * r ** 4 * u
    return base, core * tri


def dense_main_direct(params, profile, R):
    """Oracle main term: plain sum of the full-grid integrand."""
    base, kernel = _dense_direct_integrand(params, profile, R,
                                           ("221", "212"))
    integrand = np.outer(base, base) * kernel
    pref = 2.0 * R ** -10 * (params.e ** 4 / 2.0)
    return (pref * float(integrand.sum()),
            pref * float(np.abs(integrand).sum()))


def dense_error_direct(params, profile, R):
    """Oracle error term: ``base @ (core * tri) @ base`` on the full grid."""
    base, kernel = _dense_direct_integrand(params, profile, R, ("311",))
    pref = R ** -10 * (params.e ** 4 / 2.0)
    return (pref * float(base @ kernel @ base),
            pref * float(np.abs(base) @ np.abs(kernel) @ np.abs(base)))


@pytest.mark.parametrize("e,nu0,xi", PARAM_SETS)
def test_direct_route_matches_dense_oracle(e, nu0, xi):
    # the closed-form sum over the full radial plane agrees with the mode
    # table's s-quadrature within the oracle's own conditioning, eps * sum
    # |W_ij|, plus the route's quadrature estimate
    params, profile = ModelParams(e=e, nu0=nu0), make_gaussian_profile(xi)
    eps = np.finfo(float).eps
    for R in (5.0, 20.0, 40.0):
        for fn, oracle in ((fourth_order_main, dense_main_direct),
                           (fourth_order_error, dense_error_direct)):
            ref, abs_sum = oracle(params, profile, R)
            got = fn(R, params, profile, route="direct-quadrature")
            assert abs(got.value - ref) <= (got.estimated_error
                                            + 64 * eps * abs_sum), (fn, R)


def test_direct_route_converges_on_initial_panels():
    # in t = sR/2 the closure's peak at s ~ 1/R sits at t ~ 1/2 for every
    # R, so the initial panels resolve it without a split
    for (e, nu0, xi), R in itertools.product(
            PARAM_SETS, (20.0, 30.0, 60.0, 120.0, 240.0)):
        params, profile = ModelParams(e=e, nu0=nu0), make_gaussian_profile(xi)
        for fn in (fourth_order_main, fourth_order_error):
            res = fn(R, params, profile, route="direct-quadrature")
            assert res.nodes == 8 * _PANEL_COST, (e, nu0, xi, R, fn.__name__)


@pytest.mark.parametrize("xi", sorted({xi for _, _, xi in PARAM_SETS}))
def test_radial_moments_match_dense_exponential(xi):
    # the edge x offset factorisation of exp(-t r) reproduces the dense
    # damped product within a few roundings of its absolute sum, from
    # t = 0 to rates where every exponential underflows or is cut to 0,
    # for the moment columns of either term; the factors themselves are
    # exact zeros past the cutoff and never subnormal
    params, profile = ModelParams(e=0.5, nu0=2.0), make_gaussian_profile(xi)
    eps = np.finfo(float).eps
    t = np.concatenate([[0.0], np.geomspace(0.01, 3.0, 25), [10.0, 100.0,
                                                            1e3]])
    for R, labels in itertools.product(
            (5.0, 30.0, 120.0),
            (("G1", "G2", "G3", "H1", "H2"), ("H1", "H2", "H3"))):
        tables = _RadialTables(params, profile, R, labels)
        r, n_pan = tables.r, len(tables.edges)
        # panels of width pi / 2^q from 0 past the cutoff, 8 below it
        rmax, h = _envelope_cutoff(profile, R), math.pi
        while 8 * h > rmax:
            h /= 2
        assert n_pan == math.ceil(rmax / h)
        mh = np.arange(n_pan) * h
        grid = (mh[:, None] + tables.offsets[None, :]).ravel()
        assert np.all(np.abs(tables.edges - mh) <= 4 * eps * rmax)
        assert np.all(np.abs(grid - r) <= 4 * eps * rmax)
        # the same moment columns in node order, two per label
        cols = tables._cols.reshape(len(r), -1)
        assert cols.shape[1] == 2 * len(labels)
        dense = np.exp(-np.outer(t, r))
        ref, bound = dense @ cols, 8 * eps * (dense @ np.abs(cols))
        got = tables.moments(t)
        assert got.shape == (len(labels), len(t), 2)
        got = got.transpose(1, 0, 2).reshape(len(t), -1)
        assert np.all(np.abs(got - ref) <= bound), (R, labels)
        for x in (tables.edges, tables.offsets, r):
            damp = _damping(t, x)
            assert np.all((damp == 0) | (damp >= np.finfo(float).tiny))
            assert np.all(damp[np.outer(t, x) > _EXP_CUTOFF] == 0)


def test_radial_moments_memory_stays_chunked():
    # 20,000 rates against 719 panels: the dense (rates, panels) exponential
    # alone would be 110 MiB; the rates are taken a chunk at a time
    params, profile = ModelParams(e=0.5, nu0=2.0), make_gaussian_profile(0.25)
    tables = _RadialTables(params, profile, 120.0,
                           ("G1", "G2", "G3", "H1", "H2"))
    t = np.geomspace(1e-4, 10.0, 20_000)
    assert len(tables.edges) * len(t) > 20 * _CHUNK_ELEMS
    tracemalloc.start()
    try:
        out = tables.moments(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (5, len(t), 2)
    assert peak < 4 * 8 * _CHUNK_ELEMS + out.nbytes


def test_radial_basis_grows_by_prefix(monkeypatch):
    # a basis grown for a larger R starts with the smaller R's basis bit
    # for bit, leaves the arrays it handed out as they were, and equals the
    # basis built for the larger R alone
    profile = make_gaussian_profile(1.0)
    monkeypatch.setattr(continuum, "_BASES", {})
    small = _radial_basis(profile, 30.0)
    kept = [a.tobytes() for a in small[1:]]
    large = _radial_basis(profile, 240.0)
    n = len(small.r)
    assert large.h == small.h == math.pi and len(large.r) > n
    for a, b, bits in zip(small[1:], large[1:], kept):
        assert not (a.flags.writeable or b.flags.writeable)
        assert a.tobytes() == b[..., :n].tobytes() == bits
    monkeypatch.setattr(continuum, "_BASES", {})
    alone = _radial_basis(profile, 240.0)
    for a, b in zip(alone[1:], large[1:]):
        assert a.tobytes() == b.tobytes()


def test_small_grids_never_coarser_than_eight_panels(monkeypatch):
    # below a cutoff of 8 pi the panels halve until 8 fit below it, so they
    # are never wider than the cutoff / 8 of a fixed count of 8 (and at
    # most twice as many); from 8 pi on they are pi wide, ceil(cutoff / pi)
    # of them; the last panel reaches past the cutoff, its predecessor not
    monkeypatch.setattr(continuum, "_BASES", {})
    profiles = [make_gaussian_profile(xi)
                for xi in sorted({xi for _, _, xi in PARAM_SETS})]
    profiles.append(make_custom_profile(
        lambda k: (2.0 * math.pi) ** -1.5 * (1.0 + k * k) ** -4))
    for profile, R in itertools.product(profiles, np.geomspace(0.05, 20, 30)):
        rmax = _envelope_cutoff(profile, R)
        basis = _radial_basis(profile, R)
        panels = len(basis.r) // continuum._PANEL_NODES
        assert (panels - 1) * basis.h < rmax <= panels * basis.h
        if rmax < 8 * math.pi:
            assert basis.h <= rmax / 8 < 2 * basis.h and panels <= 16
        else:
            assert basis.h == math.pi
            assert panels == max(8, math.ceil(rmax / math.pi))


def _history_probe():
    """Both terms by both routes on a q = 2 grid (xi = 1, R = 2) and on q =
    0 grids up to 719 panels, and a cp-sweep document, as exact text."""
    out = []
    for (e, nu0, xi), R in itertools.product(PARAM_SETS[:2],
                                             (2.0, 30.0, 120.0)):
        params, profile = ModelParams(e=e, nu0=nu0), make_gaussian_profile(xi)
        for fn, route in itertools.product(
                (fourth_order_main, fourth_order_error),
                ("t-representation", "direct-quadrature")):
            res = fn(R, params, profile, route=route)
            out.append(f"{res.value.hex()} {res.estimated_error.hex()} "
                       f"{res.nodes}")
    cfg = parse_config("R_grid = 10, 120, 6, geometric")
    out.append(emit(run("cp-sweep", cfg), "json"))
    return "\n".join(out)


def test_terms_independent_of_evaluation_history(monkeypatch):
    # after larger R have grown the shared bases (the q = 2 one by R = 2.3,
    # the q = 0 one by R = 240), every term and the cp-sweep document read
    # the same bits as in a fresh process
    monkeypatch.setattr(continuum, "_BASES", {})
    for (e, nu0, xi), R in itertools.product(PARAM_SETS[:2], (2.3, 240.0)):
        fourth_order_main(R, ModelParams(e=e, nu0=nu0),
                          make_gaussian_profile(xi))
    after_larger = _history_probe()
    paths = [os.path.dirname(os.path.dirname(continuum.__file__)),
             os.path.dirname(os.path.abspath(__file__))]
    fresh = subprocess.run(
        [sys.executable, "-c", "from test_continuum import _history_probe; "
                               "print(_history_probe(), end='')"],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)),
        capture_output=True, text=True, timeout=300, check=True)
    assert fresh.stdout == after_larger


def test_radial_grid_is_resolved(monkeypatch):
    # both routes share the radial grid, so their agreement cannot see its
    # error: 16 Gauss nodes per panel in place of 12 move neither term by
    # more than 1e-9 of itself
    for e, nu0, xi in PARAM_SETS:
        params, profile = ModelParams(e=e, nu0=nu0), make_gaussian_profile(xi)
        for R in (2.0, 30.0):
            for fn in (fourth_order_main, fourth_order_error):
                ref = fn(R, params, profile)
                with monkeypatch.context() as patch:
                    patch.setattr(continuum, "_PANEL_NODES", 16)
                    r16 = _radial_basis(profile, R).r
                    fine = fn(R, params, profile)
                # the patched count reads a 16-node basis of its own on the
                # same panels, and leaves the 12-node basis as it was
                basis = _radial_basis(profile, R)
                assert len(r16) == 16 / 12 * len(basis.r)
                assert np.array_equal(np.floor(r16 / basis.h)[::16],
                                      np.floor(basis.r / basis.h)[::12])
                assert fn(R, params, profile).value == ref.value
                assert abs(ref.value - fine.value) <= 1e-9 * abs(fine.value), (
                    e, nu0, xi, R, fn.__name__)


@pytest.mark.parametrize("e,nu0,xi,R", [
    (0.5, 2.0, 1.0, 30.0), (0.5, 2.0, 1.0, 120.0), (1.2, 1.5, 1.5, 120.0),
    (0.5, 3.0, 0.25, 60.0), (0.5, 3.0, 0.25, 120.0)])
def test_route_error_estimates_bound_disagreement(e, nu0, xi, R):
    params, profile = ModelParams(e=e, nu0=nu0), make_gaussian_profile(xi)
    for fn in (fourth_order_main, fourth_order_error):
        a = fn(R, params, profile)
        b = fn(R, params, profile, route="direct-quadrature")
        assert a.nodes > 0 and b.nodes > 0
        assert 0.0 < a.estimated_error < 1e-6 * abs(a.value)
        assert 0.0 < b.estimated_error < 1e-6 * abs(b.value)
        assert abs(a.value - b.value) <= a.estimated_error + b.estimated_error


@pytest.mark.parametrize("e,nu0,xi", PARAM_SETS)
def test_routes_agree_over_separations(e, nu0, xi):
    # both terms, both routes, within both estimates and 1e-9 relative
    params, profile = ModelParams(e=e, nu0=nu0), make_gaussian_profile(xi)
    for R in (2.0, 10.0, 30.0, 60.0, 120.0):
        for fn in (fourth_order_main, fourth_order_error):
            a = fn(R, params, profile)
            b = fn(R, params, profile, route="direct-quadrature")
            gap = abs(a.value - b.value)
            assert gap <= a.estimated_error + b.estimated_error, (fn, R)
            assert gap <= 1e-9 * abs(a.value), (fn, R)


@pytest.mark.parametrize("R", [5.0, 30.0])
def test_routes_agree_on_non_gaussian_profile(default_params, R):
    # a profile without a width: the radial cutoff comes from the envelope
    # scan, and the power-law tail reaches further than any Gaussian
    profile = make_custom_profile(
        lambda k: (2.0 * math.pi) ** -1.5 * (1.0 + k * k) ** -4)
    assert profile.xi is None
    for fn in (fourth_order_main, fourth_order_error):
        a = fn(R, default_params, profile)
        b = fn(R, default_params, profile, route="direct-quadrature")
        assert a.value > 0.0
        assert abs(a.value - b.value) <= (a.estimated_error
                                          + b.estimated_error), fn


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


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_inputs_rejected(default_params, gaussian, bad):
    with pytest.raises(InvalidParameterError):
        cp_constant(bad)
    with pytest.raises(InvalidParameterError):
        closed_integral("111", bad, 1.0, 1.0)
    with pytest.raises(InvalidParameterError):
        closed_integral("221", 1.0, np.array([1.0, bad]), 1.0)
    for fn in (fourth_order_main, fourth_order_error):
        for route in ("t-representation", "direct-quadrature"):
            with pytest.raises(InvalidParameterError):
                fn(bad, default_params, gaussian, route=route)
