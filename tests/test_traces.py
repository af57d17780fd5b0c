import math
import tracemalloc

import numpy as np
import pytest

from cplab import (ClassificationError, Geometry, IndexWord,
                   InvalidParameterError, ModelParams,
                   SeriesDivergenceError, TailBoundUnavailableError,
                   TraceSystem, assemble_one_electron, binding_energy_exact,
                   build_lattice, check_constraints, d_envelope,
                   ground_energy, lattice_norm, make_gaussian_profile,
                   mixed_even_words, series_binding, series_one_electron,
                   trace_word, word_bound)
from conftest import PARAM_SETS, dense_trace_blocks, dense_word_integrand


@pytest.fixture(scope="module")
def strong_system(strong_setup):
    params, prof, lat = strong_setup
    return TraceSystem(params, lat, prof, Geometry(0.4))


# ---------------------------------------------------------------------------
# index words
# ---------------------------------------------------------------------------

def test_index_word_counts():
    w = IndexWord((1, 1, 2, 2, 2, 2))
    assert w.length == 6
    assert w.weight == 10
    assert w.transitions() == 1
    assert w.classify() == "case1"
    assert IndexWord((1, 1, 2, 2, 2, 2, 1, 1)).classify() == "case2"
    assert IndexWord((1, 1, 2, 2)).classify() == "order4"


def test_index_word_validation():
    with pytest.raises(InvalidParameterError):
        IndexWord(())
    with pytest.raises(InvalidParameterError):
        IndexWord((1, 3))
    with pytest.raises(ClassificationError):
        IndexWord((1, 2)).classify()
    with pytest.raises(ClassificationError):
        IndexWord((1, 1, 1, 1, 1, 1)).classify()


def test_mixed_even_word_enumeration():
    assert mixed_even_words(2) == []
    four = mixed_even_words(4)
    assert len(four) == 6
    assert four == sorted(four)
    assert all(sum(w) % 2 == 0 and len(set(w)) == 2 for w in four)
    assert len(mixed_even_words(6)) == 30
    assert len(mixed_even_words(8)) == 126
    for n in range(2, 13, 2):
        assert len(mixed_even_words(n)) == 2 ** (n - 1) - 2


# ---------------------------------------------------------------------------
# envelope
# ---------------------------------------------------------------------------

def test_envelope_zero_at_origin(strong_setup):
    params, prof, lat = strong_setup
    assert d_envelope(0.0, params, prof, lat) == 0.0


def test_envelope_dominates_second_order(strong_system, strong_setup):
    params, prof, lat = strong_setup
    for s in (0.1, 1.0, 10.0):
        integrand = strong_system.word_integrand_fast((1, 1),
                                                      np.array([s]))[0]
        bound = d_envelope(s, params, prof, lat)
        assert integrand <= bound * (1 + 1e-12)
        # the second-order integrand saturates the envelope
        assert integrand == pytest.approx(bound, rel=1e-12)


def test_envelope_integral_bound(strong_system, strong_setup):
    params, prof, lat = strong_setup
    total = strong_system.d_integral()
    analytic = (params.e / params.nu) * lattice_norm(prof, lat, 0) ** 2
    assert 0.0 < total <= analytic * (1 + 1e-12)


# ---------------------------------------------------------------------------
# trace words
# ---------------------------------------------------------------------------

def test_short_crossed_words_vanish(strong_system):
    assert trace_word((1, 2), strong_system) == 0.0
    assert trace_word((2, 1), strong_system) == 0.0
    assert trace_word((1, 2, 1, 2), strong_system) == 0.0
    assert trace_word((2, 1, 2, 1), strong_system) == 0.0


def test_odd_weight_words_vanish_dense(strong_system, rng):
    svals = rng.uniform(0.05, 8.0, size=4)
    scale = strong_system.d_integral()
    for word in [(1, 2), (1, 1, 1, 2), (1, 2, 2, 2, 2, 2)]:
        assert sum(word) % 2 == 1
        dense = dense_word_integrand(strong_system, word, svals)
        assert np.all(np.abs(dense) <= 1e-12 * scale)


def test_fast_equals_dense(strong_system, rng):
    svals = rng.uniform(0.05, 8.0, size=6)
    words = [(1, 1), (2, 2), (1, 1, 2, 2), (2, 1, 1, 2), (1, 2, 2, 1),
             (2, 2, 1, 1), (1, 1, 2, 2, 2, 2), (2, 1, 1, 1, 1, 2),
             (1, 1, 1, 1, 2, 2), (1, 2, 2, 2, 2, 1)]
    for word in words:
        fast = strong_system.word_integrand_fast(word, svals)
        dense = dense_word_integrand(strong_system, word, svals)
        np.testing.assert_allclose(fast, dense, rtol=1e-10,
                                   atol=1e-18 * max(1.0, np.max(np.abs(dense))))


def test_fast_equals_dense_order_eight(strong_system, rng):
    svals = rng.uniform(0.05, 8.0, size=5)
    words = rng.choice(mixed_even_words(8), size=10, replace=False)
    floor = 1e-20
    for word in map(tuple, words):
        fast = strong_system.word_integrand_fast(word, svals)
        dense = dense_word_integrand(strong_system, word, svals)
        np.testing.assert_allclose(fast, dense, rtol=1e-10, atol=floor)


def test_fast_equals_dense_bigger_lattice(rng):
    params = ModelParams(0.5, 3.0)
    prof = make_gaussian_profile(0.25)
    system = TraceSystem(params, build_lattice(2.0, 1.0), prof,
                         Geometry(0.7))
    svals = rng.uniform(0.05, 8.0, size=3)
    for word in ((1, 1, 2, 2), (2, 1, 1, 2), (1, 1, 2, 2, 2, 2)):
        fast = system.word_integrand_fast(word, svals)
        dense = dense_word_integrand(system, word, svals)
        np.testing.assert_allclose(fast, dense, rtol=1e-10)


@pytest.mark.parametrize("e,nu0,xi", PARAM_SETS)
@pytest.mark.parametrize("L", [2.0, 3.0])
def test_order_integrand_equals_word_sum(e, nu0, xi, L):
    # the per-order transfer-matrix sum is the word-by-word sum it replaces
    params = ModelParams(e, nu0)
    prof = make_gaussian_profile(xi)
    lat = build_lattice(L, 1.0)
    pair = TraceSystem(params, lat, prof, Geometry(0.35 * L))
    single = TraceSystem(params, lat, prof)
    svals = np.geomspace(0.02, 40.0, 7)
    for order in (4, 6, 8, 10):
        words = sum((pair.word_integrand_fast(w, svals)
                     for w in mixed_even_words(order)), np.zeros_like(svals))
        np.testing.assert_allclose(pair.order_integrand(order, svals), words,
                                   rtol=1e-12, atol=0.0)
        ones = single.word_integrand_fast((1,) * order, svals)
        np.testing.assert_allclose(single.order_integrand(order, svals),
                                   ones, rtol=1e-12, atol=0.0)
    assert np.all(pair.order_integrand(2, svals) == 0.0)


@pytest.mark.parametrize("e,nu0,xi", PARAM_SETS)
@pytest.mark.parametrize("L", [1.0, 2.0, 3.0])
def test_channel_sums_are_the_axis_diagonal(e, nu0, xi, L):
    # the box symmetry makes each projector mode sum diag(T, T, L); the
    # sums across the dipoles cancel, so compare at the scale sum |w| g
    params, prof = ModelParams(e, nu0), make_gaussian_profile(xi)
    lat = build_lattice(L, 1.0)
    system = TraceSystem(params, lat, prof, Geometry(0.35 * L))
    svals = np.geomspace(0.02, 40.0, 7)
    u = lat.units
    proj = np.eye(3)[None, :, :] - u[:, :, None] * u[:, None, :]
    w = lat.cell_weight * lat.norms ** 2 * prof.radial(lat.norms) ** 2
    cos = np.cos(lat.points @ system.geometry.r)
    sums = system.channel_sums(svals)
    axes = [0, 1, 2]
    for m in (1, 2):
        g = (svals[:, None] ** 2 + lat.norms[None, :] ** 2) ** -m
        scale = g @ np.abs(w)
        for weight, channels in ((w, sums[m][0]), (w * cos, sums[m][1])):
            gap = np.einsum("sn,nij->sij", g * weight, proj)
            gap[:, axes, axes] -= channels[:, [0, 0, 1]]
            assert np.all(np.max(np.abs(gap), axis=(1, 2)) <= 1e-14 * scale)


def test_trace_routes_stream_in_small_memory():
    # no route holds a nodes x N table: each peak stays below half of one
    params, prof = ModelParams(0.5, 2.0), make_gaussian_profile(1.0)
    lat = build_lattice(16.0, 1.0)
    assert lat.count == 35936
    svals = np.geomspace(0.01, 100.0, 176)
    table = svals.size * lat.count * svals.itemsize
    pair = TraceSystem(params, lat, prof, Geometry(4.0))
    for call in (lambda: pair.order_integrand(8, svals),
                 lambda: pair.word_integrand_fast((1, 1, 2, 2, 2, 2), svals),
                 lambda: binding_energy_exact(params, lat, prof, 4.0)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table / 2


def test_series_reports_quadrature_evidence(strong_setup):
    from cplab import QuadratureSpec
    params, prof, lat = strong_setup
    loose = QuadratureSpec(rel_tol=1e-6)
    tight = QuadratureSpec(rel_tol=1e-13)
    for run in (lambda q: series_one_electron(params, lat, prof, 6, quad=q),
                lambda q: series_binding(params, lat, prof, 0.35, 6,
                                         quad=q)):
        coarse, fine = run(loose), run(tight)
        assert len(coarse.error_estimates) == len(coarse.orders) == 3
        assert len(coarse.nodes) == 3
        for c, f, err, used in zip(coarse.contributions, fine.contributions,
                                   coarse.error_estimates, coarse.nodes):
            if c == 0.0:  # the order-2 binding term has no words
                assert err == 0.0 and used == 0
                continue
            assert used >= 176 and 0.0 < err <= 1e-6 * abs(c)
            # the reported estimate bounds the observed error
            assert abs(c - f) <= err


def test_transpose_symmetry(strong_system):
    left = trace_word((1, 2, 2, 1), strong_system)
    right = trace_word((2, 1, 1, 2), strong_system)
    assert left == pytest.approx(right, rel=1e-10)
    assert right > 0.0


def test_word_norm_bounds(strong_system, strong_setup):
    # dressed blocks stay below sqrt(a); resolvent-weighted blocks below D_rho
    params, prof, lat = strong_setup
    rep = check_constraints(params, prof, lat)
    blocks = dense_trace_blocks(strong_system)
    diag = blocks[0]
    for s in (0.1, 0.7, 3.0):
        g = 1.0 / (s * s + diag)
        gh = np.sqrt(g)
        for j in (1, 2):
            dressed = gh[:, None] * blocks[j] * gh[None, :]
            assert np.linalg.norm(dressed, 2) <= math.sqrt(rep.a) * (1 + 1e-12)
            weighted = blocks[j] * g[None, :]
            assert np.linalg.norm(weighted, 2) <= rep.D_rho * (1 + 1e-12)


def test_second_order_matches_small_coupling_limit(strong_setup):
    # scaling the coupling block by g isolates the g^2 coefficient of the
    # exact energy, which must equal minus the first series term
    params, prof, lat = strong_setup
    system = TraceSystem(params, lat, prof)
    term = trace_word((1, 1), system)
    shift = 1.5 * params.e * params.nu
    vals = []
    for g in (0.25, 0.125, 0.0625):
        en = ground_energy(assemble_one_electron(
            params, lat, prof, coupling_scale=g)).energy
        vals.append((en - shift) / g ** 2)
    # halving g quarters the leading g^2 error of the quotient
    extrap = (4.0 * vals[2] - vals[1]) / 3.0
    assert extrap == pytest.approx(-term, rel=1e-6)


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("e,nu0,xi", [(0.5, 3.0, 0.25), (0.3, 4.0, 0.35)])
def test_one_electron_series_matches_exact(e, nu0, xi):
    params = ModelParams(e, nu0)
    prof = make_gaussian_profile(xi)
    lat = build_lattice(1.0, 1.0)
    series = series_one_electron(params, lat, prof, max_order=8)
    exact = ground_energy(assemble_one_electron(params, lat, prof))
    # compare the correction E - 1.5 e nu, not the full energy
    gap = abs(exact.trace_difference + math.fsum(series.contributions))
    assert gap <= (series.tail_bound
                   + 1e-9 * abs(exact.trace_difference))
    # contributions decay at least geometrically with ratio a
    ratios = [b / a for a, b in zip(series.contributions,
                                    series.contributions[1:]) if a > 0]
    assert all(r <= series.a * (1 + 1e-9) for r in ratios)


def test_one_electron_series_zero_profile(default_params, small_lattice):
    from cplab import make_custom_profile
    zp = make_custom_profile(
        lambda r: np.zeros_like(np.asarray(r, dtype=float)))
    series = series_one_electron(default_params, small_lattice, zp,
                                 max_order=4)
    shift = 1.5 * default_params.e * default_params.nu
    assert series.value == pytest.approx(shift, abs=1e-15)
    assert series.tail_bound == 0.0


def test_series_divergence_guard(small_lattice):
    params = ModelParams(e=0.1, nu0=0.05)
    prof = make_gaussian_profile(0.2)
    rep = check_constraints(params, prof, small_lattice)
    assert rep.a >= 1.0
    with pytest.raises(SeriesDivergenceError):
        series_one_electron(params, small_lattice, prof)


def test_binding_series_matches_exact(strong_setup):
    params, prof, lat = strong_setup
    r = 0.35
    series = series_binding(params, lat, prof, r, max_order=6)
    exact = binding_energy_exact(params, lat, prof, r)
    assert abs(series.value - exact) <= (series.tail_bound
                                         + 1e-4 * abs(series.value))
    assert series.orders == [2, 4, 6]
    assert series.contributions[0] == 0.0


def test_binding_aggregate_smallness_bound(strong_setup):
    # the whole binding energy obeys the geometric aggregate bound
    params, prof, lat = strong_setup
    rep = check_constraints(params, prof, lat)
    bound = (params.e / params.nu) * lattice_norm(prof, lat, 0) ** 2 \
        * 4.0 / (1.0 - 4.0 * rep.a)
    for r in (0.2, 0.35, 0.45):
        assert abs(binding_energy_exact(params, lat, prof, r)) <= bound


def test_trace_word_budget_exhaustion(strong_setup):
    from cplab import AccuracyError, QuadratureSpec
    params, prof, lat = strong_setup
    system = TraceSystem(params, lat, prof, Geometry(0.4))
    spec = QuadratureSpec(rel_tol=1e-14, max_nodes=200)
    with pytest.raises(AccuracyError) as err:
        trace_word((1, 1, 2, 2), system, quad=spec)
    assert err.value.best_estimate != 0.0


def test_binding_tail_guard(small_lattice):
    params = ModelParams(e=0.4, nu0=2.0)
    prof = make_gaussian_profile(0.15)
    rep = check_constraints(params, prof, small_lattice)
    assert 0.25 <= rep.a < 1.0
    with pytest.raises(TailBoundUnavailableError):
        series_binding(params, small_lattice, prof, 0.3)
    flagged = series_binding(params, small_lattice, prof, 0.3,
                             allow_unbounded_tail=True)
    assert flagged.tail_bound == math.inf
    assert not flagged.converged


# ---------------------------------------------------------------------------
# a-priori bounds
# ---------------------------------------------------------------------------

def test_word_bound_multipliers(strong_setup):
    params, prof, lat = strong_setup
    rep = check_constraints(params, prof, lat)
    assert word_bound((1, 1, 2, 2), rep) == 1.0
    assert word_bound((1, 1, 2, 2, 2, 2, 1, 1), rep) == pytest.approx(
        rep.c_L ** 4, rel=1e-15)
    expect = rep.continuum_norms[0] ** 2 / (3.0 * rep.nu ** 2)
    assert word_bound((1, 1, 1, 1, 2, 2), rep) == pytest.approx(
        expect, rel=1e-15)
    with pytest.raises(ClassificationError):
        word_bound((1, 2), rep)


def test_case2_ratio_bound(strong_system, strong_setup):
    params, prof, lat = strong_setup
    rep = check_constraints(params, prof, lat)
    reference = trace_word((2, 1, 1, 2), strong_system)
    assert reference > 0.0
    for word in mixed_even_words(6):
        if IndexWord(word).classify() != "case2":
            continue
        value = abs(trace_word(word, strong_system))
        assert value <= rep.c_L ** 2 * reference * (1 + 1e-6)
