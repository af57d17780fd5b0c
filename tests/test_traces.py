import math
import tracemalloc
import warnings

import numpy as np
import pytest

from cplab import cli
from cplab import (ChargeProfile, ClassificationError, Geometry,
                   InvalidParameterError, LatticePeriodicityWarning,
                   ModelParams, QuadratureSpec,
                   SeriesDivergenceError, TailBoundUnavailableError,
                   TraceSystem, assemble_one_electron, assemble_two_electron,
                   binding_energy_exact, build_lattice, check_constraints,
                   convergence_study, ground_energy,
                   integrate_half_line, lattice_norm, make_gaussian_profile,
                   mixed_even_words, series_binding, series_one_electron,
                   trace_word, word_bound, word_class)
from cplab.quadrature import _PANEL_COST
from conftest import (PARAM_SETS, dense_trace_blocks, dense_word_integrand,
                      envelope_oracle)
from oracles import box_modes


@pytest.fixture(scope="module")
def strong_system(strong_setup):
    params, prof, lat = strong_setup
    return TraceSystem(params, lat, prof, Geometry(0.4))


@pytest.fixture(scope="module")
def strong_single(strong_setup):
    # one dipole: its word (1, 1) is the envelope D(s)
    params, prof, lat = strong_setup
    return TraceSystem(params, lat, prof)


# ---------------------------------------------------------------------------
# index words
# ---------------------------------------------------------------------------

def test_word_class_cases():
    assert word_class((1, 1, 2, 2, 2, 2)) == "case1"
    assert word_class((1, 1, 2, 2, 2, 2, 1, 1)) == "case2"
    assert word_class((1, 1, 2, 2)) == "order4"


def test_word_class_validation():
    with pytest.raises(InvalidParameterError):
        word_class(())
    with pytest.raises(InvalidParameterError):
        word_class((1, 3))
    with pytest.raises(ClassificationError):
        word_class((1, 2))
    with pytest.raises(ClassificationError):
        word_class((1, 1, 1, 1, 1, 1))


@pytest.mark.parametrize("word", [(3, 3), (1, 3), (0, 0), ()])
def test_bad_letters_raise_at_every_word_entry(strong_system, word):
    # the integrand's closures only compare letters with each other, so
    # (3, 3) would pass for (1, 1); each entry rejects it with a typed error
    entries = (lambda: strong_system.word_integrand_fast(word, np.ones(2)),
               lambda: trace_word(word, strong_system),
               lambda: word_class(word))
    for entry in entries:
        with pytest.raises(InvalidParameterError):
            entry()


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

def test_envelope_zero_at_origin(strong_single):
    assert strong_single.word_integrand_fast((1, 1), np.zeros(1))[0] == 0.0


def test_envelope_dominates_second_order(strong_system, strong_single):
    for s in (0.1, 1.0, 10.0):
        integrand = strong_system.word_integrand_fast((1, 1),
                                                      np.array([s]))[0]
        bound = strong_single.word_integrand_fast((1, 1), np.array([s]))[0]
        assert integrand <= bound * (1 + 1e-12)
        # the second-order integrand saturates the envelope
        assert integrand == pytest.approx(bound, rel=1e-12)


@pytest.mark.parametrize("e,nu0,xi", PARAM_SETS)
@pytest.mark.parametrize("L", [1.0, 2.0, 3.0, 8.0])
def test_envelope_matches_mode_sum_oracle(e, nu0, xi, L):
    # D(s), the one-dipole word (1, 1) on the channel sums, is the
    # projector-free mode sum, and at small boxes the dense second-order
    # word; a node alone gives the value it gives among others
    params, prof = ModelParams(e, nu0), make_gaussian_profile(xi)
    lat = build_lattice(L, 1.0)
    single = TraceSystem(params, lat, prof)
    svals = np.geomspace(0.02, 40.0, 7)
    env = single.word_integrand_fast((1, 1), svals)
    np.testing.assert_allclose(env, envelope_oracle(svals, params, prof, lat),
                               rtol=1e-13, atol=0.0)
    alone = single.word_integrand_fast((1, 1), svals[3:4])[0]
    assert alone == pytest.approx(env[3], rel=1e-14)
    if L <= 2.0:
        dense = dense_word_integrand(single, (1, 1), svals)
        np.testing.assert_allclose(env, dense, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("e,nu0,xi", PARAM_SETS)
@pytest.mark.parametrize("L", [1.0, 2.0, 3.0])
def test_envelope_integral_closed_form(e, nu0, xi, L):
    # the closed form against the quadrature of D(s), within the
    # quadrature's own error estimate; the geometry does not enter.  The
    # expansion parameter a read from the same table is the report's
    params, prof, lat = ModelParams(e, nu0), make_gaussian_profile(xi), \
        build_lattice(L, 1.0)
    single = TraceSystem(params, lat, prof)
    ref = integrate_half_line(
        lambda s: single.word_integrand_fast((1, 1), s), full_output=True)
    closed = single.d_integral()
    assert abs(closed - ref.value / math.pi) <= ref.error_estimate / math.pi
    pair = TraceSystem(params, lat, prof, Geometry(0.3 * L))
    assert pair.d_integral() == closed
    report = check_constraints(params, prof, lat)
    for system in (single, pair):
        assert system.a == report.a


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


@pytest.mark.parametrize("word", [(1, 2), (2, 2, 2), (2, 1, 1), (1, 1, 2, 2)])
def test_two_dipole_words_need_geometry(strong_setup, word):
    # without a second dipole a letter 2 names nothing: no parity shortcut
    # may return 0.0 for it
    params, prof, lat = strong_setup
    single = TraceSystem(params, lat, prof)
    with pytest.raises(InvalidParameterError, match="geometry"):
        trace_word(word, single)
    with pytest.raises(InvalidParameterError, match="geometry"):
        single.word_integrand_fast(word, np.ones(2))


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
    # each order integrates to the word-by-word sum it replaces, within the
    # two quadratures' error estimates; node by node the two integrands
    # differ, as a column is the Taylor coefficient of the channel log-det
    params, prof = ModelParams(e, nu0), make_gaussian_profile(xi)
    lat = build_lattice(L, 1.0)
    orders = (4, 6, 8, 10)
    for geometry in (Geometry(0.35 * L), None):
        system = TraceSystem(params, lat, prof, geometry)
        words = {order: (mixed_even_words(order) if geometry
                         else [(1,) * order]) for order in orders}
        spec = QuadratureSpec()

        def word_sums(s):
            return np.stack([sum(system.word_integrand_fast(w, s)
                                 for w in words[order]) for order in orders],
                            axis=1)

        closed = integrate_half_line(
            lambda s: system.form.order_integrands(orders, s), spec,
            full_output=True)
        ref = integrate_half_line(word_sums, spec, full_output=True)
        assert np.all(np.abs(closed.value - ref.value)
                      <= closed.error_estimate + ref.error_estimate)
    pair = TraceSystem(params, lat, prof, Geometry(0.35 * L))
    svals = np.geomspace(0.02, 40.0, 7)
    assert np.all(pair.form.order_integrands((2,), svals) == 0.0)


@pytest.mark.parametrize("e,nu0,xi", PARAM_SETS)
@pytest.mark.parametrize("L", [2.0, 3.0])
def test_order_columns_do_not_depend_on_the_batch(e, nu0, xi, L):
    # each column of one pass is bit for bit the pass of its order alone,
    # so no layout or batching of the recurrence alters one order's
    # arithmetic
    params, prof = ModelParams(e, nu0), make_gaussian_profile(xi)
    lat = build_lattice(L, 1.0)
    svals = np.geomspace(0.02, 40.0, 7)
    orders = (2, 4, 6, 8, 10)
    for geometry in (None, Geometry(0.35 * L)):
        form = TraceSystem(params, lat, prof, geometry).form
        columns = form.order_integrands(orders, svals)
        for column, order in zip(columns.T, orders):
            alone = form.order_integrands((order,), svals)[:, 0]
            assert np.array_equal(column, alone), (geometry, order)


def test_order_integrands_need_an_order(strong_system):
    with pytest.raises(InvalidParameterError, match="at least one order"):
        strong_system.form.order_integrands((), np.array([0.5, 1.0]))


@pytest.mark.parametrize("order", [4.0, 4.5, "4", None, True, 3, 0])
def test_orders_must_be_positive_even_integers(strong_setup, order):
    # every entry point that takes an order raises the package's typed
    # error for a non-integer one, not a bare TypeError
    params, prof, lat = strong_setup
    form = TraceSystem(params, lat, prof, Geometry(0.4)).form
    for call in (lambda: series_one_electron(params, lat, prof, order),
                 lambda: series_binding(params, lat, prof, 0.4, order),
                 lambda: form.order_integrands((order,), np.ones(2)),
                 lambda: mixed_even_words(order)):
        with pytest.raises(InvalidParameterError, match="even integer"):
            call()


def test_numpy_integer_orders_are_accepted(strong_setup):
    params, prof, lat = strong_setup
    for run in (lambda m: series_one_electron(params, lat, prof, m),
                lambda m: series_binding(params, lat, prof, 0.4, m)):
        assert run(np.int64(6)).value == run(6).value


@pytest.mark.parametrize("call", ["series_one_electron", "series_binding",
                                  "contact_term", "cli_binding",
                                  "cli_series", "convergence"])
def test_series_call_evaluates_the_profile_once(call, monkeypatch):
    # the table, the three lattice norms of the report and the envelope
    # integral all read one evaluation of the profile on the orbits.  The
    # contact term reads its form's table, plus the profile at the origin
    # cell, so a CLI binding with it evaluates the profile on the orbits
    # once for the report and once per separation; a CLI series once for
    # the report and once for the one form that its series and its exact
    # energy read; a convergence cell builds one table per form, the
    # binding reading E2's
    params, gaussian = ModelParams(0.5, 3.0), make_gaussian_profile(0.25)
    shapes = []

    def radial(r):
        shapes.append(np.shape(r))
        return gaussian.radial_form_factor(r)

    prof = ChargeProfile(radial, xi=gaussian.xi,
                         cached_norms=gaussian.cached_norms)
    lat, wide = build_lattice(3.0, 1.0), build_lattice(4.0, 1.0)
    cfg = cli.RunConfig(e=0.5, nu0=3.0, xi=0.25, L=3.0, Lambda=1.0,
                        R_grid=[0.6, 0.9], include_direct_term=True)

    def cli_run(subcommand):
        def call(p):
            monkeypatch.setattr(cli, "make_gaussian_profile", lambda xi: p)
            report = cli.run(subcommand, cfg)
            return report.rows, report.scalars
        return call

    orbits, origin = lat.orbits.norms.shape, ()
    run, expected = {
        "series_one_electron": (lambda p: series_one_electron(
            params, lat, p, 6).value, [orbits]),
        "series_binding": (lambda p: series_binding(
            params, lat, p, 0.9, 6).value, [orbits]),
        "contact_term": (lambda p: assemble_two_electron(
            params, lat, p, Geometry(0.9), include_direct_term=True).g,
            [orbits, origin]),
        "cli_binding": (cli_run("binding"), [orbits] + [orbits, origin] * 2),
        "cli_series": (cli_run("series"), [orbits, orbits]),
        "convergence": (lambda p: [
            [row[key] for key in ("E1", "E2", "binding")]
            for row in convergence_study([3.0, 4.0], [1.0], params, p, 0.9)],
            [orbits] * 2 + [wide.orbits.norms.shape] * 2),
    }[call]
    assert run(prof) == run(gaussian)
    assert shapes == expected


def test_order_closure_does_not_cancel():
    # across a wide box the across rows nearly vanish at some nodes (|y /
    # x| down to 3.5e-11): a closure that subtracts the constant words, (x
    # + y)^j + (x - y)^j - 2 x^j, loses thousands of times 1e-13 there, the
    # recurrence nothing beyond roundoff against the one-sign binomial sum
    lat = build_lattice(8.0, 2.0)
    assert len(lat.orbits.count) == 2294
    params = ModelParams(0.5, 3.0)
    pair = TraceSystem(params, lat, make_gaussian_profile(0.25),
                       Geometry(3.6))
    svals = np.geomspace(0.01, 100.0, 50)
    sums = pair.form.table.sums(svals ** 2, (1, 2))[0]
    x, y = (rows.T / (svals ** 2 + pair.form.enu2)
            for rows in (sums[:, :2], sums[:, 2:]))
    assert np.min(np.abs(y / x)) < 1e-10
    columns = pair.form.order_integrands([4, 6, 8], svals)
    for column, order in zip(columns.T, (4, 6, 8)):
        j = order // 2
        mixed = sum(math.comb(j, k) * x ** (j - k) * y ** k
                    for k in range(2, j + 1, 2))
        ref = np.array(pair.form.table.multiplicity) @ mixed / j
        assert np.all(np.abs(column - ref) <= 1e-13 * np.abs(ref)), order


@pytest.mark.parametrize("e,nu0,xi", PARAM_SETS)
@pytest.mark.parametrize("L", [2.0, 3.0, 8.0])
def test_orders_sum_to_the_kernel_log_det(e, nu0, xi, L):
    # order 2j is the j-th Taylor coefficient of the channel log-det that
    # the exact routes integrate, so on one kernel object orders 2..40 sum
    # to it node by node: the binding's mixed part for a pair, the log-det
    # for one; with the direct term too, where g != 0 shifts the across rows
    params, prof = ModelParams(e, nu0), make_gaussian_profile(xi)
    lat = build_lattice(L, 1.0)
    geometry = Geometry(0.35 * L)
    svals = np.geomspace(0.02, 40.0, 7)
    orders = range(2, 41, 2)
    direct = assemble_two_electron(params, lat, prof, geometry,
                                   include_direct_term=True)
    assert direct.g != 0.0
    for pair in (TraceSystem(params, lat, prof, geometry).form, direct):
        np.testing.assert_allclose(
            pair.order_integrands(orders, svals).sum(axis=1),
            pair.binding(svals) / 2.0, rtol=1e-13, atol=0.0)
    single = TraceSystem(params, lat, prof).form
    np.testing.assert_allclose(
        single.order_integrands(orders, svals).sum(axis=1),
        -single.log_det(svals) / 2.0, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("geometry", [None, Geometry(0.4)])
def test_series_kernel_is_the_assembled_forms_kernel(strong_setup, geometry):
    # the series integrate the form the exact routes assemble, bit for
    # bit: one e^2-scaled table, which the words read too
    params, prof, lat = strong_setup
    system = TraceSystem(params, lat, prof, geometry)
    form = (assemble_one_electron(params, lat, prof) if geometry is None
            else assemble_two_electron(params, lat, prof, geometry))
    assert np.array_equal(system.form.table.ksq, form.table.ksq)
    assert np.array_equal(system.form.table.columns, form.table.columns)
    assert [getattr(system.form, name) for name in (
        "d", "g", "enu2", "zero_point_shift", "modes")] == [
            getattr(form, name) for name in (
                "d", "g", "enu2", "zero_point_shift", "modes")]


@pytest.mark.parametrize("e,nu0,xi", PARAM_SETS)
@pytest.mark.parametrize("L", [1.0, 2.0, 3.0])
def test_channel_sums_are_the_axis_diagonal(e, nu0, xi, L):
    # the box symmetry makes each projector mode sum diag(T, T, L), here of
    # the form's weights e^2 w_k; the sums across the dipoles cancel, so
    # compare at the scale sum |w| g
    params, prof = ModelParams(e, nu0), make_gaussian_profile(xi)
    lat = build_lattice(L, 1.0)
    system = TraceSystem(params, lat, prof, Geometry(0.35 * L))
    svals = np.geomspace(0.02, 40.0, 7)
    points, norms = box_modes(lat)
    u = points / norms[:, None]
    proj = np.eye(3)[None, :, :] - u[:, :, None] * u[:, None, :]
    w = lat.cell_weight * (e * norms * prof.radial(norms)) ** 2
    cos = np.cos(points @ system.geometry.r)
    sums = system.form.table.sums(svals ** 2, (1, 2))
    axes = [0, 1, 2]
    for m in (1, 2):
        g = (svals[:, None] ** 2 + norms[None, :] ** 2) ** -m
        scale = g @ np.abs(w)
        for weight, channels in ((w, sums[m - 1][:, :2]),
                                 (w * cos, sums[m - 1][:, 2:])):
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
    for call in (lambda: pair.form.order_integrands((8,), svals),
                 lambda: pair.word_integrand_fast((1, 1, 2, 2, 2, 2), svals),
                 lambda: binding_energy_exact(params, lat, prof, 4.0),
                 pair.d_integral):
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
        assert coarse.nodes >= 8 * _PANEL_COST
        for c, f, err in zip(coarse.contributions, fine.contributions,
                             coarse.error_estimates):
            if c == 0.0:  # the order-2 binding term has no words
                assert err == 0.0
                continue
            assert 0.0 < err <= 1e-6 * abs(c)
            # the reported estimate bounds the observed error
            assert abs(c - f) <= err


@pytest.mark.parametrize("e,nu0,xi", PARAM_SETS)
@pytest.mark.parametrize("L", [1.0, 2.0])
def test_fused_series_matches_per_order_quadrature(e, nu0, xi, L):
    # one adaptive pass over every order against one pass per order (the
    # parent's route), within the two passes' error estimates; on the unit
    # box some orders need refined panels, which the fused pass shares
    params, prof, lat = ModelParams(e, nu0), make_gaussian_profile(xi), \
        build_lattice(L, 1.0)
    for series, system in (
            (series_one_electron(params, lat, prof, 8),
             TraceSystem(params, lat, prof)),
            (series_binding(params, lat, prof, 0.3 * L, 8,
                            allow_unbounded_tail=True),
             TraceSystem(params, lat, prof, Geometry(0.3 * L)))):
        live = [0, 1, 2, 3] if system.geometry is None else [1, 2, 3]
        if system.geometry is not None:
            assert series.contributions[0] == 0.0
            assert series.error_estimates[0] == 0.0
        oracle_nodes = 0
        for i in live:
            order = series.orders[i]
            ref = integrate_half_line(
                lambda s: system.form.order_integrands((order,), s)[:, 0],
                QuadratureSpec(), full_output=True)
            oracle_nodes += ref.nodes_used
            gap = abs(series.contributions[i] - ref.value / math.pi)
            assert gap <= (series.error_estimates[i]
                           + ref.error_estimate / math.pi)
        assert series.nodes < oracle_nodes


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
    # scaling the profile, and with it the coupling block, by g isolates
    # the g^2 coefficient of the exact energy, which must equal minus the
    # first series term
    params, prof, lat = strong_setup
    system = TraceSystem(params, lat, prof)
    term = trace_word((1, 1), system)
    shift = 1.5 * params.e * params.nu
    vals = []
    for g in (0.25, 0.125, 0.0625):
        scaled = ChargeProfile(lambda r, g=g: g * prof.radial(r), xi=None)
        en = ground_energy(assemble_one_electron(
            params, lat, scaled)).energy
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
    # compare the correction E - 1.5 e nu, not the full energy, up to the
    # tail bound and both routes' own quadrature error estimates
    gap = abs(exact.trace_difference + math.fsum(series.contributions))
    assert gap <= (series.tail_bound + math.fsum(series.error_estimates)
                   + exact.error_estimate)
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


def test_binding_series_converges_in_the_strong_dressing_window():
    # a = 1.40 is far past the a < 1/4 of the a-priori tail bound, yet
    # every channel keeps |x| + |y| < 1, so the series still converges to
    # the exact binding, and every order is resolved at its own magnitude
    params, prof = ModelParams(0.5, 0.6), make_gaussian_profile(0.25)
    lat = build_lattice(8.0, 1.0)
    assert check_constraints(params, prof, lat).a == pytest.approx(
        1.402, abs=1e-3)
    exact = binding_energy_exact(params, lat, prof, 3.0)
    runs = [series_binding(params, lat, prof, 3.0, order,
                           allow_unbounded_tail=True)
            for order in (4, 16, 32, 64)]
    gaps = [abs(series.value / exact - 1.0) for series in runs]
    assert all(later < earlier for earlier, later in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-9
    deepest = runs[-1]
    for order, term, err in zip(deepest.orders, deepest.contributions,
                                deepest.error_estimates):
        if order >= 4:
            assert err <= 1e-10 * term, order


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
    spec = QuadratureSpec(rel_tol=1e-14, max_nodes=150)
    with pytest.raises(AccuracyError) as err:
        trace_word((1, 1, 2, 2), system, quad=spec)
    # the budget runs out in the word's own integral, pi <Q>; the envelope
    # scale behind its floor is a closed form and spends no nodes
    assert err.value.best_estimate == pytest.approx(
        math.pi * trace_word((1, 1, 2, 2), system), rel=1e-6)


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


def test_binding_series_warns_past_half_the_box(strong_setup):
    # as binding_energy_exact does: the lattice binding is periodic in R,
    # so from half the box on it is the value of a nearer image
    params, prof, lat = strong_setup
    half = lat.box_period / 2.0
    for R, warned in ((0.45, False), (half, True), (0.7, True)):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            series_binding(params, lat, prof, R, max_order=4)
        if not warned:
            assert record == []
            continue
        assert [w.category for w in record] == [LatticePeriodicityWarning]
        assert f"R = {R} " in str(record[0].message)
        # at the caller's line, not inside the package
        assert record[0].filename == __file__


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
        if word_class(word) != "case2":
            continue
        value = abs(trace_word(word, strong_system))
        assert value <= rep.c_L ** 2 * reference * (1 + 1e-6)
