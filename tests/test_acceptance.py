"""Acceptance suite: one test per exit criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines and timings.
"""

import math
import time
import warnings

import numpy as np

from cplab import (Geometry, IndexWord, LatticePeriodicityWarning,
                   ModelParams, TraceSystem, assemble_one_electron,
                   assemble_two_electron, binding_energy_exact, build_lattice,
                   check_constraints, cp_constant, closed_integral,
                   d_envelope, fit_power_law, fourth_order_main,
                   ground_energy, integral_quadrature_oracle, lattice_norm,
                   make_gaussian_profile, mixed_even_words, series_binding,
                   series_one_electron, sweep_R, trace_word)
from cplab.cli import parse_config, run
from cplab.continuum import ab_identity_check, angular_factor

from conftest import (PARAM_SETS, dense_ground_energy, dense_trace_blocks,
                      dense_word_integrand)
from oracles import dipoles


def report(name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. Casimir-Polder constant from the continuum sweep
# ---------------------------------------------------------------------------

def test_criterion_1_cp_constant():
    t0 = time.time()
    cfg = parse_config("e = 0.5\nnu0 = 2\nxi = 1\nR_grid = 30, 42, 60, 84, 120")
    rep = run("cp-sweep", cfg)
    r7_last = rep.rows[-1][2]
    ref = cp_constant(2.0)
    dev = abs(r7_last - ref) / ref
    params, profile = ModelParams(0.5, 2.0), make_gaussian_profile(1.0)
    sweep = sweep_R([30.0, 42.0, 60.0, 84.0, 120.0], lambda R:
                    fourth_order_main(R, params, profile).value)
    fit = fit_power_law((sweep.R, sweep.value))
    ok = dev < 0.05 and abs(fit.exponent + 7.0) < 0.1
    report("criterion 1 (R^-7 constant)", ok,
           f"R^7*A(120)={r7_last:.6e} vs {ref:.6e} (dev {dev:.2%}), "
           f"exponent {fit.exponent:+.4f}, {time.time()-t0:.1f}s")


# ---------------------------------------------------------------------------
# 2. subdominance of the crossed fourth-order term
# ---------------------------------------------------------------------------

def test_criterion_2_error_term():
    t0 = time.time()
    cfg = parse_config("R_grid = 30, 42, 60, 84, 120")
    rep = run("error-sweep", cfg)
    exponent = rep.scalars["fit_exponent"]
    ratio = rep.scalars["crossed_over_main_at_max"]
    ok = abs(exponent + 9.0) < 0.2 and ratio < 0.03
    report("criterion 2 (R^-9 subdominance)", ok,
           f"exponent {exponent:+.4f}, crossed/main at R=120 = {ratio:.2e}, "
           f"{time.time()-t0:.1f}s")


# ---------------------------------------------------------------------------
# 3. dual-oracle equivalence of the one-dipole energy
# ---------------------------------------------------------------------------

def test_criterion_3_energy_dual_oracle():
    t0 = time.time()
    worst = 0.0
    for e, nu0, xi in PARAM_SETS:
        params = ModelParams(e, nu0)
        prof = make_gaussian_profile(xi)
        for box, cut in ((1.0, 1.0), (2.0, 1.0)):
            lat = build_lattice(box, cut)
            assert check_constraints(params, prof, lat).all_satisfied
            series = series_one_electron(params, lat, prof, max_order=8)
            exact = ground_energy(assemble_one_electron(params, lat, prof))
            # the correction E - 1.5 e nu, at its own magnitude
            correction = exact.trace_difference
            gap = abs(correction + math.fsum(series.contributions))
            # the slack is the two routes' own quadrature error estimates
            slack = math.fsum(series.error_estimates) + exact.error_estimate
            assert gap <= series.tail_bound + slack
            worst = max(worst, gap / (series.tail_bound + slack))
    report("criterion 3 (energy dual oracle)", True,
           f"5 parameter sets x 2 lattices, worst gap/(tail + quadrature "
           f"estimates) {worst:.2e} <= 1, {time.time()-t0:.1f}s")


# ---------------------------------------------------------------------------
# 4. dual-oracle equivalence of the binding energy
# ---------------------------------------------------------------------------

def test_criterion_4_binding_dual_oracle():
    t0 = time.time()
    lat = build_lattice(2.0, 1.0)
    details = []
    for e, nu0, xi in ((0.5, 2.0, 1.0), (0.5, 3.0, 0.25)):
        params = ModelParams(e, nu0)
        prof = make_gaussian_profile(xi)
        for frac in (0.3, 0.6):
            r = frac * lat.box_period
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", LatticePeriodicityWarning)
                exact = binding_energy_exact(params, lat, prof, r)
                series = series_binding(params, lat, prof, r, max_order=8)
            gap = abs(series.value - exact)
            assert gap <= series.tail_bound + 1e-4 * abs(series.value)
            details.append(f"R={r}: gap {gap:.1e} tail {series.tail_bound:.1e}")
    report("criterion 4 (binding dual oracle)", True,
           "; ".join(details) + f", {time.time()-t0:.1f}s")


# ---------------------------------------------------------------------------
# 5. vanishing-word suite
# ---------------------------------------------------------------------------

def test_criterion_5_vanishing_words():
    t0 = time.time()
    params = ModelParams(0.5, 3.0)
    prof = make_gaussian_profile(0.25)
    lat = build_lattice(1.0, 1.0)
    system = TraceSystem(params, lat, prof, Geometry(0.4))
    svals = np.array([0.13, 0.71, 2.3, 6.0])
    checked = 0
    # the four crossed words whose trace is structurally zero
    for word in ((1, 2), (2, 1), (1, 2, 1, 2), (2, 1, 2, 1)):
        scale = system.word_scale(word)
        assert trace_word(word, system) == 0.0
        dense = dense_word_integrand(system, word, svals)
        assert np.all(np.abs(dense) <= 1e-12 * scale)
        checked += 1
    # every odd-weight word up to length six
    for length in (2, 4, 6):
        for bits in range(2 ** length):
            word = tuple(1 + ((bits >> j) & 1) for j in range(length))
            if sum(word) % 2 == 0:
                continue
            scale = system.word_scale(word)
            assert trace_word(word, system) == 0.0
            dense = dense_word_integrand(system, word, svals)
            assert np.all(np.abs(dense) <= 1e-12 * scale)
            checked += 1
    report("criterion 5 (vanishing words)", True,
           f"{checked} words below 1e-12 relative scale, "
           f"{time.time()-t0:.1f}s")


# ---------------------------------------------------------------------------
# 6. closed integral suite
# ---------------------------------------------------------------------------

def test_criterion_6_closed_integrals():
    t0 = time.time()
    rng = np.random.default_rng(20200426)
    worst = 0.0
    for _ in range(100):
        a, b, c = rng.uniform(0.1, 10.0, size=3)
        for kind, exps in (("111", (1, 1, 1)), ("221", (2, 2, 1)),
                           ("212", (2, 1, 2)), ("311", (3, 1, 1))):
            closed = closed_integral(kind, a, b, c)
            oracle = integral_quadrature_oracle(*exps, a, b, c)
            worst = max(worst, abs(closed / oracle - 1.0))
    assert worst < 1e-8
    worst_sym = 0.0
    for _ in range(50):
        a, b, c = rng.uniform(0.1, 10.0, size=3)
        lhs = closed_integral("221", a, b, c)
        rhs = closed_integral("212", a, c, b)
        worst_sym = max(worst_sym, abs(lhs / rhs - 1.0))
    assert worst_sym < 1e-12
    report("criterion 6 (closed integrals)", True,
           f"worst oracle dev {worst:.1e} < 1e-8, swap identity dev "
           f"{worst_sym:.1e} < 1e-12, {time.time()-t0:.1f}s")


# ---------------------------------------------------------------------------
# 7. angular suite
# ---------------------------------------------------------------------------

def test_criterion_7_angular_identities():
    t0 = time.time()
    worst = 0.0
    n = 512
    phi = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
    dphi = np.cos(phi[:, None] - phi[None, :])
    for x1 in np.linspace(-1.0, 1.0, 5):
        for x2 in np.linspace(-1.0, 1.0, 5):
            y1 = math.sqrt(1 - x1 * x1)
            y2 = math.sqrt(1 - x2 * x2)
            integrand = 1.0 + (dphi * y1 * y2 + x1 * x2) ** 2
            quad2d = float(np.sum(integrand)) * (2 * math.pi / n) ** 2
            worst = max(worst, abs(angular_factor(x1, x2) - quad2d))
    assert worst < 1e-8
    value = ab_identity_check()
    rel = abs(value - 23.0 * math.pi) / (23.0 * math.pi)
    assert rel < 1e-6
    report("criterion 7 (angular suite)", True,
           f"angular factor worst abs dev {worst:.1e} < 1e-8; kernel "
           f"identity {value:.8f} = 23*pi (rel {rel:.1e}); times (2 pi)^2 "
           f"= {value*(2*math.pi)**2:.1f}, {time.time()-t0:.1f}s")


# ---------------------------------------------------------------------------
# 8. bound suite
# ---------------------------------------------------------------------------

def test_criterion_8_bounds():
    t0 = time.time()
    params = ModelParams(0.5, 3.0)
    prof = make_gaussian_profile(0.25)
    lat = build_lattice(1.0, 1.0)
    rep = check_constraints(params, prof, lat)
    system = TraceSystem(params, lat, prof, Geometry(0.4))
    blocks = dense_trace_blocks(system)
    diag = blocks[0]
    norm_bound = math.sqrt(2.0) * lattice_norm(prof, lat, 0) / params.nu
    for s in (0.0, 0.1, 0.7, 3.0, 12.0):
        g = 1.0 / (s * s + diag)
        gh = np.sqrt(g)
        for j in (1, 2):
            dressed = gh[:, None] * blocks[j] * gh[None, :]
            assert np.linalg.norm(dressed, 2) <= norm_bound * (1 + 1e-12)
            weighted = blocks[j] * g[None, :]
            assert np.linalg.norm(weighted, 2) <= rep.D_rho * (1 + 1e-12)
        if s > 0.0:
            for j in ((1, 1), (2, 2)):
                integrand = system.word_integrand_fast(j, np.array([s]))[0]
                assert integrand <= d_envelope(s, params, prof, lat) \
                    * (1 + 1e-12)
    d_int = system.d_integral()
    analytic = (params.e / params.nu) * lattice_norm(prof, lat, 0) ** 2
    assert d_int <= analytic * (1 + 1e-12)
    reference = trace_word((2, 1, 1, 2), system)
    n_case2 = 0
    for word in mixed_even_words(6):
        if IndexWord(word).classify() != "case2":
            continue
        assert abs(trace_word(word, system)) \
            <= rep.c_L ** 2 * reference * (1 + 1e-6)
        n_case2 += 1
    report("criterion 8 (bound suite)", True,
           f"norm/envelope/D-integral bounds hold; {n_case2} case-2 words "
           f"within c_L^2 of the reference, {time.time()-t0:.1f}s")


# ---------------------------------------------------------------------------
# 9. invariance suite
# ---------------------------------------------------------------------------

def test_criterion_9_invariance():
    t0 = time.time()
    params = ModelParams(0.5, 3.0)
    prof = make_gaussian_profile(0.25)
    lat = build_lattice(1.0, 1.0)
    rng = np.random.default_rng(7)
    angles = rng.uniform(0.0, 2 * math.pi, size=lat.count)
    # the production energies against the dense spectra of borders built
    # with rotated polarizations or a shifted dipole
    one = assemble_one_electron(params, lat, prof)
    g = Geometry(0.4)
    two = assemble_two_electron(params, lat, prof, g)
    cases = [(one, dipoles(), angles),
             (one, [np.array([0.3, -1.0, 2.0])], None),
             (two, dipoles(g), angles)]
    devs = []
    for form, positions, rotation in cases:
        ref = dense_ground_energy(form, params, lat, prof, positions,
                                  rotation)
        devs.append(abs(ref.energy / ground_energy(form).energy - 1.0))
    dev = max(devs)
    assert dev < 1e-10
    # positivity under the smallness hypotheses, across all admissible sets
    min_eig = math.inf
    for e, nu0, xi in PARAM_SETS:
        p = ModelParams(e, nu0)
        pr = make_gaussian_profile(xi)
        rep = check_constraints(p, pr, lat)
        assert rep.sqrt2_e_nu0_ge_1 and rep.sqrt2_e_norm_lt_1
        one = ground_energy(assemble_one_electron(p, lat, pr))
        two = ground_energy(assemble_two_electron(p, lat, pr, g))
        min_eig = min(min_eig, one.min_eigenvalue, two.min_eigenvalue)
    assert min_eig >= -1e-10
    report("criterion 9 (invariance suite)", True,
           f"rotation/shift invariance dev {dev:.1e} < 1e-10; minimum "
           f"eigenvalue {min_eig:.3e} >= 0, {time.time()-t0:.1f}s")


# ---------------------------------------------------------------------------
# 10. fast path equals dense path
# ---------------------------------------------------------------------------

def test_criterion_10_fast_path_equivalence():
    t0 = time.time()
    params = ModelParams(0.5, 3.0)
    prof = make_gaussian_profile(0.25)
    lat = build_lattice(1.0, 1.0)
    system = TraceSystem(params, lat, prof, Geometry(0.4))
    rng = np.random.default_rng(20200426)
    svals = rng.uniform(0.02, 15.0, size=20)
    d_scale = system.d_integral()
    worst = 0.0
    n_words = 0
    for length in (2, 4, 6):
        floor = 1e-10 * system.word_scale((1,) * length)
        for bits in range(2 ** length):
            word = tuple(1 + ((bits >> j) & 1) for j in range(length))
            fast = system.word_integrand_fast(word, svals)
            dense = dense_word_integrand(system, word, svals)
            gap = np.max(np.abs(fast - dense)
                         / np.maximum(np.abs(dense), floor))
            worst = max(worst, float(gap))
            n_words += 1
    assert worst < 1e-10
    assert d_scale > 0
    report("criterion 10 (fast path = dense path)", True,
           f"{n_words} words x 20 s-values, worst relative gap "
           f"{worst:.1e} < 1e-10, {time.time()-t0:.1f}s")
