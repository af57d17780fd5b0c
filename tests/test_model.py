import math

import numpy as np
import pytest

from cplab import (EmptyLatticeError, Geometry, IntegrabilityError,
                   InvalidParameterError, ModelParams, TraceSystem,
                   assemble_two_electron, build_lattice, check_constraints,
                   form_factor, lattice_norm, make_custom_profile,
                   make_gaussian_profile, polarization, polarization_basis,
                   profile_norm)
from cplab import model
from cplab.oscillator import _Kernel

from conftest import orbit_index, reduce_over_orbits, unit_monomials

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# charge profiles
# ---------------------------------------------------------------------------

def test_gaussian_profile_value_at_origin():
    prof = make_gaussian_profile(1.0)
    assert prof.radial(0.0) == pytest.approx((2 * math.pi) ** -1.5)
    assert prof.radial(0.0) == pytest.approx(0.0634936, rel=1e-5)


def test_gaussian_norms_closed_form():
    prof = make_gaussian_profile(1.0)
    # frozen values from the closed Gaussian integrals
    assert profile_norm(prof, 0) == pytest.approx(
        math.sqrt((2 * math.pi) ** -3 * (math.pi / 2) ** 1.5), rel=1e-12)
    assert profile_norm(prof, 0) == pytest.approx(0.089088, rel=1e-5)
    assert profile_norm(prof, 1) == pytest.approx(0.0771524, rel=1e-5)
    assert profile_norm(prof, -1) == pytest.approx(0.178175, rel=2e-5)


def test_gaussian_norms_match_radial_quadrature():
    prof = make_gaussian_profile(1.0)
    stripped = make_custom_profile(prof.radial_form_factor)
    for p in (-1, 0, 1):
        assert profile_norm(stripped, p) == pytest.approx(
            profile_norm(prof, p), rel=1e-9)


def test_custom_profile_norms_against_scipy():
    from scipy.integrate import quad

    def radial(r):
        r = np.asarray(r, dtype=float)
        return np.exp(-r) / (1.0 + r * r)

    prof = make_custom_profile(radial)
    for p in (-1, 0, 1):
        ref, _ = quad(lambda r: 4 * math.pi * r ** (2 + 2 * p)
                      * (math.exp(-r) / (1 + r * r)) ** 2,
                      0.0, np.inf, epsrel=1e-12, limit=300)
        assert profile_norm(prof, p) == pytest.approx(math.sqrt(ref),
                                                      rel=1e-9)


@pytest.mark.parametrize("xi", [0.5, 1.0, 2.0, 4.0])
def test_gaussian_norm_scaling(xi):
    ref = make_gaussian_profile(1.0)
    prof = make_gaussian_profile(xi)
    for p in (-1, 0, 1):
        assert profile_norm(prof, p) == pytest.approx(
            profile_norm(ref, p) * xi ** (-1.5 - p), rel=1e-10)


def test_gaussian_norm_width_two():
    assert profile_norm(make_gaussian_profile(2.0), 0) == pytest.approx(
        0.089088 * 2 ** -1.5, rel=1e-4)


def test_profile_rejects_bad_width():
    with pytest.raises(InvalidParameterError):
        make_gaussian_profile(0.0)
    with pytest.raises(InvalidParameterError):
        make_gaussian_profile(-1.0)


def test_profile_norm_rejects_divergent_origin():
    def bad(r):
        r = np.asarray(r, dtype=float)
        return np.exp(-r * r) / np.maximum(r, 1e-300)

    with pytest.raises(IntegrabilityError):
        make_custom_profile(bad)


def test_profile_norm_rejects_bad_exponent():
    with pytest.raises(InvalidParameterError):
        profile_norm(make_gaussian_profile(1.0), 2)


def test_trap_frequency_accessor():
    prof = make_gaussian_profile(1.0)
    assert prof.trap_frequency_equivalent() == pytest.approx(
        profile_norm(prof, 0) / math.sqrt(3.0))


# ---------------------------------------------------------------------------
# lattice
# ---------------------------------------------------------------------------

def test_lattice_point_counts():
    assert build_lattice(1.0, 1.0).count == 26
    assert build_lattice(2.0, 1.0).count == 124
    for box, cut in [(1.0, 2.0), (3.0, 1.0), (2.5, 1.2)]:
        lat = build_lattice(box, cut)
        n = math.floor(box * cut)
        assert lat.count == (2 * n + 1) ** 3 - 1


def test_lattice_empty_box_raises():
    with pytest.raises(EmptyLatticeError):
        build_lattice(1.0, 0.5)


def test_lattice_structure():
    lat = build_lattice(2.0, 1.0)
    step = TWO_PI / 2.0
    ratios = lat.points / step
    assert np.allclose(ratios, np.round(ratios), atol=1e-12)
    assert not np.any(np.all(lat.points == 0.0, axis=1))
    assert np.all(np.abs(lat.points) <= TWO_PI * 1.0 + 1e-12)
    assert lat.cell_weight == pytest.approx(step ** 3)
    # lexicographic ordering
    keys = list(map(tuple, np.round(ratios).astype(int)))
    assert keys == sorted(keys)


@pytest.mark.parametrize("box,size", [(2.0, 17), (3.0, 39), (4.0, 74)])
def test_lattice_orbit_invariants(box, size):
    # orbits of bit-equal (|k|, |k_z|): distinct sorted keys, multiplicities
    # summing to N, every mode's key equal to its orbit's bit for bit
    lat = build_lattice(box, 1.0)
    orbits = lat.orbits
    assert len(orbits.count) == size
    assert orbits.count.sum() == lat.count
    keys = list(zip(orbits.norms, orbits.kz))
    assert keys == sorted(set(keys))
    idx = orbit_index(lat)
    np.testing.assert_array_equal(np.bincount(idx, minlength=size),
                                  orbits.count)
    np.testing.assert_array_equal(orbits.norms[idx], lat.norms)
    np.testing.assert_array_equal(orbits.kz[idx], np.abs(lat.points[:, 2]))
    # the symmetric box: every orbit's moments cancel to roundoff
    bound = 1e-15 * orbits.count[:, None]
    assert np.all(np.abs(orbits.moments) <= bound)


def test_orbit_moments_do_not_depend_on_chunking(monkeypatch):
    # slices of 10 modes cut most orbits of the L = 3 box; without the
    # mode (2 pi / 3) (1, 1, 0) its orbit keeps a nonzero u_x u_y moment
    lat = build_lattice(3.0, 1.0)
    keep = np.any(lat.points != TWO_PI / 3.0 * np.array([1.0, 1.0, 0.0]),
                  axis=1)
    for points in (lat.points, lat.points[keep]):
        whole = model.Lattice(3.0, 1.0, points)
        with monkeypatch.context() as patch:
            patch.setattr(model, "_CHUNK_ELEMS", 40)
            sliced = model.Lattice(3.0, 1.0, points)
        ref = reduce_over_orbits(whole, unit_monomials(whole.units))
        for built in (whole, sliced):
            np.testing.assert_array_equal(built.orbits.count,
                                          whole.orbits.count)
            np.testing.assert_allclose(built.orbits.moments, ref, rtol=0.0,
                                       atol=1e-15 * whole.count)
    assert np.max(np.abs(whole.orbits.moments[:, 0])) > 0.1


def test_resolvent_chunks_cover_each_mode_once(monkeypatch):
    # one-hot columns give every mode its own output column, so a mode
    # summed twice or skipped shows as 2x or 0 against the unchunked table;
    # the column slices the reducer reads bound each table it builds
    monkeypatch.setattr(model, "_CHUNK_ELEMS", 1000)
    z = np.linspace(0.0, 3.0, 7)
    ksq = np.linspace(0.5, 9.0, 1001)
    slices = []

    class RowLog(np.ndarray):
        def __getitem__(self, rows):
            slices.append(range(len(ksq))[rows])
            return np.asarray(self)[rows]

    sums = model._resolvent_sums(z, ksq, np.eye(len(ksq)).view(RowLog),
                                 (1, 2))
    table = 1.0 / (z[:, None] + ksq)
    np.testing.assert_array_equal(sums, [table, table * table])
    assert all(len(rows) * len(z) <= 1000 for rows in slices)
    assert [n for rows in slices for n in rows] == list(range(len(ksq)))


def test_mode_sums_do_not_depend_on_chunking(monkeypatch):
    # both consumers of the chunk loop: the channel sums and the kernel
    params, prof = ModelParams(0.5, 3.0), make_gaussian_profile(0.25)
    lat = build_lattice(2.0, 1.0)
    system = TraceSystem(params, lat, prof, Geometry(0.7))
    kernel = _Kernel(assemble_two_electron(params, lat, prof, Geometry(0.7)))
    svals = np.geomspace(0.02, 40.0, 7)

    def evaluate():
        sums = system.channel_sums(svals)
        return [np.stack(sums[m]) for m in (1, 2)] + [
            kernel.stacked.sums(svals ** 2)[0]]

    whole = evaluate()
    monkeypatch.setattr(model, "_CHUNK_ELEMS", 50)
    for one, chunked in zip(whole, evaluate()):
        scale = np.max(np.abs(one))
        np.testing.assert_allclose(chunked, one, rtol=0.0,
                                   atol=1e-14 * scale)


def test_lattice_norm_direct_sum():
    prof = make_gaussian_profile(1.0)
    lat = build_lattice(1.0, 1.0)
    expected = 0.0
    for k in lat.points:
        kn = np.linalg.norm(k)
        expected += float(prof.radial(kn)) ** 2
    expected = math.sqrt(TWO_PI ** 3 * expected)
    assert lattice_norm(prof, lat, 0) == pytest.approx(expected, rel=1e-13)


def test_lattice_norm_zero_profile():
    zero = make_custom_profile(lambda r: np.zeros_like(np.asarray(r, float)))
    lat = build_lattice(1.0, 1.0)
    assert lattice_norm(zero, lat, 0) == 0.0


def test_lattice_norm_converges_to_continuum():
    # the excluded origin cell dominates the deficit, so the gap shrinks
    # like L**-3: monotone decrease along the ladder is the contract
    prof = make_gaussian_profile(1.0)
    gaps = []
    for size in (1.0, 2.0, 4.0, 8.0):
        lat = build_lattice(size, size)
        gap = abs(lattice_norm(prof, lat, 0) - profile_norm(prof, 0))
        gaps.append(gap / profile_norm(prof, 0))
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    origin_cell_share = (2 * math.pi / 8.0) ** 3 * prof.radial(0.0) ** 2 \
        / profile_norm(prof, 0) ** 2
    assert gaps[-1] < origin_cell_share


# ---------------------------------------------------------------------------
# polarization and form factors
# ---------------------------------------------------------------------------

def test_polarization_examples():
    pair = polarization([1.0, 0.0, 0.0])
    np.testing.assert_allclose(pair.eps1, [0.0, -1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(pair.eps2, [0.0, 0.0, -1.0], atol=1e-15)
    pair = polarization([0.0, 0.0, 1.0])
    np.testing.assert_allclose(pair.eps1, [0.0, -1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(pair.eps2, [1.0, 0.0, 0.0], atol=1e-15)


def test_polarization_rejects_zero():
    with pytest.raises(InvalidParameterError):
        polarization([0.0, 0.0, 0.0])


def test_polarization_completeness_random(rng):
    ks = rng.normal(size=(1000, 3))
    ks = ks[np.linalg.norm(ks, axis=1) > 1e-3]
    e1, e2 = polarization_basis(ks)
    khat = ks / np.linalg.norm(ks, axis=1)[:, None]
    for a, b in ((e1, e1), (e2, e2)):
        np.testing.assert_allclose(np.sum(a * b, axis=1), 1.0, atol=1e-14)
    np.testing.assert_allclose(np.sum(e1 * e2, axis=1), 0.0, atol=1e-14)
    np.testing.assert_allclose(np.sum(e1 * khat, axis=1), 0.0, atol=1e-14)
    np.testing.assert_allclose(np.sum(e2 * khat, axis=1), 0.0, atol=1e-14)
    completeness = (e1[:, :, None] * e1[:, None, :]
                    + e2[:, :, None] * e2[:, None, :]
                    + khat[:, :, None] * khat[:, None, :])
    np.testing.assert_allclose(completeness,
                               np.broadcast_to(np.eye(3), completeness.shape),
                               atol=1e-14)


def test_polarization_lattice_transversality(small_lattice):
    e1, e2 = polarization_basis(small_lattice.points)
    khat = small_lattice.units
    np.testing.assert_allclose(np.sum(e1 * khat, axis=1), 0.0, atol=1e-14)
    np.testing.assert_allclose(np.sum(e2 * khat, axis=1), 0.0, atol=1e-14)


def test_form_factor_values(small_lattice):
    prof = make_gaussian_profile(1.0)
    k = np.array([TWO_PI, 0.0, 0.0])
    zero = np.zeros(3)
    # sine channels vanish at the origin
    assert form_factor(zero, k, 3, small_lattice, prof) == 0.0
    assert form_factor(zero, k, 4, small_lattice, prof) == 0.0
    expect = TWO_PI * math.exp(-TWO_PI ** 2)
    assert form_factor(zero, k, 1, small_lattice, prof) == pytest.approx(
        expect, rel=1e-12)


def test_form_factor_pythagoras(small_lattice, rng):
    prof = make_gaussian_profile(1.0)
    x = rng.normal(size=3)
    for k in small_lattice.points[::5]:
        total = (form_factor(x, k, 1, small_lattice, prof) ** 2
                 + form_factor(x, k, 3, small_lattice, prof) ** 2)
        ref = (form_factor(np.zeros(3), k, 1, small_lattice, prof) ** 2)
        assert total == pytest.approx(ref, rel=1e-12)


def test_form_factor_rejects_bad_channel(small_lattice):
    prof = make_gaussian_profile(1.0)
    with pytest.raises(InvalidParameterError):
        form_factor(np.zeros(3), small_lattice.points[0], 5,
                    small_lattice, prof)


# ---------------------------------------------------------------------------
# parameters and constraints
# ---------------------------------------------------------------------------

def test_params_derived_quantities():
    par = ModelParams(e=0.5, nu0=2.0)
    assert par.nu ** 2 == pytest.approx(2.0 * par.nu0 ** 2, rel=1e-15)
    assert par.alpha_static * par.nu0 ** 2 == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(InvalidParameterError):
        ModelParams(e=-1.0, nu0=2.0)
    with pytest.raises(InvalidParameterError):
        ModelParams(e=0.5, nu0=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("build", [
    lambda x: ModelParams(e=x, nu0=2.0),
    lambda x: ModelParams(e=0.5, nu0=x),
    Geometry,
    make_gaussian_profile,
    lambda x: build_lattice(x, 1.0),
    lambda x: build_lattice(1.0, x),
], ids=["e", "nu0", "R", "xi", "L", "Lambda"])
def test_constructors_reject_non_finite(build, bad):
    with pytest.raises(InvalidParameterError):
        build(bad)


def test_constraint_report_worked_example(default_params, gaussian,
                                          small_lattice):
    rep = check_constraints(default_params, gaussian, small_lattice)
    assert rep.c_inf == pytest.approx(0.12599, rel=1e-4)
    assert rep.c_inf == pytest.approx(
        max(0.12599, 0.02728, 0.04454), rel=1e-3)
    assert rep.c_inf_lt_half and rep.sqrt2_e_nu0_ge_1
    assert rep.sqrt2_e_norm_lt_1 and rep.a_lt_quarter
    assert math.sqrt(2) * 0.5 * 2.0 == pytest.approx(1.41421, rel=1e-5)
    assert rep.all_satisfied


def test_constraint_small_charge_fails_flag(gaussian, small_lattice):
    rep = check_constraints(ModelParams(e=1e-3, nu0=2.0), gaussian,
                            small_lattice)
    assert not rep.sqrt2_e_nu0_ge_1


def test_constraint_a_definitional_identity(default_params, gaussian,
                                            medium_lattice):
    rep = check_constraints(default_params, gaussian, medium_lattice)
    expect = (math.sqrt(2) * lattice_norm(gaussian, medium_lattice, 0)
              / default_params.nu) ** 2
    assert rep.a == pytest.approx(expect, rel=1e-15)
    assert rep.c_L >= rep.D_rho
    assert rep.a >= 0.0
