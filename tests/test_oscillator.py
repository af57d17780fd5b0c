import math
import warnings

import numpy as np
import pytest

from cplab import (Geometry, InvalidParameterError, LatticePeriodicityWarning,
                   ModelParams, NotPositiveSemidefiniteError,
                   assemble_one_electron, assemble_two_electron,
                   binding_energy_exact, build_coupling, build_lattice,
                   direct_coupling, ground_energy, lattice_norm,
                   make_custom_profile, make_gaussian_profile,
                   series_binding, series_one_electron)

from conftest import PARAM_SETS, dense_ground_energy


def zero_profile():
    return make_custom_profile(
        lambda r: np.zeros_like(np.asarray(r, dtype=float)))


# ---------------------------------------------------------------------------
# coupling block
# ---------------------------------------------------------------------------

def test_sine_channels_vanish_at_origin(small_lattice, gaussian):
    cm = build_coupling(np.zeros(3), small_lattice, gaussian)
    assert np.all(cm.entries[:, 2::4] == 0.0)
    assert np.all(cm.entries[:, 3::4] == 0.0)


def test_coupling_gram_positive_semidefinite(small_lattice, gaussian, rng):
    x = rng.normal(size=3)
    cm = build_coupling(x, small_lattice, gaussian)
    gram = cm.entries @ cm.entries.T
    np.testing.assert_allclose(gram, gram.T, atol=1e-15)
    assert np.min(np.linalg.eigvalsh(gram)) >= -1e-15


def test_weighted_coupling_norm_bound(strong_setup):
    # operator norm of T (s^2 + photon diag)^(-1/2) stays below
    # sqrt(2) * lattice norm of the profile, uniformly in s
    params, prof, lat = strong_setup
    bound = math.sqrt(2.0) * lattice_norm(prof, lat, 0)
    cm = build_coupling(np.array([0.3, -1.0, 2.0]), lat, prof)
    diag = np.repeat(lat.norms ** 2, 4)
    for s in (0.0, 1.0, 10.0):
        weighted = cm.entries / np.sqrt(s * s + diag)[None, :]
        norm = np.linalg.norm(weighted, 2)
        assert norm <= bound * (1 + 1e-12)


def test_weighted_gram_trace_position_independent(small_lattice, gaussian):
    diag = np.repeat(small_lattice.norms ** 2, 4)
    refs = []
    for x in (np.zeros(3), np.array([0.0, 0.0, 0.4]),
              np.array([0.2, -0.7, 1.1])):
        cm = build_coupling(x, small_lattice, gaussian)
        weighted = cm.entries / np.sqrt(1.0 + diag)[None, :]
        refs.append(np.trace(weighted @ weighted.T))
    assert refs[1] == pytest.approx(refs[0], rel=1e-12)
    assert refs[2] == pytest.approx(refs[0], rel=1e-12)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def test_zero_profile_energies(default_params, small_lattice):
    zp = zero_profile()
    one = ground_energy(assemble_one_electron(default_params, small_lattice,
                                              zp))
    shift = 1.5 * default_params.e * default_params.nu
    assert one.energy == pytest.approx(shift, abs=1e-13)
    assert one.trace_difference == pytest.approx(0.0, abs=1e-13)
    two = ground_energy(assemble_two_electron(
        default_params, small_lattice, zp, Geometry(0.3)))
    assert two.energy == pytest.approx(2 * shift, abs=1e-13)
    assert binding_energy_exact(default_params, small_lattice, zp, 0.3) \
        == pytest.approx(0.0, abs=1e-13)


def test_identity_case_energy_is_shift(default_params, small_lattice,
                                       gaussian):
    form = assemble_one_electron(default_params, small_lattice, gaussian,
                                 coupling_scale=0.0)
    res = ground_energy(form)
    assert res.energy == pytest.approx(form.zero_point_shift, abs=1e-12)


def test_positivity_under_hypotheses(strong_setup):
    params, prof, lat = strong_setup
    one = ground_energy(assemble_one_electron(params, lat, prof))
    two = ground_energy(assemble_two_electron(params, lat, prof,
                                              Geometry(0.4)))
    norm1 = max(abs(one.min_eigenvalue), 1.0)
    assert one.min_eigenvalue >= -1e-10 * norm1
    assert two.min_eigenvalue >= -1e-10 * norm1


def test_energy_shift_invariance(strong_setup):
    params, prof, lat = strong_setup
    base = ground_energy(assemble_one_electron(params, lat, prof)).energy
    shifted = ground_energy(assemble_one_electron(
        params, lat, prof, shift=np.array([0.3, -1.0, 2.0]))).energy
    assert shifted == pytest.approx(base, rel=1e-10)


def test_energy_polarization_rotation_invariance(strong_setup, rng):
    params, prof, lat = strong_setup
    base = ground_energy(assemble_one_electron(params, lat, prof)).energy
    angles = rng.uniform(0.0, 2 * math.pi, size=lat.count)
    rotated = ground_energy(assemble_one_electron(
        params, lat, prof, rotation_angles=angles)).energy
    assert rotated == pytest.approx(base, rel=1e-10)
    g = Geometry(0.4)
    base2 = ground_energy(assemble_two_electron(params, lat, prof, g)).energy
    rot2 = ground_energy(assemble_two_electron(
        params, lat, prof, g, rotation_angles=angles)).energy
    assert rot2 == pytest.approx(base2, rel=1e-10)


def test_direct_term_block(default_params, small_lattice, gaussian):
    g = Geometry(0.3)
    off = assemble_two_electron(default_params, small_lattice, gaussian, g)
    assert np.all(off.omega[0:3, 3:6] == 0.0)
    on = assemble_two_electron(default_params, small_lattice, gaussian, g,
                               include_direct_term=True)
    gamma = direct_coupling(default_params, small_lattice, gaussian, g)
    np.testing.assert_allclose(on.omega[0:3, 3:6], gamma * np.eye(3),
                               atol=1e-18)


def test_direct_coupling_fast_decay():
    # effective decay exponent keeps growing with R: no power law holds
    params = ModelParams(e=0.5, nu0=2.0)
    prof = make_gaussian_profile(0.5)
    lat = build_lattice(16.0, 1.0)
    g2 = abs(direct_coupling(params, lat, prof, Geometry(2.0)))
    g4 = abs(direct_coupling(params, lat, prof, Geometry(4.0)))
    g6 = abs(direct_coupling(params, lat, prof, Geometry(6.0)))
    assert g4 < g2 * 2.0 ** -8
    assert g6 < g2 * 3.0 ** -12
    p_near = math.log(g2 / g4) / math.log(2.0)
    p_far = math.log(g4 / g6) / math.log(6.0 / 4.0)
    assert p_far > p_near


def test_asymmetric_form_rejected(default_params, small_lattice, gaussian):
    form = assemble_one_electron(default_params, small_lattice, gaussian)
    form.particle[0, 1] += 1.0
    with pytest.raises(InvalidParameterError):
        ground_energy(form)


def test_violated_positivity_raises(small_lattice):
    # huge coupling with a tiny trap drives the bottom eigenvalue negative
    params = ModelParams(e=1.0, nu0=1e-3)
    prof = make_gaussian_profile(0.2)
    form = assemble_one_electron(params, small_lattice, prof)
    with pytest.raises(NotPositiveSemidefiniteError):
        ground_energy(form)


def test_geometry_validation():
    with pytest.raises(InvalidParameterError):
        Geometry(0.0)
    with pytest.raises(InvalidParameterError):
        Geometry(-2.0)


def test_periodicity_warning(default_params, small_lattice, gaussian):
    with pytest.warns(LatticePeriodicityWarning):
        binding_energy_exact(default_params, small_lattice, gaussian, 0.6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        binding_energy_exact(default_params, small_lattice, gaussian, 0.3)


def test_binding_positive_at_strong_coupling(strong_setup):
    params, prof, lat = strong_setup
    assert binding_energy_exact(params, lat, prof, 0.4) > 0.0


# ---------------------------------------------------------------------------
# log-det kernel against the dense eigvalsh oracle
# ---------------------------------------------------------------------------

def oracle_forms(params, lattice, profile):
    """One-dipole form and two-dipole forms with and without the direct
    term, at a separation below half the box."""
    g = Geometry(0.3 * lattice.box_period)
    return [assemble_one_electron(params, lattice, profile),
            assemble_two_electron(params, lattice, profile, g),
            assemble_two_electron(params, lattice, profile, g,
                                  include_direct_term=True)]


@pytest.mark.parametrize("box", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("e,nu0,xi", PARAM_SETS[:3])
def test_log_det_matches_dense_oracle(e, nu0, xi, box):
    params, prof = ModelParams(e, nu0), make_gaussian_profile(xi)
    for form in oracle_forms(params, build_lattice(box, 1.0), prof):
        res = ground_energy(form)
        ref = dense_ground_energy(form)
        # spectrum scale: the top eigenvalue is the largest photon frequency
        norm = float(np.max(form.omega0_diag))
        assert abs(res.energy - ref.energy) <= 1e-11
        assert abs(res.min_eigenvalue - ref.min_eigenvalue) <= 1e-13 * norm
        assert res.n_clamped == ref.n_clamped == 0
        assert res.n_eigenvalues == form.dim


@pytest.mark.parametrize("delta", [1e-9, 1e-11])
def test_in_window_eigenvalues_clamped_like_dense(default_params,
                                                  small_lattice, gaussian,
                                                  delta):
    # lower the particle block until the Schur complement S(0) has a
    # triple eigenvalue -delta: three form eigenvalues near -delta, inside
    # the roundoff window
    form = assemble_one_electron(default_params, small_lattice, gaussian)
    photon = form.omega0_diag[3:]
    schur0 = form.particle - (form.border / photon) @ form.border.T
    form.particle -= (np.linalg.eigvalsh(schur0)[0] + delta) * np.eye(3)
    res = ground_energy(form)
    ref = dense_ground_energy(form)
    assert res.n_clamped == ref.n_clamped == 3
    assert res.min_eigenvalue == pytest.approx(ref.min_eigenvalue, rel=1e-2)
    # the integrand's log|.| gives a clamped eigenvalue zero weight; the
    # quadrature meets 1e-10 of the 2 pi * 2.12 integral
    assert math.isfinite(res.energy)
    assert abs(res.energy - ref.energy) <= 1e-9


def test_binding_matches_refined_dense_oracle():
    params, prof = ModelParams(0.5, 3.0), make_gaussian_profile(0.25)
    lat = build_lattice(1.0, 1.0)
    one = dense_ground_energy(assemble_one_electron(params, lat, prof),
                              refine=True)
    for r in (0.2, 0.35, 0.45):
        two = dense_ground_energy(
            assemble_two_electron(params, lat, prof, Geometry(r)),
            refine=True)
        ref = 2.0 * one.trace_difference - two.trace_difference
        assert binding_energy_exact(params, lat, prof, r) == pytest.approx(
            ref, rel=1e-9)


@pytest.mark.parametrize("box", [1.0, 2.0])
@pytest.mark.parametrize("e,nu0,xi", PARAM_SETS)
def test_binding_with_direct_term_matches_refined_dense_oracle(e, nu0, xi,
                                                                box):
    # the channel log-det against 2 E - E(R) of the dense spectra, with and
    # without the contact block; bindings below 1e-7 sit under the
    # oracle's own refined noise and are not compared
    params, prof = ModelParams(e, nu0), make_gaussian_profile(xi)
    lat = build_lattice(box, 1.0)
    one = dense_ground_energy(assemble_one_electron(params, lat, prof),
                              refine=True)
    for direct in (False, True):
        for r in (0.2 * box, 0.45 * box):
            two = dense_ground_energy(assemble_two_electron(
                params, lat, prof, Geometry(r), include_direct_term=direct),
                refine=True)
            ref = 2.0 * one.trace_difference - two.trace_difference
            value = binding_energy_exact(params, lat, prof, r,
                                         include_direct_term=direct)
            if abs(ref) >= 1e-7:
                assert value == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("e,nu0,xi,direct", [
    (1.0, 1e-3, 0.2, False),
    (0.5, 0.05, 0.2, False),
    # one-dipole blocks positive, the contact block alone makes it indefinite
    (0.5, 0.5, 0.5, True),
])
def test_binding_rejects_indefinite_form(e, nu0, xi, direct, small_lattice):
    params, prof = ModelParams(e, nu0), make_gaussian_profile(xi)
    form = assemble_two_electron(params, small_lattice, prof, Geometry(0.3),
                                 include_direct_term=direct)
    assert dense_ground_energy(form).min_eigenvalue < -1e-3
    with pytest.raises(NotPositiveSemidefiniteError):
        binding_energy_exact(params, small_lattice, prof, 0.3,
                             include_direct_term=direct)


def test_large_box_smoke():
    # N = 9260 modes, dim 37043: out of reach of the dense route
    params, prof = ModelParams(0.5, 2.0), make_gaussian_profile(1.0)
    lat = build_lattice(10.0, 1.0)
    assert lat.count == 9260
    res = ground_energy(assemble_one_electron(params, lat, prof))
    assert res.n_eigenvalues == 3 + 4 * 9260
    assert res.n_clamped == 0 and res.min_eigenvalue > 0.0
    series = series_one_electron(params, lat, prof, max_order=8)
    assert abs(res.energy - series.value) <= (series.tail_bound
                                              + 1e-10 * abs(res.energy))
    binding = binding_energy_exact(params, lat, prof, 3.0)
    bseries = series_binding(params, lat, prof, 3.0, max_order=4)
    assert binding > 0.0
    assert abs(binding - bseries.value) <= bseries.tail_bound
