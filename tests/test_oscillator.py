import ast
import dataclasses
import functools
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import cplab
from cplab import model, oscillator
from cplab import (AccuracyError, Geometry, InvalidParameterError,
                   LatticePeriodicityWarning, ModelParams,
                   NotPositiveSemidefiniteError, TraceSystem,
                   assemble_one_electron, assemble_two_electron,
                   binding_energy_exact, build_coupling, build_lattice,
                   direct_coupling, ground_energy, lattice_norm,
                   make_custom_profile, make_gaussian_profile,
                   series_binding, series_one_electron)
from cplab.model import SYMMETRY_REL
from cplab.oscillator import _Kernel
from cplab.quadrature import integrate_half_line

from conftest import (PARAM_SETS, dense_ground_energy, per_mode_lattice,
                      rebordered, reduce_over_orbits)


def zero_profile():
    return make_custom_profile(
        lambda r: np.zeros_like(np.asarray(r, dtype=float)))


# ---------------------------------------------------------------------------
# coupling block
# ---------------------------------------------------------------------------

def test_sine_channels_vanish_at_origin(small_lattice, gaussian):
    block = build_coupling(np.zeros(3), small_lattice, gaussian)
    assert np.all(block[:, 2::4] == 0.0)
    assert np.all(block[:, 3::4] == 0.0)


def test_coupling_gram_positive_semidefinite(small_lattice, gaussian, rng):
    x = rng.normal(size=3)
    block = build_coupling(x, small_lattice, gaussian)
    gram = block @ block.T
    np.testing.assert_allclose(gram, gram.T, atol=1e-15)
    assert np.min(np.linalg.eigvalsh(gram)) >= -1e-15


def test_weighted_coupling_norm_bound(strong_setup):
    # operator norm of T (s^2 + photon diag)^(-1/2) stays below
    # sqrt(2) * lattice norm of the profile, uniformly in s
    params, prof, lat = strong_setup
    bound = math.sqrt(2.0) * lattice_norm(prof, lat, 0)
    block = build_coupling(np.array([0.3, -1.0, 2.0]), lat, prof)
    diag = np.repeat(lat.norms ** 2, 4)
    for s in (0.0, 1.0, 10.0):
        weighted = block / np.sqrt(s * s + diag)[None, :]
        norm = np.linalg.norm(weighted, 2)
        assert norm <= bound * (1 + 1e-12)


def test_weighted_gram_trace_position_independent(small_lattice, gaussian):
    diag = np.repeat(small_lattice.norms ** 2, 4)
    refs = []
    for x in (np.zeros(3), np.array([0.0, 0.0, 0.4]),
              np.array([0.2, -0.7, 1.1])):
        block = build_coupling(x, small_lattice, gaussian)
        weighted = block / np.sqrt(1.0 + diag)[None, :]
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
    # an uncharged oscillator decouples: the energies are exactly the
    # shift and the correction and binding exactly zero
    assert one.energy == shift
    assert one.trace_difference == 0.0
    two = ground_energy(assemble_two_electron(
        default_params, small_lattice, zp, Geometry(0.3)))
    assert two.energy == 2 * shift
    assert binding_energy_exact(default_params, small_lattice, zp, 0.3) \
        == 0.0


def test_positivity_under_hypotheses(strong_setup):
    params, prof, lat = strong_setup
    one = ground_energy(assemble_one_electron(params, lat, prof))
    two = ground_energy(assemble_two_electron(params, lat, prof,
                                              Geometry(0.4)))
    norm1 = max(abs(one.min_eigenvalue), 1.0)
    assert one.min_eigenvalue >= -1e-10 * norm1
    assert two.min_eigenvalue >= -1e-10 * norm1


def test_energy_shift_invariance(strong_setup):
    # the production energy against the dense spectrum of a border built
    # with the dipole away from the origin
    params, prof, lat = strong_setup
    form = assemble_one_electron(params, lat, prof)
    shifted = rebordered(form, params, prof, [np.array([0.3, -1.0, 2.0])])
    assert dense_ground_energy(shifted).energy == pytest.approx(
        ground_energy(form).energy, rel=1e-10)


def test_energy_polarization_rotation_invariance(strong_setup, rng):
    # the production energies against the dense spectra of borders built
    # with every mode's polarization pair rotated in its transverse plane
    params, prof, lat = strong_setup
    angles = rng.uniform(0.0, 2 * math.pi, size=lat.count)
    g = Geometry(0.4)
    for form, positions in (
            (assemble_one_electron(params, lat, prof), [np.zeros(3)]),
            (assemble_two_electron(params, lat, prof, g),
             [np.zeros(3), g.r])):
        rotated = rebordered(form, params, prof, positions, angles)
        assert dense_ground_energy(rotated).energy == pytest.approx(
            ground_energy(form).energy, rel=1e-10)


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


def border_variants(params, lat, prof, dipoles, angles):
    """Forms of one or two dipoles, each with the border ``build_coupling``
    gives it: canonical, with the contact term (two), and the canonical
    form re-bordered with its dipole shifted (one) or its polarizations
    rotated."""
    def border(positions, rotation=None):
        return params.e * np.vstack([build_coupling(x, lat, prof, rotation)
                                     for x in positions])

    if dipoles == 1:
        form = assemble_one_electron(params, lat, prof)
        at, moved = [np.zeros(3)], [np.array([0.3, -1.0, 2.0])]
        out = [(form, border(at))]
        variants = [(moved, None), (at, angles), (moved, angles)]
    else:
        g = Geometry(0.4)
        form = assemble_two_electron(params, lat, prof, g)
        at = [np.zeros(3), g.r]
        out = [(form, border(at)),
               (assemble_two_electron(params, lat, prof, g,
                                      include_direct_term=True), border(at))]
        variants = [(at, angles)]
    return out + [(rebordered(form, params, prof, x, rotation),
                   border(x, rotation)) for x, rotation in variants]


@pytest.mark.parametrize("factor", [5.0, 2.0])
@pytest.mark.parametrize("dipoles", [1, 2])
def test_border_breaking_box_symmetry_rejected(strong_setup, factor,
                                               dipoles):
    # scaling one mode's wavevector in a per-mode table changes only that
    # mode's row and makes sum_n M_n / k_n^2 non-diagonal: assembly refuses
    # the table
    params, prof, lat = strong_setup
    points = lat.points.copy()
    points[3] *= factor
    broken = per_mode_lattice(lat, points)
    with pytest.raises(InvalidParameterError, match="box symmetry"):
        if dipoles == 1:
            assemble_one_electron(params, broken, prof)
        else:
            assemble_two_electron(params, broken, prof, Geometry(0.4))


def test_kernel_columns_match_trace_system(strong_setup):
    # the kernel's channel columns are e^2 times TraceSystem's, orbit by
    # orbit, stacked with the same columns over k_n^2: the per-mode
    # columns, built from the points, summed over each orbit
    params, prof, lat = strong_setup
    wk = lat.cell_weight * lat.norms ** 2 * prof.radial(lat.norms) ** 2
    uz2 = lat.units[:, 2] ** 2
    within = np.stack([0.5 * wk * (1.0 + uz2), wk * (1.0 - uz2)], axis=1)
    g = Geometry(0.4)
    cases = [
        (assemble_one_electron(params, lat, prof),
         TraceSystem(params, lat, prof)),
        (assemble_two_electron(params, lat, prof, g),
         TraceSystem(params, lat, prof, g)),
    ]
    for form, system in cases:
        kernel = _Kernel(form)
        modes = within
        if system.geometry is not None:
            cosr = np.cos(lat.points @ system.geometry.r)
            modes = np.hstack([within, within * cosr[:, None]])
        modes = params.e ** 2 * modes
        q = modes.shape[1]
        stacked = kernel.stacked.columns
        assert stacked.shape == (len(lat.orbits.count), 2 * q)
        for half, r in (
                (stacked[:, :q], params.e ** 2 * system.table.columns),
                (stacked[:, :q], reduce_over_orbits(lat, modes)),
                (stacked[:, q:],
                 reduce_over_orbits(lat, modes / lat.norms[:, None] ** 2))):
            dev = np.abs(half - r)
            assert np.all(dev <= 1e-14 * np.max(np.abs(r), axis=0))


@pytest.mark.parametrize("dipoles", [1, 2])
def test_border_is_read_only_coupling_view(strong_setup, rng, dipoles):
    # the form stores no border: each access rebuilds it, read-only, from
    # build_coupling at the form's dipoles and polarizations
    params, prof, lat = strong_setup
    angles = rng.uniform(0.0, 2 * math.pi, size=lat.count)
    for form, ref in border_variants(params, lat, prof, dipoles, angles):
        border = form.border
        np.testing.assert_array_equal(border, ref)
        with pytest.raises(ValueError):
            border[:, 12:16] *= 2.0
        np.testing.assert_array_equal(form.border, ref)


@pytest.mark.parametrize("dipoles", [1, 2])
def test_border_gram_matches_channel_columns(strong_setup, rng, dipoles):
    # B K^-1 B^T = sum_n M_n / k_n^2 is the channel matrix of the stored
    # columns: every 3 x 3 block diag(T, T, L) within each dipole and
    # across, to SYMMETRY_REL of the largest within-dipole entry
    params, prof, lat = strong_setup
    angles = rng.uniform(0.0, 2 * math.pi, size=lat.count)
    for form, _ in border_variants(params, lat, prof, dipoles, angles):
        p = len(form.particle)
        border = form.border
        gram = (border / form.omega0_diag[p:]) @ border.T
        t, l, *across = np.sum(
            form.table.columns / lat.orbits.norms[:, None] ** 2, axis=0)
        ref = np.kron(np.eye(p // 3), np.diag([t, t, l]))
        if across:
            ref += np.kron([[0, 1], [1, 0]], np.diag(across[:1] + across))
        dev = np.max(np.abs(gram - ref))
        assert dev <= SYMMETRY_REL * max(t, l)


def asymmetric_lattice():
    """The L = 2 box's per-mode table less the mode pi (1, 1, 0): no longer
    symmetric."""
    lat = build_lattice(2.0, 1.0)
    keep = np.any(lat.points != math.pi * np.array([1.0, 1.0, 0.0]), axis=1)
    assert np.sum(~keep) == 1
    return per_mode_lattice(lat, lat.points[keep])


@pytest.mark.parametrize("route", ["energy", "binding", "series_energy",
                                   "series_binding"])
def test_lattice_breaking_box_symmetry_rejected(route):
    # every exact energy and both series reduce the mode sums to channels,
    # so each must refuse a box whose sums are not diag(T, T, L) rather
    # than return a silently wrong value
    params, prof = ModelParams(0.5, 3.0), make_gaussian_profile(0.25)
    lat = asymmetric_lattice()
    run = {
        "energy": lambda: ground_energy(assemble_two_electron(
            params, lat, prof, Geometry(0.7))),
        "binding": lambda: binding_energy_exact(params, lat, prof, 0.7),
        "series_energy": lambda: series_one_electron(params, lat, prof, 6),
        "series_binding": lambda: series_binding(params, lat, prof, 0.7, 6),
    }[route]
    with pytest.raises(InvalidParameterError, match="box symmetry"):
        run()


# ---------------------------------------------------------------------------
# the orbit fold against per-mode sums
# ---------------------------------------------------------------------------

def relative_gap(value, ref, scale=None):
    """``max |value - ref|`` over ``max |ref|``, or over ``scale``."""
    value, ref = np.asarray(value, dtype=float), np.asarray(ref, dtype=float)
    return np.max(np.abs(value - ref)) / (
        np.max(np.abs(ref)) if scale is None else scale)


@pytest.mark.parametrize("box", [2.0, 3.0, 8.0])
@pytest.mark.parametrize("e,nu0,xi", PARAM_SETS)
def test_orbit_fold_matches_per_mode_sums(e, nu0, xi, box):
    # the same points with one orbit per mode run every mode sum over all N
    # modes; folding onto (|k|, |k_z|) orbits changes only the summation
    # order.  Across sums and the contact term cancel, so they are measured
    # against the sums of their magnitudes.
    params, prof = ModelParams(e, nu0), make_gaussian_profile(xi)
    folded = build_lattice(box, 1.0)
    modes = per_mode_lattice(folded)
    R = 0.3 * box
    g = Geometry(R)
    s = np.geomspace(1e-2, 1e2, 9)
    gaps = []
    one, ref = (TraceSystem(params, lat, prof, g) for lat in (folded, modes))
    sums, ref_sums = one.channel_sums(s), ref.channel_sums(s)
    for m in (1, 2):
        scale = np.max(np.abs(ref_sums[m][0]))
        gaps += [relative_gap(sums[m][0], ref_sums[m][0]),
                 relative_gap(sums[m][1], ref_sums[m][1], scale)]
    gaps.append(relative_gap(one.d_integral(), ref.d_integral()))
    gaps += [relative_gap(lattice_norm(prof, folded, p),
                          lattice_norm(prof, modes, p)) for p in (-1, 0, 1)]
    magnitude = params.e ** 2 * folded.cell_weight * (
        float(prof.radial(0.0)) ** 2
        + np.sum(prof.radial(folded.norms) ** 2))
    gaps.append(relative_gap(direct_coupling(params, folded, prof, g),
                             direct_coupling(params, modes, prof, g),
                             magnitude))
    for assemble in (
            lambda lat: assemble_one_electron(params, lat, prof),
            lambda lat: assemble_two_electron(params, lat, prof, g,
                                              include_direct_term=True)):
        kernel, ref_kernel = (_Kernel(assemble(lat))
                              for lat in (folded, modes))
        gaps.append(relative_gap(kernel.stacked.sums(s * s),
                                 ref_kernel.stacked.sums(s * s)))
        for lam in (0.0, 0.5 * float(np.min(ref_kernel.freq2))):
            gaps.append(relative_gap(kernel.schur(lam),
                                     ref_kernel.schur(lam)))
        res, ref_res = (ground_energy(assemble(lat))
                        for lat in (folded, modes))
        gaps += [relative_gap(res.energy, ref_res.energy),
                 relative_gap(res.trace_difference, ref_res.trace_difference)]
    gaps.append(relative_gap(binding_energy_exact(params, folded, prof, R),
                             binding_energy_exact(params, modes, prof, R)))
    for series in (lambda lat: series_one_electron(params, lat, prof, 6),
                   lambda lat: series_binding(params, lat, prof, R, 6)):
        terms, ref_terms = (series(lat).contributions
                            for lat in (folded, modes))
        # order 2 of the binding has no words: zero on both sides
        gaps += [relative_gap(a, b) if b else abs(a)
                 for a, b in zip(terms, ref_terms)]
    assert max(gaps) <= 1e-13


def test_mode_sums_are_orbit_wide(monkeypatch):
    # every resolvent table of the series, the binding and the energy spans
    # the 39 orbits of the L = 3 box, not its 342 modes; all of them come
    # from the one reducer in model.py
    widths, reduce = [], model._resolvent_sums

    def recorder(z, ksq, *args):
        widths.append(len(ksq))
        return reduce(z, ksq, *args)

    monkeypatch.setattr(model, "_resolvent_sums", recorder)
    params, prof = ModelParams(0.5, 3.0), make_gaussian_profile(0.25)
    lat = build_lattice(3.0, 1.0)
    assert (len(lat.orbits.count), lat.count) == (39, 342)
    runs = [
        lambda: series_one_electron(params, lat, prof, 6),
        lambda: series_binding(params, lat, prof, 0.9, 6),
        lambda: binding_energy_exact(params, lat, prof, 0.9),
        lambda: ground_energy(assemble_one_electron(params, lat, prof)),
        lambda: ground_energy(assemble_two_electron(params, lat, prof,
                                                    Geometry(0.9))),
    ]
    for run in runs:
        widths.clear()
        run()
        assert widths and set(widths) == {39}


def test_forms_hold_orbit_data_only():
    # an assembled form stores nothing per mode: at L = 3 its only arrays
    # are the mode table's two, one row per orbit of 39, and its particle
    # block is the scalars d and g, while the per-mode views keep 3 or
    # 6 + 4N
    params, prof = ModelParams(0.5, 3.0), make_gaussian_profile(0.25)
    lat = build_lattice(3.0, 1.0)
    for form in (assemble_one_electron(params, lat, prof),
                 assemble_two_electron(params, lat, prof, Geometry(0.9))):
        table = [form.table.ksq, form.table.columns]
        assert [len(a) for a in table] == [39, 39]
        arrays = [getattr(form, f.name) for f in dataclasses.fields(form)]
        arrays = [a for a in arrays + table if isinstance(a, np.ndarray)]
        assert len(arrays) == 2 and max(len(a) for a in arrays) <= 39
        assert all(type(getattr(form, name)) is float
                   for name in ("d", "g", "enu2"))
        assert form.dim == len(form.omega0_diag) == 4 * 342 + len(
            form.particle)


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
        # the Weyl bracket of the bisection holds both dense extremes
        lo, hi = _Kernel(form).bracket()
        eigs = np.linalg.eigvalsh(form.omega)
        pad = 8.0 * np.finfo(float).eps * norm
        assert lo - pad <= eigs[0] and eigs[-1] <= hi + pad


def test_dense_routes_stay_oracles():
    # the package calls no eigensolver, and only QuadraticForm's own
    # properties read the per-mode free diagonal, the dense border and
    # matrix; tests and the oracles in conftest.py are the only other
    # readers.  Resolvent tables are built in model.py alone, by the one
    # chunked reducer that ModeTable.sums calls, and neither the forms nor
    # the continuum reach the mode table through traces.py.  No ufunc builds
    # an outer (pair) table, and the closed triple-resolvent forms serve the
    # CLI's self-test only.  In oscillator.py only the assemble_* functions
    # build a table or the contact term: the energy and the binding read
    # the assembled form's.
    for path in sorted(Path(cplab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        form_class = {id(node) for top in tree.body
                      if isinstance(top, ast.ClassDef)
                      and top.name == "QuadraticForm"
                      for node in ast.walk(top)}
        assemblers = {id(node) for top in tree.body
                      if isinstance(top, ast.FunctionDef)
                      and top.name.startswith("assemble_")
                      for node in ast.walk(top)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr",
                               getattr(node.func, "id", None))
                assert name not in ("eig", "eigh", "eigvals", "eigvalsh"), (
                    f"{path.name}:{node.lineno} calls {name}")
                assert name != "closed_integral" or path.name == "cli.py", (
                    f"{path.name}:{node.lineno} calls {name}")
                assert path.name != "oscillator.py" or name not in (
                    "lattice_table", "direct_coupling") or (
                        id(node) in assemblers), (
                    f"{path.name}:{node.lineno} calls {name}")
            elif (isinstance(node, ast.Attribute)
                    and node.attr in ("border", "omega", "omega0_diag")):
                assert id(node) in form_class, (
                    f"{path.name}:{node.lineno} reads .{node.attr}")
            elif isinstance(node, ast.Attribute) and node.attr == "outer":
                assert not isinstance(node.value, ast.Attribute), (
                    f"{path.name}:{node.lineno} builds a ufunc outer table")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""] + [
                    alias.name for alias in node.names]
                assert path.name not in ("oscillator.py", "continuum.py") or (
                    "traces" not in names), (
                    f"{path.name}:{node.lineno} imports from traces.py")
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias)):
                name = getattr(node, "id", getattr(node, "attr",
                                                   getattr(node, "name", "")))
                assert path.name == "model.py" or name not in (
                    "_CHUNK_ELEMS", "reciprocal", "_resolvent_sums"), (
                    f"{path.name}:{node.lineno} names {name}")


@pytest.mark.parametrize("delta", [1e-9, 1e-11, 1e-13])
def test_in_window_eigenvalues_clamped_like_dense(default_params,
                                                  small_lattice, gaussian,
                                                  delta):
    # lower the particle block until the Schur complement S(0) has a
    # triple eigenvalue -delta: three form eigenvalues near -delta, inside
    # the roundoff window; at 1e-13 the energy needs the integrand's S(0)
    # branch, log|1 - mu| alone is off by 2e-7
    form = assemble_one_electron(default_params, small_lattice, gaussian)
    photon = form.omega0_diag[3:]
    schur0 = form.particle - (form.border / photon) @ form.border.T
    form.d -= np.linalg.eigvalsh(schur0)[0] + delta
    res = ground_energy(form)
    ref = dense_ground_energy(form)
    assert res.n_clamped == ref.n_clamped == 3
    assert res.min_eigenvalue == pytest.approx(ref.min_eigenvalue, rel=1e-2)
    # the integrand's log|.| gives a clamped eigenvalue zero weight; the
    # quadrature meets 1e-10 of the 2 pi * 2.12 integral
    assert math.isfinite(res.energy)
    assert abs(res.energy - ref.energy) <= 1e-9


# ---------------------------------------------------------------------------
# bottom eigenvalue: secular Newton against a bisection oracle
# ---------------------------------------------------------------------------

#: boxes of the bottom-eigenvalue grid; with PARAM_SETS and the three forms
#: of ``oracle_forms`` it holds 90 kernels
BOTTOM_BOXES = [1, 2, 3, 4, 8, 16]


@functools.lru_cache(maxsize=None)
def grid_forms(e, nu0, xi, box):
    return tuple(oracle_forms(ModelParams(e, nu0), build_lattice(box, 1.0),
                              make_gaussian_profile(xi)))


def bisection_bottom(kernel):
    """Test oracle: the bottom eigenvalue by bisection on the Haynsworth
    count (photons below ``lam`` plus the negative channels of ``S(lam)``),
    inside the Weyl bracket and below every diagonal entry, to ``tol``."""
    photon = np.repeat(kernel.freq2, 4)

    def count_below(lam):
        return (np.count_nonzero(photon < lam)
                + kernel.multiplicity @ (kernel.schur(lam)[0] < 0.0))

    lo, hi = kernel.bracket()
    tol = 4.0 * np.finfo(float).eps * max(abs(lo), abs(hi))
    a, b = lo, min(kernel.d, float(np.min(kernel.freq2)))
    while b - a > tol:
        mid = 0.5 * (a + b)
        if not a < mid < b:
            break
        if count_below(mid) >= 1:
            b = mid
        else:
            a = mid
    return 0.5 * (a + b), tol, count_below(0.0)


@pytest.mark.parametrize("box", BOTTOM_BOXES)
@pytest.mark.parametrize("e,nu0,xi", PARAM_SETS)
def test_newton_bottom_matches_bisection_oracle(e, nu0, xi, box):
    for form in grid_forms(e, nu0, xi, box):
        kernel = _Kernel(form)
        bottom, n_neg = kernel.check_positivity()
        ref, tol, count = bisection_bottom(kernel)
        assert abs(bottom - ref) <= tol
        assert n_neg == count == 0
        if (e, nu0, xi, box) == (1.2, 1.5, 1.5, 3):
            # near the pole: the bottom is 1.2e-9 below k_min^2
            assert 0.0 < np.min(kernel.freq2) - bottom < 1e-8
        if box == 1 and (e, nu0, xi) in ((0.5, 2.0, 1.0), (1.2, 1.5, 1.5)):
            # the bottom sits on the Weyl bracket's lower end
            assert bottom - kernel.bracket()[0] <= tol


@pytest.mark.parametrize("box", BOTTOM_BOXES)
@pytest.mark.parametrize("e,nu0,xi", PARAM_SETS)
def test_bottom_eigenvalue_takes_few_schur_passes(e, nu0, xi, box,
                                                  monkeypatch):
    # each S(lam) evaluation is a full pass over the modes; an inertia
    # bisection to the same tolerance takes 31-45 of them per form.  From
    # the third pass on, the step ratio predicts the roundoff step, so no
    # pass ends with a step below roundoff only to confirm convergence
    calls, schur = [], _Kernel.schur

    def counted(self, lam):
        calls.append(lam)
        return schur(self, lam)

    monkeypatch.setattr(_Kernel, "schur", counted)
    for form in grid_forms(e, nu0, xi, box):
        kernel = _Kernel(form)
        calls.clear()
        bottom, _ = kernel.check_positivity()
        assert 1 <= len(calls) <= 8
        ulp = np.finfo(float).eps * max(map(abs, kernel.bracket()))
        assert len(calls) <= 2 or bottom - calls[-1] > ulp


def test_newton_step_cap_raises(strong_setup, monkeypatch):
    # the cap is a constant; a form that needs more steps than it allows
    # raises a typed error instead of returning an unconverged bottom
    params, prof, lat = strong_setup
    kernel = _Kernel(assemble_one_electron(params, lat, prof))
    monkeypatch.setattr(cplab.oscillator, "NEWTON_STEPS", 1)
    with pytest.raises(AccuracyError, match="Newton steps"):
        kernel.check_positivity()


@pytest.mark.parametrize("xi", [1.5, 3.0])
def test_bottom_pinned_at_lowest_photon(xi):
    # d = 50 lies above k_min^2 = 39.48 and the lowest modes couple at
    # about 1e-77, so the bottom is k_min^2 to roundoff: the Newton must
    # stop there without evaluating S at the pole
    form = assemble_one_electron(ModelParams(1.0, 5.0), build_lattice(1, 1),
                                 make_gaussian_profile(xi))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = ground_energy(form)
    ref = np.linalg.eigvalsh(form.omega)[0]
    assert abs(res.min_eigenvalue - ref) <= 1e-13 * np.max(form.omega0_diag)


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
    # oracle's own refined noise and are not compared.  Each form's energy
    # correction is compared at its own magnitude under the same floor.
    params, prof = ModelParams(e, nu0), make_gaussian_profile(xi)
    lat = build_lattice(box, 1.0)

    def oracle(form):
        ref = dense_ground_energy(form, refine=True).trace_difference
        if abs(ref) >= 1e-7:
            assert ground_energy(form).trace_difference == pytest.approx(
                ref, rel=1e-9)
        return ref

    one = oracle(assemble_one_electron(params, lat, prof))
    for direct in (False, True):
        for r in (0.2 * box, 0.45 * box):
            ref = 2.0 * one - oracle(assemble_two_electron(
                params, lat, prof, Geometry(r), include_direct_term=direct))
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
def test_binding_rejects_indefinite_form(e, nu0, xi, direct, small_lattice,
                                         monkeypatch):
    params, prof = ModelParams(e, nu0), make_gaussian_profile(xi)
    form = assemble_two_electron(params, small_lattice, prof, Geometry(0.3),
                                 include_direct_term=direct)
    assert dense_ground_energy(form).min_eigenvalue < -1e-3
    # the message carries the bottom eigenvalue to its 7 printed digits
    ref = f"{np.linalg.eigvalsh(form.omega)[0]:.6e}"
    # the positivity rule reads the one table the binding assembles
    calls, table = [], oscillator.lattice_table
    monkeypatch.setattr(oscillator, "lattice_table",
                        lambda *args: calls.append(args) or table(*args))
    with pytest.raises(NotPositiveSemidefiniteError,
                       match=f"^eigenvalue {re.escape(ref)} below"):
        binding_energy_exact(params, small_lattice, prof, 0.3,
                             include_direct_term=direct)
    assert len(calls) == 1


def test_binding_never_builds_the_stacked_table(default_params,
                                                small_lattice, gaussian):
    # only log_det reads the columns over k_n^2; the binding path would
    # hold them for nothing, N x 8 floats
    kernel = _Kernel(assemble_two_electron(default_params, small_lattice,
                                           gaussian, Geometry(0.3)))
    value = integrate_half_line(kernel.binding)
    assert "stacked" not in vars(kernel)
    assert value / (2.0 * math.pi) == binding_energy_exact(
        default_params, small_lattice, gaussian, 0.3)
    kernel.log_det(np.ones(1))
    assert "stacked" in vars(kernel)


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
