import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cplab import (EmptyLatticeError, Geometry, IntegrabilityError,
                   InvalidParameterError, ModelParams, TraceSystem,
                   binding_energy_exact, build_lattice, check_constraints,
                   form_factor, lattice_norm, make_custom_profile,
                   make_gaussian_profile, polarization, polarization_basis,
                   profile_norm, series_binding)
import cplab
from cplab import model
from cplab.cli import parse_config, run

from conftest import per_mode_lattice, unit_monomials

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


def box_keys(n_max):
    """Test oracle: the integer modes ``n`` of the box, lexicographic and
    without the origin, with their keys ``n^2`` and ``|n_z|``."""
    axis = np.arange(-n_max, n_max + 1)
    n = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)
    n = n.reshape(-1, 3)
    n = n[np.any(n != 0, axis=1)]
    return n, np.sum(n * n, axis=1), np.abs(n[:, 2])


@pytest.mark.parametrize("box,size", [(2.0, 17), (3.0, 39), (4.0, 74)])
def test_lattice_orbit_invariants(box, size):
    # orbits of the integer keys (n^2, |n_z|): distinct sorted keys, every
    # mode of the box mapped to exactly one orbit, multiplicities counting
    # the box, and |k| = (2 pi / L) sqrt(n^2) bit for bit
    lat = build_lattice(box, 1.0)
    orbits = lat.orbits
    step = TWO_PI / box
    n, n2, nz = box_keys(int(box))
    assert len(orbits.count) == size
    assert orbits.count.sum() == lat.count == len(n)
    keys = np.rint([(orbits.norms / step) ** 2, orbits.kz / step]).astype(int)
    np.testing.assert_array_equal(orbits.norms, step * np.sqrt(keys[0]))
    np.testing.assert_array_equal(orbits.kz, step * keys[1])
    rows = {key: i for i, key in enumerate(zip(*keys))}
    assert len(rows) == size and list(rows) == sorted(rows)
    idx = np.array([rows[key] for key in zip(n2, nz)])
    np.testing.assert_array_equal(np.bincount(idx, minlength=size),
                                  orbits.count)
    # the per-mode oracles are the same modes, with the orbits' norms
    np.testing.assert_array_equal(lat.points, step * n)
    np.testing.assert_array_equal(lat.norms, orbits.norms[idx])
    # the symmetric box: each orbit's moments, zero in the table, cancel
    # to roundoff over its modes
    assert not np.any(orbits.moments)
    moments = np.zeros((size, 4))
    np.add.at(moments, idx, unit_monomials(lat.units))
    assert np.all(np.abs(moments) <= 1e-15 * orbits.count[:, None])


def _orbit_probe():
    """The orbit tables of two boxes and the series and exact bindings
    they feed, as exact text."""
    out = []
    params, prof = ModelParams(0.5, 3.0), make_gaussian_profile(0.25)
    for box in (2.0, 3.0):
        lat = build_lattice(box, 1.0)
        out += [getattr(lat.orbits, name).tobytes().hex()
                for name in ("norms", "kz", "count", "moments")]
        out.append(series_binding(params, lat, prof, 0.3 * box, 6).value.hex())
        out.append(binding_energy_exact(params, lat, prof, 0.3 * box).hex())
    return "\n".join(out)


def test_box_orbits_are_shared_read_only_and_history_free():
    # equal boxes share one read-only table, bit for bit a fresh build
    first, second = build_lattice(3.0, 1.0), build_lattice(3.0, 1.0)
    assert first is not second and first.orbits is second.orbits
    fresh = model._box_orbits.__wrapped__(TWO_PI / 3.0, 3)
    for name in ("norms", "kz", "count", "moments"):
        cached, built = getattr(first.orbits, name), getattr(fresh, name)
        assert not cached.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            cached[0] = 1
        assert cached.dtype == built.dtype and cached.shape == built.shape
        assert cached.tobytes() == built.tobytes()
    # the cache holds two boxes: two others evict the first
    assert model._box_orbits.cache_info().maxsize == 2
    build_lattice(4.0, 1.0)
    build_lattice(5.0, 1.0)
    assert model._box_orbits.cache_info().currsize == 2
    assert build_lattice(3.0, 1.0).orbits is not first.orbits
    # whatever boxes passed through the cache before, tables and bindings
    # read the bits of a fresh process
    for box in (2.0, 6.0, 3.0, 2.5, 1.0):
        build_lattice(box, 1.0)
    after_others = _orbit_probe()
    paths = [os.path.dirname(os.path.dirname(model.__file__)),
             os.path.dirname(os.path.abspath(__file__))]
    fresh_run = subprocess.run(
        [sys.executable, "-c", "from test_model import _orbit_probe; "
                               "print(_orbit_probe(), end='')"],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)),
        capture_output=True, text=True, timeout=300, check=True)
    assert fresh_run.stdout == after_others


@pytest.mark.parametrize("box,cut", [
    (1.0, 1.0), (2.0, 1.0), (3.0, 1.0), (8.0, 1.0), (2.5, 1.3),
    # L Lambda just below an integer: the 1e-12 slack keeps n_max = 3, 8
    (3.0, (3.0 - 1e-13) / 3.0), (5.0, 1.6 - 1e-14),
])
def test_integer_orbits_match_float_box_fold(box, cut):
    # the integer table against the per-mode table of the box, one orbit
    # per mode: regrouped by integer key, its modes count the same
    # multiplicities, and every mode sum agrees to 1e-14 of the sum of its
    # terms' magnitudes
    lat = build_lattice(box, cut)
    n_max = math.floor(box * cut + 1e-12)
    assert n_max <= 8 and lat.count == (2 * n_max + 1) ** 3 - 1
    if box * cut < round(box * cut):
        assert math.floor(box * cut) == n_max - 1
    ref = per_mode_lattice(lat)
    assert ref.count == lat.count == len(ref.orbits.count)
    step = TWO_PI / box
    keys = (np.rint((ref.orbits.norms / step) ** 2) * (n_max + 1)
            + np.rint(ref.orbits.kz / step))
    _, inverse = np.unique(keys, return_inverse=True)
    np.testing.assert_array_equal(
        np.bincount(inverse, weights=ref.orbits.count), lat.orbits.count)
    prof = make_gaussian_profile(0.5)
    z = np.geomspace(1e-2, 1e2, 5)
    for R in (None, 0.3 * box):
        table, oracle = (model.lattice_table(x, prof, R) for x in (lat, ref))
        size = model.ModeTable(oracle.ksq, np.abs(oracle.columns))
        pairs = [(table.columns.sum(0), oracle.columns.sum(0),
                  size.columns.sum(0)),
                 (table.sums(z, (1, 2)), oracle.sums(z, (1, 2)),
                  size.sums(z, (1, 2)))]
        for value, expected, magnitude in pairs:
            assert np.all(np.abs(value - expected) <= 1e-14 * magnitude)
    for p in (-1, 0, 1):
        assert lattice_norm(prof, lat, p) == pytest.approx(
            lattice_norm(prof, ref, p), rel=1e-14, abs=0.0)


def test_production_never_builds_the_box(monkeypatch):
    # every CLI route and both exact and series bindings read the orbits
    # alone: with the per-mode box builder refusing, they still run
    def refuse(n_max):
        raise AssertionError(f"per-mode box built at n_max = {n_max}")

    monkeypatch.setattr(model, "_box_modes", refuse)
    with pytest.raises(AssertionError, match="per-mode box"):
        build_lattice(2.0, 1.0).points
    cfg = parse_config("L = 3\nxi = 0.25\nnu0 = 3\nR_grid = 0.6, 0.9\n"
                       "max_order = 6")
    for sub in ("check", "energy", "binding", "series", "convergence"):
        assert run(sub, cfg).rows
    params, prof = ModelParams(0.5, 3.0), make_gaussian_profile(0.25)
    lat = build_lattice(3.0, 1.0)
    assert series_binding(params, lat, prof, 0.9, 6).value > 0.0
    assert binding_energy_exact(params, lat, prof, 0.9) > 0.0
    # the mode count comes from the table: 111,284,640 modes at n_max = 240
    for n_max in (1, 2, 7, 64, 240):
        assert build_lattice(n_max, 1.0).count == (2 * n_max + 1) ** 3 - 1


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
    kernel = system.kernel
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


# ---------------------------------------------------------------------------
# package imports
# ---------------------------------------------------------------------------

def _imported_modules(tree):
    """``(lineno, dotted name)`` of every module an AST imports from;
    relative imports are spelled from ``cplab``, and ``from X import y``
    yields both ``X`` and ``X.y`` (``y`` may be a submodule)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = ("cplab" + ("." + node.module if node.module else "")
                    if node.level else node.module)
            yield node.lineno, base
            for alias in node.names:
                yield node.lineno, f"{base}.{alias.name}"


def _unused_imports(tree):
    """``(lineno, name)`` of each name a module-level import binds that
    the module never loads: not as a name, nor listed in ``__all__``."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__"
                for target in node.targets):
            used.update(const.value for const in ast.walk(node.value)
                        if isinstance(const, ast.Constant))
    return sorted((lineno, name) for name, lineno in bound.items()
                  if name not in used)


def test_no_module_level_import_is_unused():
    # a stand-in for a linter's unused-import rule over the package, the
    # tests and the demos; a package __init__ imports to re-export
    root = Path(__file__).parent.parent
    paths = [path for folder in (Path(cplab.__file__).parent,
                                 Path(__file__).parent, root / "demos")
             for path in sorted(folder.glob("*.py"))
             if path.name != "__init__.py"]
    assert len(paths) > 20
    unused = {path.name: names for path in paths
              if (names := _unused_imports(ast.parse(path.read_text())))}
    assert not unused, f"unused imports: {unused}"


def test_package_imports_nothing_but_numpy():
    # the package runs on the standard library and numpy alone (scipy is
    # a test dependency), and the sweep driver reaches the continuum terms
    # only through the callable its caller passes
    allowed = set(sys.stdlib_module_names) | {"numpy", "cplab"}
    for path in sorted(Path(cplab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for lineno, name in _imported_modules(tree):
            assert name.split(".")[0] in allowed, (
                f"{path.name}:{lineno} imports {name}")
            assert path.name != "asymptotics.py" or not (
                name == "cplab.continuum"
                or name.startswith("cplab.continuum.")), (
                f"{path.name}:{lineno} imports {name}")
