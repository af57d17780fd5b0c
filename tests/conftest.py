import math

import numpy as np
import pytest

from cplab import (EnergyResult, Lattice, ModelParams, OrbitTable,
                   build_lattice, make_gaussian_profile)
from oracles import box_modes, dipoles, free_diagonal, omega

# constraint-passing sets (e, nu0, xi) spanning the admissible region;
# the first is the documented default
PARAM_SETS = [
    (0.5, 2.0, 1.0),
    (0.5, 3.0, 0.25),
    (0.8, 2.5, 0.5),
    (1.2, 1.5, 1.5),
    (0.3, 4.0, 0.35),
]


@pytest.fixture(scope="session")
def default_params():
    return ModelParams(e=0.5, nu0=2.0)


@pytest.fixture(scope="session")
def gaussian():
    return make_gaussian_profile(1.0)


@pytest.fixture(scope="session")
def small_lattice():
    return build_lattice(1.0, 1.0)


@pytest.fixture(scope="session")
def medium_lattice():
    return build_lattice(2.0, 1.0)


@pytest.fixture(scope="session")
def strong_setup():
    """Parameters with a visible coupling on the unit lattice."""
    return (ModelParams(e=0.5, nu0=3.0), make_gaussian_profile(0.25),
            build_lattice(1.0, 1.0))


@pytest.fixture
def rng():
    return np.random.default_rng(20200426)


def orbit_index(lattice):
    """The orbit row of each mode, found by its bit-equal ``(|k|, |k_z|)``
    in a dictionary of the orbit table's representatives."""
    orbits = lattice.orbits
    rows = {key: i for i, key in enumerate(zip(orbits.norms, orbits.kz))}
    assert len(rows) == len(orbits.count), "two orbits share a key"
    points, norms = box_modes(lattice)
    return np.array([rows[k, abs(z)] for k, z in zip(norms, points[:, 2])])


def reduce_over_orbits(lattice, per_mode):
    """Sum a per-mode array (modes along axis 0) over each orbit."""
    idx = orbit_index(lattice)
    out = np.zeros((len(lattice.orbits.count),) + per_mode.shape[1:])
    np.add.at(out, idx, per_mode)
    return out


def unit_monomials(units):
    """``u_x u_y``, ``u_x u_z``, ``u_y u_z`` and ``u_x^2 - u_y^2`` per mode."""
    ux, uy, uz = units.T
    return np.stack([ux * uy, ux * uz, uy * uz, ux * ux - uy * uy], axis=1)


def per_mode_lattice(lattice, points=None):
    """Test oracle: the box with a hand-built table of one orbit per mode of
    ``points``, in their order, so every folded mode sum of the package runs
    over all of them.  By default the points are the box's own modes;
    other points (a box with a mode removed, say) give a table that breaks
    the box symmetry.  Only ``orbits`` is replaced: the oracles' modes stay
    the box's."""
    twin = Lattice(lattice.box_period, lattice.uv_cutoff)
    if points is None:
        points, norms = box_modes(lattice)
    else:
        norms = np.linalg.norm(points, axis=1)
    twin.orbits = OrbitTable(
        norms=norms, kz=np.abs(points[:, 2]),
        count=np.ones(len(points), dtype=int),
        moments=unit_monomials(points / norms[:, None]))
    return twin


#: largest form the dense oracle accepts
DENSE_ORACLE_MAX_DIM = 3000


def dense_ground_energy(form, params, lattice, profile, positions,
                        rotation_angles=None, refine=False):
    """Test oracle: the zero-point trace formula by dense ``eigvalsh`` of
    ``oracles.omega`` with the dipoles at ``positions``.

    Eigenvalues below zero are clamped as in the package, without the
    raise rule.  ``refine`` re-evaluates every eigenvalue as the Rayleigh
    quotient of its eigenvector in extended precision, which removes the
    ``eps * norm`` noise that a difference of energies (the binding) would
    otherwise carry.
    """
    assert form.dim <= DENSE_ORACLE_MAX_DIM, "dense oracle is O(dim^3)"
    dense = omega(form, params, lattice, profile, positions, rotation_angles)
    free = free_diagonal(form, lattice)
    if refine:
        _, vecs = np.linalg.eigh(dense)
        vecs = vecs.astype(np.longdouble)
        wide = dense.astype(np.longdouble)
        # omega is the free diagonal plus p dense rows and columns, so
        # omega @ vecs costs O(p dim^2) instead of O(dim^3)
        p = 3 * len(positions)
        prod = free.astype(np.longdouble)[:, None] * vecs
        prod[:p] = wide[:p] @ vecs
        prod[p:] += wide[p:, :p] @ vecs[:p]
        eigs = (np.sum(vecs * prod, axis=0)
                / np.sum(vecs * vecs, axis=0))
    else:
        eigs = np.linalg.eigvalsh(dense).astype(np.longdouble)
    free = np.sort(free).astype(np.longdouble)
    roots = np.sqrt(np.sort(np.clip(eigs, 0.0, None)))
    trace_difference = float(0.5 * np.sum(roots - np.sqrt(free)))
    return EnergyResult(
        energy=trace_difference + form.zero_point_shift,
        min_eigenvalue=float(np.min(eigs)),
        trace_difference=trace_difference,
        zero_point_shift=form.zero_point_shift, n_eigenvalues=form.dim,
        n_clamped=int(np.sum(eigs < 0.0)))


def dense_trace_blocks(system):
    """Test oracle: the dense trace blocks of a ``TraceSystem``.

    ``{0: free diagonal, 1: coupling of the first dipole, 2: coupling of
    the second}`` (no ``2`` without geometry), each coupling a symmetric
    ``dim x dim`` matrix cut from ``oracles.omega`` of the system's form.
    """
    positions = dipoles(system.geometry)
    dense = omega(system.form, system.params, system.lattice, system.profile,
                  positions)
    p = 3 * len(positions)
    blocks = {0: free_diagonal(system.form, system.lattice)}
    for j in range(1, p // 3 + 1):
        rows = slice(3 * (j - 1), 3 * j)
        q = np.zeros_like(dense)
        q[rows, p:] = dense[rows, p:]
        q[p:, rows] = dense[p:, rows]
        blocks[j] = q
    return blocks


def envelope_oracle(s, params, profile, lattice):
    """Test oracle: the envelope ``D(s)`` as a direct mode sum without the
    projector (``tr P_k = 2``), ``2 e^2 s^2 (s^2+e^2 nu^2)^-1
    [(s^2+e^2 nu^2)^-1 n1 + n2]`` with ``n_m = sum_k w_k (s^2+|k|^2)^-m``
    and ``w_k = cell_weight |k|^2 f(|k|)^2``."""
    norms = box_modes(lattice)[1]
    ksq = norms ** 2
    wk = lattice.cell_weight * ksq * profile.radial(norms) ** 2
    s2 = np.atleast_1d(np.asarray(s, dtype=float)) ** 2
    n1 = np.sum(wk[None, :] / (s2[:, None] + ksq[None, :]), axis=1)
    n2 = np.sum(wk[None, :] / (s2[:, None] + ksq[None, :]) ** 2, axis=1)
    enu2 = (params.e * params.nu) ** 2
    return 2.0 * params.e ** 2 * s2 / (s2 + enu2) * (n1 / (s2 + enu2) + n2)


def contact_term_oracle(params, lattice, profile, R):
    """Test oracle: the contact term's defining sum over the per-mode box
    and the origin cell, ``e^2 cell_weight (f(0)^2 + sum_k f(|k|)^2 cos(k
    . r))`` with ``r = (0, 0, R)``, by ``math.fsum``, and the same sum of
    its terms' magnitudes."""
    points, norms = box_modes(lattice)
    terms = np.append(profile.radial(norms) ** 2
                      * np.cos(points @ np.array([0.0, 0.0, R])),
                      float(profile.radial(0.0)) ** 2)
    scale = params.e ** 2 * lattice.cell_weight
    return (scale * math.fsum(terms),
            scale * math.fsum(np.abs(terms)))


def dense_word_integrand(system, word, s):
    """Test oracle: the trace integrand ``s^2 tr[(s^2+W0)^-1 Q_I(s)]`` of a
    word by dense matrix products."""
    word = tuple(word)
    blocks = dense_trace_blocks(system)
    diag = blocks[0]
    s = np.atleast_1d(np.asarray(s, dtype=float))
    out = np.empty_like(s)
    for i, sv in enumerate(s):
        g = 1.0 / (sv * sv + diag)
        gh = np.sqrt(g)
        dressed = {j: gh[:, None] * blocks[j] * gh[None, :]
                   for j in set(word)}
        prod = dressed[word[0]]
        for j in word[1:]:
            prod = prod @ dressed[j]
        out[i] = sv * sv * float(np.sum(g * np.diagonal(prod)))
    return out
