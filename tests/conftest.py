import numpy as np
import pytest

from cplab import (EnergyResult, ModelParams, assemble_one_electron,
                   assemble_two_electron, build_lattice,
                   make_gaussian_profile)

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


#: largest form the dense oracle accepts
DENSE_ORACLE_MAX_DIM = 3000


def dense_ground_energy(form, refine=False):
    """Test oracle: the zero-point trace formula by dense ``eigvalsh``.

    Eigenvalues below zero are clamped as in the package, without the
    raise rule.  ``refine`` re-evaluates every eigenvalue as the Rayleigh
    quotient of its eigenvector in extended precision, which removes the
    ``eps * norm`` noise that a difference of energies (the binding) would
    otherwise carry.
    """
    assert form.dim <= DENSE_ORACLE_MAX_DIM, "dense oracle is O(dim^3)"
    omega = form.omega
    if refine:
        _, vecs = np.linalg.eigh(omega)
        vecs = vecs.astype(np.longdouble)
        wide = omega.astype(np.longdouble)
        # omega is the free diagonal plus p dense rows and columns, so
        # omega @ vecs costs O(p dim^2) instead of O(dim^3)
        p = len(form.particle)
        prod = form.omega0_diag.astype(np.longdouble)[:, None] * vecs
        prod[:p] = wide[:p] @ vecs
        prod[p:] += wide[p:, :p] @ vecs[:p]
        eigs = (np.sum(vecs * prod, axis=0)
                / np.sum(vecs * vecs, axis=0))
    else:
        eigs = np.linalg.eigvalsh(omega).astype(np.longdouble)
    free = np.sort(form.omega0_diag).astype(np.longdouble)
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
    ``dim x dim`` matrix cut from the assembled form's ``omega``.
    """
    args = (system.params, system.lattice, system.profile)
    if system.geometry is None:
        form = assemble_one_electron(*args)
    else:
        form = assemble_two_electron(*args, system.geometry)
    omega = form.omega
    p = len(form.particle)
    blocks = {0: form.omega0_diag}
    for j in range(1, p // 3 + 1):
        rows = slice(3 * (j - 1), 3 * j)
        q = np.zeros_like(omega)
        q[rows, p:] = omega[rows, p:]
        q[p:, rows] = omega[p:, rows]
        blocks[j] = q
    return blocks


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
