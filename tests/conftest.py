import numpy as np
import pytest

from cplab import (EnergyResult, ModelParams, build_lattice,
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
        eigs = (np.sum(vecs * (omega.astype(np.longdouble) @ vecs), axis=0)
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
