"""Charge profiles, the momentum lattice, polarization conventions and the
parameter-constraint calculus.

The model couples point dipoles to a transverse field regularized by a
rotation-invariant radial form factor.  Everything downstream consumes the
value types defined here:

``ChargeProfile``
    radial form factor with cached continuum norms,
``Lattice``
    the cutoff momentum box with its quadrature weight and its
    ``OrbitTable``, the modes grouped by ``(|k|, |k_z|)``, built from
    integer keys; no per-mode array is stored,
``ModelParams`` / ``Geometry``
    couplings and the two-center geometry,
``ModeTable``
    the rows of every mode sum, from ``lattice_table`` or a radial grid,
``ConstraintReport``
    the smallness quantities guarding every series expansion.

``polarization`` and ``form_factor`` state the conventions of one mode;
the package never enumerates the box's modes, which only the test suite's
dense oracles do.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Dict, Optional, Tuple

import numpy as np

from .errors import EmptyLatticeError, IntegrabilityError, InvalidParameterError
from .quadrature import QuadratureSpec, integrate_interval

__all__ = [
    "ChargeProfile", "Lattice", "OrbitTable", "ModelParams", "Geometry",
    "PolarizationPair", "ConstraintReport", "ModeTable", "lattice_table",
    "make_gaussian_profile", "make_custom_profile", "profile_norm",
    "build_lattice", "lattice_norm",
    "polarization", "form_factor", "check_constraints",
]

#: value of a normalized charge distribution's form factor at the origin
NORMALIZED_AT_ZERO = (2.0 * math.pi) ** -1.5
#: enforced relative symmetry of the box's mode sums and of assembled forms
SYMMETRY_REL = 1e-14


@dataclass(frozen=True)
class ChargeProfile:
    """Rotation-invariant form factor, represented by its radial section.

    Parameters
    ----------
    radial_form_factor : callable
        Vectorized map ``r >= 0 -> float``, the radial value of the form
        factor.  Must be real valued.
    xi : float or None
        Width parameter for the built-in Gaussian family; ``None`` for
        user-supplied profiles.
    cached_norms : dict
        Maps the exponent ``p`` in ``{-1, 0, +1}`` to the continuum norm
        ``(4 pi Int_0^inf r**(2+2p) f(r)**2 dr)**0.5``.
    """

    radial_form_factor: Callable[[np.ndarray], np.ndarray]
    xi: Optional[float]
    cached_norms: Dict[int, float] = field(default_factory=dict)

    def radial(self, r):
        """Radial form-factor value at ``|k| = r``."""
        return self.radial_form_factor(np.asarray(r, dtype=float))

    def trap_frequency_equivalent(self) -> float:
        """Trap scale ``(norm(p=0)**2 / 3)**0.5`` implied by the profile.

        Exposed for convenience only; the trap frequency of ``ModelParams``
        is an independent input and is never forced to this value.
        """
        return profile_norm(self, 0) / math.sqrt(3.0)


@dataclass(frozen=True)
class ModelParams:
    """Coupling charge ``e`` and trap frequency ``nu0``.

    Derived quantities: ``nu = sqrt(2) * nu0`` (the oscillator frequency of
    the particle blocks) and the static polarizability ``alpha = nu0**-2``.
    """

    e: float
    nu0: float

    def __post_init__(self):
        if not (self.e > 0 and math.isfinite(self.e)):
            raise InvalidParameterError("charge e must be positive and finite")
        if not (self.nu0 > 0 and math.isfinite(self.nu0)):
            raise InvalidParameterError(
                "trap frequency nu0 must be positive and finite")

    @property
    def nu(self) -> float:
        return math.sqrt(2.0) * self.nu0

    @property
    def alpha_static(self) -> float:
        return self.nu0 ** -2


@dataclass(frozen=True)
class Geometry:
    """Separation ``R`` along the z axis, ``r = (0, 0, R)``."""

    R: float

    def __post_init__(self):
        if not (self.R > 0 and math.isfinite(self.R)):
            raise InvalidParameterError(
                "separation R must be positive and finite")

    @property
    def r(self) -> np.ndarray:
        return np.array([0.0, 0.0, self.R])


@dataclass(frozen=True)
class PolarizationPair:
    """Orthonormal transverse pair ``(eps1, eps2)`` with ``eps2 = khat x eps1``."""

    eps1: np.ndarray
    eps2: np.ndarray


@dataclass(frozen=True)
class ConstraintReport:
    """Smallness quantities and their pass/fail flags.

    ``c_inf`` is built from continuum norms; ``a``, ``D_rho`` and ``c_L``
    from lattice norms.  The report is pure data: violated constraints do
    not raise, callers decide.
    """

    c_inf: float
    a: float
    D_rho: float
    c_L: float
    c_inf_lt_half: bool
    sqrt2_e_nu0_ge_1: bool
    sqrt2_e_norm_lt_1: bool
    a_lt_quarter: bool
    continuum_norms: Dict[int, float]
    nu: float

    #: the pass/fail flags, in report order
    FLAGS: ClassVar[Tuple[str, ...]] = (
        "c_inf_lt_half", "sqrt2_e_nu0_ge_1", "sqrt2_e_norm_lt_1",
        "a_lt_quarter")

    @property
    def violated(self) -> Tuple[str, ...]:
        """The names of the false flags, in ``FLAGS`` order."""
        return tuple(name for name in self.FLAGS if not getattr(self, name))

    @property
    def all_satisfied(self) -> bool:
        return not self.violated

    def as_dict(self) -> Dict[str, float]:
        d = {"c_inf": self.c_inf, "a": self.a, "D_rho": self.D_rho,
             "c_L": self.c_L}
        d.update((name, getattr(self, name)) for name in self.FLAGS)
        return d


@dataclass(frozen=True)
class OrbitTable:
    """A lattice's modes grouped into orbits of equal ``(|k|, |k_z|)``.

    Every channel column of ``lattice_table``, its copy times
    ``cos(k_z R)`` and ``|k|^2`` are functions of that key, so a mode sum of
    them is the sum over orbits of the representative's value times
    ``count``.  The box keys its orbits by the integers ``(n^2, |n_z|)`` of
    ``k = (2 pi / L) n``, sorted by ``|k|``, then ``|k_z|``.

    Attributes
    ----------
    norms, kz : ndarray, shape (orbits,)
        The representative ``|k|`` and ``|k_z|``; on the box ``(2 pi / L)
        sqrt(n^2)`` and ``(2 pi / L) |n_z|``.
    count : ndarray of int, shape (orbits,)
        Multiplicities; they sum to the number of modes.
    moments : ndarray, shape (orbits, 4)
        Per-orbit sums of ``u_x u_y``, ``u_x u_z``, ``u_y u_z`` and ``u_x^2 -
        u_y^2`` of the unit vectors ``u = k / |k|``: a weighted mode sum of
        ``u u^T`` with weights that depend on the key alone is
        ``diag(T, T, L)`` iff the weights annihilate all four columns.  Zero
        on the box, whose reflections and ``k_x <-> k_y`` cancel each one,
        so ``lattice_table`` skips them there; it checks them wherever they
        are not all zero, so a table built by hand (one orbit per mode,
        say) that breaks the symmetry is refused.
    """

    norms: np.ndarray
    kz: np.ndarray
    count: np.ndarray
    moments: np.ndarray


class Lattice:
    """Momentum modes ``k`` in ``(2 pi Z / L)**3`` with ``|k_i| <= 2 pi Lam``,
    origin excluded, ordered lexicographically.

    ``Lattice(L, Lam)`` is that cutoff box (``build_lattice``).  It holds
    only its ``orbits``, built from integer keys; no per-mode array is
    stored.  The box is symmetric under each reflection ``k_i -> -k_i`` and
    under ``k_x <-> k_y``, so ``lattice_table`` reduces every mode sum to
    axis channels over ``orbits``.

    Equal boxes share one read-only ``OrbitTable``: the process keeps the
    orbits of the last two boxes built, so a separation sweep, an order
    ladder or a step that alternates two boxes builds each of them once.

    Attributes
    ----------
    orbits : OrbitTable
        The modes grouped by ``(|k|, |k_z|)``.
    cell_weight : float
        Riemann cell volume ``(2 pi / L)**3`` entering every lattice norm.
    """

    def __init__(self, box_period: float, uv_cutoff: float):
        n_max = _box_extent(box_period, uv_cutoff)
        self.box_period = float(box_period)
        self.uv_cutoff = float(uv_cutoff)
        self.cell_weight = (2.0 * math.pi / box_period) ** 3
        self.orbits = _box_orbits(2.0 * math.pi / box_period, n_max)

    @property
    def count(self) -> int:
        return int(self.orbits.count.sum())

    def __repr__(self):
        return (f"Lattice(L={self.box_period}, Lambda={self.uv_cutoff}, "
                f"N={self.count})")


#: float64 entries of the largest resolvent table a mode sum builds at once
_CHUNK_ELEMS = 1 << 19


def chunk_rows(width: int) -> int:
    """Rows of a ``width``-wide float64 temporary that fit ``_CHUNK_ELEMS``."""
    return max(1, _CHUNK_ELEMS // width)


def _box_extent(box_period: float, uv_cutoff: float) -> int:
    """``n_max = floor(Lam L)``, with a ``1e-12`` slack for roundoff in
    ``Lam L``; invalid inputs and an empty box raise."""
    if not all(x > 0 and math.isfinite(x) for x in (box_period, uv_cutoff)):
        raise InvalidParameterError(
            "box period and cutoff must be positive and finite")
    n_max = int(math.floor(uv_cutoff * box_period + 1e-12))
    if n_max < 1:
        raise EmptyLatticeError(
            f"no modes: floor(Lambda*L) = {n_max} < 1 for "
            f"L={box_period}, Lambda={uv_cutoff}")
    return n_max


@functools.lru_cache(maxsize=2)
def _box_orbits(step: float, n_max: int) -> OrbitTable:
    """The box's orbits from integer keys ``(n^2, |n_z|)``, read-only and
    cached for the last two boxes.

    The plane ``|n_x|, |n_y| <= n_max`` gives the distinct ``rho^2 = n_x^2
    + n_y^2`` and their multiplicities; each pairs with every ``n_z`` in
    ``[0, n_max]``, twice for ``n_z > 0``.  The keys ``n^2 (n_max + 1) +
    n_z`` are flagged in one boolean array, whose ``flatnonzero`` lists
    them sorted by ``(n^2, n_z)``; the origin's key 0 is dropped.
    """
    sq = np.arange(-n_max, n_max + 1) ** 2
    plane = np.bincount((sq[:, None] + sq).ravel())
    width = n_max + 1
    keys = np.flatnonzero(plane)[:, None] + sq[n_max:]  # n^2 of each pair
    keys *= width
    keys += np.arange(width)
    seen = np.zeros(keys[-1, -1] + 1, dtype=bool)
    seen[keys.ravel()] = True
    del keys
    n2, nz = np.divmod(np.flatnonzero(seen)[1:], width)
    del seen
    norms = np.sqrt(n2)
    norms *= step
    rho2 = np.subtract(n2, nz * nz, out=n2)  # n2 is spent
    table = OrbitTable(norms=norms, kz=step * nz,
                       count=plane[rho2] << (nz > 0),
                       moments=np.zeros((len(nz), 4)))
    for column in (table.norms, table.kz, table.count, table.moments):
        column.setflags(write=False)
    return table


def _resolvent_sums(z: np.ndarray, ksq: np.ndarray, columns: np.ndarray,
                    powers: Tuple[int, ...] = (1,)) -> np.ndarray:
    """``sum_n columns[n] / (z + ksq[n])^m`` for 1-D ``z`` and each ``m`` in
    ``powers`` (ascending, a subset of (1, 2)), shape ``(len(powers),
    len(z), columns.shape[1])``.

    This is the one mode-sum reducer, behind ``ModeTable.sums``: the exact
    energy, the binding, the series and the continuum terms all reduce
    here.  The resolvent table is built over consecutive slices of ``ksq``,
    so none holds more than ``_CHUNK_ELEMS`` floats whatever the row count.
    """
    sums = np.zeros((len(powers), len(z), columns.shape[1]))
    step = chunk_rows(len(z))
    for lo in range(0, len(ksq), step):
        res = z[:, None] + ksq[None, lo:lo + step]
        np.reciprocal(res, out=res)
        cols = columns[lo:lo + step]
        for power, out in zip(powers, sums):
            if power == 2:
                res *= res
            out += res @ cols
    return sums


@dataclass(frozen=True)
class ModeTable:
    """The rows of a mode sum: ``ksq = |k|^2`` and the weighted ``columns``.

    Columns come in pairs ``[T, L]``, the transverse and longitudinal
    entries of ``w_k P_k`` (``P_k = 1 - u_k u_k^T``, ``w_k = cell_weight
    |k|^2 f(|k|)^2``) within one dipole, then across (times ``cos(k . r)``);
    the continuum's table holds the across pair alone.  A trace closes as
    ``sum_c m_c (...)`` over the channels, ``m_c`` the ``multiplicity``.
    """

    ksq: np.ndarray
    columns: np.ndarray
    #: channel multiplicities: transverse (x and y), longitudinal (z)
    multiplicity = (2.0, 1.0)

    @property
    def weights(self) -> np.ndarray:
        """``T + L/2`` of each column pair, ``(rows, pairs)``: the rows'
        summed ``w_k`` within a dipole and ``w_k cos(k . r)`` across, as
        ``tr P_k = 2``.  Every lattice norm and constant reduces it."""
        return self.columns[:, 0::2] + 0.5 * self.columns[:, 1::2]

    def sums(self, z: np.ndarray, powers: Tuple[int, ...] = (1,)):
        """``_resolvent_sums`` of the rows, ``(len(powers), len(z), q)``."""
        return _resolvent_sums(z, self.ksq, self.columns, powers)


def lattice_table(lattice: Lattice, profile: ChargeProfile,
                  R: Optional[float] = None) -> ModeTable:
    """The lattice's ``ModeTable``: per orbit, ``[T, L]`` then, unless ``R``
    is ``None``, ``[T, L] cos(k_z R)``, times the orbit's multiplicity.  A
    profile whose columns are not finite on the orbits, and a lattice whose
    sums ``sum_k w_k P_k [cos(k . r)] g(|k|^2)`` are not ``diag(T, T, L)``
    (``r`` along z), raise ``InvalidParameterError``.  The symmetry test
    multiplies by the orbits' ``moments``; on the box they are all zero,
    so the product is skipped and the table only checked finite.

    The columns are written into one preallocated ``(orbits, 2 or 4)``
    array; ``oscillator``'s assemblers scale them by ``e^2`` into a form's
    table, which the series and the trace words read too.
    """
    orbits = lattice.orbits
    ksq = orbits.norms ** 2
    f = profile.radial(orbits.norms)
    wk = lattice.cell_weight * ksq * f * f
    uz2 = (orbits.kz / orbits.norms) ** 2
    columns = np.empty((len(ksq), 2 if R is None else 4))
    np.multiply(0.5 * wk, 1.0 + uz2, out=columns[:, 0])
    np.multiply(wk, 1.0 - uz2, out=columns[:, 1])
    if R is not None:
        np.multiply(columns[:, :2], np.cos(orbits.kz * R)[:, None],
                    out=columns[:, 2:])
    if not np.isfinite(columns).all():
        i = np.flatnonzero(~np.isfinite(columns).all(axis=1))[0]
        raise InvalidParameterError(
            f"profile is not finite on the lattice: f = {f[i]} at |k| = "
            f"{orbits.norms[i]} gives the table row {columns[i].tolist()}")
    columns *= orbits.count[:, None]
    table = ModeTable(ksq, columns)
    # sum_k (w_k / |k|^2) P_k [cos(k . r)] is diag(T, T, L) iff the same
    # sum of u_k u_k^T has xx = yy and no off-diagonal; the weights over
    # count are one mode's, so the sum is w^T moments over the orbits
    if orbits.moments.any():
        w = table.weights / (orbits.count * ksq)[:, None]
        dev = np.max(np.abs(w.T @ orbits.moments))
        if not dev <= SYMMETRY_REL * (orbits.count @ w[:, 0]):
            raise InvalidParameterError(f"lattice breaks the box symmetry: "
                                        f"{dev:.3e} off diag(T, T, L)")
    return table


def make_gaussian_profile(xi: float) -> ChargeProfile:
    """Gaussian-family profile ``f(r) = (2 pi)**-1.5 * exp(-(xi r)**2)``.

    The three continuum norms are attached in closed form:
    ``norm(p)**2 = (2 pi)**-3 * 2 pi * Gamma(p + 3/2) * 2**-(p + 3/2)
    * xi**-(3 + 2 p)``.
    """
    if not (xi > 0 and math.isfinite(xi)):
        raise InvalidParameterError("width xi must be positive and finite")
    xi = float(xi)

    def radial(r):
        return NORMALIZED_AT_ZERO * np.exp(-((xi * r) ** 2))

    norms = {}
    for p in (-1, 0, 1):
        sq = ((2.0 * math.pi) ** -3 * 2.0 * math.pi * math.gamma(p + 1.5)
              * 2.0 ** -(p + 1.5) * xi ** -(3 + 2 * p))
        norms[p] = math.sqrt(sq)
    return ChargeProfile(radial_form_factor=radial, xi=xi, cached_norms=norms)


def make_custom_profile(radial_fn: Callable, rel_tol: float = 1e-10
                        ) -> ChargeProfile:
    """Wrap a user radial function, computing its norms by quadrature."""
    prof = ChargeProfile(radial_form_factor=radial_fn, xi=None,
                         cached_norms={})
    norms = {p: _norm_by_quadrature(prof, p, rel_tol) for p in (-1, 0, 1)}
    return ChargeProfile(radial_form_factor=radial_fn, xi=None,
                         cached_norms=norms)


def _norm_by_quadrature(profile: ChargeProfile, p: int,
                        rel_tol: float) -> float:
    # r = u/(1-u) maps [0, 1) onto the half line
    if p == -1:
        probe = np.array([1e-6, 1e-9, 1e-12])
        vals = np.abs(profile.radial(probe))
        ref = abs(float(profile.radial(np.array([1.0]))[0])) + 1e-300
        if np.any(vals > 1e6 * ref):
            raise IntegrabilityError(
                "profile diverges at the origin; |k|**-1 norm does not exist")

    def mapped(u):
        r = u / (1.0 - u)
        f = profile.radial(r)
        return 4.0 * math.pi * r ** (2 + 2 * p) * f * f / (1.0 - u) ** 2

    spec = QuadratureSpec(rel_tol=rel_tol, abs_tol=1e-300)
    sq = integrate_interval(mapped, 0.0, 1.0, spec=spec, initial_panels=16)
    if not np.isfinite(sq) or sq < 0:
        raise IntegrabilityError(f"norm integral for p={p} is not finite")
    return math.sqrt(sq)


def profile_norm(profile: ChargeProfile, p: int, rel_tol: float = 1e-10
                 ) -> float:
    """Continuum norm ``(4 pi Int r**(2+2p) f(r)**2 dr)**0.5``.

    Uses the cached closed form when present, adaptive radial quadrature
    otherwise.
    """
    if p not in (-1, 0, 1):
        raise InvalidParameterError("norm exponent p must be -1, 0 or 1")
    if p in profile.cached_norms:
        return profile.cached_norms[p]
    return _norm_by_quadrature(profile, p, rel_tol)


def build_lattice(box_period: float, uv_cutoff: float) -> Lattice:
    """The cutoff momentum box ``Lattice(box_period, uv_cutoff)``.

    The number of modes is ``(2 floor(Lam L) + 1)**3 - 1``; a non-positive
    or non-finite input raises ``InvalidParameterError``, an empty box (no
    nonzero mode on any axis) ``EmptyLatticeError``.  The orbits come from
    integer keys in ``O(n_max^3)`` small integers at most, never from the
    ``(N, 3)`` box.
    """
    return Lattice(box_period, uv_cutoff)


def lattice_norm(profile: ChargeProfile, lattice: Lattice, p: int) -> float:
    """Discrete norm ``(cell_weight * sum_k |k|**(2p) f(|k|)**2)**0.5``
    from ``lattice_table(lattice, profile)``, which raises for a lattice
    that breaks the box symmetry or a profile not finite on the orbits.

    Finite for every ``p`` in ``{-1, 0, 1}`` because the origin is excluded
    from the lattice.
    """
    if p not in (-1, 0, 1):
        raise InvalidParameterError("norm exponent p must be -1, 0 or 1")
    return _norms(lattice_table(lattice, profile))[p]


def _coupling_table(params: ModelParams, table: ModeTable) -> ModeTable:
    """A ``lattice_table`` times ``e^2``: the channel columns of the border
    ``B``, the table of both assemblers' forms."""
    return ModeTable(table.ksq, params.e ** 2 * table.columns)


def _expansion_parameter(table: ModeTable, enu2: float) -> float:
    """``a = 2 n*(0)^2 / nu^2`` from a ``_coupling_table``'s within
    ``weights`` ``w``, ``e^2 w_k`` per mode: ``2 sum w / |k|^2 / (e^2
    nu^2)``, the one reduction the report and the series read."""
    return 2.0 * float((table.weights[:, 0] / table.ksq).sum()) / enu2


def _norms(table: ModeTable) -> Dict[int, float]:
    """``n*(p)`` of a one-dipole table by ``p`` in ``{-1, 0, 1}``: the
    square root of its ``weights`` times ``|k|^(2p - 2)``, summed."""
    w = table.weights[:, 0]
    return {p: math.sqrt(float(w @ table.ksq ** (p - 1)))
            for p in (-1, 0, 1)}


def polarization(k) -> PolarizationPair:
    """Transverse orthonormal pair for a single nonzero momentum.

    For generic ``k`` the first vector is ``(k2, -k1, 0)`` normalized; on the
    third axis (``k1 = k2 = 0``) the fixed fallback ``eps1 = (0, -1, 0)`` is
    used.  In both cases ``eps2 = khat x eps1``.
    """
    k = np.asarray(k, dtype=float)
    kn = np.linalg.norm(k)
    if kn == 0.0:
        raise InvalidParameterError("polarization undefined at k = 0")
    rho = math.hypot(k[0], k[1])
    if rho > 0.0:
        eps1 = np.array([k[1], -k[0], 0.0]) / rho
    else:
        eps1 = np.array([0.0, -1.0, 0.0])
    eps2 = np.cross(k / kn, eps1)
    return PolarizationPair(eps1=eps1, eps2=eps2)


def form_factor(x, k, channel: int, lattice: Lattice,
                profile: ChargeProfile) -> float:
    """Mode coupling ``(2 pi / L)**1.5 |k| f(|k|) * cos or sin of (k . x)``.

    Channels 1 and 2 carry the cosine, channels 3 and 4 the sine.
    """
    if channel not in (1, 2, 3, 4):
        raise InvalidParameterError(f"channel {channel} outside 1..4")
    k = np.asarray(k, dtype=float)
    x = np.asarray(x, dtype=float)
    kn = float(np.linalg.norm(k))
    scale = math.sqrt(lattice.cell_weight) * kn * float(profile.radial(kn))
    phase = float(k @ x)
    return scale * (math.cos(phase) if channel <= 2 else math.sin(phase))


def check_constraints(params: ModelParams, profile: ChargeProfile,
                      lattice: Lattice) -> ConstraintReport:
    """Evaluate every smallness condition guarding the expansions.

    ``c_inf = max(sqrt(2) e n(-1), n(1) / (sqrt(2) e nu0**2), n(0) / nu0)``
    with continuum norms ``n(p)``; the lattice quantities are
    ``a = (sqrt(2) n*(0) / nu)**2``,
    ``D_rho = max(sqrt(2) e n*(-1), sqrt(2) n*(1) / (e nu**2))`` and
    ``c_L = max(D_rho, sqrt(2) n*(0) / nu)``.

    The lattice norms ``n*(p)`` and ``a`` reduce one ``lattice_table``,
    which raises for a broken box symmetry or a profile not finite on the
    orbits; ``a`` is the series' ``TraceSystem.a`` bit for bit.
    """
    cn = {p: profile_norm(profile, p) for p in (-1, 0, 1)}
    table = lattice_table(lattice, profile)
    ln = _norms(table)
    e, nu0, nu = params.e, params.nu0, params.nu
    rt2 = math.sqrt(2.0)
    c_inf = max(rt2 * e * cn[-1], cn[1] / (rt2 * e * nu0 ** 2), cn[0] / nu0)
    a = _expansion_parameter(_coupling_table(params, table), (e * nu) ** 2)
    d_rho = max(rt2 * e * ln[-1], rt2 * ln[1] / (e * nu ** 2))
    c_l = max(d_rho, rt2 * ln[0] / nu)
    return ConstraintReport(
        c_inf=c_inf, a=a, D_rho=d_rho, c_L=c_l,
        c_inf_lt_half=c_inf < 0.5,
        sqrt2_e_nu0_ge_1=rt2 * e * nu0 >= 1.0,
        sqrt2_e_norm_lt_1=rt2 * e * cn[0] < 1.0,
        a_lt_quarter=a < 0.25,
        continuum_norms=cn, nu=nu)
