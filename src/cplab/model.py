"""Charge profiles, the momentum lattice, polarization conventions and the
parameter-constraint calculus.

The model couples point dipoles to a transverse field regularized by a
rotation-invariant radial form factor.  Everything downstream consumes the
four value types defined here:

``ChargeProfile``
    radial form factor with cached continuum norms,
``Lattice``
    the cutoff momentum box with its quadrature weight,
``ModelParams`` / ``Geometry``
    couplings and the two-center geometry,
``ConstraintReport``
    the smallness quantities guarding every series expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from .errors import EmptyLatticeError, IntegrabilityError, InvalidParameterError
from .quadrature import QuadratureSpec, integrate_interval

__all__ = [
    "ChargeProfile", "Lattice", "ModelParams", "Geometry", "PolarizationPair",
    "ConstraintReport", "make_gaussian_profile", "make_custom_profile",
    "profile_norm", "build_lattice", "lattice_norm", "polarization",
    "polarization_basis", "form_factor", "check_constraints",
]

#: value of a normalized charge distribution's form factor at the origin
NORMALIZED_AT_ZERO = (2.0 * math.pi) ** -1.5


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
    """Separation ``R`` along the fixed direction ``n_hat = (0, 0, 1)``."""

    R: float

    def __post_init__(self):
        if not (self.R > 0 and math.isfinite(self.R)):
            raise InvalidParameterError(
                "separation R must be positive and finite")

    @property
    def n_hat(self) -> np.ndarray:
        return np.array([0.0, 0.0, 1.0])

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
    lattice_norms: Dict[int, float]
    nu: float

    @property
    def all_satisfied(self) -> bool:
        return (self.c_inf_lt_half and self.sqrt2_e_nu0_ge_1
                and self.sqrt2_e_norm_lt_1 and self.a_lt_quarter)

    def as_dict(self) -> Dict[str, float]:
        return {
            "c_inf": self.c_inf, "a": self.a, "D_rho": self.D_rho,
            "c_L": self.c_L,
            "c_inf_lt_half": self.c_inf_lt_half,
            "sqrt2_e_nu0_ge_1": self.sqrt2_e_nu0_ge_1,
            "sqrt2_e_norm_lt_1": self.sqrt2_e_norm_lt_1,
            "a_lt_quarter": self.a_lt_quarter,
        }


class Lattice:
    """Momentum modes ``k`` in ``(2 pi Z / L)**3`` with ``|k_i| <= 2 pi Lam``,
    origin excluded, ordered lexicographically.

    The box built by ``build_lattice`` is symmetric under each reflection
    ``k_i -> -k_i`` and under ``k_x <-> k_y``; the trace and binding
    kernels rely on this to reduce every mode sum to axis channels.

    Attributes
    ----------
    points : ndarray, shape (N, 3)
    norms : ndarray, shape (N,)
        Euclidean lengths ``|k|``.
    cell_weight : float
        Riemann cell volume ``(2 pi / L)**3`` entering every lattice norm.
    """

    def __init__(self, box_period: float, uv_cutoff: float,
                 points: np.ndarray):
        self.box_period = float(box_period)
        self.uv_cutoff = float(uv_cutoff)
        self.points = points
        self.cell_weight = (2.0 * math.pi / box_period) ** 3
        self.norms = np.linalg.norm(points, axis=1)
        self.units = points / self.norms[:, None]

    @property
    def count(self) -> int:
        return len(self.points)

    def __repr__(self):
        return (f"Lattice(L={self.box_period}, Lambda={self.uv_cutoff}, "
                f"N={self.count})")


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
    """Enumerate the cutoff momentum box.

    The number of points is ``(2 floor(Lam L) + 1)**3 - 1``; an empty box
    (no nonzero mode on any axis) raises ``EmptyLatticeError``.
    """
    if not all(x > 0 and math.isfinite(x) for x in (box_period, uv_cutoff)):
        raise InvalidParameterError(
            "box period and cutoff must be positive and finite")
    n_max = int(math.floor(uv_cutoff * box_period + 1e-12))
    if n_max < 1:
        raise EmptyLatticeError(
            f"no modes: floor(Lambda*L) = {n_max} < 1 for "
            f"L={box_period}, Lambda={uv_cutoff}")
    step = 2.0 * math.pi / box_period
    idx = np.arange(-n_max, n_max + 1)
    grid = np.stack(np.meshgrid(idx, idx, idx, indexing="ij"),
                    axis=-1).reshape(-1, 3)
    grid = grid[np.any(grid != 0, axis=1)]
    order = np.lexsort((grid[:, 2], grid[:, 1], grid[:, 0]))
    points = step * grid[order].astype(float)
    return Lattice(box_period, uv_cutoff, points)


def lattice_norm(profile: ChargeProfile, lattice: Lattice, p: int) -> float:
    """Discrete norm ``(cell_weight * sum_k |k|**(2p) f(|k|)**2)**0.5``.

    Finite for every ``p`` in ``{-1, 0, 1}`` because the origin is excluded
    from the lattice.
    """
    if p not in (-1, 0, 1):
        raise InvalidParameterError("norm exponent p must be -1, 0 or 1")
    f = profile.radial(lattice.norms)
    total = lattice.cell_weight * np.sum(lattice.norms ** (2 * p) * f * f)
    return math.sqrt(total)


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


def polarization_basis(points: np.ndarray,
                       rotation_angles: Optional[np.ndarray] = None):
    """Vectorized polarization pairs for a stack of momenta.

    ``rotation_angles`` applies a per-mode rotation of the pair inside the
    transverse plane; physical outputs must be invariant under it.
    """
    points = np.asarray(points, dtype=float)
    kn = np.linalg.norm(points, axis=1)
    if np.any(kn == 0.0):
        raise InvalidParameterError("polarization undefined at k = 0")
    rho = np.hypot(points[:, 0], points[:, 1])
    eps1 = np.zeros_like(points)
    on_axis = rho == 0.0
    generic = ~on_axis
    eps1[generic, 0] = points[generic, 1] / rho[generic]
    eps1[generic, 1] = -points[generic, 0] / rho[generic]
    eps1[on_axis, 1] = -1.0
    eps2 = np.cross(points / kn[:, None], eps1)
    if rotation_angles is not None:
        th = np.asarray(rotation_angles, dtype=float)[:, None]
        eps1, eps2 = (np.cos(th) * eps1 + np.sin(th) * eps2,
                      -np.sin(th) * eps1 + np.cos(th) * eps2)
    return eps1, eps2


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
    """
    cn = {p: profile_norm(profile, p) for p in (-1, 0, 1)}
    ln = {p: lattice_norm(profile, lattice, p) for p in (-1, 0, 1)}
    e, nu0, nu = params.e, params.nu0, params.nu
    rt2 = math.sqrt(2.0)
    c_inf = max(rt2 * e * cn[-1], cn[1] / (rt2 * e * nu0 ** 2), cn[0] / nu0)
    a = (rt2 * ln[0] / nu) ** 2
    d_rho = max(rt2 * e * ln[-1], rt2 * ln[1] / (e * nu ** 2))
    c_l = max(d_rho, rt2 * ln[0] / nu)
    return ConstraintReport(
        c_inf=c_inf, a=a, D_rho=d_rho, c_L=c_l,
        c_inf_lt_half=c_inf < 0.5,
        sqrt2_e_nu0_ge_1=rt2 * e * nu0 >= 1.0,
        sqrt2_e_norm_lt_1=rt2 * e * cn[0] < 1.0,
        a_lt_quarter=a < 0.25,
        continuum_norms=cn, lattice_norms=ln, nu=nu)
