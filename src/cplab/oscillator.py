"""Assembly of the coupled quadratic forms and exact ground-state energies.

A dipole at position ``x`` couples linearly to the lattice field through a
dense ``3 x 4N`` block.  The full quadratic form is a ``p x p`` particle
block ``P`` (``p = 3`` or ``6``), the diagonal photon block ``K`` and the
``p x 4N`` border ``B`` between them.  A form stores ``P``, the scalar
``e^2 nu^2`` and the channel columns of ``B`` as a ``model.ModeTable``, one
row per orbit of bit-equal ``(|k|, |k_z|)``; the free diagonal, the border
and the dense matrix are rebuilt on request, for tests and oracles.

The ground energy is the zero-point trace ``0.5 Tr(sqrt(Omega) -
sqrt(Omega_0))`` plus the shift ``1.5 e nu`` per particle.  By the Schur
complement on the photon block it equals the imaginary-frequency log-det

    0.5 Tr(sqrt(Omega) - sqrt(Omega_0))
        = (1/2 pi) Int_0^inf ds log det_p(1 - X(s)),
    X(s) = (s^2 + e^2 nu^2)^-1 [B (s^2 + K)^-1 B^T - (P - e^2 nu^2)],

the finite-lattice Lifshitz / TGTG formula (Emig, Graham, Jaffe, Kardar,
PRL 99, 170403 (2007); Rahi et al., PRD 80, 085021 (2009)).  ``X(s)`` is
diagonal in the axis channels of the mode table within one dipole and
across the pair, with closed-form eigenvalues ``x_c -+ y_c``: a node
costs ``O(orbits)`` and no ``p x p`` matrix is formed.  The binding energy is
the mixed part of the same log-det, never a difference of two energies.
The bottom eigenvalue is the least channel root of the Schur complement
``S(lam) = P - lam - B (K - lam)^-1 B^T``, found by a secular Newton.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import (AccuracyError, InvalidParameterError,
                     NotPositiveSemidefiniteError)
from .model import (SYMMETRY_REL, ChargeProfile, Geometry, Lattice,
                    ModelParams, ModeTable, lattice_table, polarization_basis)
from .quadrature import integrate_half_line

__all__ = [
    "QuadraticForm", "EnergyResult",
    "LatticePeriodicityWarning", "build_coupling", "assemble_one_electron",
    "assemble_two_electron", "direct_coupling", "ground_energy",
    "binding_energy_exact",
]

#: clamp window for eigenvalues that are negative by roundoff only
CLAMP_REL = 1e-10
#: Newton steps allowed to the bottom eigenvalue (1-7 on every tested form)
NEWTON_STEPS = 30


class LatticePeriodicityWarning(UserWarning):
    """Separation is commensurate with the box; energies are periodic in R."""


@dataclass
class QuadraticForm:
    """Symmetric form ``[[P, B], [B^T, K]]`` held by its orbit data.

    ``particle`` is the ``p x p`` block ``P`` and ``enu2`` the free particle
    frequency ``e^2 nu^2``; the photon block ``K`` is ``|k|^2`` of each mode
    of ``lattice``, shared by its four channels.  ``table`` is
    ``lattice_table`` times ``e^2 coupling_scale^2``: per orbit, the sums of
    ``T = (M_xx + M_yy) / 2`` and ``L = M_zz`` of ``M_n = sum_c b_{n,c}
    b_{n,c}^T`` (``b`` the columns of ``B``) over its modes, for any shift
    or rotation.  No field grows with the number of modes.
    """

    table: ModeTable
    particle: np.ndarray
    enu2: float
    zero_point_shift: float
    lattice: Lattice = field(repr=False)
    _coupling: Callable[[], np.ndarray] = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.particle) + 4 * self.lattice.count

    @property
    def omega0_diag(self) -> np.ndarray:
        """The free diagonal ``[e^2 nu^2] * p + K``, built read-only on each
        access, for tests and oracles only."""
        out = np.concatenate([np.full(len(self.particle), self.enu2),
                              np.repeat(self.lattice.norms ** 2, 4)])
        out.setflags(write=False)
        return out

    @property
    def border(self) -> np.ndarray:
        """The ``p x 4N`` coupling ``B``, rebuilt read-only by
        ``build_coupling`` on each access, for tests and oracles only."""
        out = self._coupling()
        out.setflags(write=False)
        return out

    @property
    def omega(self) -> np.ndarray:
        """The dense ``dim x dim`` matrix, built read-only on each access
        for tests and oracles at small ``dim``; no energy route uses it."""
        p = len(self.particle)
        out = np.diag(self.omega0_diag)
        out[:p, :p] = self.particle
        out[:p, p:] = self.border
        out[p:, :p] = out[:p, p:].T
        out.setflags(write=False)
        return out


@dataclass(frozen=True)
class EnergyResult:
    """Ground energy, eigenvalue diagnostics and quadrature evidence."""

    energy: float
    min_eigenvalue: float
    trace_difference: float
    zero_point_shift: float
    n_eigenvalues: int
    n_clamped: int
    error_estimate: float = 0.0
    nodes: int = 0


def build_coupling(x, lattice: Lattice, profile: ChargeProfile,
                   rotation_angles: Optional[np.ndarray] = None
                   ) -> np.ndarray:
    """Assemble the dense ``3 x 4N`` coupling block at dipole position ``x``.

    Entry ``[i, 4*n + (c-1)]`` is the i-th component of the polarization
    vector of mode ``n`` in channel ``c`` times that mode's form factor at
    ``x``.  Channel layout per mode: (cos, eps1), (cos, eps2), (sin, eps1),
    (sin, eps2); the sine channels vanish at ``x = 0``.
    """
    x = np.asarray(x, dtype=float)
    eps1, eps2 = polarization_basis(lattice.points, rotation_angles)
    scale = (math.sqrt(lattice.cell_weight) * lattice.norms
             * profile.radial(lattice.norms))
    phase = lattice.points @ x
    cos, sin = np.cos(phase), np.sin(phase)
    entries = np.zeros((3, 4 * lattice.count))
    for c, (eps, trig) in enumerate(((eps1, cos), (eps2, cos), (eps1, sin),
                                     (eps2, sin))):
        entries[:, c::4] = (eps * (scale * trig)[:, None]).T
    return entries


def _channel_block(d: float, g: float, p: int) -> np.ndarray:
    """Particle block ``d I`` (``p = 3``) or ``[[d I, g I], [g I, d I]]``."""
    return np.kron([[d, g], [g, d]], np.eye(3))[:p, :p]


def assemble_one_electron(params: ModelParams, lattice: Lattice,
                          profile: ChargeProfile, shift=None,
                          rotation_angles: Optional[np.ndarray] = None,
                          coupling_scale: float = 1.0) -> QuadraticForm:
    """One-dipole form of dimension ``3 + 4N``.

    ``shift`` moves the dipole position used in the coupling block; the
    spectrum is invariant under it, and the canonical choice is the origin.
    ``coupling_scale`` multiplies the off-diagonal block only (used by
    perturbative cross-checks).
    """
    x = np.zeros(3) if shift is None else np.asarray(shift, dtype=float)
    enu2, scale = (params.e * params.nu) ** 2, coupling_scale * params.e
    table = lattice_table(lattice, profile)
    return QuadraticForm(
        ModeTable(table.ksq, scale ** 2 * table.columns),
        _channel_block(enu2, 0.0, 3), enu2,
        1.5 * params.e * params.nu, lattice,
        lambda: scale * build_coupling(x, lattice, profile, rotation_angles))


def direct_coupling(params: ModelParams, lattice: Lattice,
                    profile: ChargeProfile, geometry: Geometry) -> float:
    """Strength of the dropped dipole-dipole contact term.

    ``gamma(R) = e**2 * cell_weight * sum_k f(|k|)**2 cos(k . r)`` summed
    over the full cutoff box including the origin cell: the contact term is
    a plain quadrature of its defining continuum integral, not a field
    mode, and dropping the origin cell would leave a spurious
    R-independent offset.  Decays faster than any power of ``R`` for
    rapidly decreasing profiles while ``R`` stays below half the box.  The
    sum runs over the lattice's orbits with their multiplicities, as
    ``r`` lies along z.
    """
    orbits = lattice.orbits
    f = profile.radial(orbits.norms)
    cos = np.cos(orbits.kz * geometry.R)
    origin = float(profile.radial(0.0)) ** 2
    return (params.e ** 2 * lattice.cell_weight
            * (origin + float(orbits.count @ (f * f * cos))))


def assemble_two_electron(params: ModelParams, lattice: Lattice,
                          profile: ChargeProfile, geometry: Geometry,
                          include_direct_term: bool = False,
                          rotation_angles: Optional[np.ndarray] = None,
                          coupling_scale: float = 1.0) -> QuadraticForm:
    """Two-dipole form of dimension ``6 + 4N``.

    The first dipole couples at the origin, the second at ``r = R n_hat``.
    The particle-particle block is zero unless ``include_direct_term`` is
    set, in which case it carries ``gamma(R)`` times the identity.
    """
    enu2, scale = (params.e * params.nu) ** 2, coupling_scale * params.e
    g = (direct_coupling(params, lattice, profile, geometry)
         if include_direct_term else 0.0)
    table = lattice_table(lattice, profile, geometry.R)
    return QuadraticForm(
        ModeTable(table.ksq, scale ** 2 * table.columns),
        _channel_block(enu2, g, 6), enu2,
        3.0 * params.e * params.nu, lattice,
        lambda: scale * np.vstack([
            build_coupling(x, lattice, profile, rotation_angles)
            for x in (np.zeros(3), geometry.r)]))


# ---------------------------------------------------------------------------
# the channel log-det kernel
# ---------------------------------------------------------------------------

def _log_abs_one_minus(x: np.ndarray) -> np.ndarray:
    """``log|1 - x|``, exact to roundoff for small ``|x|`` and finite at 1."""
    near = np.log1p(-np.minimum(x, 0.5))
    far = np.log(np.maximum(np.abs(1.0 - x), np.finfo(float).tiny))
    return np.where(x < 0.5, near, far)


def _axis_channels(sums: np.ndarray, s2: np.ndarray, enu2: float,
                   offset: float = 0.0, gamma: float = 0.0) -> np.ndarray:
    """``X(s)`` in the axis channels, ``[x_c | y_c] = ([within_c | across_c]
    - [d - e^2 nu^2 | gamma]) / (s^2 + e^2 nu^2)``, from the channels of
    ``B (s^2 + K)^-1 B^T`` and a particle block ``[[d I, gamma I], ...]``."""
    shift = np.array([offset, offset, gamma, gamma])[:sums.shape[1]]
    return (sums - shift) / (s2 + enu2)[:, None]


def _split(v: np.ndarray) -> np.ndarray:
    """Channel eigenvalues ``[w - a | w + a]`` of ``[[w, a], [a, w]]``."""
    w, a = v[:, :2], v[:, 2:]
    return v if a.shape[1] == 0 else np.concatenate((w - a, w + a), axis=1)


class _Kernel:
    """A form's mode ``table`` and ``stacked``, the same rows with the
    columns over ``k_n^2`` appended; ``freq2`` is the rows' ``|k|^2``.
    With the box symmetry ``lattice_table`` checks (separation along z) and
    the particle block ``d I`` or ``[[d I, g I], [g I, d I]]``, checked
    here, ``X(s)`` and ``S(lam)`` are diagonal in the channels:
    ``O(orbits)`` per node, no ``p x p`` matrix."""

    def __init__(self, form: QuadraticForm):
        p = len(form.particle)
        self.table, self.freq2 = form.table, form.table.ksq
        self.enu2 = form.enu2
        self.d = float(form.particle[0, 0])
        self.g = float(form.particle[0, 3]) if p == 6 else 0.0
        dev = np.max(np.abs(form.particle - _channel_block(self.d, self.g, p)))
        scale = max(np.max(np.abs(form.particle)), self.enu2,
                    float(np.max(self.freq2)))
        if dev > SYMMETRY_REL * scale:
            raise InvalidParameterError(
                f"particle block is not d I or [[d I, g I], [g I, d I]]: "
                f"deviation {dev:.3e} vs scale {scale:.3e}")
        cols, self.q = self.table.columns, self.table.columns.shape[1]
        self.stacked = ModeTable(self.freq2, np.hstack(
            [cols, cols / self.freq2[:, None]]))
        self.multiplicity = np.tile(ModeTable.multiplicity, p // 3)
        self._schur_base = np.array([[self.d, self.d, self.g, self.g],
                                     [0.0] * 4])[:, :self.q]
        self.schur0 = self.schur(0.0)[0]

    def schur(self, lam: float) -> np.ndarray:
        """Rows ``[S_c, S_c']`` at ``lam < min k_n^2`` in ``_split`` order:
        the channels ``d_c - lam - sum_n M_{n,c} / (k_n^2 - lam)`` of ``S``
        and their slopes ``-1 - sum_n M_{n,c} / (k_n^2 - lam)^2``, one pass."""
        sums = self.table.sums(np.array([-lam]), (1, 2))
        out = _split(self._schur_base - sums[:, 0])
        out[0] -= lam
        out[1] -= 1.0
        return out

    def log_det(self, s: np.ndarray) -> np.ndarray:
        """``sum_c m_c log|1 - mu_c(X(s))|`` per node; where ``mu_c >= 1/2``,
        ``1 - mu_c = (S(0) + s^2 (1 + sum_n M_n / (k_n^2 (s^2 + k_n^2))))
        / (s^2 + e^2 nu^2)``, exact relative to its small value."""
        s2 = np.asarray(s, dtype=float) ** 2
        sums = self.stacked.sums(s2)[0]
        mu = _split(_axis_channels(sums[:, :self.q], s2, self.enu2,
                                   self.d - self.enu2, self.g))
        near = self.schur0 + s2[:, None] * (1 + _split(sums[:, self.q:]))
        far = (np.log(np.maximum(np.abs(near), np.finfo(float).tiny))
               - np.log(s2 + self.enu2)[:, None])
        out = np.where(mu < 0.5, np.log1p(-np.minimum(mu, 0.5)), far)
        return out @ self.multiplicity

    def bracket(self) -> Tuple[float, float]:
        """Weyl bracket of the spectrum: that of ``diag(P, K)`` widened by
        ``||B||``, the root of the largest split channel of ``sum_n M_n``."""
        norm = math.sqrt(np.max(_split(self.table.columns.sum(0)[None])))
        return (min(self.d - abs(self.g), float(np.min(self.freq2))) - norm,
                max(self.d + abs(self.g), float(np.max(self.freq2))) + norm)

    def check_positivity(self) -> Tuple[float, int]:
        """Clamp-or-raise rule: eigenvalues in ``[-CLAMP_REL * norm, 0)``
        are roundoff, anything lower raises; ``norm`` is the larger of the
        bottom eigenvalue's size and the top of ``bracket``.  Returns the
        bottom eigenvalue and the count of negative ones, ``multiplicity @
        (S(0) < 0)`` (Haynsworth, as ``K > 0``).  The bottom is the least
        channel root of ``S`` below ``p = min k_n^2``, else ``p``: as ``M_{n,c}
        >= 0``, each ``G_c = (p - lam) S_c`` is convex on ``(-inf, p)``, so
        from below every eigenvalue the least Newton tangent root over the
        descending channels climbs to it without reaching ``p`` (Bunch,
        Nielsen & Sorensen, Numer. Math. 31 (1978) 31)."""
        lo, hi = self.bracket()
        tol = 4.0 * np.finfo(float).eps * max(abs(lo), abs(hi))
        p = float(np.min(self.freq2))
        n_neg = int(self.multiplicity @ (self.schur0 < 0.0))
        bottom = lo if n_neg else max(lo, 0.0)
        for _ in range(NEWTON_STEPS):
            x = bottom
            if x >= p:
                break
            s, ds = self.schur(x)
            g, dg = (p - x) * s, (p - x) * ds - s
            down = dg < 0.0
            bottom = min(p, float(np.min(x - g[down] / dg[down], initial=p)))
            if bottom - x <= tol:
                break
        else:
            raise AccuracyError(f"{NEWTON_STEPS} Newton steps left the bottom "
                                "eigenvalue unconverged", bottom,
                                (bottom - x) / max(abs(bottom), tol))
        floor = -CLAMP_REL * max(abs(bottom), hi)
        if bottom < floor:
            raise NotPositiveSemidefiniteError(
                f"eigenvalue {bottom:.6e} below the roundoff floor "
                f"{floor:.6e}; positivity hypotheses violated")
        return bottom, n_neg


def ground_energy(form: QuadraticForm) -> EnergyResult:
    """Exact ground energy of an assembled form by the channel kernel, with
    the quadrature's ``error_estimate`` and ``nodes``.

    A particle block other than ``d I`` or ``[[d I, g I], [g I, d I]]`` (to
    ``SYMMETRY_REL``) raises ``InvalidParameterError``, as does assembling a
    form on a lattice that breaks the box symmetry.  Eigenvalues in
    ``[-1e-10 * norm, 0)`` are roundoff, clamped to zero (``log|.|`` gives
    them zero weight); a lower one raises ``NotPositiveSemidefiniteError``.
    """
    kernel = _Kernel(form)
    min_eig, clamped = kernel.check_positivity()
    quad = integrate_half_line(kernel.log_det, full_output=True)
    trace_difference = quad.value / (2.0 * math.pi)
    return EnergyResult(
        energy=trace_difference + form.zero_point_shift,
        min_eigenvalue=min_eig, trace_difference=trace_difference,
        zero_point_shift=form.zero_point_shift,
        n_eigenvalues=form.dim, n_clamped=clamped,
        error_estimate=quad.error_estimate / (2.0 * math.pi),
        nodes=quad.nodes_used)


def binding_energy_exact(params: ModelParams, lattice: Lattice,
                         profile: ChargeProfile, R: float,
                         include_direct_term: bool = False) -> float:
    """Exact binding ``2 E - E(R)`` from the mixed part of one log-det.

    The two-dipole ``X(s)`` is ``[[x, y], [y, x]]`` in the axis channels,
    the sums of ``lattice_table`` (``_axis_channels`` with ``gamma`` the
    direct coupling, or zero).  Per channel ``det(1 - X) = (1 - x - y)(1 -
    x + y)``, so the binding is ``-(1/2 pi) Int_0^inf ds sum_c m_c log(1 -
    sigma_c^2)`` with ``sigma_c = y_c / (1 - x_c)``, resolvable at its own
    magnitude.  ``S(0) = e^2 nu^2 (1 - X(0))``, so only a channel with
    ``|y_c(0)| > 1 - x_c(0)`` makes the form indefinite; only then is it
    assembled for the clamp-or-raise rule of ``ground_energy``.

    Positive values mean attraction.  ``R >= L / 2`` warns: lattice momenta
    are multiples of ``2 pi / L``, so the energy is periodic in ``R``.
    """
    if R >= lattice.box_period / 2.0:
        warnings.warn(
            f"R = {R} is not below half the box period L = "
            f"{lattice.box_period}; the binding energy is periodic in R",
            LatticePeriodicityWarning, stacklevel=2)
    geometry = Geometry(R)
    table = lattice_table(lattice, profile, geometry.R)
    gamma = (direct_coupling(params, lattice, profile, geometry)
             if include_direct_term else 0.0)
    e2, enu2 = params.e ** 2, (params.e * params.nu) ** 2

    def channels(s):
        s2 = s * s
        xy = _axis_channels(e2 * table.sums(s2)[0], s2, enu2, gamma=gamma)
        return xy[:, :2], xy[:, 2:]

    x0, y0 = channels(np.zeros(1))
    if np.any(np.abs(y0) > 1.0 - x0):
        _Kernel(assemble_two_electron(
            params, lattice, profile, geometry,
            include_direct_term=include_direct_term)).check_positivity()

    def integrand(s):
        x, y = channels(np.asarray(s, dtype=float))
        if np.any(x >= 1.0):
            raise NotPositiveSemidefiniteError(
                "a one-dipole block of the two-dipole form is not positive "
                "definite")
        sigma = y / (1.0 - x)
        return -(_log_abs_one_minus(sigma * sigma) @ table.multiplicity)

    return integrate_half_line(integrand) / (2.0 * math.pi)
