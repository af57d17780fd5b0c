"""Assembly of the coupled quadratic forms and exact ground-state energies.

A dipole at position ``x`` couples linearly to the lattice field through a
dense ``3 x 4N`` block.  The full quadratic form is a ``p x p`` particle
block ``P`` (``p = 3`` or ``6``), the diagonal photon block ``K`` and the
``p x 4N`` border ``B`` between them.  Only those three pieces are stored;
the dense matrix is built on request, for tests and oracles.

The ground energy is the zero-point trace ``0.5 Tr(sqrt(Omega) -
sqrt(Omega_0))`` plus the shift ``1.5 e nu`` per particle.  By the Schur
complement on the photon block it equals the imaginary-frequency log-det

    0.5 Tr(sqrt(Omega) - sqrt(Omega_0))
        = (1/2 pi) Int_0^inf ds log det_p(1 - X(s)),
    X(s) = (s^2 + e^2 nu^2)^-1 [B (s^2 + K)^-1 B^T - (P - e^2 nu^2)],

the finite-lattice Lifshitz / TGTG formula (Emig, Graham, Jaffe, Kardar,
PRL 99, 170403 (2007); Rahi et al., PRD 80, 085021 (2009)).  ``X(s)`` is a
resolvent-weighted sum of per-mode ``p x p`` blocks, so each quadrature node
costs ``O(p^2 N)`` instead of the ``O(dim^3)`` of a dense eigensolve.  The
binding energy is the mixed part of the same two-dipole log-det and is never
formed as a difference of two energies.  For the assembled two-dipole form
``X(s)`` is diagonal in the axis channels of ``traces.TraceSystem``, so the
binding takes the channel sums and assembles no form unless the positivity
check needs it.  Spectral diagnostics come from the inertia of the ``p x p``
Schur complement ``S(lam) = P - lam - B (K - lam)^-1 B^T`` (Haynsworth).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import InvalidParameterError, NotPositiveSemidefiniteError
from .model import (ChargeProfile, Geometry, Lattice, ModelParams,
                    polarization_basis)
from .quadrature import integrate_half_line

__all__ = [
    "CouplingMatrix", "QuadraticForm", "EnergyResult",
    "LatticePeriodicityWarning", "build_coupling", "assemble_one_electron",
    "assemble_two_electron", "direct_coupling", "ground_energy",
    "binding_energy_exact",
]

#: clamp window for eigenvalues that are negative by roundoff only
CLAMP_REL = 1e-10
#: enforced relative symmetry of assembled forms
SYMMETRY_REL = 1e-14
#: float64 entries of the largest per-call resolvent table in the mode sum
_CHUNK_ELEMS = 1 << 19


class LatticePeriodicityWarning(UserWarning):
    """Separation is commensurate with the box; energies are periodic in R."""


@dataclass(frozen=True)
class CouplingMatrix:
    """Dense dipole-field coupling block.

    ``entries[i, 4*n + (c-1)]`` is the i-th component of the polarization
    vector of mode ``n`` in channel ``c`` times that mode's form factor at
    the dipole position ``x``.  Sine channels (3, 4) vanish at ``x = 0``.
    """

    x: np.ndarray
    entries: np.ndarray


@dataclass
class QuadraticForm:
    """Symmetric form ``[[P, B], [B^T, K]]`` with its free diagonal.

    ``particle`` is the ``p x p`` block ``P``, ``border`` the ``p x 4N``
    coupling ``B`` and ``omega0_diag`` the free diagonal, whose last ``4N``
    entries are the photon block ``K`` (the four channels of a mode share
    one frequency).
    """

    omega0_diag: np.ndarray
    border: np.ndarray
    particle: np.ndarray
    zero_point_shift: float
    params: ModelParams
    lattice: Lattice
    geometry: Optional[Geometry] = None
    include_direct_term: bool = False

    @property
    def dim(self) -> int:
        return len(self.omega0_diag)

    @property
    def omega(self) -> np.ndarray:
        """The dense ``dim x dim`` matrix, built read-only on each access.

        For tests and oracles at small ``dim``; no energy route uses it.
        """
        p = len(self.particle)
        out = np.diag(self.omega0_diag)
        out[:p, :p] = self.particle
        out[:p, p:] = self.border
        out[p:, :p] = self.border.T
        out.setflags(write=False)
        return out


@dataclass(frozen=True)
class EnergyResult:
    """Ground energy together with eigenvalue diagnostics."""

    energy: float
    min_eigenvalue: float
    trace_difference: float
    zero_point_shift: float
    n_eigenvalues: int
    n_clamped: int


def build_coupling(x, lattice: Lattice, profile: ChargeProfile,
                   rotation_angles: Optional[np.ndarray] = None
                   ) -> CouplingMatrix:
    """Assemble the ``3 x 4N`` coupling block at dipole position ``x``.

    Channel layout per mode: (cos, eps1), (cos, eps2), (sin, eps1),
    (sin, eps2).
    """
    x = np.asarray(x, dtype=float)
    eps1, eps2 = polarization_basis(lattice.points, rotation_angles)
    scale = (math.sqrt(lattice.cell_weight) * lattice.norms
             * profile.radial(lattice.norms))
    phase = lattice.points @ x
    cos, sin = np.cos(phase), np.sin(phase)
    n = lattice.count
    entries = np.zeros((3, 4 * n))
    entries[:, 0::4] = (eps1 * (scale * cos)[:, None]).T
    entries[:, 1::4] = (eps2 * (scale * cos)[:, None]).T
    entries[:, 2::4] = (eps1 * (scale * sin)[:, None]).T
    entries[:, 3::4] = (eps2 * (scale * sin)[:, None]).T
    return CouplingMatrix(x=x, entries=entries)


def _free_diag(params: ModelParams, lattice: Lattice, p: int) -> np.ndarray:
    return np.concatenate([np.full(p, (params.e * params.nu) ** 2),
                           np.repeat(lattice.norms ** 2, 4)])


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
    diag = _free_diag(params, lattice, 3)
    border = (coupling_scale * params.e
              * build_coupling(x, lattice, profile, rotation_angles).entries)
    return QuadraticForm(omega0_diag=diag, border=border,
                         particle=np.diag(diag[:3]),
                         zero_point_shift=1.5 * params.e * params.nu,
                         params=params, lattice=lattice)


def direct_coupling(params: ModelParams, lattice: Lattice,
                    profile: ChargeProfile, geometry: Geometry) -> float:
    """Strength of the dropped dipole-dipole contact term.

    ``gamma(R) = e**2 * cell_weight * sum_k f(|k|)**2 cos(k . r)`` summed
    over the full cutoff box including the origin cell: the contact term is
    a plain quadrature of its defining continuum integral, not a field
    mode, and dropping the origin cell would leave a spurious
    R-independent offset.  Decays faster than any power of ``R`` for
    rapidly decreasing profiles while ``R`` stays below half the box.
    """
    f = profile.radial(lattice.norms)
    cos = np.cos(lattice.points @ geometry.r)
    origin = float(profile.radial(0.0)) ** 2
    return (params.e ** 2 * lattice.cell_weight
            * (origin + float(np.sum(f * f * cos))))


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
    diag = _free_diag(params, lattice, 6)
    border = np.vstack([
        build_coupling(x, lattice, profile, rotation_angles).entries
        for x in (np.zeros(3), geometry.r)])
    particle = np.diag(diag[:6])
    if include_direct_term:
        g = direct_coupling(params, lattice, profile, geometry)
        particle[0:3, 3:6] = g * np.eye(3)
        particle[3:6, 0:3] = g * np.eye(3)
    return QuadraticForm(omega0_diag=diag,
                         border=coupling_scale * params.e * border,
                         particle=particle,
                         zero_point_shift=3.0 * params.e * params.nu,
                         params=params, lattice=lattice, geometry=geometry,
                         include_direct_term=include_direct_term)


# ---------------------------------------------------------------------------
# the log-det kernel
# ---------------------------------------------------------------------------

def _log_abs_one_minus(x: np.ndarray) -> np.ndarray:
    """``log|1 - x|``, exact to roundoff for small ``|x|`` and finite at 1."""
    near = np.log1p(-np.minimum(x, 0.5))
    far = np.log(np.maximum(np.abs(1.0 - x), np.finfo(float).tiny))
    return np.where(x < 0.5, near, far)


class _Kernel:
    """Per-mode ``p x p`` blocks ``M_n = sum_c b_{n,c} b_{n,c}^T`` of a form.

    Every quantity of the form is a resolvent-weighted sum of these blocks:
    ``B (z + K)^-1 B^T = sum_n M_n / (z + k_n^2)``.
    """

    def __init__(self, form: QuadraticForm):
        p = len(form.particle)
        self.p = p
        self.particle = form.particle
        self.border = form.border
        self.free = form.omega0_diag[:p]
        self.photon = form.omega0_diag[p:]
        b = form.border.reshape(p, -1, 4)
        self.freq2 = self.photon[0::4]
        self.blocks = np.einsum("inc,jnc->nij", b, b).reshape(-1, p * p)
        self.schur0 = self.schur(0.0)

    def resolvent_sum(self, z: np.ndarray, power: int = 1) -> np.ndarray:
        """Stack of ``sum_n M_n / (z + k_n^2)`` over the shifts ``z``, or of
        ``sum_n M_n / (k_n^2 (z + k_n^2))`` for ``power=2``.

        The mode sum runs in chunks, so the working set stays below
        ``_CHUNK_ELEMS`` whatever the number of modes.
        """
        z = np.atleast_1d(z)
        out = np.zeros((len(z), self.p * self.p))
        step = max(1, _CHUNK_ELEMS // len(z))
        for lo in range(0, len(self.freq2), step):
            k2 = self.freq2[None, lo:lo + step]
            res = 1.0 / (z[:, None] + k2)
            if power == 2:
                res /= k2
            out += res @ self.blocks[lo:lo + step]
        return out.reshape(-1, self.p, self.p)

    def schur(self, lam: float) -> np.ndarray:
        """``S(lam) = P - lam - B (K - lam)^-1 B^T``."""
        return (self.particle - lam * np.eye(self.p)
                - self.resolvent_sum(np.array([-lam]))[0])

    def _scale(self, s2: np.ndarray) -> np.ndarray:
        return 1.0 / np.sqrt(s2[:, None] + self.free[None, :])

    def x(self, s: np.ndarray) -> np.ndarray:
        """Symmetric ``X(s)`` with ``det(1 - X) = det(s^2 + Omega) /
        det(s^2 + Omega_0)``, one ``p x p`` matrix per node; exact to
        roundoff relative to ``X`` itself, which keeps the decaying tail."""
        s2 = np.asarray(s, dtype=float) ** 2
        h = self._scale(s2)
        inner = (self.resolvent_sum(s2)
                 - (self.particle - np.diag(self.free))[None, :, :])
        return h[:, :, None] * inner * h[:, None, :]

    def one_minus_x(self, s: np.ndarray) -> np.ndarray:
        """``1 - X(s)`` built as ``S(0) + s^2 (1 + sum_n M_n / (k_n^2
        (s^2 + k_n^2)))``: exact to roundoff relative to its own small
        eigenvalues near a critical (nearly singular) form."""
        s2 = np.asarray(s, dtype=float) ** 2
        h = self._scale(s2)
        inner = self.schur0[None, :, :] + s2[:, None, None] * (
            np.eye(self.p) + self.resolvent_sum(s2, power=2))
        return h[:, :, None] * inner * h[:, None, :]

    def log_det(self, s: np.ndarray) -> np.ndarray:
        """``log|det(1 - X(s))|`` per node.

        ``log1p(-mu)`` of the eigenvalues of ``X`` wherever ``mu < 1/2``;
        nodes with an eigenvalue near or past 1 take the eigenvalues of
        ``1 - X`` from ``one_minus_x`` instead (same eigenvectors, order
        reversed).
        """
        s = np.asarray(s, dtype=float)
        mu = np.linalg.eigvalsh(self.x(s))
        small = mu < 0.5
        out = np.log1p(-np.where(small, mu, 0.0))
        near = ~np.all(small, axis=1)
        if np.any(near):
            ev = np.linalg.eigvalsh(self.one_minus_x(s[near]))[:, ::-1]
            mag = np.maximum(np.abs(ev), np.finfo(float).tiny)
            out[near] = np.where(small[near], out[near], np.log(mag))
        return np.sum(out, axis=1)

    def count_below(self, lam: float) -> int:
        """Eigenvalues of the form below ``lam`` (Haynsworth inertia):
        those of ``K - lam`` plus those of ``S(lam)``; ``lam`` must not be
        a photon frequency."""
        return (int(np.count_nonzero(self.photon < lam))
                + int(np.count_nonzero(np.linalg.eigvalsh(self.schur(lam))
                                       < 0.0)))

    def check_positivity(self) -> Tuple[float, int]:
        """Clamp-or-raise rule: eigenvalues in ``[-CLAMP_REL * norm, 0)``
        are roundoff, anything lower raises.  Returns the bottom eigenvalue
        and the number of negative ones.

        The bottom and top eigenvalues are found by bisection on
        ``count_below`` inside the Gershgorin bracket; the bottom one stays
        below every diagonal entry and the top one above, so ``K - lam`` is
        never singular.
        """
        absb = np.abs(self.border)
        rows = (np.sum(np.abs(self.particle), axis=1)
                - np.abs(np.diag(self.particle)) + np.sum(absb, axis=1))
        diag = np.concatenate([np.diag(self.particle), self.photon])
        radius = np.concatenate([rows, np.sum(absb, axis=0)])
        lo, hi = float(np.min(diag - radius)), float(np.max(diag + radius))
        tol = 4.0 * np.finfo(float).eps * max(abs(lo), abs(hi))

        def bisect(a, b, target):
            # smallest lam in (a, b] with count_below(lam) >= target
            while b - a > tol:
                mid = 0.5 * (a + b)
                if not a < mid < b:
                    break
                if self.count_below(mid) >= target:
                    b = mid
                else:
                    a = mid
            return 0.5 * (a + b)

        n_neg = self.count_below(0.0)
        if n_neg:
            bottom = bisect(lo, min(float(np.min(diag)), 0.0), 1)
        else:
            bottom = bisect(max(lo, 0.0), float(np.min(diag)), 1)
        top = bisect(float(np.max(diag)), hi, len(diag))
        floor = -CLAMP_REL * max(abs(bottom), abs(top))
        if bottom < floor:
            raise NotPositiveSemidefiniteError(
                f"eigenvalue {bottom:.6e} below the roundoff floor "
                f"{floor:.6e}; positivity hypotheses violated")
        return bottom, n_neg


def ground_energy(form: QuadraticForm) -> EnergyResult:
    """Exact ground energy of an assembled form by the log-det kernel.

    The integrand is ``sum_i log|1 - mu_i(X(s))|``.  Eigenvalues of the
    form in ``[-1e-10 * norm, 0)`` are clamped to zero (roundoff): the
    absolute value makes each contribute zero, as ``sqrt(0)`` does in the
    trace formula.  Anything lower raises ``NotPositiveSemidefiniteError``,
    signalling a genuine violation of the positivity hypotheses.
    """
    particle = form.particle
    asym = np.max(np.abs(particle - particle.T))
    scale = max(np.max(np.abs(particle)), np.max(np.abs(form.border)),
                np.max(form.omega0_diag))
    if asym > SYMMETRY_REL * scale:
        raise InvalidParameterError(
            f"form is not symmetric: asymmetry {asym:.3e} vs scale {scale:.3e}")
    kernel = _Kernel(form)
    min_eig, clamped = kernel.check_positivity()
    trace_difference = integrate_half_line(kernel.log_det) / (2.0 * math.pi)
    return EnergyResult(
        energy=trace_difference + form.zero_point_shift,
        min_eigenvalue=min_eig, trace_difference=trace_difference,
        zero_point_shift=form.zero_point_shift,
        n_eigenvalues=form.dim, n_clamped=clamped)


def binding_energy_exact(params: ModelParams, lattice: Lattice,
                         profile: ChargeProfile, R: float,
                         include_direct_term: bool = False) -> float:
    """Exact binding ``2 E - E(R)`` from the mixed part of one log-det.

    The two-dipole ``X(s)`` is ``[[x, y], [y, x]]`` with ``x`` and ``y``
    diagonal in the axis channels of ``TraceSystem.channel_sums``:
    ``x_c = e^2 s1_c / (s^2 + e^2 nu^2)`` within one dipole and ``y_c =
    (e^2 a1_c - gamma) / (s^2 + e^2 nu^2)`` across, with ``gamma`` the
    direct coupling when ``include_direct_term`` is set and zero
    otherwise.  Per channel ``det(1 - X) = (1 - x - y)(1 - x + y)``, so the
    binding is ``-(1/2 pi) Int_0^inf ds sum_c m_c log(1 - sigma_c^2)`` with
    ``sigma_c = y_c / (1 - x_c)``, resolvable at its own magnitude, not at
    the roundoff of the energies.  ``S(0) = e^2 nu^2 (1 - X(0))``, so the
    form has a negative eigenvalue exactly when ``|y_c(0)| > 1 - x_c(0)``
    in some channel; only then is the form assembled for the clamp-or-raise
    rule of ``ground_energy``, and ``log|.|`` gives its clamped
    eigenvalues zero weight.

    Positive values mean attraction.  A warning is issued for
    ``R >= L / 2``: lattice momenta are multiples of ``2 pi / L``, so the
    two-dipole energy is periodic in ``R`` with period ``L`` and large
    separations are not meaningful on a finite box.
    """
    from .traces import TraceSystem  # traces imports this module
    if R >= lattice.box_period / 2.0:
        warnings.warn(
            f"R = {R} is not below half the box period L = "
            f"{lattice.box_period}; the binding energy is periodic in R",
            LatticePeriodicityWarning, stacklevel=2)
    geometry = Geometry(R)
    system = TraceSystem(params, lattice, profile, geometry)
    gamma = (direct_coupling(params, lattice, profile, geometry)
             if include_direct_term else 0.0)
    e2, enu2 = params.e ** 2, (params.e * params.nu) ** 2

    def channels(s):
        s1, a1 = system.channel_sums(s, (1,))[1]
        denom = (s * s + enu2)[:, None]
        return e2 * s1 / denom, (e2 * a1 - gamma) / denom

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
        return -(_log_abs_one_minus(sigma * sigma) @ system.multiplicity)

    return integrate_half_line(integrand) / (2.0 * math.pi)
