"""Assembly of the coupled quadratic forms and exact ground-state energies.

A dipole at position ``x`` couples linearly to the lattice field through a
dense ``3 x 4N`` block.  The full quadratic form is a ``p x p`` particle
block ``P`` (``p = 3`` or ``6``), the diagonal photon block ``K`` and the
``p x 4N`` border ``B`` between them.  ``P`` is ``d I`` or ``[[d I, g I],
[g I, d I]]``; a form stores the scalars ``d``, ``g`` and ``e^2 nu^2`` and
the channel columns of ``B`` as a ``model.ModeTable``, one row per orbit of
equal ``(|k|, |k_z|)``.  ``P``, the free diagonal, the border and the dense
matrix are rebuilt on request, for tests and oracles.

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
costs ``O(orbits)`` and no ``p x p`` matrix is formed.  The binding energy
is the mixed part of the same kernel's log-det on the one assembled
two-dipole form, never a difference of two energies, and each order of the
perturbation series (``traces``) is a Taylor coefficient of it in the
coupling.  The bottom eigenvalue is the least channel root of the Schur
complement ``S(lam) = P - lam - B (K - lam)^-1 B^T``, by a secular Newton.
"""

from __future__ import annotations

import functools
import math
import operator
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import (AccuracyError, InvalidParameterError,
                     NotPositiveSemidefiniteError)
from .model import (ChargeProfile, Geometry, Lattice, ModelParams, ModeTable,
                    lattice_table, polarization_basis)
from .quadrature import integrate_half_line

__all__ = [
    "QuadraticForm", "EnergyResult",
    "LatticePeriodicityWarning", "build_coupling", "assemble_one_electron",
    "assemble_two_electron", "ground_energy", "binding_energy_exact",
]

#: clamp window for eigenvalues that are negative by roundoff only
CLAMP_REL = 1e-10
#: Newton steps allowed to the bottom eigenvalue (1-7 on every tested form)
NEWTON_STEPS = 30


class LatticePeriodicityWarning(UserWarning):
    """Separation is commensurate with the box; energies are periodic in R."""


def warn_if_periodic(R: float, lattice: Lattice) -> None:
    """Warn ``LatticePeriodicityWarning`` at the caller's caller if ``R >=
    L / 2``: lattice momenta are multiples of ``2 pi / L``, so a binding
    is periodic in ``R``."""
    if R >= lattice.box_period / 2.0:
        warnings.warn(
            f"R = {R} is not below half the box period L = "
            f"{lattice.box_period}; the binding energy is periodic in R",
            LatticePeriodicityWarning, stacklevel=3)


@dataclass(frozen=True)
class QuadraticForm:
    """Symmetric form ``[[P, B], [B^T, K]]`` held by its orbit data.

    The particle block ``P`` is ``d I`` for one dipole and ``[[d I, g I],
    [g I, d I]]`` for two, the table holding two columns per dipole;
    ``enu2`` is the free particle frequency ``e^2 nu^2``.  The photon block
    ``K`` is ``|k|^2`` of each mode of ``lattice``, shared by its four
    channels.  ``table`` is ``lattice_table`` times ``e^2``:
    per orbit, the sums of ``T = (M_xx + M_yy) / 2`` and ``L = M_zz`` of
    ``M_n = sum_c b_{n,c} b_{n,c}^T`` (``b`` the columns of ``B``) over its
    modes, the same for any shift of the dipoles or rotation of the
    polarizations.  ``_coupling`` builds ``B`` for the oracles.  No field
    grows with the number of modes.
    """

    table: ModeTable
    d: float
    g: float
    enu2: float
    zero_point_shift: float
    lattice: Lattice = field(repr=False)
    _coupling: Callable[[], np.ndarray] = field(repr=False)

    @functools.cached_property
    def kernel(self) -> _Kernel:
        """The form's channel kernel, built once: every route reads it."""
        return _Kernel(self.table, self.d, self.g, self.enu2)

    @property
    def dim(self) -> int:
        return 3 * self.table.columns.shape[1] // 2 + 4 * self.lattice.count

    @property
    def particle(self) -> np.ndarray:
        """The ``p x p`` block ``P``, built read-only on each access, for
        tests and oracles only."""
        dipoles = self.table.columns.shape[1] // 2
        out = np.kron([[self.d, self.g], [self.g, self.d]],
                      np.eye(3))[:3 * dipoles, :3 * dipoles]
        out.setflags(write=False)
        return out

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


def _coupling_table(params: ModelParams, table: ModeTable) -> ModeTable:
    """A ``lattice_table`` times ``e^2``: the channel columns of the border
    ``B``, the table of both assemblers' forms."""
    return ModeTable(table.ksq, params.e ** 2 * table.columns)


def assemble_one_electron(params: ModelParams, lattice: Lattice,
                          profile: ChargeProfile) -> QuadraticForm:
    """One-dipole form of dimension ``3 + 4N``, the dipole at the origin:
    ``d = e^2 nu^2``, ``g = 0``."""
    enu2 = (params.e * params.nu) ** 2
    return QuadraticForm(
        _coupling_table(params, lattice_table(lattice, profile)), enu2, 0.0,
        enu2, 1.5 * params.e * params.nu, lattice,
        lambda: params.e * build_coupling(np.zeros(3), lattice, profile))


def assemble_two_electron(params: ModelParams, lattice: Lattice,
                          profile: ChargeProfile, geometry: Geometry,
                          include_direct_term: bool = False) -> QuadraticForm:
    """Two-dipole form of dimension ``6 + 4N``.

    The first dipole couples at the origin, the second at ``r = (0, 0,
    R)``; ``d = e^2 nu^2``.  The particle-particle scalar ``g`` is zero
    unless ``include_direct_term`` is set, in which case it is the dropped
    contact term ``e^2 cell_weight sum_k f(|k|)^2 cos(k . r)`` over the
    whole box including the origin cell: a plain quadrature of its defining
    continuum integral, not a field mode, so dropping the origin cell would
    leave a spurious R-independent offset.  It decays faster than any power
    of ``R`` for rapidly decreasing profiles while ``R`` stays below half
    the box.  It is the sum of the form's across ``ModeTable.weights``
    over ``|k|^2``, plus the origin cell.
    """
    enu2 = (params.e * params.nu) ** 2
    table = _coupling_table(params, lattice_table(lattice, profile,
                                                  geometry.R))
    g = (params.e ** 2 * lattice.cell_weight * float(profile.radial(0.0)) ** 2
         + float(np.sum(table.weights[:, 1] / table.ksq))
         if include_direct_term else 0.0)
    return QuadraticForm(
        table, enu2, g, enu2, 3.0 * params.e * params.nu, lattice,
        lambda: params.e * np.vstack([
            build_coupling(x, lattice, profile)
            for x in (np.zeros(3), geometry.r)]))


# ---------------------------------------------------------------------------
# the channel log-det kernel
# ---------------------------------------------------------------------------

def _even_order(order, name: str = "max_order") -> int:
    """``order``, a Python or numpy integer, as an ``int`` if positive and
    even; anything else raises ``InvalidParameterError``."""
    try:
        value = operator.index(order)
    except TypeError:  # floats, strings, None
        value = 0
    if value < 2 or value % 2:
        raise InvalidParameterError(f"{name} must be a positive even integer")
    return value


def _log_one_minus(x: np.ndarray, far: Optional[np.ndarray] = None
                   ) -> np.ndarray:
    """``log(1 - x)`` by ``log1p`` below 1/2, exact to roundoff for small
    ``|x|``; elsewhere ``far``, or ``log|1 - x|`` floored at the least
    normal when it is not given."""
    if far is None:
        far = np.log(np.maximum(np.abs(1.0 - x), np.finfo(float).tiny))
    return np.where(x < 0.5, np.log1p(-np.minimum(x, 0.5)), far)


def _split(v: np.ndarray) -> np.ndarray:
    """Channel eigenvalues ``[w - a | w + a]`` of ``[[w, a], [a, w]]``."""
    w, a = v[:, :2], v[:, 2:]
    return v if a.shape[1] == 0 else np.concatenate((w - a, w + a), axis=1)


class _Kernel:
    """A mode ``table`` and the particle block's ``d``, ``g`` and ``enu2``,
    built by ``QuadraticForm.kernel`` alone; ``freq2`` is the rows' ``|k|^2``.
    With the box symmetry ``lattice_table`` checks (separation along z),
    ``X(s)`` and ``S(lam)`` are diagonal in the channels: ``O(orbits)`` per
    node, no ``p x p`` matrix.  The energy, the binding and every series
    order read the same rows of ``X(s)``."""

    def __init__(self, table: ModeTable, d: float, g: float, enu2: float):
        self.table, self.freq2 = table, table.ksq
        self.d, self.g, self.enu2 = d, g, enu2
        self.q = table.columns.shape[1]
        self.multiplicity = np.array(ModeTable.multiplicity * (self.q // 2))
        self._schur_base = np.array([[d, d, g, g], [0.0] * 4])[:, :self.q]
        #: the channels of ``P - e^2 nu^2``
        self.shift = np.array([d - enu2, d - enu2, g, g][:self.q])

    @functools.cached_property
    def schur0(self) -> np.ndarray:
        """``S(0)``, the first row of ``schur(0.0)`` without its slopes."""
        return _split(self._schur_base[:1]
                      - self.table.sums(np.zeros(1))[0])[0]

    @functools.cached_property
    def stacked(self) -> ModeTable:
        """The rows with the columns over ``k_n^2`` appended."""
        cols = self.table.columns
        return ModeTable(self.freq2, np.hstack([cols,
                                                cols / self.freq2[:, None]]))

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
        mu = _split((sums[:, :self.q] - self.shift)
                    / (s2 + self.enu2)[:, None])
        near = self.schur0 + s2[:, None] * (1 + _split(sums[:, self.q:]))
        far = (np.log(np.maximum(np.abs(near), np.finfo(float).tiny))
               - np.log(s2 + self.enu2)[:, None])
        return _log_one_minus(mu, far) @ self.multiplicity

    def binding(self, s: np.ndarray) -> np.ndarray:
        """Minus the mixed part of a two-dipole ``log_det`` per node, ``-sum_c
        m_c log(1 - sigma_c^2)`` with ``sigma_c = (A_c - g) / (s^2 + d -
        W_c)``, ``W`` and ``A`` the within and across channel sums: resolved
        at its own magnitude.  ``s^2 + d - W_c <= 0`` raises: a one-dipole
        block is not positive definite."""
        s2 = np.asarray(s, dtype=float) ** 2
        sums = self.table.sums(s2)[0]
        within = s2[:, None] + self.d - sums[:, :2]
        if np.any(within <= 0.0):
            raise NotPositiveSemidefiniteError(
                "a one-dipole block of the two-dipole form is not positive "
                "definite")
        sigma = (sums[:, 2:] - self.g) / within
        return -(_log_one_minus(sigma * sigma) @ self.multiplicity[:2])

    def order_integrands(self, orders: Sequence[int],
                         s: np.ndarray) -> np.ndarray:
        """Series integrands of ``orders`` (each a positive even ``2j``), one
        column each: the Taylor coefficients in the coupling of ``log_det``
        for one dipole, of ``binding`` for a pair.

        The rows of ``X(s)`` are ``x_c = (W_c - (d - e^2 nu^2)) / (s^2 + e^2
        nu^2)`` within a dipole and ``y_c = (A_c - g) / (s^2 + e^2 nu^2)``
        across, copied once into contiguous ``(channels, nodes)`` rows.  As
        ``-log(1 - x) = sum_j x^j / j``, the one-dipole column of order
        ``2j`` is ``sum_c m_c x_c^j / (2j)``, summing to ``-log_det / 2``.
        The binding column is ``sum_c m_c E_j / j``, summing to ``binding /
        2``: ``E_j`` is the part of ``(x + y)^j`` with an even number ``k >=
        2`` of factors ``y``.  With the odd part ``B_m``, ``E_1 = 0`` and
        ``B_1 = y``, it follows from the recurrence

            E_{m+1} = x E_m + y B_m,
            B_{m+1} = x B_m + y (x^m + E_m)

        on running powers of ``x``: one pass yields every column.  Each step
        adds terms of one sign (``x > 0`` where ``d = e^2 nu^2``), never the
        constant words of ``(x + y)^j + (x - y)^j - 2 x^j``, which may exceed
        ``E_j`` by a hundred orders of magnitude.  On an assembled table each
        column integrates to the sum of its order's words.
        """
        orders = [_even_order(order, "order") for order in orders]
        if not orders:
            raise InvalidParameterError("orders must name at least one order")
        s2 = np.asarray(s, dtype=float) ** 2
        rows = np.ascontiguousarray(self.table.sums(s2)[0].T)
        rows -= self.shift[:, None]
        rows /= s2 + self.enu2
        x, y, weights = rows[:2], rows[2:], self.multiplicity[:2]
        # x^(j-1) and the parts E_(j-1), B_(j-1) of (x + y)^(j-1)
        power = np.ones_like(x)
        even, odd = np.zeros_like(x), np.zeros_like(x)
        columns = {}
        for j in range(1, max(orders) // 2 + 1):
            if self.q == 2:
                power = x * power
                columns[2 * j] = (weights @ power) / (2 * j)
            else:
                even, odd = x * even + y * odd, x * odd + y * (power + even)
                power = x * power
                columns[2 * j] = (weights @ even) / j
        return np.stack([columns[order] for order in orders], axis=1)

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
        Nielsen & Sorensen, Numer. Math. 31 (1978) 31).  It stops at a step
        within ``4 eps`` of the bracket's scale, or once two steps predict a
        next one below ``eps`` of it."""
        lo, hi = self.bracket()
        ulp = np.finfo(float).eps * max(abs(lo), abs(hi))
        tol = 4.0 * ulp
        p = float(np.min(self.freq2))
        n_neg = int(self.multiplicity @ (self.schur0 < 0.0))
        bottom, step = (lo if n_neg else max(lo, 0.0)), 0.0
        for _ in range(NEWTON_STEPS):
            x = bottom
            if x >= p:
                break
            s, ds = self.schur(x)
            g, dg = (p - x) * s, (p - x) * ds - s
            down = dg < 0.0
            bottom = min(p, float(np.min(x - g[down] / dg[down], initial=p)))
            # the convergence is quadratic: the next step would be about
            # step^3 / last^2, so no pass is spent only to see it vanish
            last, step = step, bottom - x
            if step <= tol or step ** 3 <= ulp * last ** 2:
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

    Assembling a form on a lattice that breaks the box symmetry raises
    ``InvalidParameterError``.  Eigenvalues in
    ``[-1e-10 * norm, 0)`` are roundoff, clamped to zero (``log|.|`` gives
    them zero weight); a lower one raises ``NotPositiveSemidefiniteError``.
    """
    min_eig, clamped = form.kernel.check_positivity()
    quad = integrate_half_line(form.kernel.log_det, full_output=True)
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

    The two-dipole form is assembled once (``g`` the contact term, or
    zero) and its ``_Kernel.binding`` integrated: ``-(1/2 pi) Int_0^inf ds
    sum_c m_c log(1 - sigma_c^2)``, on the same table, ``S(0)`` and
    positivity rule as ``ground_energy``.  Only a negative channel of
    ``S(0)`` makes the form indefinite; only then does the clamp-or-raise
    rule of ``ground_energy`` run.

    Positive values mean attraction.  ``R >= L / 2`` warns: lattice momenta
    are multiples of ``2 pi / L``, so the energy is periodic in ``R``.
    """
    warn_if_periodic(R, lattice)
    return _binding(assemble_two_electron(params, lattice, profile,
                                          Geometry(R), include_direct_term))


def _binding(form: QuadraticForm) -> float:
    """``binding_energy_exact`` of an assembled two-dipole form, on the
    clamp-or-raise rule only where a channel of ``S(0)`` is negative."""
    kernel = form.kernel
    if np.any(kernel.schur0 < 0.0):
        kernel.check_positivity()
    return integrate_half_line(kernel.binding) / (2.0 * math.pi)
