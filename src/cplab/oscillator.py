"""Assembly of the coupled quadratic forms and exact ground-state energies.

A dipole at position ``x`` couples linearly to the lattice field through a
dense ``3 x 4N`` block.  The full quadratic form is a ``p x p`` particle
block ``P`` (``p = 3`` or ``6``), the diagonal photon block ``K`` and the
``p x 4N`` border ``B`` between them.  ``P`` is ``d I`` or ``[[d I, g I],
[g I, d I]]``; a ``QuadraticForm`` stores the scalars ``d``, ``g`` and
``e^2 nu^2`` and the channel columns of ``B`` as a ``model.ModeTable``, one
row per orbit of equal ``(|k|, |k_z|)``, and is itself the channel kernel
that every route integrates.  No per-mode array is built here: the border
and the dense matrix are the test suite's oracles.

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
``binding_energy(form)`` is the mixed part of the same kernel's log-det on
the one assembled two-dipole form, never a difference of two energies, and
each order of the perturbation series (``traces``, on the same forms) is a
Taylor coefficient of it in the coupling.  The bottom eigenvalue is the
least channel root of the Schur complement ``S(lam) = P - lam - B (K -
lam)^-1 B^T``, by a secular Newton.
"""

from __future__ import annotations

import functools
import math
import operator
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import (AccuracyError, InvalidParameterError,
                     NotPositiveSemidefiniteError)
from .model import (ChargeProfile, Geometry, Lattice, ModelParams, ModeTable,
                    _coupling_table, lattice_table)
from .quadrature import integrate_half_line

__all__ = [
    "QuadraticForm", "EnergyResult", "LatticePeriodicityWarning",
    "assemble_one_electron", "assemble_two_electron", "ground_energy",
    "binding_energy", "binding_energy_exact",
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


def assemble_one_electron(params: ModelParams, lattice: Lattice,
                          profile: ChargeProfile) -> QuadraticForm:
    """One-dipole form of dimension ``3 + 4N``, the dipole at the origin:
    ``d = e^2 nu^2``, ``g = 0``."""
    enu2 = (params.e * params.nu) ** 2
    return QuadraticForm(
        _coupling_table(params, lattice_table(lattice, profile)), enu2, 0.0,
        enu2, 1.5 * params.e * params.nu, lattice.count)


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
        table, enu2, g, enu2, 3.0 * params.e * params.nu, lattice.count)


# ---------------------------------------------------------------------------
# the quadratic form: its channel log-det kernel
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


@dataclass(frozen=True)
class QuadraticForm:
    """Symmetric form ``[[P, B], [B^T, K]]`` held by its orbit data, and its
    channel kernel.

    The particle block ``P`` is ``d I`` for one dipole and ``[[d I, g I],
    [g I, d I]]`` for two, the table holding two columns per dipole;
    ``enu2`` is the free particle frequency ``e^2 nu^2``.  The photon block
    ``K`` is ``|k|^2`` of each of the ``modes`` modes, shared by its four
    channels.  ``table`` is ``lattice_table`` times ``e^2``: per orbit, the
    sums of ``T = (M_xx + M_yy) / 2`` and ``L = M_zz`` of ``M_n = sum_c
    b_{n,c} b_{n,c}^T`` (``b`` the columns of ``B``) over its modes, the
    same for any shift of the dipoles or rotation of the polarizations.  No
    field grows with the number of modes.

    With the box symmetry ``lattice_table`` checks (separation along z),
    ``X(s)`` and ``S(lam)`` are diagonal in the ``q`` channels of the
    table: ``O(orbits)`` per node, no ``p x p`` matrix.  The energy, the
    binding and every series order read the same rows of ``X(s)``.
    """

    table: ModeTable
    d: float
    g: float
    enu2: float
    zero_point_shift: float
    modes: int

    def __post_init__(self):
        # the per-node channel constants, set once as plain attributes: a
        # cached_property writes through the instance __dict__, after which
        # every attribute read of the per-node methods is slower
        q = self.table.columns.shape[1]
        d, g = self.d, self.g
        for name, value in (
                ("q", q),
                # m_c of each channel, ModeTable.multiplicity per pair
                ("multiplicity", np.array(ModeTable.multiplicity * (q // 2))),
                ("_schur_base", np.array([[d, d, g, g], [0.0] * 4])[:, :q]),
                # the channels of P - e^2 nu^2
                ("shift", np.array([d - self.enu2, d - self.enu2, g, g][:q]))):
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return 3 * self.q // 2 + 4 * self.modes

    @functools.cached_property
    def schur0(self) -> np.ndarray:
        """``S(0)``, the first row of ``schur(0.0)`` without its slopes."""
        return _split(self._schur_base[:1]
                      - self.table.sums(np.zeros(1))[0])[0]

    @functools.cached_property
    def stacked(self) -> ModeTable:
        """The rows with the columns over ``k_n^2`` appended."""
        cols, ksq = self.table.columns, self.table.ksq
        return ModeTable(ksq, np.hstack([cols, cols / ksq[:, None]]))

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
        ksq = self.table.ksq
        return (min(self.d - abs(self.g), float(np.min(ksq))) - norm,
                max(self.d + abs(self.g), float(np.max(ksq))) + norm)

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
        p = float(np.min(self.table.ksq))
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
    min_eig, clamped = form.check_positivity()
    quad = integrate_half_line(form.log_det, full_output=True)
    trace_difference = quad.value / (2.0 * math.pi)
    return EnergyResult(
        energy=trace_difference + form.zero_point_shift,
        min_eigenvalue=min_eig, trace_difference=trace_difference,
        zero_point_shift=form.zero_point_shift,
        n_eigenvalues=form.dim, n_clamped=clamped,
        error_estimate=quad.error_estimate / (2.0 * math.pi),
        nodes=quad.nodes_used)


def binding_energy(form: QuadraticForm) -> float:
    """Exact binding ``2 E - E(R)`` of an assembled two-dipole form, from
    the mixed part of its one log-det.

    ``QuadraticForm.binding`` is integrated: ``-(1/2 pi) Int_0^inf ds
    sum_c m_c log(1 - sigma_c^2)``, on the same table, ``S(0)`` and
    positivity rule as ``ground_energy``.  Only a negative channel of
    ``S(0)`` makes the form indefinite; only then does the clamp-or-raise
    rule of ``ground_energy`` run.  Positive values mean attraction.  A
    one-dipole form raises ``InvalidParameterError``.
    """
    if form.q != 4:
        raise InvalidParameterError("binding_energy needs a two-dipole form")
    if np.any(form.schur0 < 0.0):
        form.check_positivity()
    return integrate_half_line(form.binding) / (2.0 * math.pi)


def binding_energy_exact(params: ModelParams, lattice: Lattice,
                         profile: ChargeProfile, R: float,
                         include_direct_term: bool = False) -> float:
    """``binding_energy`` of the two-dipole form at separation ``R``,
    assembled once (``g`` the contact term, or zero).

    An invalid ``R`` raises before anything else.  ``R >= L / 2`` warns:
    lattice momenta are multiples of ``2 pi / L``, so the energy is
    periodic in ``R``.
    """
    geometry = Geometry(R)
    warn_if_periodic(R, lattice)
    return binding_energy(assemble_two_electron(
        params, lattice, profile, geometry, include_direct_term))
