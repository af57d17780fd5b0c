"""Closed triple-resolvent integrals, angular reductions, and the continuum
fourth-order terms that carry the retarded van der Waals asymptotics.

The central objects are the even integrals

    I[na,nb,nc](a;b;c) = (1/pi) Int_R ds s^2 / ((s^2+a)^na (s^2+b)^nb (s^2+c)^nc)

with closed forms rational in ``sqrt(a), sqrt(b), sqrt(c)``, and the angular
factor produced by integrating the transverse-projector contraction over the
two azimuths.  Combining them, the fourth-order binding terms reduce to
two-dimensional radial integrals whose angular part is the contraction
``sum_pq C_pq u_p v_q`` with one symmetric coefficient table ``C``.  The
exponential representation ``1/(sqrt(b) + sqrt(c)) = R Int_0^inf dt
exp(-t (r1 + r2))`` decouples the radial variables and turns each term
into one-dimensional quadratures over one table of damped radial moments
(route A); its panels are uniform, so ``exp(-t r)`` factors into a
panel-edge and an in-panel-offset exponential.  Route "direct-quadrature"
keeps the s-integral: on the same radial grid the continuum is one more
``model.ModeTable``, reduced like the lattice's orbits, and each term is an
order-4 closure of its channel sums.
``closed_integral`` serves the CLI's self-test of the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import AccuracyError, InvalidParameterError
from .model import ChargeProfile, Geometry, ModelParams, ModeTable
from .quadrature import QuadratureSpec, gauss_panel_rule, integrate_half_line

__all__ = [
    "FourthOrderResult", "closed_integral",
    "integral_quadrature_oracle", "angular_factor", "angular_bracket_kernels",
    "fourth_order_main", "fourth_order_error", "ab_identity_check",
    "cp_constant",
]

_KINDS = ("111", "221", "212", "311")

#: symmetric angular-factor coefficients ``C_pq`` over the kernel products
#: ``J_p J_q`` (p, q in {0, 2}): ``angular_factor(x1, x2) = [1, x1^2] C
#: [1, x2^2]``
_ANGULAR_MATRIX = 2.0 * math.pi ** 2 * np.array([[3.0, -1.0], [-1.0, 3.0]])
#: series coefficients of ``angular_bracket_kernels``: rows n, columns p
_BRACKET_SERIES = np.array([[2.0 * (-1) ** n / (math.factorial(2 * n)
                                                * (2 * n + p + 1))
                             for p in (0, 2)] for n in range(10)])
#: Gauss nodes per radial panel; one panel spans about pi in r
_PANEL_NODES = 12


@dataclass(frozen=True)
class FourthOrderResult:
    """Continuum fourth-order term at one separation."""

    R: float
    value: float
    route: str
    estimated_error: float
    retarded_part: float = 0.0
    remainder_part: float = 0.0
    #: integrand nodes: t-nodes of route A (the main term counts the nodes
    #: its two parts share once), s-nodes of "direct-quadrature"
    nodes: int = 0


def closed_integral(kind, a, b, c):
    """Closed form of ``I[kind](a; b; c)``; broadcasts over array arguments.

    With ``A = ra+rb, B = rb+rc, C = rc+ra`` (r denoting square roots):

    - 111: ``1 / (A B C)``
    - 221: ``I111 / (4 ra rb) * (2/A^2 + 1/(A C) + 1/(A B) + 1/(B C))``
    - 212: ``I111 / (4 ra rc) * (2/C^2 + 1/(A C) + 1/(B C) + 1/(A B))``
    - 311: ``I111 / (8 a) * (2/A^2 + 2/C^2 + 2/(A C) + 1/(ra A) + 1/(ra C))``
    """
    kind = str(kind)
    if kind not in _KINDS:
        raise InvalidParameterError(f"kind must be one of {_KINDS}")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    if not all(np.all((x > 0) & np.isfinite(x)) for x in (a, b, c)):
        raise InvalidParameterError("arguments must be positive and finite")
    ra, rb, rc = np.sqrt(a), np.sqrt(b), np.sqrt(c)
    A, B, C = ra + rb, rb + rc, rc + ra
    base = 1.0 / (A * B * C)
    if kind == "111":
        out = base
    elif kind == "221":
        out = base / (4 * ra * rb) * (2 / A ** 2 + 1 / (A * C)
                                      + 1 / (A * B) + 1 / (B * C))
    elif kind == "212":
        out = base / (4 * ra * rc) * (2 / C ** 2 + 1 / (A * C)
                                      + 1 / (B * C) + 1 / (A * B))
    else:
        out = base / (8 * a) * (2 / A ** 2 + 2 / C ** 2 + 2 / (A * C)
                                + 1 / (ra * A) + 1 / (ra * C))
    return out if out.ndim else float(out)


def integral_quadrature_oracle(n_a: int, n_b: int, n_c: int, a: float,
                               b: float, c: float,
                               rel_tol: float = 1e-10) -> float:
    """Brute-force evaluation of the defining integral, used as oracle."""
    if min(n_a, n_b, n_c) < 1:
        raise InvalidParameterError("exponents must be >= 1")
    if n_a + n_b + n_c < 2:
        raise InvalidParameterError("total exponent < 2: not integrable")
    if min(a, b, c) <= 0:
        raise InvalidParameterError("arguments must be positive")

    def f(s):
        s2 = s * s
        return s2 / ((s2 + a) ** n_a * (s2 + b) ** n_b * (s2 + c) ** n_c)

    val = integrate_half_line(f, QuadratureSpec(rel_tol=rel_tol))
    return 2.0 * val / math.pi


def angular_factor(x1: float, x2: float) -> float:
    """Double azimuthal integral of ``1 + (transverse overlap)^2``.

    Closed form ``6 pi^2 - 2 pi^2 (x1^2 + x2^2) + 6 pi^2 x1^2 x2^2`` on the
    cosine variables ``x1, x2`` of the two polar angles.
    """
    if abs(x1) > 1 or abs(x2) > 1:
        raise InvalidParameterError("cosine arguments must lie in [-1, 1]")
    return (6.0 * math.pi ** 2 - 2.0 * math.pi ** 2 * (x1 ** 2 + x2 ** 2)
            + 6.0 * math.pi ** 2 * x1 ** 2 * x2 ** 2)


def angular_bracket_kernels(r):
    """The two analytic cosine moments ``Int_-1^1 X^p exp(i r X) dX``.

    Returns ``(Int dX e^{irX}, Int dX X^2 e^{irX})``, i.e.
    ``2 sin(r) / r`` and ``2 ((r^2 - 2) sin r + 2 r cos r) / r^3``.  Below
    ``r = 1``, where the closed form of ``J2`` loses digits to
    cancellation, both come from their Taylor series ``J_p = 2 sum_n (-1)^n
    r^(2n) / ((2n)! (2n + p + 1))`` through ``n = 9`` (first omitted term
    below 4e-20), evaluated by Horner's rule.
    """
    r = np.asarray(r, dtype=float)
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    if np.any(r < 0):
        raise InvalidParameterError("radial argument must be nonnegative")
    j0 = np.empty_like(r)
    j2 = np.empty_like(r)
    small = r < 1.0
    rb = r[~small]
    j0[~small] = 2.0 * np.sin(rb) / rb
    j2[~small] = 2.0 * ((rb ** 2 - 2.0) * np.sin(rb)
                        + 2.0 * rb * np.cos(rb)) / rb ** 3
    j0[small], j2[small] = np.polynomial.polynomial.polyval(r[small] ** 2,
                                                            _BRACKET_SERIES)
    if scalar:
        return float(j0[0]), float(j2[0])
    return j0, j2


def cp_constant(nu0: float) -> float:
    """Limit of ``R^7`` times the fourth-order main term: ``23/(256 pi^3 nu0^4)``."""
    if not (nu0 > 0 and math.isfinite(nu0)):
        raise InvalidParameterError("nu0 must be positive and finite")
    return 23.0 / (256.0 * math.pi ** 3 * nu0 ** 4)


def ab_identity_check(rel_tol: float = 1e-8) -> float:
    """Quadrature of ``Int_0^inf (3/2 A^2 - A B + 3/2 B^2) dt`` for the
    rational kernels ``A = (12 t^2 - 4)/(1+t^2)^3, B = 4(t^2-3)/(1+t^2)^3``.

    The exact value is ``23 pi`` (component integrals ``3 pi/2, 4 pi,
    33 pi/2``); multiplied by ``(2 pi)^2`` it reproduces the ``92 pi^3``
    quoted where the kernels absorb one ``2 pi`` each.
    """

    def f(t):
        den = (1.0 + t * t) ** 3
        a = (12.0 * t * t - 4.0) / den
        b = 4.0 * (t * t - 3.0) / den
        return 1.5 * a * a - a * b + 1.5 * b * b

    return integrate_half_line(f, QuadratureSpec(rel_tol=rel_tol))


# ---------------------------------------------------------------------------
# radial machinery shared by the fourth-order terms
# ---------------------------------------------------------------------------

def _envelope_cutoff(profile: ChargeProfile, R: float) -> float:
    """Radial truncation where the squared profile drops below 1e-18."""
    if profile.xi is not None:
        return 4.7 * R / profile.xi
    f0 = abs(float(profile.radial(0.0))) + 1e-300
    r = max(R, 1.0)
    for _ in range(60):
        if abs(float(profile.radial(r / R))) < 1e-9 * f0:
            return r
        r *= 1.5
    raise AccuracyError("profile envelope does not decay within the scan "
                        "range", r, math.inf)


def _radial_grid(profile: ChargeProfile, R: float):
    """Composite Gauss grid resolving the unit-period radial oscillation."""
    rmax = _envelope_cutoff(profile, R)
    n_pan = max(8, int(math.ceil(rmax / math.pi)))
    edges = np.linspace(0.0, rmax, n_pan + 1)
    return gauss_panel_rule(edges, order=_PANEL_NODES)


class _RadialTables:
    """Exponentially damped radial moments against the angular kernels.

    ``moments(t)`` returns ``(G, H)``, each indexed ``[m - 1, node, p]``
    for resolvent power ``m`` in {1, 2, 3} and kernel label ``p`` in
    {0, 2}, at an array of damping rates ``t``:

        G[m, p](t) = Int_0^inf dr r^3 u(r) e^{-t r} J_p(r) / alpha(r)^m,
        H[m, p](t) =             ... r^4 ...

    with ``u(r) = profile(r/R)^2`` and ``alpha(r) = e nu + r/R``.  Both
    come from one damped product against the twelve moment columns.  The
    panels are uniform and start at 0, so each node is ``r = e_m + x_k``,
    a panel edge plus one of the twelve in-panel offsets, and ``e^{-t r} =
    e^{-t e_m} e^{-t x_k}``: per rate, ``n_pan + 12`` exponentials and the
    contraction ``sum_m P[t, m] sum_k Q[t, k] cols[m, k, :]``.
    """

    def __init__(self, params: ModelParams, profile: ChargeProfile,
                 R: float):
        self.r, w = _radial_grid(profile, R)
        wu = (w * profile.radial(self.r / R) ** 2)[:, None]
        alpha = (params.e * params.nu + self.r / R)[:, None]
        j = np.stack(angular_bracket_kernels(self.r), axis=1)
        n = _PANEL_NODES
        self.offsets = self.r[:n]
        self.edges = self.r[::n] - self.offsets[0]
        # columns ordered (G or H, m, p); rows ordered (offset, panel)
        cols = np.concatenate(
            [wu * j / alpha ** m * self.r[:, None] ** power
             for power in (3, 4) for m in (1, 2, 3)], axis=1)
        self._cols = cols.reshape(len(self.edges), n, -1).transpose(
            1, 0, 2).reshape(n, -1)

    def moments(self, t) -> Tuple[np.ndarray, np.ndarray]:
        t = np.atleast_1d(t)
        inner = (np.exp(-np.outer(t, self.offsets)) @ self._cols).reshape(
            len(t), len(self.edges), -1)
        vals = np.matmul(np.exp(-np.outer(t, self.edges))[:, None, :],
                         inner)[:, 0]
        g, h = vals.reshape(len(t), 2, 3, 2).transpose(1, 2, 0, 3)
        return g, h


def _pair(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per-node angular contraction ``sum_pq C_pq u_p v_q`` (symmetric)."""
    return np.sum((u @ _ANGULAR_MATRIX) * v, axis=-1)


def _half_line(integrand, rel_tol: float, scale):
    """``scale`` times the half-line integral: ``(value, error, nodes)``;
    a ``(nodes, K)`` integrand with a length-K ``scale`` gives length-K
    values and errors."""
    res = integrate_half_line(integrand, QuadratureSpec(rel_tol=rel_tol),
                              full_output=True)
    return scale * res.value, scale * res.error_estimate, res.nodes_used


def _main_term_t_representation(R: float, params: ModelParams,
                                profile: ChargeProfile, rel_tol: float
                                ) -> Tuple[float, float, float, int]:
    """Main fourth-order term by the exponential decoupling route.

    Returns ``(retarded part, remainder part, error estimate, nodes)`` for
    a single letter ordering; the full term is twice the sum of the parts.
    Both parts are columns of one integrand, so each node takes one
    ``moments`` product and ``nodes`` counts the shared nodes once; each
    part converges to ``rel_tol`` of its own magnitude.
    """
    tables = _RadialTables(params, profile, R)
    pref = params.e ** 3 / (16.0 * params.nu)

    def integrand(t):
        g, h = tables.moments(t)
        return np.stack([2.0 * _pair(g[0], g[1]),
                         4.0 * _pair(g[2], h[0]) + 2.0 * _pair(g[1], h[1])],
                        axis=1)

    (re_part, ir_part), (re_err, ir_err), nodes = _half_line(
        integrand, rel_tol, np.array([R ** -7, R ** -8]) * pref)
    return float(re_part), float(ir_part), float(re_err + ir_err), nodes


def _across_table(profile: ChargeProfile, R: float) -> ModeTable:
    """The continuum's ``ModeTable``: the across pair ``[T, L]`` alone.

    As ``cell_weight sum_k -> Int d^3k``, the lattice's across columns
    ``w_k [(1 + u_z^2) / 2, 1 - u_z^2] cos(k R u_z)`` average over the
    directions of ``k`` to ``w_k [(J0 + J2) / 4, (J0 - J2) / 2]`` at ``r =
    k R``; on the radial grid ``k = r/R``, ``w_k = 4 pi (w/R) k^4 f(k)^2``.
    """
    r, w = _radial_grid(profile, R)
    k = r / R
    wk = 4.0 * math.pi * (w / R) * k ** 4 * profile.radial(k) ** 2
    j0, j2 = angular_bracket_kernels(r)
    return ModeTable(k * k, np.stack(
        [wk * (j0 + j2) / 4.0, wk * (j0 - j2) / 2.0], axis=1))


def fourth_order_main(R: float, params: ModelParams, profile: ChargeProfile,
                      route: str = "t-representation",
                      rel_tol: float = 1e-8) -> FourthOrderResult:
    """Continuum fourth-order main term (both orderings) at separation R.

    Route "t-representation" (default) decouples the radial variables with
    an exponential integral and performs nested one-dimensional
    quadratures.  Route "direct-quadrature" integrates the order-4 photon
    closure ``(1/pi) Int s^2 e^4 / (s^2 + e^2 nu^2)^2 sum_c m_c 2 a1_c a2_c
    ds`` of the channel sums ``a_m`` (resolvent power ``m``, multiplicities
    ``m_c``) of the mode table ``_across_table``; its estimate and nodes are
    the s-quadrature's.  The term approaches ``cp_constant(nu0) * R**-7`` at
    large separation.
    """
    Geometry(R)  # validates
    if route == "t-representation":
        re_part, ir_part, err, nodes = _main_term_t_representation(
            R, params, profile, rel_tol)
        return FourthOrderResult(R=R, value=2.0 * (re_part + ir_part),
                                 route=route, estimated_error=2.0 * err,
                                 retarded_part=2.0 * re_part,
                                 remainder_part=2.0 * ir_part, nodes=nodes)
    if route != "direct-quadrature":
        raise InvalidParameterError(f"unknown route {route!r}")
    table = _across_table(profile, R)
    enu2 = (params.e * params.nu) ** 2

    def integrand(s):
        s2 = s * s
        a1, a2 = table.sums(s2, (1, 2))
        pref = s2 * params.e ** 4 / (s2 + enu2) ** 2
        return pref * ((2.0 * a1 * a2) @ table.multiplicity)

    value, err, nodes = _half_line(integrand, rel_tol, 1.0 / math.pi)
    return FourthOrderResult(R=R, value=value, route=route,
                             estimated_error=err, nodes=nodes)


def fourth_order_error(R: float, params: ModelParams,
                       profile: ChargeProfile,
                       route: str = "t-representation",
                       rel_tol: float = 1e-8) -> FourthOrderResult:
    """Continuum value of the reference crossed word (single ordering).

    Decays like ``R**-9`` with a prefactor scaling as ``1/(e^2 nu^6)``;
    multiply by two for the full crossed contribution (the alternating
    words vanish identically).  Route "direct-quadrature" integrates half
    the order-4 particle closure, ``(1/pi) Int s^2 e^4 / (s^2 + e^2 nu^2)^3
    sum_c m_c a1_c^2 ds``, over the table of ``_across_table``.
    """
    Geometry(R)  # validates
    e, nu = params.e, params.nu
    if route == "t-representation":
        tables = _RadialTables(params, profile, R)

        def integrand(t):
            _, h = tables.moments(t)
            return (4.0 * _pair(h[0], h[2]) + 2.0 * _pair(h[1], h[1])
                    + 2.0 * _pair(h[0], h[1]) / (e * nu))

        value, err, nodes = _half_line(integrand, rel_tol,
                                       R ** -9 * e ** 2 / (16.0 * nu ** 2))
    elif route == "direct-quadrature":
        table = _across_table(profile, R)
        enu2 = (e * nu) ** 2

        def integrand(s):
            s2 = s * s
            a1 = table.sums(s2)[0]
            pref = s2 * e ** 4 / (s2 + enu2) ** 3
            return pref * ((a1 * a1) @ table.multiplicity)

        value, err, nodes = _half_line(integrand, rel_tol, 1.0 / math.pi)
    else:
        raise InvalidParameterError(f"unknown route {route!r}")
    return FourthOrderResult(R=R, value=value, route=route,
                             estimated_error=err, nodes=nodes)
