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
keeps the s-integral, taken in ``t = sR/2``: on the same radial grid the
continuum is one more ``model.ModeTable``, reduced like the lattice's
orbits, and each term is an order-4 closure of its channel sums.
``closed_integral`` serves the CLI's self-test of the closed forms.

Both routes read one radial grid.  Its panels have width ``h = pi / 2^q``
and start at ``r = 0``, with ``q >= 0`` the least integer that puts at
least 8 panels below the envelope cutoff, and they run to the first edge
at or past the cutoff; so the grid of every R is a prefix of one grid per
``(q, _PANEL_NODES)``.  Its R-independent columns (nodes, weights, the
kernels times ``w r^3`` and ``w r^4``, the across pair) are built once
per process in one shared basis per key, which grows to the largest
cutoff seen (one array set per key, 64 bytes per node: under 0.2 MB at
``R / xi = 120``) and never rewrites an array it has handed out.  A
node's entries are elementwise functions of its panel and offset alone,
so no value depends on which R were evaluated before; per R, the tables
only multiply these columns by the profile and the resolvent factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from .errors import AccuracyError, InvalidParameterError
from .model import (ChargeProfile, Geometry, ModelParams, ModeTable,
                    chunk_rows)
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
#: Gauss nodes per radial panel; a panel spans ``pi / 2^q`` in r, pi
#: (about half the kernels' period ``2 pi``) from a cutoff of 8 pi on
_PANEL_NODES = 12
#: damping exponent past which ``exp(-t r)`` (below 3e-261) is taken as 0
_EXP_CUTOFF = 600.0


@dataclass(frozen=True)
class FourthOrderResult:
    """Continuum fourth-order term at one separation."""

    R: float
    value: float
    route: str
    estimated_error: float
    #: route A's split of the main term; ``None`` where no split is made
    #: (the crossed term, and every "direct-quadrature" result)
    retarded_part: Optional[float] = None
    remainder_part: Optional[float] = None
    #: integrand nodes: t-nodes of route A (the main term counts the nodes
    #: its two parts share once), ``t = sR/2`` nodes of "direct-quadrature"
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
    below 4e-20), evaluated by Horner's rule.  The closed forms run over
    every entry, with ``r < 1`` replaced by 1 (one ``sin`` and one ``cos``
    of the whole array, no gather), and the series then overwrites the
    entries below 1.
    """
    r = np.asarray(r, dtype=float)
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    if np.any(r < 0):
        raise InvalidParameterError("radial argument must be nonnegative")
    small = r < 1.0
    rb = np.where(small, 1.0, r)
    sin = np.sin(rb)
    j0 = 2.0 * sin / rb
    j2 = 2.0 * ((rb ** 2 - 2.0) * sin + 2.0 * rb * np.cos(rb)) / rb ** 3
    x = r[small] ** 2
    series = np.zeros((len(x), 2))
    for coef in _BRACKET_SERIES[::-1]:
        series *= x[:, None]
        series += coef
    j0[small], j2[small] = series.T
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


class _RadialBasis(NamedTuple):
    """The R-independent columns of one radial grid, panel width ``h``.

    Nodes ``r`` and weights ``w``; ``wjr[i, p] = w J_p r^(3 + i)`` (``i`` =
    0, 1, ``J_p`` the two ``angular_bracket_kernels``), the columns of the
    G and H moments; ``across = w r^4 [(J0 + J2) / 4, (J0 - J2) / 2]``,
    the across pair of ``_across_table``.  The arrays are read-only.
    """

    h: float
    r: np.ndarray
    w: np.ndarray
    wjr: np.ndarray
    across: np.ndarray


#: one shared basis per ``(q, _PANEL_NODES)``, as long as the largest
#: cutoff seen; see ``_radial_basis``
_BASES: Dict[Tuple[int, int], _RadialBasis] = {}


def _basis_panels(h: float, lo: int, hi: int) -> _RadialBasis:
    """The basis of panels ``lo .. hi - 1``, from elementwise operations
    on their edges ``m h`` only."""
    r, w = gauss_panel_rule(np.arange(lo, hi + 1) * h, order=_PANEL_NODES)
    wj = w * np.stack(angular_bracket_kernels(r))
    wjr = np.stack([wj * r ** 3, wj * r ** 4])
    across = np.stack([(wjr[1, 0] + wjr[1, 1]) / 4.0,
                       (wjr[1, 0] - wjr[1, 1]) / 2.0])
    return _RadialBasis(h, r, w, wjr, across)


def _radial_basis(profile: ChargeProfile, R: float) -> _RadialBasis:
    """The shared basis of the grid that resolves R, cut to its panels.

    The panels have width ``h = pi / 2^q``, ``q >= 0`` the least integer
    that puts 8 of them below the envelope cutoff, and run from 0 to the
    first edge at or past it.  The stored basis grows by the panels a call
    lacks, appended to new arrays; an array once handed out is never
    written, and threads that race can build a panel twice but never
    change its values.
    """
    rmax = _envelope_cutoff(profile, R)
    q, h = 0, math.pi
    while 8.0 * h > rmax:
        q, h = q + 1, h / 2.0
    panels = math.ceil(rmax / h)
    key = (q, _PANEL_NODES)
    basis = _BASES.get(key)
    built = 0 if basis is None else len(basis.r) // _PANEL_NODES
    if built < panels:
        new = _basis_panels(h, built, panels)
        if basis is not None:
            new = _RadialBasis(h, *(np.concatenate([a, b], axis=-1)
                                    for a, b in zip(basis[1:], new[1:])))
        for a in new[1:]:
            a.setflags(write=False)
        _BASES[key] = basis = new
    n = panels * _PANEL_NODES
    return _RadialBasis(h, basis.r[:n], basis.w[:n], basis.wjr[..., :n],
                        basis.across[:, :n])


class _RadialTables:
    """Exponentially damped radial moments against the angular kernels.

    ``labels`` name the moments a term reads, ``"G1"`` to ``"H3"``; only
    those are built and contracted (the main term reads G1, G2, G3, H1 and
    H2, the crossed term H1, H2 and H3).  ``moments(t)`` returns them
    stacked in label order, indexed ``[label, node, p]`` for kernel label
    ``p`` in {0, 2}, at an array of damping rates ``t``:

        G<m>[p](t) = Int_0^inf dr r^3 u(r) e^{-t r} J_p(r) / alpha(r)^m,
        H<m>[p](t) =             ... r^4 ...

    with ``u(r) = profile(r/R)^2`` and ``alpha(r) = e nu + r/R``.  The
    panels are uniform and start at 0, so each node is ``r = e_m + x_k``, a
    panel edge plus one of the twelve in-panel offsets, and ``e^{-t r} =
    e^{-t e_m} e^{-t x_k}``.  The contraction runs panel first: one product
    of the ``(rates, panels)`` edge exponentials with the ``(panels, 12 C)``
    moment columns (``C`` = two per label), then, per rate, the twelve
    offset exponentials against the ``(12, C)`` result.  Exponentials whose
    argument exceeds ``_EXP_CUTOFF`` are exact zeros: a subnormal costs far
    more than a normal ``exp``, and a subnormal product input far more than
    a normal one.  The rates are taken in slices so that no temporary
    exceeds the reducer's chunk size.

    Per R only ``u / alpha^m`` (m = 1, 2, 3) is evaluated; each label's
    two columns are the shared basis's ``w J_p r^3`` or ``w J_p r^4``
    times one of them, node-long products written straight into the
    ``(node, column)`` array that is already the ``(panel, offset x
    column)`` layout.
    """

    def __init__(self, params: ModelParams, profile: ChargeProfile,
                 R: float, labels: Tuple[str, ...]):
        basis = _radial_basis(profile, R)
        self.r, n = basis.r, _PANEL_NODES
        k = self.r / R
        alpha = params.e * params.nu + k
        # u / alpha^m, m = 0 .. 3
        fac = [profile.radial(k) ** 2]
        for _ in range(3):
            fac.append(fac[-1] / alpha)
        self.offsets = self.r[:n]
        self.edges = np.arange(len(self.r) // n) * basis.h
        cols = np.empty((len(self.r), len(labels), 2))
        for i, label in enumerate(labels):
            np.multiply(basis.wjr["GH".index(label[0])], fac[int(label[1])],
                        out=cols[:, i].T)
        # one row per panel, its entries ordered (offset, column)
        self._cols = cols.reshape(len(self.edges), -1)

    def moments(self, t) -> np.ndarray:
        t = np.atleast_1d(t)
        n, width = _PANEL_NODES, self._cols.shape[1]
        out = np.empty((len(t), width // n))
        step = chunk_rows(max(len(self.edges), width))
        for lo in range(0, len(t), step):
            rate = t[lo:lo + step]
            inner = (_damping(rate, self.edges) @ self._cols).reshape(
                len(rate), n, -1)
            out[lo:lo + step] = np.matmul(
                _damping(rate, self.offsets)[:, None, :], inner)[:, 0]
        return out.reshape(len(t), -1, 2).transpose(1, 0, 2)


def _damping(t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``exp(-t x)`` of every pair, shape ``(len(t), len(x))``; exact zero
    where ``t x`` exceeds ``_EXP_CUTOFF``."""
    arg = t[:, None] * x
    keep = arg <= _EXP_CUTOFF
    # e^-600 is a normal number, so the clamped entries stay normal
    # before the mask zeroes them
    np.minimum(arg, _EXP_CUTOFF, out=arg)
    np.negative(arg, out=arg)
    np.exp(arg, out=arg)
    arg *= keep
    return arg


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
    tables = _RadialTables(params, profile, R, ("G1", "G2", "G3", "H1", "H2"))
    pref = params.e ** 3 / (16.0 * params.nu)

    def integrand(t):
        g1, g2, g3, h1, h2 = tables.moments(t)
        return np.stack([2.0 * _pair(g1, g2),
                         4.0 * _pair(g3, h1) + 2.0 * _pair(g2, h2)], axis=1)

    (re_part, ir_part), (re_err, ir_err), nodes = _half_line(
        integrand, rel_tol, np.array([R ** -7, R ** -8]) * pref)
    return float(re_part), float(ir_part), float(re_err + ir_err), nodes


def _across_table(profile: ChargeProfile, R: float) -> ModeTable:
    """The continuum's ``ModeTable``: the across pair ``[T, L]`` alone.

    As ``cell_weight sum_k -> Int d^3k``, the lattice's across columns
    ``w_k [(1 + u_z^2) / 2, 1 - u_z^2] cos(k R u_z)`` average over the
    directions of ``k`` to ``w_k [(J0 + J2) / 4, (J0 - J2) / 2]`` at ``r =
    k R``; on the radial grid ``k = r/R``, ``w_k = 4 pi (w/R) k^4 f(k)^2
    = (4 pi f(k)^2 / R^5) w r^4``, so the pair is the shared basis's
    ``across`` times ``4 pi f(k)^2 / R^5``.
    """
    basis = _radial_basis(profile, R)
    k = basis.r / R
    scale = (4.0 * math.pi / R ** 5) * profile.radial(k) ** 2
    return ModeTable(k * k, (basis.across * scale).T)


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
    those of the quadrature over ``t = sR/2``, i.e. ``2/(pi R) Int dt`` of
    the integrand at ``s = 2t/R``.  The across sums decay like ``e^{-sR}``,
    so the closure's mass sits at ``s ~ 1/R``: in ``s`` it falls inside
    the first initial panel of the half-line map, and every larger R costs
    more bisection rounds to find it; in ``t`` it sits near ``t = 1/2`` at
    every R, where the initial panels resolve it.  (Of ``t = s R c``, ``c =
    1/2`` spent the fewest nodes; ``c = 1``, 2 and 4 spent more.)  The term
    approaches ``cp_constant(nu0) * R**-7`` at large separation.
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

    def integrand(t):
        s2 = (2.0 / R * t) ** 2
        a1, a2 = table.sums(s2, (1, 2))
        pref = s2 * params.e ** 4 / (s2 + enu2) ** 2
        return pref * ((2.0 * a1 * a2) @ table.multiplicity)

    value, err, nodes = _half_line(integrand, rel_tol, 2.0 / (math.pi * R))
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
    sum_c m_c a1_c^2 ds``, over the table of ``_across_table``, in ``t =
    sR/2`` as ``fourth_order_main`` does and for the same reason.
    """
    Geometry(R)  # validates
    e, nu = params.e, params.nu
    if route == "t-representation":
        tables = _RadialTables(params, profile, R, ("H1", "H2", "H3"))

        def integrand(t):
            h1, h2, h3 = tables.moments(t)
            return (4.0 * _pair(h1, h3) + 2.0 * _pair(h2, h2)
                    + 2.0 * _pair(h1, h2) / (e * nu))

        value, err, nodes = _half_line(integrand, rel_tol,
                                       R ** -9 * e ** 2 / (16.0 * nu ** 2))
    elif route == "direct-quadrature":
        table = _across_table(profile, R)
        enu2 = (e * nu) ** 2

        def integrand(t):
            s2 = (2.0 / R * t) ** 2
            a1 = table.sums(s2)[0]
            pref = s2 * e ** 4 / (s2 + enu2) ** 3
            return pref * ((a1 * a1) @ table.multiplicity)

        value, err, nodes = _half_line(integrand, rel_tol,
                                       2.0 / (math.pi * R))
    else:
        raise InvalidParameterError(f"unknown route {route!r}")
    return FourthOrderResult(R=R, value=value, route=route,
                             estimated_error=err, nodes=nodes)
