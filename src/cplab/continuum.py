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
panel-edge and an in-panel-offset exponential.  A direct two-dimensional
panel quadrature over the radial plane with the closed forms (route B)
validates it.  On that grid every closed-form input but the Cauchy kernel
``K = 1/(sqrt(b) + sqrt(c))`` is a row or a column factor, so route B
writes each term as a few positive separable factors times ``K`` or
``K^2``, evaluates ``K`` pointwise (never through the exponential
representation) and reduces blocks of panel rows against per-node tables
by small matrix products; the integrand is symmetric, so only the blocks
on and above the diagonal are evaluated.  ``closed_integral`` stays the
general, broadcasting implementation and the factors' elementwise oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import AccuracyError, InvalidParameterError
from .model import ChargeProfile, ModelParams
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
#: Gauss nodes per radial panel; one panel spans about pi in r
_PANEL_NODES = 12
#: panel rows per Cauchy block of the direct route (``K`` is ``48 x M``
#: doubles): one-panel blocks lose time to call overhead, 16 exceed M^2 bytes
_BLOCK_PANELS = 4
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class FourthOrderResult:
    """Continuum fourth-order term at one separation."""

    R: float
    value: float
    route: str
    estimated_error: float
    retarded_part: float = 0.0
    remainder_part: float = 0.0
    #: integrand nodes; the t-representation main term counts the nodes
    #: its two parts share once
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
    ``2 sin(r) / r`` and ``2 ((r^2 - 2) sin r + 2 r cos r) / r^3``.  A
    sixth-order series replaces both below ``r = 1e-3`` where the closed
    forms cancel catastrophically.
    """
    r = np.asarray(r, dtype=float)
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    if np.any(r < 0):
        raise InvalidParameterError("radial argument must be nonnegative")
    j0 = np.empty_like(r)
    j2 = np.empty_like(r)
    small = r < 1e-3
    rs = r[small]
    rb = r[~small]
    j0[~small] = 2.0 * np.sin(rb) / rb
    j2[~small] = 2.0 * ((rb ** 2 - 2.0) * np.sin(rb)
                        + 2.0 * rb * np.cos(rb)) / rb ** 3
    r2 = rs * rs
    j0[small] = 2.0 * (1.0 - r2 / 6.0 + r2 ** 2 / 120.0 - r2 ** 3 / 5040.0)
    j2[small] = 2.0 * (1.0 / 3.0 - r2 / 10.0 + r2 ** 2 / 168.0
                       - r2 ** 3 / 6480.0)
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


def _t_quadrature(integrand, rel_tol: float, scale):
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

    (re_part, ir_part), (re_err, ir_err), nodes = _t_quadrature(
        integrand, rel_tol, np.array([R ** -7, R ** -8]) * pref)
    return float(re_part), float(ir_part), float(re_err + ir_err), nodes


def _direct_factors(profile: ChargeProfile, R: float, alpha: float, kinds):
    """Separable factors of the direct radial-plane integrand.

    The integrand ``W_ij = f_i^T C f_j * mean_k I[k](alpha^2; b_i; b_j)``,
    with ``f = [J0, J2] * (w r^4 u)``, ``C`` the angular coefficients and
    ``b = rho^2``, ``rho = r/R``, is symmetric in ``i, j``: ``C`` is
    symmetric, ``I311`` is symmetric in its last two arguments and the mean
    of ``I221`` and ``I212`` is too.  With ``A = alpha + rho`` (``A_i`` on
    the rows is the ``A``, ``A_j`` on the columns the ``C`` of
    ``closed_integral``; ``sqrt(b) = rho`` exactly) the only factor that is
    not a row or a column factor is the Cauchy kernel ``K_ij = 1/(rho_i +
    rho_j)``, and

    - ``mean(I221, I212) = K^2 (A_i + rho_j)(p_i + p_j) / (A_i^2 A_j^2)
      + K (q_i + q_j) / (A_i A_j)``, ``p = 1/(4 alpha rho)``, ``q = p/A^2``;
    - ``I311 = K (h_i k_j + g_i + g_j) / (A_i A_j)`` with ``k = 1/A``,
      ``h = k/(4 alpha^2)`` and ``g = (2/A^2 + 1/(alpha A)) / (8 alpha^2)``.

    ``kinds`` is ``("221", "212")`` (main term) or ``("311",)`` (error
    term).  Returns ``(rho, f, terms)``: the kernel is ``sum over (power,
    u, v) in terms of (u @ v.T) * K^power``, every entry of ``u`` and ``v``
    positive, with the powers ascending.
    """
    r, w = _radial_grid(profile, R)
    f = np.stack(angular_bracket_kernels(r), axis=1) * (
        w * r ** 4 * profile.radial(r / R) ** 2)[:, None]
    rho = r / R
    big_a = alpha + rho
    one = np.ones_like(rho)
    if kinds == ("311",):
        g = (2.0 / big_a ** 2 + 1.0 / (alpha * big_a)) / (8.0 * alpha ** 2)
        terms = [(1, [1.0 / (4.0 * alpha ** 2 * big_a), g, one],
                  [1.0 / big_a, one, g])]
    else:
        p = 1.0 / (4.0 * alpha * rho)
        q = p / big_a ** 2
        terms = [(1, [q, one], [one, q]),
                 (2, [big_a * p, big_a, p, one], [one, p, rho, rho * p])]
    return rho, f, [(power, np.stack(u, 1) / big_a[:, None] ** power,
                     np.stack(v, 1) / big_a[:, None] ** power)
                    for power, u, v in terms]


def _direct_term(R: float, params: ModelParams, profile: ChargeProfile,
                 kinds) -> Tuple[float, float, int]:
    """One ordering of a fourth-order term by direct 2D panel quadrature.

    The angular core ``fc_i . f_j`` (``fc = f C``) is folded into the
    separable factors of ``_direct_factors``, giving per-node row tables
    ``U`` and column tables ``Y`` with ``sum_j W_ij = sum_t U_it (K^p
    Y)_it``.  By symmetry only blocks of ``_BLOCK_PANELS`` panel rows
    against the columns from their own block on are evaluated: ``K`` once
    per block (squared in place for the ``K^2`` terms), reduced by ``K[:,
    own] @ Y[own] + 2 K[:, rest] @ Y[rest]``.  The sum is ill-conditioned
    (``sum |W_ij| / |sum W_ij|`` reaches 1e10 at R = 120, xi = 1 for the
    error term), so the M row sums are combined exactly with ``math.fsum``.
    Returns ``(value, error estimate, nodes)``: ``nodes`` counts the
    Cauchy entries evaluated, and the estimate is the roundoff bound ``eps
    sum_t |U_it| (K^p |Y|)_it`` of this order, at least ``eps sum |W_ij|``.
    """
    rho, f, terms = _direct_factors(profile, R, params.e * params.nu, kinds)
    fc = f @ _ANGULAR_MATRIX
    tables = []
    for power, row, col in terms:
        # per node [values | absolute values], angular label major
        u = (fc[:, :, None] * row[:, None, :]).reshape(len(rho), -1)
        y = (f[:, :, None] * col[:, None, :]).reshape(len(rho), -1)
        tables.append((power, u.shape[1], np.hstack([u, np.abs(u)]),
                       np.hstack([y, np.abs(y)])))
    row_sums, abs_sum, nodes = [], 0.0, 0
    block = _BLOCK_PANELS * _PANEL_NODES
    for lo in range(0, len(rho), block):
        kern = np.add.outer(rho[lo:lo + block], rho[lo:])
        np.divide(1.0, kern, out=kern)
        nodes += kern.size
        width = len(kern)
        own, rest = slice(lo, lo + width), slice(lo + width, None)
        rows = np.zeros(width)
        for power, half, u, y in tables:
            if power == 2:
                kern *= kern
            z = kern[:, :width] @ y[own] + 2.0 * (kern[:, width:] @ y[rest])
            z *= u[own]
            rows += z[:, :half].sum(axis=1)
            abs_sum += float(z[:, half:].sum())
        row_sums.extend(rows.tolist())
    pref = R ** -10 * (params.e ** 4 / 2.0)
    return pref * math.fsum(row_sums), pref * _EPS * abs_sum, nodes


def _check_separation(R: float) -> None:
    if not (R > 0 and math.isfinite(R)):
        raise InvalidParameterError("separation R must be positive and "
                                    "finite")


def fourth_order_main(R: float, params: ModelParams, profile: ChargeProfile,
                      route: str = "t-representation",
                      rel_tol: float = 1e-8) -> FourthOrderResult:
    """Continuum fourth-order main term (both orderings) at separation R.

    Route "t-representation" (default) decouples the radial variables with
    an exponential integral and performs nested one-dimensional
    quadratures; route "direct-quadrature" integrates the two-dimensional
    radial reduction against the closed forms and validates the default.
    The term approaches ``cp_constant(nu0) * R**-7`` at large separation.
    """
    _check_separation(R)
    if route == "t-representation":
        re_part, ir_part, err, nodes = _main_term_t_representation(
            R, params, profile, rel_tol)
        return FourthOrderResult(R=R, value=2.0 * (re_part + ir_part),
                                 route=route, estimated_error=2.0 * err,
                                 retarded_part=2.0 * re_part,
                                 remainder_part=2.0 * ir_part, nodes=nodes)
    if route == "direct-quadrature":
        value, err, nodes = _direct_term(R, params, profile, ("221", "212"))
        return FourthOrderResult(R=R, value=2.0 * value, route=route,
                                 estimated_error=2.0 * err, nodes=nodes)
    raise InvalidParameterError(f"unknown route {route!r}")


def fourth_order_error(R: float, params: ModelParams,
                       profile: ChargeProfile,
                       route: str = "t-representation",
                       rel_tol: float = 1e-8) -> FourthOrderResult:
    """Continuum value of the reference crossed word (single ordering).

    Decays like ``R**-9`` with a prefactor scaling as ``1/(e^2 nu^6)``;
    multiply by two for the full crossed contribution (the alternating
    words vanish identically).
    """
    _check_separation(R)
    e, nu = params.e, params.nu
    if route == "t-representation":
        tables = _RadialTables(params, profile, R)

        def integrand(t):
            _, h = tables.moments(t)
            return (4.0 * _pair(h[0], h[2]) + 2.0 * _pair(h[1], h[1])
                    + 2.0 * _pair(h[0], h[1]) / (e * nu))

        value, err, nodes = _t_quadrature(integrand, rel_tol,
                                          R ** -9 * e ** 2 / (16.0 * nu ** 2))
    elif route == "direct-quadrature":
        value, err, nodes = _direct_term(R, params, profile, ("311",))
    else:
        raise InvalidParameterError(f"unknown route {route!r}")
    return FourthOrderResult(R=R, value=value, route=route,
                             estimated_error=err, nodes=nodes)
