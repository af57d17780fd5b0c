"""Closed triple-resolvent integrals, angular reductions, and the continuum
fourth-order terms that carry the retarded van der Waals asymptotics.

The central objects are the even integrals

    I[na,nb,nc](a;b;c) = (1/pi) Int_R ds s^2 / ((s^2+a)^na (s^2+b)^nb (s^2+c)^nc)

with closed forms rational in ``sqrt(a), sqrt(b), sqrt(c)``, and the angular
factor produced by integrating the transverse-projector contraction over the
two azimuths.  Combining them, the fourth-order binding terms reduce to
two-dimensional radial integrals; the exponential representation
``1/(sqrt(b) + sqrt(c)) = R Int_0^inf dt exp(-t (r1 + r2))`` decouples the
radial variables and turns the main term into nested one-dimensional
quadratures (route A).  A direct two-dimensional panel quadrature over the
radial plane with the closed forms (route B) validates it.  Its integrand
is symmetric in the two radial variables, so route B evaluates only the
upper triangle, streamed one panel row at a time: the working set is one
row of panels against the grid, never the full M x M plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .errors import AccuracyError, InvalidParameterError
from .model import ChargeProfile, ModelParams
from .quadrature import QuadratureSpec, gauss_panel_rule, integrate_half_line

__all__ = [
    "TripleResolventIntegral", "FourthOrderResult", "closed_integral",
    "integral_quadrature_oracle", "angular_factor", "angular_bracket_kernels",
    "fourth_order_main", "fourth_order_error", "ab_identity_check",
    "cp_constant",
]

_KINDS = ("111", "221", "212", "311")

#: angular-factor coefficients over kernel products (J0/J2 per radial leg)
_ANGULAR_COEFF: Dict[Tuple[int, int], float] = {
    (0, 0): 6.0 * math.pi ** 2,
    (0, 2): -2.0 * math.pi ** 2,
    (2, 0): -2.0 * math.pi ** 2,
    (2, 2): 6.0 * math.pi ** 2,
}
_ANGULAR_MATRIX = np.array([[_ANGULAR_COEFF[p, q] for q in (0, 2)]
                            for p in (0, 2)])
#: Gauss nodes per radial panel; one panel spans about pi in r
_PANEL_NODES = 12
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class TripleResolventIntegral:
    """One labelled integral with its square-root sum combinations."""

    kind: str
    a: float
    b: float
    c: float

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidParameterError(f"kind must be one of {_KINDS}")
        if min(self.a, self.b, self.c) <= 0:
            raise InvalidParameterError("arguments must be positive")

    @property
    def A(self) -> float:
        return math.sqrt(self.a) + math.sqrt(self.b)

    @property
    def B(self) -> float:
        return math.sqrt(self.b) + math.sqrt(self.c)

    @property
    def C(self) -> float:
        return math.sqrt(self.c) + math.sqrt(self.a)

    def value(self) -> float:
        return closed_integral(self.kind, self.a, self.b, self.c)


@dataclass(frozen=True)
class FourthOrderResult:
    """Continuum fourth-order term at one separation."""

    R: float
    value: float
    route: str
    estimated_error: float
    retarded_part: float = 0.0
    remainder_part: float = 0.0
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
    if np.any(a <= 0) or np.any(b <= 0) or np.any(c <= 0):
        raise InvalidParameterError("arguments must be positive")
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
    if nu0 <= 0:
        raise InvalidParameterError("nu0 must be positive")
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

    For each kernel label ``p`` in {0, 2} and resolvent power ``m``
    provides, at an array of damping rates ``t``,

        G[p,m](t) = Int_0^inf dr r^3 u(r) e^{-t r} J_p(r) / alpha(r)^m,
        H[p,m](t) =             ... r^4 ...

    with ``u(r) = profile(r/R)^2`` and ``alpha(r) = e nu + r/R``.
    """

    def __init__(self, params: ModelParams, profile: ChargeProfile,
                 R: float):
        self.r, self.w = _radial_grid(profile, R)
        u = profile.radial(self.r / R) ** 2
        alpha = params.e * params.nu + self.r / R
        j0, j2 = angular_bracket_kernels(self.r)
        self._keys = []
        cols = []
        for kind, power in (("G", 3), ("H", 4)):
            for p, j in ((0, j0), (2, j2)):
                for m in (1, 2, 3):
                    self._keys.append((kind, p, m))
                    cols.append(self.w * u * j / alpha ** m * self.r ** power)
        self._cols = np.stack(cols, axis=1)

    def moments(self, t: np.ndarray,
                kinds: str) -> Dict[Tuple[str, int, int], np.ndarray]:
        """Moments ``{(kind, p, m): values at t}`` for each kind in
        ``kinds`` ("G", "H" or "GH"), from one damped matrix product."""
        sel = [i for i, key in enumerate(self._keys) if key[0] in kinds]
        vals = np.exp(-np.outer(t, self.r)) @ self._cols[:, sel]
        return {self._keys[i]: vals[:, j] for j, i in enumerate(sel)}


def _main_term_t_representation(R: float, params: ModelParams,
                                profile: ChargeProfile, rel_tol: float
                                ) -> Tuple[float, float, float, int]:
    """Main fourth-order term by the exponential decoupling route.

    Returns ``(retarded part, remainder part, error estimate, nodes)`` for
    a single letter ordering; the full term is twice the sum of the parts.
    """
    tables = _RadialTables(params, profile, R)
    e, nu = params.e, params.nu
    pref = e ** 3 / (16.0 * nu)

    def integrand_re(t):
        mo = tables.moments(np.atleast_1d(t), "G")
        acc = 0.0
        for (p, q), coef in _ANGULAR_COEFF.items():
            acc = acc + coef * (mo["G", p, 2] * mo["G", q, 1]
                                + mo["G", p, 1] * mo["G", q, 2])
        return acc

    def integrand_ir(t):
        mo = tables.moments(np.atleast_1d(t), "GH")
        acc = 0.0
        for (p, q), coef in _ANGULAR_COEFF.items():
            acc = acc + coef * (2.0 * mo["G", p, 3] * mo["H", q, 1]
                                + mo["G", p, 2] * mo["H", q, 2]
                                + 2.0 * mo["H", p, 1] * mo["G", q, 3]
                                + mo["H", p, 2] * mo["G", q, 2])
        return acc

    spec = QuadratureSpec(rel_tol=rel_tol)
    re_res = integrate_half_line(integrand_re, spec, full_output=True)
    ir_res = integrate_half_line(integrand_ir, spec, full_output=True)
    re_scale, ir_scale = R ** -7 * pref, R ** -8 * pref
    return (re_scale * re_res.value, ir_scale * ir_res.value,
            re_scale * re_res.error_estimate
            + ir_scale * ir_res.error_estimate,
            re_res.nodes_used + ir_res.nodes_used)


def _direct_rows(profile: ChargeProfile, R: float, a0: float, kinds):
    """Upper triangle of the direct radial-plane integrand, by panel row.

    The integrand ``W_ij = f_i^T C f_j * mean_k I[k](a0; b_i; b_j)``, with
    ``f = [J0, J2] * (w r^4 u)``, ``C`` the angular coefficients and
    ``b = (r/R)^2``, is symmetric in ``i, j``: ``C`` is symmetric,
    ``I311`` is symmetric in its last two arguments and the mean of
    ``I221`` and ``I212`` is too.  For each panel row ``m`` this yields
    the rows of panel m against the columns of panels ``>= m``, with the
    columns beyond panel m doubled, so the chunks sum to ``sum_ij W_ij``.
    Only one chunk (``_PANEL_NODES x M``) is alive at a time.
    """
    r, w = _radial_grid(profile, R)
    j0, j2 = angular_bracket_kernels(r)
    f = np.stack([j0, j2], axis=1) * (w * r ** 4
                                      * profile.radial(r / R) ** 2)[:, None]
    fc = f @ _ANGULAR_MATRIX
    bsq = (r / R) ** 2
    n = _PANEL_NODES
    for m in range(len(r) // n):
        rows, cols = slice(m * n, (m + 1) * n), slice(m * n, None)
        core = fc[rows] @ f[cols].T
        core[:, n:] *= 2.0
        tri = sum(closed_integral(k, a0, bsq[rows, None], bsq[None, cols])
                  for k in kinds)
        yield core * (tri / len(kinds))


def _main_term_direct(R: float, params: ModelParams,
                      profile: ChargeProfile) -> Tuple[float, float, int]:
    """Main term by direct 2D panel quadrature with the closed forms.

    Panels are summed shell by shell in the radial plane (shell m holds
    the panel blocks whose larger index is m); an Aitken transform of the
    last three shell partial sums provides the returned value when the
    envelope has not yet decayed at the truncation radius.  Returns
    ``(value, error estimate, nodes)``; the estimate is the roundoff
    bound ``eps sum |W_ij|`` plus the Aitken shift.
    """
    n = _PANEL_NODES
    shells = None
    abs_sum, nodes = 0.0, 0
    for m, chunk in enumerate(_direct_rows(
            profile, R, (params.e * params.nu) ** 2, ("221", "212"))):
        blocks = chunk.reshape(n, -1, n).sum(axis=(0, 2))
        if shells is None:
            shells = np.zeros_like(blocks)
        shells[m:] += blocks
        abs_sum += float(np.abs(chunk).sum())
        nodes += chunk.size
    partial = np.cumsum(shells)
    total = s2 = partial[-1]
    if len(partial) >= 3:
        s0, s1 = partial[-3], partial[-2]
        denom = s2 - 2.0 * s1 + s0
        if denom != 0.0 and abs(s2 - s1) > 1e-15 * abs(s2):
            total = s2 - (s2 - s1) ** 2 / denom
    pref = 2.0 * R ** -10 * (params.e ** 4 / 2.0)
    err = _EPS * abs_sum + abs(total - s2)
    return pref * float(total), pref * float(err), nodes


def _error_term_direct(R: float, params: ModelParams,
                       profile: ChargeProfile) -> Tuple[float, float, int]:
    """Reference crossed word by direct 2D panel quadrature.

    The sum is ill-conditioned (``sum |W_ij| / |sum W_ij|`` reaches 1e10
    at R = 120, xi = 1), so each chunk is reduced to row sums and the M row sums
    are combined exactly with ``math.fsum``.  Returns ``(value, error
    estimate, nodes)``; the estimate is the roundoff bound
    ``eps sum |W_ij|``.
    """
    row_sums = []
    abs_sum, nodes = 0.0, 0
    for chunk in _direct_rows(profile, R, (params.e * params.nu) ** 2,
                              ("311",)):
        row_sums.extend(chunk.sum(axis=1).tolist())
        abs_sum += float(np.abs(chunk).sum())
        nodes += chunk.size
    pref = R ** -10 * (params.e ** 4 / 2.0)
    return pref * math.fsum(row_sums), pref * _EPS * abs_sum, nodes


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
    if R <= 0:
        raise InvalidParameterError("separation R must be positive")
    if route == "t-representation":
        re_part, ir_part, err, nodes = _main_term_t_representation(
            R, params, profile, rel_tol)
        return FourthOrderResult(R=R, value=2.0 * (re_part + ir_part),
                                 route=route, estimated_error=2.0 * err,
                                 retarded_part=2.0 * re_part,
                                 remainder_part=2.0 * ir_part, nodes=nodes)
    if route == "direct-quadrature":
        value, err, nodes = _main_term_direct(R, params, profile)
        return FourthOrderResult(R=R, value=value, route=route,
                                 estimated_error=err, nodes=nodes)
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
    if R <= 0:
        raise InvalidParameterError("separation R must be positive")
    e, nu = params.e, params.nu
    if route == "t-representation":
        tables = _RadialTables(params, profile, R)

        def integrand(t):
            h = tables.moments(np.atleast_1d(t), "H")
            acc = 0.0
            for (p, q), coef in _ANGULAR_COEFF.items():
                acc = acc + coef * (
                    2.0 * h["H", p, 3] * h["H", q, 1]
                    + 2.0 * h["H", p, 1] * h["H", q, 3]
                    + 2.0 * h["H", p, 2] * h["H", q, 2]
                    + (h["H", p, 2] * h["H", q, 1]
                       + h["H", p, 1] * h["H", q, 2]) / (e * nu))
            return acc

        res = integrate_half_line(integrand, QuadratureSpec(rel_tol=rel_tol),
                                  full_output=True)
        scale = R ** -9 * e ** 2 / (16.0 * nu ** 2)
        return FourthOrderResult(R=R, value=scale * res.value, route=route,
                                 estimated_error=scale * res.error_estimate,
                                 nodes=res.nodes_used)
    if route == "direct-quadrature":
        value, err, nodes = _error_term_direct(R, params, profile)
        return FourthOrderResult(R=R, value=value, route=route,
                                 estimated_error=err, nodes=nodes)
    raise InvalidParameterError(f"unknown route {route!r}")
