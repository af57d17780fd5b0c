"""Resolvent trace words and the perturbative energy and binding series.

A word over the alphabet {1, 2} labels a product of the two coupling blocks
inside a resolvent-weighted trace,

    <Q_I> = (1/pi) Int_0^inf ds s^2 tr[(s^2 + W0)^-1 Q_{i1}(s) ... Q_{in}(s)],

with ``Q_i(s)`` the symmetrically resolvent-dressed blocks.  The normative
evaluation is the dense matrix product; a factorized fast path collapses the
trace into products of 3x3 transverse-projector sums (cost ``O(n N)`` per
quadrature node instead of ``O(n N^3)``) and is verified against the dense
route by the test suite.

The series never enumerates words.  Summed over its letters, a closure of
the 3x3 chain is a power of the 6x6 transfer block ``[[S, A], [A, S]]``
(``S`` within one dipole, ``A`` across), so ``TraceSystem.order_integrand``
takes all ``2**(n-1) - 2`` mixed even-weight words of one order in ``O(j)``
6x6 products per node; the word-by-word sum is its test oracle.

Sign conventions: the one-dipole energy is ``1.5 e nu`` minus the sum of the
all-ones words, and the binding ``2 E - E(R)`` is plus the sum of the mixed
even-weight words.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (ClassificationError, InvalidParameterError,
                     SeriesDivergenceError, TailBoundUnavailableError)
from .model import (ChargeProfile, ConstraintReport, Geometry, Lattice,
                    ModelParams, check_constraints)
from .quadrature import QuadratureSpec, integrate_half_line

__all__ = [
    "IndexWord", "TraceSeries", "TraceSystem", "trace_word",
    "series_one_electron", "series_binding", "d_envelope", "word_bound",
    "mixed_even_words",
]


@dataclass(frozen=True)
class IndexWord:
    """Word over {1, 2} with its weight ``|I|`` and length ``#I``."""

    letters: Tuple[int, ...]

    def __post_init__(self):
        if len(self.letters) == 0:
            raise InvalidParameterError("index word must be nonempty")
        if any(i not in (1, 2) for i in self.letters):
            raise InvalidParameterError("index word letters must be 1 or 2")

    @property
    def weight(self) -> int:
        """Sum of the letters, written |I|."""
        return sum(self.letters)

    @property
    def length(self) -> int:
        """Number of letters, written #I."""
        return len(self.letters)

    @property
    def is_mixed(self) -> bool:
        return len(set(self.letters)) > 1

    def transitions(self) -> int:
        """Number of adjacent unequal pairs (1<->2 switches)."""
        return sum(1 for a, b in zip(self.letters, self.letters[1:])
                   if a != b)

    def classify(self) -> str:
        """Bound class: 'order4', 'case1' (single switch, length >= 6) or
        'case2' (at least two switches, length >= 6)."""
        if self.length == 4:
            return "order4"
        if self.length >= 6 and self.is_mixed:
            return "case1" if self.transitions() == 1 else "case2"
        raise ClassificationError(
            f"word {self.letters} has no bound class "
            "(needs length 4, or mixed length >= 6)")


@dataclass
class TraceSeries:
    """Order-by-order series with its analytic geometric tail bound."""

    orders: List[int]
    contributions: List[float]
    value: float
    tail_bound: float
    converged: bool
    a: float
    zero_point_shift: float = 0.0
    kind: str = "energy"
    #: per order: the quadrature's own error estimate and integrand nodes
    error_estimates: List[float] = field(default_factory=list)
    nodes: List[int] = field(default_factory=list)


def mixed_even_words(order: int) -> List[Tuple[int, ...]]:
    """All mixed words of the given length with even weight, lexicographic.

    Odd-weight words are pruned because their trace vanishes identically;
    the two constant words belong to the isolated-atom energies.
    """
    if order < 2 or order % 2:
        raise InvalidParameterError("order must be a positive even integer")
    out = []
    for bits in range(2 ** order):
        word = tuple(1 + ((bits >> j) & 1) for j in reversed(range(order)))
        if len(set(word)) > 1 and sum(word) % 2 == 0:
            out.append(word)
    return out


def d_envelope(s, params: ModelParams, profile: ChargeProfile,
               lattice: Lattice):
    """Integrable envelope dominating every second-order trace integrand.

    ``D(s) = 2 e^2 s^2 (s^2+e^2 nu^2)^{-1} [ (s^2+e^2 nu^2)^{-1} n1(s)
    + n2(s) ]`` where ``n_m(s)`` is the squared lattice norm of
    ``(s^2+|k|^2)^{-m/2} |k| f(|k|)``.  The second-order trace integrand
    equals it exactly; higher orders fall below it geometrically.
    """
    s = np.asarray(s, dtype=float)
    ksq = lattice.norms ** 2
    wk = lattice.cell_weight * ksq * profile.radial(lattice.norms) ** 2
    s2 = np.atleast_1d(s) ** 2
    n1 = np.sum(wk[None, :] / (s2[:, None] + ksq[None, :]), axis=1)
    n2 = np.sum(wk[None, :] / (s2[:, None] + ksq[None, :]) ** 2, axis=1)
    enu2 = (params.e * params.nu) ** 2
    out = (2.0 * params.e ** 2 * s2 / (s2 + enu2)
           * (n1 / (s2 + enu2) + n2))
    return out if np.ndim(s) else float(out[0])


def _circulant(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Stack of 6x6 blocks ``[[diag, off], [off, diag]]``."""
    return np.block([[diag, off], [off, diag]])


class TraceSystem:
    """Evaluation context bundling parameters, lattice, profile and geometry.

    Precomputes the per-mode weights and transverse projectors consumed by
    the factorized chain evaluation, and lazily builds the dense blocks for
    the normative route.  ``geometry=None`` restricts the system to the
    single-dipole words (all letters equal to 1).
    """

    def __init__(self, params: ModelParams, lattice: Lattice,
                 profile: ChargeProfile, geometry: Optional[Geometry] = None):
        self.params = params
        self.lattice = lattice
        self.profile = profile
        self.geometry = geometry
        self._ksq = lattice.norms ** 2
        f = profile.radial(lattice.norms)
        self._wk = lattice.cell_weight * self._ksq * f * f
        units = lattice.units
        self._proj = (np.eye(3)[None, :, :]
                      - units[:, :, None] * units[:, None, :])
        if geometry is not None:
            self._cosr = np.cos(lattice.points @ geometry.r)
        else:
            self._cosr = None
        self._dense: Dict[int, np.ndarray] = {}
        self._report: Optional[ConstraintReport] = None
        self._d_integral: Optional[float] = None

    # -- shared constants ---------------------------------------------------

    @property
    def report(self) -> ConstraintReport:
        if self._report is None:
            self._report = check_constraints(self.params, self.profile,
                                             self.lattice)
        return self._report

    def d_integral(self, quad: Optional[QuadratureSpec] = None) -> float:
        """Half-line envelope integral ``(1/pi) Int_0^inf D(s) ds``."""
        if self._d_integral is None:
            spec = quad or QuadratureSpec()
            val = integrate_half_line(
                lambda s: d_envelope(s, self.params, self.profile,
                                     self.lattice),
                spec=spec)
            self._d_integral = val / math.pi
        return self._d_integral

    def word_scale(self, word: Sequence[int],
                   quad: Optional[QuadratureSpec] = None) -> float:
        """A-priori magnitude scale ``a**(#I/2 - 1) * (1/pi) Int D`` for a
        word, used to normalize vanishing checks."""
        a = self.report.a
        return a ** (len(word) // 2 - 1) * self.d_integral(quad)

    # -- factorized chain ----------------------------------------------------

    def _resolvents(self, s: np.ndarray) -> Dict[int, np.ndarray]:
        """Mode resolvents ``(s^2+|k|^2)^-m`` for m = 1, 2 at each node."""
        r1 = 1.0 / (s[:, None] ** 2 + self._ksq[None, :])
        return {1: r1, 2: r1 * r1}

    def _chain_matrices(self, res: np.ndarray, across: bool) -> np.ndarray:
        """Stack of 3x3 sums ``sum_k P_k w_k cos(k.delta) res_k`` with
        ``delta`` zero (``across=False``) or the separation vector."""
        wk = self._wk if not across else self._wk * self._cosr
        n = len(wk)
        return ((res * wk) @ self._proj.reshape(n, 9)).reshape(-1, 3, 3)

    def word_integrand_fast(self, word: Sequence[int],
                            s: np.ndarray) -> np.ndarray:
        """Factorized trace integrand ``s^2 tr[(s^2+W0)^-1 Q_I(s)]``.

        The product of off-diagonal blocks closes either through the photon
        sector (adjacent letters paired from the first position) or through
        a particle sector (paired from the second position with matching
        endpoints); each closure collapses to a 3x3 chain.
        """
        word = tuple(word)
        if self.geometry is None and any(i != 1 for i in word):
            raise InvalidParameterError(
                "two-dipole words need a system with geometry")
        s = np.asarray(s, dtype=float)
        n = len(word)
        if n % 2:
            return np.zeros_like(s)
        enu2 = (self.params.e * self.params.nu) ** 2
        res = self._resolvents(s)
        cache: Dict[Tuple[int, bool], np.ndarray] = {}

        def mat(m, across):
            key = (m, across)
            if key not in cache:
                cache[key] = self._chain_matrices(res[m], across)
            return cache[key]

        total = np.zeros_like(s)
        # closure through the photon sector: pairs (1,2), (3,4), ...
        if all(word[2 * j] == word[2 * j + 1] for j in range(n // 2)):
            prod = mat(2, word[-1] != word[0])
            for j in range(0, n - 2, 2):
                prod = prod @ mat(1, word[j + 1] != word[j + 2])
            total += np.trace(prod, axis1=1, axis2=2)
        # closure through a particle sector: pairs (2,3), (4,5), ..., ends match
        if word[0] == word[-1] and all(word[2 * j + 1] == word[2 * j + 2]
                                       for j in range((n - 2) // 2)):
            prod = mat(1, word[0] != word[1])
            for j in range(2, n, 2):
                prod = prod @ mat(1, word[j] != word[j + 1])
            total += np.trace(prod, axis1=1, axis2=2) / (s * s + enu2)
        pref = self.params.e ** n * (s * s + enu2) ** (-n / 2.0)
        return s * s * pref * total

    def order_integrand(self, order: int, s: np.ndarray) -> np.ndarray:
        """Summed trace integrand of one series order ``2j``.

        With geometry this is the sum of ``word_integrand_fast`` over every
        mixed even-weight word of that length (the binding terms); without
        it, the integrand of the all-ones word (the one-dipole term).

        A word whose letters pair up closes through the photon sector into
        ``tr(M2 M1^(j-1))`` and through a particle sector into ``tr(M1^j)``,
        where the transfer blocks ``Mm = [[Sm, Am], [Am, Sm]]`` hold the
        3x3 chain sums at resolvent power ``m`` (``S`` within one dipole,
        ``A`` across).  Summing the letters of a closure is a 6x6 matrix
        power, so an order costs ``O(j 6^3)`` per node instead of one chain
        per word.  The mixed words are the paths through ``M1`` that take at
        least one off-diagonal step: ``D_{k+1} = D_k M1 + U_k A1`` with
        ``U_{k+1} = U_k S1`` (block-diagonal ``S`` and off-diagonal ``A``
        parts of ``M1``), from ``D_0 = 0, U_0 = 1``, and the two closures
        are ``tr(M2 D_{j-1})`` and ``tr(D_{j-1} M1)``.  The recursion never
        subtracts the constant words, which may exceed the mixed part by a
        hundred orders of magnitude.  Without geometry the transfer block is
        ``S`` alone and ``U_{j-1}`` takes the place of ``D_{j-1}``.
        """
        if order < 2 or order % 2:
            raise InvalidParameterError("order must be a positive even integer")
        s = np.asarray(s, dtype=float)
        res = self._resolvents(s)
        t1 = self._chain_matrices(res[1], False)
        t2 = self._chain_matrices(res[2], False)
        if self.geometry is None:
            power = np.broadcast_to(np.eye(3), t1.shape)
            for _ in range(order // 2 - 1):
                power = power @ t1
        else:
            a1 = self._chain_matrices(res[1], True)
            a2 = self._chain_matrices(res[2], True)
            zero = np.zeros_like(t1)
            diag = _circulant(t1, zero)
            off = _circulant(zero, a1)
            t1, t2 = _circulant(t1, a1), _circulant(t2, a2)
            plain = np.broadcast_to(np.eye(6), t1.shape)
            power = np.zeros_like(t1)
            for _ in range(order // 2 - 1):
                power = power @ t1 + plain @ off
                plain = plain @ diag
        enu2 = (self.params.e * self.params.nu) ** 2
        photon = np.einsum("sij,sji->s", t2, power)
        particle = np.einsum("sij,sji->s", power, t1)
        pref = self.params.e ** order * (s * s + enu2) ** (-order / 2.0)
        return s * s * pref * (photon + particle / (s * s + enu2))

    # -- dense route ----------------------------------------------------------

    def _dense_blocks(self):
        if not self._dense:
            from .oscillator import build_coupling
            n = self.lattice.count
            two = self.geometry is not None
            dim = (6 if two else 3) + 4 * n
            diag = np.empty(dim)
            diag[: 6 if two else 3] = (self.params.e * self.params.nu) ** 2
            diag[6 if two else 3:] = np.repeat(self._ksq, 4)
            b0 = self.params.e * build_coupling(
                np.zeros(3), self.lattice, self.profile).entries
            q1 = np.zeros((dim, dim))
            off = 6 if two else 3
            q1[0:3, off:] = b0
            q1[off:, 0:3] = b0.T
            self._dense = {0: diag, 1: q1}
            if two:
                br = self.params.e * build_coupling(
                    self.geometry.r, self.lattice, self.profile).entries
                q2 = np.zeros((dim, dim))
                q2[3:6, 6:] = br
                q2[6:, 3:6] = br.T
                self._dense[2] = q2
        return self._dense

    def word_integrand_dense(self, word: Sequence[int],
                             s: np.ndarray) -> np.ndarray:
        """Normative dense evaluation of the trace integrand."""
        word = tuple(word)
        blocks = self._dense_blocks()
        diag = blocks[0]
        s = np.atleast_1d(np.asarray(s, dtype=float))
        out = np.empty_like(s)
        for i, sv in enumerate(s):
            g = 1.0 / (sv * sv + diag)
            gh = np.sqrt(g)
            dressed = {j: gh[:, None] * blocks[j] * gh[None, :]
                       for j in set(word)}
            prod = dressed[word[0]]
            for j in word[1:]:
                prod = prod @ dressed[j]
            out[i] = sv * sv * float(np.sum(g * np.diagonal(prod)))
        return out


def trace_word(word, system: TraceSystem,
               quad: Optional[QuadratureSpec] = None,
               method: str = "fast") -> float:
    """Evaluate ``<Q_I>`` for one index word.

    Odd-weight words are returned as exact zero without quadrature (their
    integrand vanishes identically).  ``method`` selects the factorized
    chain ("fast") or the dense matrix product ("dense").
    """
    letters = word.letters if isinstance(word, IndexWord) else tuple(word)
    IndexWord(letters)  # validates
    if sum(letters) % 2 or len(letters) % 2:
        return 0.0
    spec = quad or QuadratureSpec()
    integrand = (system.word_integrand_fast if method == "fast"
                 else system.word_integrand_dense)
    if method not in ("fast", "dense"):
        raise InvalidParameterError(f"unknown method {method!r}")
    scale = system.word_scale(letters, spec)
    spec_abs = QuadratureSpec(rel_tol=spec.rel_tol,
                              abs_tol=max(spec.abs_tol, 1e-13 * scale),
                              max_nodes=spec.max_nodes, even=spec.even)
    val = integrate_half_line(lambda s: integrand(letters, s), spec=spec_abs)
    return val / math.pi


def _order_terms(system: TraceSystem, max_order: int, spec: QuadratureSpec
                 ) -> Tuple[List[int], List[float], List[float], List[int]]:
    """Orders ``2 .. max_order`` with ``(1/pi) Int order_integrand``, its
    quadrature error estimate and its integrand nodes.

    The absolute quadrature floor is ``1e-13`` of the a-priori scale of the
    words an order sums, and an order without words is zero without
    quadrature.
    """
    orders = list(range(2, max_order + 1, 2))
    terms, errors, nodes = [], [], []
    for order in orders:
        # the all-ones word, or the 2**(n-1) even-weight words less the two
        # constant ones
        count = 1 if system.geometry is None else 2 ** (order - 1) - 2
        if not count:
            terms.append(0.0)
            errors.append(0.0)
            nodes.append(0)
            continue
        scale = system.word_scale((1,) * order, spec) * count
        spec_abs = QuadratureSpec(rel_tol=spec.rel_tol,
                                  abs_tol=max(spec.abs_tol, 1e-13 * scale),
                                  max_nodes=spec.max_nodes, even=spec.even)
        res = integrate_half_line(
            lambda s, _order=order: system.order_integrand(_order, s),
            spec=spec_abs, full_output=True)
        terms.append(res.value / math.pi)
        errors.append(res.error_estimate / math.pi)
        nodes.append(res.nodes_used)
    return orders, terms, errors, nodes


def series_one_electron(params: ModelParams, lattice: Lattice,
                        profile: ChargeProfile, max_order: int = 8,
                        quad: Optional[QuadratureSpec] = None) -> TraceSeries:
    """Perturbative one-dipole ground energy through ``max_order``.

    Value: ``1.5 e nu - sum_{2j <= max_order} <Q^(2j)>`` with the geometric
    tail bound ``a**jmax / (1 - a) * (1/pi) Int D``.  Requires ``a < 1``.
    """
    if max_order < 2 or max_order % 2:
        raise InvalidParameterError("max_order must be a positive even integer")
    system = TraceSystem(params, lattice, profile)
    a = system.report.a
    if a >= 1.0:
        raise SeriesDivergenceError(
            f"expansion parameter a = {a:.4f} >= 1; series diverges")
    spec = quad or QuadratureSpec()
    orders, terms, errors, nodes = _order_terms(system, max_order, spec)
    jmax = max_order // 2
    tail = system.d_integral(spec) * a ** jmax / (1.0 - a)
    shift = 1.5 * params.e * params.nu
    value = shift - math.fsum(terms)
    return TraceSeries(orders=orders, contributions=terms, value=value,
                       tail_bound=tail, converged=a < 1.0, a=a,
                       zero_point_shift=shift, kind="energy",
                       error_estimates=errors, nodes=nodes)


def series_binding(params: ModelParams, lattice: Lattice,
                   profile: ChargeProfile, R: float, max_order: int = 4,
                   quad: Optional[QuadratureSpec] = None,
                   allow_unbounded_tail: bool = False) -> TraceSeries:
    """Binding energy ``2 E - E(R)`` summed over mixed even-weight words.

    Per order ``2j`` the contribution is the sum of ``<Q_I>`` over every
    mixed word of that length (odd weights pruned analytically), taken in
    one transfer-matrix recursion by ``TraceSystem.order_integrand``; the
    series value carries the attractive sign convention.  The geometric
    tail bound ``(1/pi) Int D * 4 (4a)**jmax / (1 - 4a)`` needs ``a < 1/4``;
    with ``allow_unbounded_tail`` the value is still computed and the bound
    reported as infinity.
    """
    if max_order < 2 or max_order % 2:
        raise InvalidParameterError("max_order must be a positive even integer")
    system = TraceSystem(params, lattice, profile, Geometry(R))
    a = system.report.a
    if a >= 0.25 and not allow_unbounded_tail:
        raise TailBoundUnavailableError(
            f"expansion parameter a = {a:.4f} >= 1/4; no geometric tail "
            "bound (pass allow_unbounded_tail=True to evaluate anyway)")
    spec = quad or QuadratureSpec()
    orders, terms, errors, nodes = _order_terms(system, max_order, spec)
    jmax = max_order // 2
    if a < 0.25:
        tail = system.d_integral(spec) * 4.0 * (4.0 * a) ** jmax / (1.0 - 4.0 * a)
    else:
        tail = math.inf
    return TraceSeries(orders=orders, contributions=terms,
                       value=math.fsum(terms), tail_bound=tail,
                       converged=a < 0.25, a=a, kind="binding",
                       error_estimates=errors, nodes=nodes)


def word_bound(word, report: ConstraintReport) -> float:
    """A-priori bound multiplier for a classified word.

    Case 2 words are bounded by ``c_L**(#I - 4)`` times the reference
    fourth-order word; case 1 words carry the geometric factor
    ``(norm**2 / (3 nu**2))**(#I/2 - 2)`` built from the continuum norm.
    The existence constants multiplying these scaffolds are unknown and
    reported as one; the multipliers certify ratios and decay exponents,
    not absolute magnitudes.
    """
    iw = word if isinstance(word, IndexWord) else IndexWord(tuple(word))
    kind = iw.classify()
    if kind == "order4":
        return 1.0
    if kind == "case2":
        return report.c_L ** (iw.length - 4)
    norm0 = report.continuum_norms[0]
    return (norm0 ** 2 / (3.0 * report.nu ** 2)) ** (iw.length // 2 - 2)
