"""Resolvent trace words and the perturbative energy and binding series.

A word over the alphabet {1, 2} labels a product of the two coupling blocks
inside a resolvent-weighted trace,

    <Q_I> = (1/pi) Int_0^inf ds s^2 tr[(s^2 + W0)^-1 Q_{i1}(s) ... Q_{in}(s)],

with ``Q_i(s)`` the symmetrically resolvent-dressed blocks.  The trace
collapses into products of mode sums of the transverse projectors, and on
the symmetric cutoff box each of those is diagonal in the axes: a
transverse channel (x and y) and a longitudinal one (z).
``TraceSystem.channel_sums`` is the one kernel that evaluates them, so a
word costs ``O(N)`` per quadrature node and a chain is a product of
scalars per channel.  The dense matrix product of the full blocks is the
test suite's oracle for it.

The series never enumerates words.  Per channel, summed over its letters, a
closure is a power of ``[[s, a], [a, s]]`` (``s`` within one dipole, ``a``
across), so ``TraceSystem.order_integrand`` takes all ``2**(n-1) - 2``
mixed even-weight words of one order as a binomial sum in ``s`` and ``a``;
the word-by-word sum is its test oracle.

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
from .oscillator import _CHUNK_ELEMS
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


class TraceSystem:
    """Evaluation context bundling parameters, lattice, profile and geometry.

    Every trace is built from the resolvent-weighted mode sums
    ``sum_k w_k P_k [cos(k . r)] (s^2 + |k|^2)^-m`` of the transverse
    projectors ``P_k = 1 - u_k u_k^T``, with ``w_k = cell_weight |k|^2
    f(|k|)^2``.  The cutoff box is symmetric under ``k_i -> -k_i`` and
    ``k_x <-> k_y`` and ``r`` lies along z, so each such sum is
    ``diag(T, T, L)``: a transverse channel of multiplicity two and a
    longitudinal one.  ``channel_sums`` evaluates the ``T`` and ``L``
    entries, and a trace closes as ``sum_c m_c (...)`` over the channels.
    ``geometry=None`` restricts the system to the single-dipole words (all
    letters equal to 1).
    """

    #: channel multiplicities: transverse (x and y), longitudinal (z)
    multiplicity = (2.0, 1.0)

    def __init__(self, params: ModelParams, lattice: Lattice,
                 profile: ChargeProfile, geometry: Optional[Geometry] = None):
        self.params = params
        self.lattice = lattice
        self.profile = profile
        self.geometry = geometry
        self._ksq = lattice.norms ** 2
        f = profile.radial(lattice.norms)
        wk = lattice.cell_weight * self._ksq * f * f
        uz2 = lattice.units[:, 2] ** 2
        columns = [0.5 * wk * (1.0 + uz2), wk * (1.0 - uz2)]
        if geometry is not None:
            cosr = np.cos(lattice.points @ geometry.r)
            columns += [columns[0] * cosr, columns[1] * cosr]
        self._columns = np.stack(columns, axis=1)
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

    # -- channel sums ---------------------------------------------------------

    def channel_sums(self, s: np.ndarray, powers: Sequence[int] = (1, 2)
                     ) -> Dict[int, Tuple[np.ndarray, Optional[np.ndarray]]]:
        """Channel entries of the mode sums at resolvent powers ``powers``.

        Returns ``{m: (within, across)}`` for each ``m`` in ``powers`` (a
        subset of {1, 2}), each of shape ``(nodes, 2)`` with the transverse
        and longitudinal entries of ``sum_k w_k P_k (s^2 + |k|^2)^-m``
        (``within``, one dipole) and of the same sum times ``cos(k . r)``
        (``across``, ``None`` without geometry).  The mode sum runs in
        chunks, so no table holds more than ``_CHUNK_ELEMS`` floats
        whatever the number of modes.
        """
        s2 = np.atleast_1d(np.asarray(s, dtype=float)) ** 2
        sums = {m: np.zeros((len(s2), self._columns.shape[1]))
                for m in powers}
        step = max(1, _CHUNK_ELEMS // len(s2))
        for lo in range(0, len(self._ksq), step):
            res = s2[:, None] + self._ksq[None, lo:lo + step]
            np.reciprocal(res, out=res)
            columns = self._columns[lo:lo + step]
            if 1 in sums:
                sums[1] += res @ columns
            if 2 in sums:
                res *= res
                sums[2] += res @ columns
        two = self.geometry is not None
        return {m: (v[:, :2], v[:, 2:] if two else None)
                for m, v in sums.items()}

    def word_integrand_fast(self, word: Sequence[int],
                            s: np.ndarray) -> np.ndarray:
        """Factorized trace integrand ``s^2 tr[(s^2+W0)^-1 Q_I(s)]``.

        The product of off-diagonal blocks closes either through the photon
        sector (adjacent letters paired from the first position) or through
        a particle sector (paired from the second position with matching
        endpoints); each closure collapses to a chain of channel sums,
        multiplied per channel.
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
        sums = self.channel_sums(s)

        def chain(m, across):
            return sums[m][1 if across else 0]

        total = np.zeros_like(s)
        # closure through the photon sector: pairs (1,2), (3,4), ...
        if all(word[2 * j] == word[2 * j + 1] for j in range(n // 2)):
            prod = chain(2, word[-1] != word[0])
            for j in range(0, n - 2, 2):
                prod = prod * chain(1, word[j + 1] != word[j + 2])
            total += prod @ self.multiplicity
        # closure through a particle sector: pairs (2,3), (4,5), ..., ends match
        if word[0] == word[-1] and all(word[2 * j + 1] == word[2 * j + 2]
                                       for j in range((n - 2) // 2)):
            prod = chain(1, word[0] != word[1])
            for j in range(2, n, 2):
                prod = prod * chain(1, word[j] != word[j + 1])
            total += (prod @ self.multiplicity) / (s * s + enu2)
        pref = self.params.e ** n * (s * s + enu2) ** (-n / 2.0)
        return s * s * pref * total

    def order_integrand(self, order: int, s: np.ndarray) -> np.ndarray:
        """Summed trace integrand of one series order ``2j``.

        With geometry this is the sum of ``word_integrand_fast`` over every
        mixed even-weight word of that length (the binding terms); without
        it, the integrand of the all-ones word (the one-dipole term).

        Per channel, the letters of a paired word pick ``s_m`` (within) or
        ``a_m`` (across) at resolvent power ``m``, so summed over its words
        a closure is a power of ``[[s1, a1], [a1, s1]]``, whose eigenvalues
        are ``s1 +- a1``.  The photon closure ``tr(M2 M1^(j-1))`` has the
        mixed part ``2 sum_{k>=1} C(j-1, k) s1^(j-1-k) a1^k`` times ``s2``
        (even ``k``) or ``a2`` (odd ``k``), the particle closure
        ``tr(M1^j)`` the mixed part ``2 sum_{even k>=2} C(j, k) s1^(j-k)
        a1^k``.  Neither subtracts the constant words, which may exceed the
        mixed part by a hundred orders of magnitude.  Without geometry the
        closures are ``s2 s1^(j-1)`` and ``s1^j``.
        """
        if order < 2 or order % 2:
            raise InvalidParameterError("order must be a positive even integer")
        s = np.asarray(s, dtype=float)
        sums = self.channel_sums(s)
        (s1, a1), (s2, a2) = sums[1], sums[2]
        j = order // 2
        if self.geometry is None:
            photon, particle = s2 * s1 ** (j - 1), s1 ** j
        else:
            zero = np.zeros_like(s1)
            photon = 2.0 * sum(
                (math.comb(j - 1, k) * s1 ** (j - 1 - k) * a1 ** k
                 * (a2 if k % 2 else s2) for k in range(1, j)), zero)
            particle = 2.0 * sum(
                (math.comb(j, k) * s1 ** (j - k) * a1 ** k
                 for k in range(2, j + 1, 2)), zero)
        enu2 = (self.params.e * self.params.nu) ** 2
        closed = photon + particle / (s * s + enu2)[:, None]
        pref = self.params.e ** order * (s * s + enu2) ** (-order / 2.0)
        return s * s * pref * (closed @ self.multiplicity)


def trace_word(word, system: TraceSystem,
               quad: Optional[QuadratureSpec] = None) -> float:
    """Evaluate ``<Q_I>`` for one index word.

    Odd-weight words are returned as exact zero without quadrature (their
    integrand vanishes identically).
    """
    letters = word.letters if isinstance(word, IndexWord) else tuple(word)
    IndexWord(letters)  # validates
    if sum(letters) % 2 or len(letters) % 2:
        return 0.0
    spec = quad or QuadratureSpec()
    scale = system.word_scale(letters, spec)
    spec_abs = QuadratureSpec(rel_tol=spec.rel_tol,
                              abs_tol=max(spec.abs_tol, 1e-13 * scale),
                              max_nodes=spec.max_nodes, even=spec.even)
    val = integrate_half_line(
        lambda s: system.word_integrand_fast(letters, s), spec=spec_abs)
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
    mixed word of that length (odd weights pruned analytically), taken as
    one per-channel binomial sum by ``TraceSystem.order_integrand``; the
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
