"""Resolvent trace words and the perturbative energy and binding series.

A word over the alphabet {1, 2} labels a product of the two coupling blocks
inside a resolvent-weighted trace,

    <Q_I> = (1/pi) Int_0^inf ds s^2 tr[(s^2 + W0)^-1 Q_{i1}(s) ... Q_{in}(s)],

with ``Q_i(s)`` the symmetrically resolvent-dressed blocks.  The trace
collapses into products of mode sums of the transverse projectors, and on
the symmetric cutoff box each of those is diagonal in the axes: a
transverse channel (x and y) and a longitudinal one (z).
``TraceSystem.channel_sums`` evaluates them by reducing the lattice's
``model.ModeTable``, one row per ``(|k|, |k_z|)`` orbit, so a word costs
``O(orbits)`` per quadrature node and a chain is a product of scalars per
channel.  The envelope ``D(s)`` behind every tail bound is the one-dipole
order-2 closure of the same sums.  The dense matrix product of the full
blocks is the test suite's oracle for it.

The series never enumerates words.  Per channel, summed over its letters, a
closure is a power of ``[[s, a], [a, s]]`` (``s`` within one dipole, ``a``
across), so ``TraceSystem.order_integrands`` takes all ``2**(n-1) - 2``
mixed even-weight words of one order as a binomial sum in ``s`` and ``a``;
the word-by-word sum is its test oracle.  Every order of a series is one
column of a single adaptive pass over shared nodes, each resolved at its
own magnitude.

Sign conventions: the one-dipole energy is ``1.5 e nu`` minus the sum of the
all-ones words, and the binding ``2 E - E(R)`` is plus the sum of the mixed
even-weight words.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (ClassificationError, InvalidParameterError,
                     SeriesDivergenceError, TailBoundUnavailableError)
from .model import (ChargeProfile, ConstraintReport, Geometry, Lattice,
                    ModelParams, check_constraints, lattice_table)
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
    ``(s^2+|k|^2)^{-m/2} |k| f(|k|)``.  It is the one-dipole order-2
    closure of ``TraceSystem.channel_sums``: ``tr P_k = 2`` gives ``2 n_m =
    2 T_m + L_m`` from the channel entries within one dipole, so the
    second-order trace integrand equals it exactly; higher orders fall
    below it geometrically.  Its integral is the closed form
    ``TraceSystem.d_integral``, which the quadrature of this function
    checks in the tests.
    """
    out = TraceSystem(params, lattice, profile).order_integrand(
        2, np.atleast_1d(np.asarray(s, dtype=float)))
    return out if np.ndim(s) else float(out[0])


class TraceSystem:
    """Evaluation context bundling parameters, lattice, profile and geometry.

    Every trace closes as ``sum_c m_c (...)`` over the channels of the
    resolvent-weighted mode sums ``sum_k w_k P_k [cos(k . r)] (s^2 +
    |k|^2)^-m``, which ``channel_sums`` reduces from ``table``, the
    lattice's ``model.ModeTable``.  ``geometry=None`` restricts the system
    to the single-dipole words (all letters 1).
    """

    def __init__(self, params: ModelParams, lattice: Lattice,
                 profile: ChargeProfile, geometry: Optional[Geometry] = None):
        self.params = params
        self.lattice = lattice
        self.profile = profile
        self.geometry = geometry
        self.table = lattice_table(lattice, profile, geometry and geometry.R)
        self._report: Optional[ConstraintReport] = None
        self._d_integral: Optional[float] = None

    # -- shared constants ---------------------------------------------------

    @property
    def report(self) -> ConstraintReport:
        if self._report is None:
            self._report = check_constraints(self.params, self.profile,
                                             self.lattice)
        return self._report

    def d_integral(self) -> float:
        """Half-line envelope integral ``(1/pi) Int_0^inf D(s) ds``, exact.

        With ``alpha = e nu``, ``(1/pi) Int_0^inf s^2 / ((s^2 + alpha^2)^2
        (s^2 + k^2)) ds = 1 / (4 alpha (alpha + k)^2)``, and its ``alpha
        <-> k`` twin sums with it to ``1 / (4 alpha k (alpha + k))``, so

            (1/pi) Int D = (e / 2 nu) sum_k w_k / (|k| (e nu + |k|)),

        ``w_k = cell_weight |k|^2 f(|k|)^2``, summed over the orbits with
        their multiplicities by ``math.fsum``.
        ``D`` closes the within-dipole sums only, so the value does not
        depend on the geometry.  The quadrature of ``d_envelope`` is its
        test oracle.
        """
        if self._d_integral is None:
            orbits = self.lattice.orbits
            k = orbits.norms
            f = self.profile.radial(k)
            alpha = self.params.e * self.params.nu
            terms = (self.lattice.cell_weight * orbits.count * k * f * f
                     / (alpha + k))
            self._d_integral = (self.params.e / (2.0 * self.params.nu)
                                * math.fsum(terms))
        return self._d_integral

    def word_scale(self, word: Sequence[int]) -> float:
        """A-priori magnitude scale ``a**(#I/2 - 1) * (1/pi) Int D`` for a
        word, used to normalize vanishing checks."""
        return self.report.a ** (len(word) // 2 - 1) * self.d_integral()

    # -- channel sums ---------------------------------------------------------

    def channel_sums(self, s: np.ndarray
                     ) -> Dict[int, Tuple[np.ndarray, Optional[np.ndarray]]]:
        """Channel entries of the mode sums at resolvent powers 1 and 2.

        Returns ``{m: (within, across)}`` for ``m`` in (1, 2), the ``[T,
        L]`` pairs of one ``table.sums`` at ``z = s^2``, each of shape
        ``(nodes, 2)`` (``across`` is ``None`` without geometry).
        ``d_envelope`` is the order-2 closure of ``within``.
        """
        s2 = np.atleast_1d(np.asarray(s, dtype=float)) ** 2
        sums = self.table.sums(s2, (1, 2))
        two = self.geometry is not None
        return {m: (v[:, :2], v[:, 2:] if two else None)
                for m, v in zip((1, 2), sums)}

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
            total += prod @ self.table.multiplicity
        # closure through a particle sector: pairs (2,3), (4,5), ..., ends match
        if word[0] == word[-1] and all(word[2 * j + 1] == word[2 * j + 2]
                                       for j in range((n - 2) // 2)):
            prod = chain(1, word[0] != word[1])
            for j in range(2, n, 2):
                prod = prod * chain(1, word[j] != word[j + 1])
            total += (prod @ self.table.multiplicity) / (s * s + enu2)
        pref = self.params.e ** n * (s * s + enu2) ** (-n / 2.0)
        return s * s * pref * total

    def order_integrands(self, orders: Sequence[int],
                         s: np.ndarray) -> np.ndarray:
        """Summed trace integrands of the series orders ``orders`` (each a
        positive even ``2j``), one column each, from one ``channel_sums``.

        With geometry a column is the sum of ``word_integrand_fast`` over
        every mixed even-weight word of that length (the binding terms);
        without it, the integrand of the all-ones word (the one-dipole
        term).

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
        if any(order < 2 or order % 2 for order in orders):
            raise InvalidParameterError("order must be a positive even integer")
        s = np.asarray(s, dtype=float)
        sums = self.channel_sums(s)
        (s1, a1), (s2, a2) = sums[1], sums[2]
        enu2 = (self.params.e * self.params.nu) ** 2
        columns = []
        for order in orders:
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
            closed = photon + particle / (s * s + enu2)[:, None]
            pref = self.params.e ** order * (s * s + enu2) ** (-order / 2.0)
            columns.append(s * s * pref * (closed @ self.table.multiplicity))
        return np.stack(columns, axis=1)

    def order_integrand(self, order: int, s: np.ndarray) -> np.ndarray:
        """Summed trace integrand of one series order ``2j``: the one
        column of ``order_integrands((order,), s)``."""
        return self.order_integrands((order,), s)[:, 0]


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
    scale = system.word_scale(letters)
    floor = max(spec.abs_floors(1)[0], 1e-13 * scale)
    val = integrate_half_line(
        lambda s: system.word_integrand_fast(letters, s),
        spec=replace(spec, abs_tol=floor))
    return val / math.pi


def _order_terms(system: TraceSystem, max_order: int, spec: QuadratureSpec
                 ) -> Tuple[List[int], List[float], List[float], List[int]]:
    """Orders ``2 .. max_order`` with ``(1/pi) Int order_integrand``, its
    quadrature error estimate and its integrand nodes.

    Every order with words is one column of a single ``order_integrands``
    pass, so all of them share one set of nodes, and each column converges
    to its own absolute floor: ``1e-13`` of the a-priori scale ``a**(j-1)
    count (1/pi) Int D`` of the ``count`` words order ``2j`` sums.  An order
    without words is zero without quadrature, with no nodes.
    """
    orders = list(range(2, max_order + 1, 2))
    # the all-ones word, or the 2**(n-1) even-weight words less the two
    # constant ones (none at order 2)
    counts = {order: 1 if system.geometry is None else 2 ** (order - 1) - 2
              for order in orders}
    live = [order for order in orders if counts[order]]
    dead = len(orders) - len(live)
    terms, errors, nodes = [0.0] * dead, [0.0] * dead, [0] * dead
    if live:
        floors = np.maximum(spec.abs_floors(len(live)), [
            1e-13 * (system.word_scale((1,) * order) * counts[order])
            for order in live])
        res = integrate_half_line(
            lambda s: system.order_integrands(live, s),
            spec=replace(spec, abs_tol=tuple(floors)), full_output=True)
        terms += (res.value / math.pi).tolist()
        errors += (res.error_estimate / math.pi).tolist()
        nodes += [res.nodes_used] * len(live)
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
    tail = system.d_integral() * a ** jmax / (1.0 - a)
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
        tail = system.d_integral() * 4.0 * (4.0 * a) ** jmax / (1.0 - 4.0 * a)
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
