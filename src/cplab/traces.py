"""Resolvent trace words and the perturbative energy and binding series.

A word over the alphabet {1, 2} labels a product of the two coupling blocks
inside a resolvent-weighted trace,

    <Q_I> = (1/pi) Int_0^inf ds s^2 tr[(s^2 + W0)^-1 Q_{i1}(s) ... Q_{in}(s)],

with ``Q_i(s)`` the symmetrically resolvent-dressed blocks.  The trace
collapses into products of mode sums of the transverse projectors, and on
the symmetric cutoff box each of those is diagonal in the axes: a
transverse channel (x and y) and a longitudinal one (z).
``TraceSystem.channel_sums`` evaluates them at resolvent powers 1 and 2 by
reducing the assembled form's ``e^2``-scaled ``model.ModeTable``, one row
per ``(|k|, |k_z|)`` orbit, so ``word_integrand_fast`` costs ``O(orbits)``
per quadrature node and a chain is a product of scalars per channel.  The
envelope ``D(s)`` behind every tail bound is the integrand of the word
``(1, 1)``.  The dense matrix product of the full blocks is the words'
test oracle, and the words, summed per order, are the series'.

The series runs on that form's ``QuadraticForm.kernel``, the kernel the
exact routes integrate.  Summed over its words, order ``2j`` integrates
to the ``j``-th Taylor coefficient in the coupling of the channel log-det
``log det(1 - X(s))``, which ``_Kernel.order_integrands`` takes from the
rows of ``X(s)`` that
``log_det`` and ``binding`` read, with no word enumerated.  Every order of
a series is one column of a single adaptive pass over shared nodes.  A
column is a sum of terms of one sign, so the caller's ``rel_tol`` alone
resolves each order at its own magnitude, with no a-priori floor.

Sign conventions: the one-dipole energy is ``1.5 e nu`` minus the sum of the
all-ones words, and the binding ``2 E - E(R)`` is plus the sum of the mixed
even-weight words.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (ClassificationError, InvalidParameterError,
                     SeriesDivergenceError, TailBoundUnavailableError)
from .model import (ChargeProfile, ConstraintReport, Geometry, Lattice,
                    ModelParams)
from .oscillator import (_even_order, assemble_one_electron,
                         assemble_two_electron, warn_if_periodic)
from .quadrature import QuadratureSpec, integrate_half_line

__all__ = [
    "IndexWord", "TraceSeries", "TraceSystem", "trace_word",
    "series_one_electron", "series_binding", "d_envelope", "word_bound",
    "mixed_even_words",
]

#: the spec a word or a series integrates to when the caller gives none
_DEFAULT_QUAD = QuadratureSpec()


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
    """Order-by-order series with its analytic geometric tail bound, and
    its quadrature evidence: each order's error estimate, and the integrand
    nodes of the one pass over the orders with words (0 if none has any)."""

    orders: List[int]
    contributions: List[float]
    value: float
    tail_bound: float
    a: float
    zero_point_shift: float = 0.0
    error_estimates: List[float] = field(default_factory=list)
    nodes: int = 0


def mixed_even_words(order: int) -> List[Tuple[int, ...]]:
    """All mixed words of the given length with even weight, lexicographic.

    Odd-weight words are pruned because their trace vanishes identically;
    the two constant words belong to the isolated-atom energies.
    """
    words = itertools.product((1, 2), repeat=_even_order(order, "order"))
    return [word for word in words if len(set(word)) > 1
            and sum(word) % 2 == 0]


def d_envelope(s, params: ModelParams, profile: ChargeProfile,
               lattice: Lattice):
    """Integrable envelope dominating every second-order trace integrand.

    ``D(s) = 2 e^2 s^2 (s^2+e^2 nu^2)^{-1} [ (s^2+e^2 nu^2)^{-1} n1(s)
    + n2(s) ]`` where ``n_m(s)`` is the squared lattice norm of
    ``(s^2+|k|^2)^{-m/2} |k| f(|k|)``.  It is the integrand of the word
    ``(1, 1)`` of one dipole, ``word_integrand_fast`` on the channel
    entries of ``TraceSystem.channel_sums``: ``tr P_k = 2`` gives ``2 e^2
    n_m = 2 T_m + L_m`` within one dipole, so the second-order trace
    integrand equals it exactly; higher orders fall below it geometrically.
    Its integral is the closed form ``TraceSystem.d_integral``, which the
    quadrature of this function checks in the tests.
    """
    out = TraceSystem(params, lattice, profile).word_integrand_fast(
        (1, 1), np.atleast_1d(np.asarray(s, dtype=float)))
    return out if np.ndim(s) else float(out[0])


class TraceSystem:
    """Evaluation context bundling parameters, lattice, profile and geometry.

    ``form`` is ``assemble_one_electron``'s form or, with a geometry,
    ``assemble_two_electron``'s, and the series integrate its ``kernel``.
    Every trace closes as ``sum_c m_c (...)`` over the channels of the mode
    sums ``e^2 sum_k w_k P_k [cos(k . r)] (s^2 + |k|^2)^-m``, which
    ``channel_sums`` reduces from the form's table.  ``geometry=None``
    restricts the system to one dipole and its words (all letters 1).
    """

    def __init__(self, params: ModelParams, lattice: Lattice,
                 profile: ChargeProfile, geometry: Optional[Geometry] = None):
        self.params, self.lattice = params, lattice
        self.profile, self.geometry = profile, geometry
        self.form = (assemble_one_electron(params, lattice, profile)
                     if geometry is None else
                     assemble_two_electron(params, lattice, profile, geometry))
        self.kernel = self.form.kernel

    # -- shared constants ---------------------------------------------------

    @property
    def a(self) -> float:
        """The expansion parameter ``a = 2 n*(0)^2 / nu^2`` of
        ``check_constraints``, ``n*(0)`` the lattice norm of ``f``, read
        from the table's within ``ModeTable.weights`` ``w``, ``e^2 w_k``
        per mode: ``a = 2 sum w / |k|^2 / (e^2 nu^2)``."""
        within, ksq = self.form.table.weights[:, 0], self.form.table.ksq
        return 2.0 * math.fsum(within / ksq) / self.form.enu2

    def d_integral(self) -> float:
        """Half-line envelope integral ``(1/pi) Int_0^inf D(s) ds``, exact.

        With ``alpha = e nu``, ``(1/pi) Int_0^inf s^2 / ((s^2 + alpha^2)^2
        (s^2 + k^2)) ds = 1 / (4 alpha (alpha + k)^2)``, and its ``alpha
        <-> k`` twin sums with it to ``1 / (4 alpha k (alpha + k))``, so

            (1/pi) Int D = sum w / (|k| (e nu + |k|)) / (2 e nu)

        over the table's orbits by ``math.fsum``, ``w`` its within
        ``ModeTable.weights``, ``e^2 w_k`` per mode.  ``D`` closes the
        within-dipole sums only, so the value does not depend on the
        geometry.  The quadrature of ``d_envelope`` is its test oracle.
        """
        k = self.lattice.orbits.norms
        alpha = self.params.e * self.params.nu
        within = self.form.table.weights[:, 0]
        return math.fsum(within / (k * (alpha + k))) / (2.0 * alpha)

    def word_scale(self, word: Sequence[int]) -> float:
        """A-priori magnitude scale ``a**(#I/2 - 1) * (1/pi) Int D`` for a
        word, used to normalize vanishing checks."""
        return self.a ** (len(word) // 2 - 1) * self.d_integral()

    # -- channel sums ---------------------------------------------------------

    def channel_sums(self, s: np.ndarray
                     ) -> Dict[int, Tuple[np.ndarray, Optional[np.ndarray]]]:
        """Channel entries of the mode sums at resolvent powers 1 and 2.

        Returns ``{m: (within, across)}`` for ``m`` in (1, 2), the ``[T,
        L]`` pairs of one ``sums`` of the form's ``e^2``-scaled table at ``z
        = s^2`` as channel rows: each of shape ``(2, nodes)``, row 0
        transverse and row 1 longitudinal (``across`` is ``None`` without
        geometry).  The reducer's ``(powers, nodes, q)`` output is copied
        once into contiguous ``(powers, q, nodes)`` rows, so the chains of
        ``word_integrand_fast``, the per-word oracle, run on contiguous
        memory, not on stride-``q`` column views.
        """
        s2 = np.atleast_1d(np.asarray(s, dtype=float)) ** 2
        rows = np.ascontiguousarray(
            self.form.table.sums(s2, (1, 2)).transpose(0, 2, 1))
        two = self.geometry is not None
        return {m: (v[:2], v[2:] if two else None)
                for m, v in zip((1, 2), rows)}

    def _letters(self, word: Sequence[int]) -> Tuple[int, ...]:
        """``word`` as a tuple, which without geometry holds only 1s."""
        word = tuple(word)
        if self.geometry is None and any(i != 1 for i in word):
            raise InvalidParameterError(
                "two-dipole words need a system with geometry")
        return word

    def word_integrand_fast(self, word: Sequence[int],
                            s: np.ndarray) -> np.ndarray:
        """Factorized trace integrand ``s^2 tr[(s^2+W0)^-1 Q_I(s)]``.

        The product of off-diagonal blocks closes either through the photon
        sector (adjacent letters paired from the first position) or through
        a particle sector (paired from the second position with matching
        endpoints); each closure collapses to a chain of channel sums,
        multiplied per channel row.
        """
        word = self._letters(word)
        s = np.asarray(s, dtype=float)
        n = len(word)
        if n % 2:
            return np.zeros_like(s)
        enu2 = self.form.enu2
        sums = self.channel_sums(s)

        def chain(m, across):
            return sums[m][1 if across else 0]

        total = np.zeros_like(s)
        # closure through the photon sector: pairs (1,2), (3,4), ...
        if all(word[2 * j] == word[2 * j + 1] for j in range(n // 2)):
            prod = chain(2, word[-1] != word[0])
            for j in range(0, n - 2, 2):
                prod = prod * chain(1, word[j + 1] != word[j + 2])
            total += self.form.table.multiplicity @ prod
        # closure through a particle sector: pairs (2,3), (4,5), ..., ends match
        if word[0] == word[-1] and all(word[2 * j + 1] == word[2 * j + 2]
                                       for j in range((n - 2) // 2)):
            prod = chain(1, word[0] != word[1])
            for j in range(2, n, 2):
                prod = prod * chain(1, word[j] != word[j + 1])
            total += (self.form.table.multiplicity @ prod) / (s * s + enu2)
        return s * s * (s * s + enu2) ** (-n / 2.0) * total


def trace_word(word, system: TraceSystem,
               quad: Optional[QuadratureSpec] = None) -> float:
    """Evaluate ``<Q_I>`` for one index word.

    Odd-weight words are returned as exact zero without quadrature (their
    integrand vanishes identically).
    """
    letters = word.letters if isinstance(word, IndexWord) else tuple(word)
    IndexWord(letters)  # validates
    system._letters(letters)
    if sum(letters) % 2 or len(letters) % 2:
        return 0.0
    spec = quad or _DEFAULT_QUAD
    floor = max(spec.abs_tol, 1e-13 * system.word_scale(letters))
    val = integrate_half_line(
        lambda s: system.word_integrand_fast(letters, s),
        spec=replace(spec, abs_tol=floor))
    return val / math.pi


def _order_terms(system: TraceSystem, max_order: int,
                 quad: Optional[QuadratureSpec]
                 ) -> Tuple[List[int], List[float], List[float], int]:
    """Orders ``2 .. max_order`` with ``(1/pi) Int`` of their
    ``system.kernel.order_integrands`` columns and its quadrature error
    estimate, and the integrand nodes spent.

    Every order with words is one column of a single ``order_integrands``
    pass to ``quad``, so all of them share one set of nodes, and each
    column converges on its own to ``quad``'s tolerance: a sum of terms of
    one sign, it is resolved by ``rel_tol`` at its own magnitude.  A
    pair's order 2 has no words and is zero without quadrature.
    """
    orders = list(range(2, max_order + 1, 2))
    live = orders if system.geometry is None else orders[1:]
    dead = len(orders) - len(live)
    terms, errors, nodes = [0.0] * dead, [0.0] * dead, 0
    if live:
        res = integrate_half_line(
            lambda s: system.kernel.order_integrands(live, s),
            spec=quad or _DEFAULT_QUAD, full_output=True)
        terms += (res.value / math.pi).tolist()
        errors += (res.error_estimate / math.pi).tolist()
        nodes = res.nodes_used
    return orders, terms, errors, nodes


def series_one_electron(params: ModelParams, lattice: Lattice,
                        profile: ChargeProfile, max_order: int = 8,
                        quad: Optional[QuadratureSpec] = None) -> TraceSeries:
    """Perturbative one-dipole ground energy through ``max_order``.

    Value: ``1.5 e nu - sum_{2j <= max_order} <Q^(2j)>`` with the geometric
    tail bound ``a**jmax / (1 - a) * (1/pi) Int D``.  Requires ``a < 1``.
    """
    max_order = _even_order(max_order)
    system = TraceSystem(params, lattice, profile)
    a = system.a
    if a >= 1.0:
        raise SeriesDivergenceError(
            f"expansion parameter a = {a:.4f} >= 1; series diverges")
    orders, terms, errors, nodes = _order_terms(system, max_order, quad)
    tail = system.d_integral() * a ** (max_order // 2) / (1.0 - a)
    shift = 1.5 * params.e * params.nu
    return TraceSeries(orders=orders, contributions=terms,
                       value=shift - math.fsum(terms), tail_bound=tail, a=a,
                       zero_point_shift=shift, error_estimates=errors,
                       nodes=nodes)


def series_binding(params: ModelParams, lattice: Lattice,
                   profile: ChargeProfile, R: float, max_order: int = 4,
                   quad: Optional[QuadratureSpec] = None,
                   allow_unbounded_tail: bool = False) -> TraceSeries:
    """Binding energy ``2 E - E(R)`` summed over mixed even-weight words.

    Per order ``2j`` the contribution is the sum of ``<Q_I>`` over every
    mixed word of that length (odd weights pruned analytically), taken as
    the Taylor coefficient of the channel log-det by
    ``_Kernel.order_integrands``; the series value carries the
    attractive sign convention.  The geometric
    tail bound ``(1/pi) Int D * 4 (4a)**jmax / (1 - 4a)`` needs ``a < 1/4``;
    with ``allow_unbounded_tail`` the value is still computed and the bound
    reported as infinity.

    ``R >= L / 2`` warns as ``binding_energy_exact`` does: lattice momenta
    are multiples of ``2 pi / L``, so the binding is periodic in ``R``.
    """
    max_order = _even_order(max_order)
    system = TraceSystem(params, lattice, profile, Geometry(R))
    warn_if_periodic(R, lattice)
    a = system.a
    if a >= 0.25 and not allow_unbounded_tail:
        raise TailBoundUnavailableError(
            f"expansion parameter a = {a:.4f} >= 1/4; no geometric tail "
            "bound (pass allow_unbounded_tail=True to evaluate anyway)")
    orders, terms, errors, nodes = _order_terms(system, max_order, quad)
    tail = (system.d_integral() * 4.0 * (4.0 * a) ** (max_order // 2)
            / (1.0 - 4.0 * a) if a < 0.25 else math.inf)
    return TraceSeries(orders=orders, contributions=terms,
                       value=math.fsum(terms), tail_bound=tail, a=a,
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
