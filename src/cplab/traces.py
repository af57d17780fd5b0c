"""Resolvent trace words and the perturbative energy and binding series.

A word over the alphabet {1, 2} labels a product of the two coupling blocks
inside a resolvent-weighted trace,

    <Q_I> = (1/pi) Int_0^inf ds s^2 tr[(s^2 + W0)^-1 Q_{i1}(s) ... Q_{in}(s)],

with ``Q_i(s)`` the symmetrically resolvent-dressed blocks.  The trace
collapses into products of mode sums of the transverse projectors, and on
the symmetric cutoff box each of those is diagonal in the axes: a
transverse channel (x and y) and a longitudinal one (z).
``TraceSystem.word_integrand_fast`` reads them at resolvent powers 1 and 2
from one reduction of the assembled form's ``e^2``-scaled
``model.ModeTable``, one row per ``(|k|, |k_z|)`` orbit, so a word costs
``O(orbits)`` per quadrature node and a chain is a product of scalars per
channel.  The envelope ``D(s)`` behind every tail bound is the integrand
of the one-dipole word ``(1, 1)``.  The dense matrix product of the full
blocks is the words' test oracle, and the words, summed per order, are
the series'.  Every word entry checks its word with ``_letters`` alone:
letters 1 and 2, a letter 2 only on a two-dipole form, else
``InvalidParameterError``.  ``word_class`` names a word's bound class.

The series take the assembled ``QuadraticForm``, the channel kernel the
exact routes integrate, and read its orders, ``a`` and ``(1/pi) Int D``
from it alone; the ``(params, lattice, profile)`` entry points only
assemble the form.  Summed over its words, order ``2j`` integrates to the
``j``-th Taylor coefficient in the coupling of the channel log-det ``log
det(1 - X(s))``, which ``QuadraticForm.order_integrands`` takes from the
rows of ``X(s)`` that ``log_det`` and ``binding`` read, with no word
enumerated.  Every order of a series is one column of a single adaptive
pass over shared nodes.  A column is a sum of terms of one sign, so the
caller's ``rel_tol`` alone resolves each order at its own magnitude, with
no a-priori floor.

Sign conventions: the one-dipole energy is ``1.5 e nu`` minus the sum of the
all-ones words, and the binding ``2 E - E(R)`` is plus the sum of the mixed
even-weight words.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import (ClassificationError, InvalidParameterError,
                     SeriesDivergenceError, TailBoundUnavailableError)
from .model import (ChargeProfile, ConstraintReport, Geometry, Lattice,
                    ModelParams, _expansion_parameter)
from .oscillator import (QuadraticForm, _even_order, assemble_one_electron,
                         assemble_two_electron, warn_if_periodic)
from .quadrature import QuadratureSpec, integrate_half_line

__all__ = [
    "TraceSeries", "TraceSystem", "trace_word", "series_one_electron",
    "series_binding", "word_bound", "word_class", "mixed_even_words",
]

#: the spec a word or a series integrates to when the caller gives none
_DEFAULT_QUAD = QuadratureSpec()


def _letters(word: Sequence[int], pair: bool) -> Tuple[int, ...]:
    """``word`` as a nonempty tuple of letters 1 and 2; a letter 2 names
    the second dipole, so it needs a ``pair``."""
    letters = tuple(word)
    if not letters or any(i not in (1, 2) for i in letters):
        raise InvalidParameterError(
            f"index word {letters} must be a nonempty word over {{1, 2}}")
    if not pair and 2 in letters:
        raise InvalidParameterError(
            "two-dipole words need a system with geometry")
    return letters


def word_class(word: Sequence[int]) -> str:
    """Bound class of a word: 'order4' (length 4), 'case1' (mixed, length
    >= 6, a single 1<->2 switch) or 'case2' (at least two switches, length
    >= 6).  Any other word raises ``ClassificationError``."""
    letters = _letters(word, pair=True)
    switches = sum(a != b for a, b in zip(letters, letters[1:]))
    if len(letters) == 4:
        return "order4"
    if len(letters) >= 6 and switches:
        return "case1" if switches == 1 else "case2"
    raise ClassificationError(
        f"word {letters} has no bound class "
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


def _d_integral(form: QuadraticForm) -> float:
    """Half-line envelope integral ``(1/pi) Int_0^inf D(s) ds``, exact.

    ``D(s)`` is the integrand of the one-dipole word ``(1, 1)``.  With
    ``alpha = e nu``, ``(1/pi) Int_0^inf s^2 / ((s^2 + alpha^2)^2 (s^2 +
    k^2)) ds = 1 / (4 alpha (alpha + k)^2)``, and its ``alpha <-> k`` twin
    sums with it to ``1 / (4 alpha k (alpha + k))``, so

        (1/pi) Int D = sum w / (|k| (e nu + |k|)) / (2 e nu)

    over the form's orbits, ``w`` its table's within ``ModeTable.weights``,
    ``e^2 w_k`` per mode, ``|k|`` and ``e nu`` the roots of its ``ksq`` and
    ``enu2``.  ``D`` closes the within-dipole sums only, so the value does
    not depend on the geometry.
    """
    k = np.sqrt(form.table.ksq)
    alpha = math.sqrt(form.enu2)
    within = form.table.weights[:, 0]
    return float((within / (k * (alpha + k))).sum()) / (2.0 * alpha)


class TraceSystem:
    """Evaluation context bundling parameters, lattice, profile and geometry.

    ``form`` is ``assemble_one_electron``'s form or, with a geometry,
    ``assemble_two_electron``'s, the form the series integrate.  Every
    trace closes as ``sum_c m_c (...)`` over the channels of the mode sums
    ``e^2 sum_k w_k P_k [cos(k . r)] (s^2 + |k|^2)^-m``, the columns of one
    reduction of the form's table.  ``geometry=None`` restricts the system
    to one dipole and its words (all letters 1).
    """

    def __init__(self, params: ModelParams, lattice: Lattice,
                 profile: ChargeProfile, geometry: Optional[Geometry] = None):
        self.params, self.lattice = params, lattice
        self.profile, self.geometry = profile, geometry
        self.form = (assemble_one_electron(params, lattice, profile)
                     if geometry is None else
                     assemble_two_electron(params, lattice, profile, geometry))

    @property
    def a(self) -> float:
        """The expansion parameter ``a = 2 n*(0)^2 / nu^2`` of
        ``check_constraints``, ``n*(0)`` the lattice norm of ``f``, read
        from the table's within ``ModeTable.weights`` ``w``, ``e^2 w_k``
        per mode: ``a = 2 sum w / |k|^2 / (e^2 nu^2)``."""
        return _expansion_parameter(self.form.table, self.form.enu2)

    def d_integral(self) -> float:
        """``(1/pi) Int D`` of the form, exact: ``_d_integral``.  The
        quadrature of the word ``(1, 1)`` of one dipole is its test
        oracle."""
        return _d_integral(self.form)

    def word_scale(self, word: Sequence[int]) -> float:
        """A-priori magnitude scale ``a**(#I/2 - 1) * (1/pi) Int D`` for a
        word, used to normalize vanishing checks."""
        return self.a ** (len(word) // 2 - 1) * self.d_integral()

    def word_integrand_fast(self, word: Sequence[int],
                            s: np.ndarray) -> np.ndarray:
        """Factorized trace integrand ``s^2 tr[(s^2+W0)^-1 Q_I(s)]``.

        The product of off-diagonal blocks closes either through the photon
        sector (adjacent letters paired from the first position) or through
        a particle sector (paired from the second position with matching
        endpoints); each closure collapses to a chain of channel sums,
        multiplied per channel column: the ``[T, L]`` within or across
        columns of the form's table reduced at resolvent power ``m``.
        """
        word = _letters(word, pair=self.form.q == 4)
        s = np.asarray(s, dtype=float)
        n = len(word)
        if n % 2:
            return np.zeros_like(s)
        enu2 = self.form.enu2
        sums = self.form.table.sums(s * s, (1, 2))

        def chain(m, across):
            return sums[m - 1][:, 2:] if across else sums[m - 1][:, :2]

        total = np.zeros_like(s)
        # closure through the photon sector: pairs (1,2), (3,4), ...
        if all(word[2 * j] == word[2 * j + 1] for j in range(n // 2)):
            prod = chain(2, word[-1] != word[0])
            for j in range(0, n - 2, 2):
                prod = prod * chain(1, word[j + 1] != word[j + 2])
            total += prod @ self.form.multiplicity[:2]
        # closure through a particle sector: pairs (2,3), (4,5), ..., ends match
        if word[0] == word[-1] and all(word[2 * j + 1] == word[2 * j + 2]
                                       for j in range((n - 2) // 2)):
            prod = chain(1, word[0] != word[1])
            for j in range(2, n, 2):
                prod = prod * chain(1, word[j] != word[j + 1])
            total += (prod @ self.form.multiplicity[:2]) / (s * s + enu2)
        return s * s * (s * s + enu2) ** (-n / 2.0) * total


def trace_word(word: Sequence[int], system: TraceSystem,
               quad: Optional[QuadratureSpec] = None) -> float:
    """Evaluate ``<Q_I>`` for one index word.

    Odd-weight words are returned as exact zero without quadrature (their
    integrand vanishes identically).
    """
    letters = _letters(word, pair=system.form.q == 4)
    if sum(letters) % 2 or len(letters) % 2:
        return 0.0
    spec = quad or _DEFAULT_QUAD
    floor = max(spec.abs_tol, 1e-13 * system.word_scale(letters))
    val = integrate_half_line(
        lambda s: system.word_integrand_fast(letters, s),
        spec=replace(spec, abs_tol=floor))
    return val / math.pi


def _order_terms(form: QuadraticForm, max_order: int,
                 quad: Optional[QuadratureSpec]
                 ) -> Tuple[List[int], List[float], List[float], int]:
    """Orders ``2 .. max_order`` with ``(1/pi) Int`` of their
    ``form.order_integrands`` columns and its quadrature error estimate,
    and the integrand nodes spent.

    Every order with words is one column of a single ``order_integrands``
    pass to ``quad``, so all of them share one set of nodes, and each
    column converges on its own to ``quad``'s tolerance: a sum of terms of
    one sign, it is resolved by ``rel_tol`` at its own magnitude.  A
    pair's order 2 has no words and is zero without quadrature.
    """
    orders = list(range(2, max_order + 1, 2))
    live = orders if form.q == 2 else orders[1:]
    dead = len(orders) - len(live)
    terms, errors, nodes = [0.0] * dead, [0.0] * dead, 0
    if live:
        res = integrate_half_line(
            lambda s: form.order_integrands(live, s),
            spec=quad or _DEFAULT_QUAD, full_output=True)
        terms += (res.value / math.pi).tolist()
        errors += (res.error_estimate / math.pi).tolist()
        nodes = res.nodes_used
    return orders, terms, errors, nodes


def _energy_series(form: QuadraticForm, max_order: int,
                   quad: Optional[QuadratureSpec]) -> TraceSeries:
    """``series_one_electron`` of an assembled one-dipole form."""
    max_order = _even_order(max_order)
    a = _expansion_parameter(form.table, form.enu2)
    if a >= 1.0:
        raise SeriesDivergenceError(
            f"expansion parameter a = {a:.4f} >= 1; series diverges")
    orders, terms, errors, nodes = _order_terms(form, max_order, quad)
    tail = _d_integral(form) * a ** (max_order // 2) / (1.0 - a)
    shift = form.zero_point_shift
    return TraceSeries(orders=orders, contributions=terms,
                       value=shift - math.fsum(terms), tail_bound=tail, a=a,
                       zero_point_shift=shift, error_estimates=errors,
                       nodes=nodes)


def series_one_electron(params: ModelParams, lattice: Lattice,
                        profile: ChargeProfile, max_order: int = 8,
                        quad: Optional[QuadratureSpec] = None) -> TraceSeries:
    """Perturbative one-dipole ground energy through ``max_order``.

    Value: ``1.5 e nu - sum_{2j <= max_order} <Q^(2j)>`` with the geometric
    tail bound ``a**jmax / (1 - a) * (1/pi) Int D``.  Requires ``a < 1``.
    """
    return _energy_series(assemble_one_electron(params, lattice, profile),
                          max_order, quad)


def series_binding(params: ModelParams, lattice: Lattice,
                   profile: ChargeProfile, R: float, max_order: int = 4,
                   quad: Optional[QuadratureSpec] = None,
                   allow_unbounded_tail: bool = False) -> TraceSeries:
    """Binding energy ``2 E - E(R)`` summed over mixed even-weight words.

    Per order ``2j`` the contribution is the sum of ``<Q_I>`` over every
    mixed word of that length (odd weights pruned analytically), taken as
    the Taylor coefficient of the channel log-det by
    ``QuadraticForm.order_integrands``; the series value carries the
    attractive sign convention.  The geometric
    tail bound ``(1/pi) Int D * 4 (4a)**jmax / (1 - 4a)`` needs ``a < 1/4``;
    with ``allow_unbounded_tail`` the value is still computed and the bound
    reported as infinity.

    ``R >= L / 2`` warns as ``binding_energy_exact`` does: lattice momenta
    are multiples of ``2 pi / L``, so the binding is periodic in ``R``.
    """
    max_order = _even_order(max_order)
    form = assemble_two_electron(params, lattice, profile, Geometry(R))
    warn_if_periodic(R, lattice)
    a = _expansion_parameter(form.table, form.enu2)
    if a >= 0.25 and not allow_unbounded_tail:
        raise TailBoundUnavailableError(
            f"expansion parameter a = {a:.4f} >= 1/4; no geometric tail "
            "bound (pass allow_unbounded_tail=True to evaluate anyway)")
    orders, terms, errors, nodes = _order_terms(form, max_order, quad)
    tail = (_d_integral(form) * 4.0 * (4.0 * a) ** (max_order // 2)
            / (1.0 - 4.0 * a) if a < 0.25 else math.inf)
    return TraceSeries(orders=orders, contributions=terms,
                       value=math.fsum(terms), tail_bound=tail, a=a,
                       error_estimates=errors, nodes=nodes)


def word_bound(word: Sequence[int], report: ConstraintReport) -> float:
    """A-priori bound multiplier for a classified word.

    Case 2 words are bounded by ``c_L**(#I - 4)`` times the reference
    fourth-order word; case 1 words carry the geometric factor
    ``(norm**2 / (3 nu**2))**(#I/2 - 2)`` built from the continuum norm.
    The existence constants multiplying these scaffolds are unknown and
    reported as one; the multipliers certify ratios and decay exponents,
    not absolute magnitudes.
    """
    kind, n = word_class(word), len(word)
    if kind == "order4":
        return 1.0
    if kind == "case2":
        return report.c_L ** (n - 4)
    norm0 = report.continuum_norms[0]
    return (norm0 ** 2 / (3.0 * report.nu ** 2)) ** (n // 2 - 2)
