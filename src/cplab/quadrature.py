"""Tolerance-controlled adaptive quadrature on intervals and the half line.

The integrators take vectorized integrands ``f(x: ndarray) -> ndarray`` of
shape ``(nodes,)`` or, for ``K`` integrals over the same nodes, ``(nodes,
K)``.  Each panel takes the nested Gauss-Kronrod pair of QUADPACK's qk15:
the 15-point Kronrod rule, whose odd-indexed nodes are the 7-point Gauss
nodes, so 15 integrand evaluations give both rules.  A panel's error
estimate is the raw ``|K15 - G7|``, without qk15's ``(200 err /
resasc)^1.5`` rescaling.  Panels are refined until every component's summed
error estimate meets its own tolerance ``max(rel_tol |I_k|, abs_tol)``, with
one floor ``abs_tol`` for all, so each integral is resolved at its own
magnitude however small it is beside the others (not the norm-based rule
of QUADPACK's vector integrators).  A panel splits when any component
still open needs it split, and every component is evaluated on the
resulting shared panels.
Panel sums are accumulated per component with ``math.fsum``, which rounds
the exact sum once whatever order the panels come in, so results are
bit-stable regardless of refinement history, and a ``(nodes,)`` integrand
gives bit for bit the value of its ``(nodes, 1)`` form.

Each batch of panels reduces all ``K`` components at once: one ``(K,
panels, 15)`` product with the Kronrod weights and one with the Gauss
weights, the same arithmetic per component as a 1-D integrand.  The
initial panels of each ``(a, b, initial_panels)``, with their half-widths
and nodes, are built once per process, and the half line's mapped nodes
and Jacobian on them once too; all are read-only.  The integrand gets
read-only nodes, so it cannot alter the ones the next call reads.  Bounds
must be finite (the half line is mapped onto ``[0, 1]``), and a NaN or
infinite panel value or error estimate raises ``AccuracyError`` naming the
panel: a NaN error is never the largest, so refinement would otherwise
split nothing and never end.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple, Tuple, Union

import numpy as np

from .errors import AccuracyError, InvalidParameterError

#: the non-negative 15-point Kronrod abscissae, descending, and their
#: weights; ``_XGK[1::2]`` are the non-negative 7-point Gauss nodes
#: (QUADPACK qk15, Piessens et al. 1983)
_XGK = (0.991455371120812639206854697526329,
        0.949107912342758524526189684047851,
        0.864864423359769072789712788640926,
        0.741531185599394439863864773280788,
        0.586087235467691130294144845693013,
        0.405845151377397166906606412076961,
        0.207784955007898467600689403773245,
        0.0)
_WGK = (0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
        0.209482141084727828012999174891714)
#: 7-point Gauss weights of the nodes ``_XGK[1::2]``
_WG = (0.129484966168869693270611432679082,
       0.279705391489276667901467771423780,
       0.381830050505118944950369775488975,
       0.417959183673469387755102040816327)
#: the 15 nodes on ``[-1, 1]``, ascending, and the weights of both rules;
#: the Gauss nodes are ``_K15_NODES[1::2]``
_K15_NODES = np.concatenate([np.negative(_XGK[:-1]), _XGK[::-1]])
_K15_WEIGHTS = np.array(_WGK[:-1] + _WGK[::-1])
_G7_WEIGHTS = np.array(_WG + _WG[-2::-1])
#: integrand nodes per panel: the Kronrod rule's 15, which hold the Gauss
#: rule's 7
_PANEL_COST = len(_K15_NODES)
#: roundoff-bound splits that stop a component still open (QUADPACK
#: dqagse's ``iroff1`` limit)
_ROUNDOFF_SPLITS = 10
#: equal panels a pass starts from unless the caller asks otherwise
_DEFAULT_PANELS = 8


def _holds(test: Callable[[], object]) -> bool:
    """Whether ``test()`` is true; False where its operands do not support
    the test (a string or ``None`` where a number belongs, an integer past
    the float range)."""
    try:
        return bool(test())
    except (TypeError, ValueError, OverflowError):
        return False


@dataclass(frozen=True)
class QuadratureSpec:
    """Accuracy contract for the adaptive integrators.

    ``rel_tol`` is the target relative tolerance, ``abs_tol`` one absolute
    floor, shared by every component, used when an integral itself is
    (numerically) zero, and ``max_nodes`` the hard budget on integrand
    evaluations, an ``int``.  The tolerances are stored as the floats they
    were validated as; a sequence ``abs_tol`` is rejected.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 0.0
    max_nodes: int = 400_000

    def __post_init__(self):
        if not _holds(lambda: self.rel_tol > 0
                      and math.isfinite(self.rel_tol)):
            raise InvalidParameterError("rel_tol must be positive and finite")
        object.__setattr__(self, "rel_tol", float(self.rel_tol))
        if not _holds(lambda: np.ndim(self.abs_tol) == 0
                      and 0 <= float(self.abs_tol) < math.inf):
            raise InvalidParameterError(
                "abs_tol must be one non-negative finite number")
        object.__setattr__(self, "abs_tol", float(self.abs_tol))
        if not _holds(lambda: operator.index(self.max_nodes)
                      >= 2 * _PANEL_COST):
            raise InvalidParameterError(
                f"max_nodes must be an integer of at least {2 * _PANEL_COST}")
        object.__setattr__(self, "max_nodes", operator.index(self.max_nodes))


class IntegrationResult(NamedTuple):
    """Value, error estimate (floats, or length-K arrays for a ``(nodes,
    K)`` integrand) and the number of integrand nodes spent."""

    value: Union[float, np.ndarray]
    error_estimate: Union[float, np.ndarray]
    nodes_used: int


def _panel_nodes(lo, hi):
    """Read-only half-widths of a batch of panels and their 15 nodes each,
    flattened panel by panel."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = (mid[:, None] + half[:, None] * _K15_NODES[None, :]).ravel()
    half.setflags(write=False)
    x.setflags(write=False)
    return half, x


def _panel_values(f, lo, hi, half, x):
    """High-order panel estimates and their error estimates for a batch of
    panels with half-widths ``half`` and nodes ``x`` (``_panel_nodes``),
    each of shape ``(K, panels)`` (``K = 1`` for a ``(nodes,)``
    integrand), and whether the integrand is vector-valued.  A panel
    whose error estimate is not finite (an integrand value on it is not,
    or the value overflows) raises ``AccuracyError``.
    """
    npan = len(lo)
    y = np.asarray(f(x), dtype=float)
    if y.ndim not in (1, 2) or len(y) != len(x):
        raise InvalidParameterError(
            f"integrand returned shape {y.shape} for {len(x)} nodes; "
            "expected (nodes,) or (nodes, K)")
    vector = y.ndim == 2
    # one contiguous row of panels per component, so a component reduces
    # exactly as a 1-D integrand does
    panels = np.ascontiguousarray(y.T if vector else y[None, :]).reshape(
        -1, npan, _PANEL_COST)
    with np.errstate(invalid="ignore", over="ignore"):
        v_hi = half * (panels @ _K15_WEIGHTS)
        v_lo = half * (panels[:, :, 1::2] @ _G7_WEIGHTS)
        errs = np.abs(v_hi - v_lo)
    if not np.isfinite(errs).all():
        i = np.flatnonzero(~np.isfinite(errs).all(axis=0))[0]
        raise AccuracyError(
            f"the integrand is not finite on the panel [{lo[i]}, "
            f"{hi[i]}]", np.full(len(errs), math.nan) if vector
            else math.nan, math.inf)
    return v_hi, errs, vector


@functools.lru_cache(maxsize=16)
def _initial_panels(a: float, b: float, count: int
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read-only lower and upper ends of ``count`` equal panels on ``[a,
    b]``, their half-widths and their nodes (``_panel_nodes``)."""
    edges = np.linspace(a, b, count + 1)
    edges.setflags(write=False)
    lo, hi = edges[:-1], edges[1:]
    return (lo, hi) + _panel_nodes(lo, hi)


def integrate_interval(f: Callable, a: float, b: float,
                       spec: QuadratureSpec = QuadratureSpec(),
                       initial_panels: int = _DEFAULT_PANELS,
                       full_output: bool = False):
    """Integrate ``f`` over ``[a, b]`` to the tolerance in ``spec``.

    A ``(nodes, K)`` integrand returns length-K arrays of values (and error
    estimates), component ``k`` converged on its own to ``max(rel_tol
    |I_k|, abs_tol)``.

    ``f`` gets read-only nodes: on the ``initial_panels`` equal panels
    they are built once per process for each ``(a, b, initial_panels)``,
    and only refined panels build new ones.

    Raises
    ------
    InvalidParameterError
        If a bound is not finite, ``initial_panels`` is not an integer of
        at least 1 (a bool is not), or the initial panels alone exceed
        ``spec.max_nodes``.
    AccuracyError
        If a panel value or error estimate is not finite (a NaN or
        infinite integrand value), the node budget runs out first, or
        roundoff stalls a component still open: ``_ROUNDOFF_SPLITS`` of
        the splits it needed left the children's error at least 0.99 of
        the parent's and their value within 1e-5 of it (the ``iroff1`` test
        of QUADPACK's dqagse, Piessens et al. 1983).  Carries the best
        estimate (an array for a vector integrand; NaN for a value that is
        not finite) and the worst relative error of the components still
        open (infinite for a value that is not finite).
    """
    if not _holds(lambda: math.isfinite(a) and math.isfinite(b)):
        raise InvalidParameterError(
            f"integration bounds must be finite, got [{a}, {b}]")
    if not _holds(lambda: not isinstance(initial_panels, bool)
                  and operator.index(initial_panels) >= 1):
        raise InvalidParameterError(
            f"initial_panels must be an integer of at least 1, got "
            f"{initial_panels!r}")
    count = operator.index(initial_panels)
    nodes = count * _PANEL_COST
    if nodes > spec.max_nodes:
        raise InvalidParameterError(
            f"{count} initial panels need {nodes} nodes, above "
            f"the budget max_nodes = {spec.max_nodes}")
    lo, hi, half, x = _initial_panels(float(a), float(b), count)
    vals, errs, vector = _panel_values(f, lo, hi, half, x)
    roundoff = [0] * len(vals)

    while True:
        # fsum rounds the exact sum, so panel order does not matter
        totals = [math.fsum(v) for v in vals]
        # a row sum of errs is bit for bit the 1-D sum of that row
        toterrs = errs.sum(axis=1).tolist()
        targets = [max(spec.rel_tol * abs(total), spec.abs_tol)
                   for total in totals]
        open_ = [k for k, (toterr, target) in enumerate(zip(toterrs, targets))
                 if not toterr <= target]
        if not open_:
            break
        # refine every panel holding more than its share of the error
        # budget of a component still open
        split = np.zeros(len(lo), dtype=bool)
        needs = {}
        for k in open_:
            e = errs[k]
            need = e > max(toterrs[k] / (2 * len(lo)),
                           targets[k] / (4 * len(lo)))
            needs[k] = need if np.any(need) else e == e.max()
            split |= needs[k]
        n_new = int(np.sum(split))
        stalled = any(roundoff[k] >= _ROUNDOFF_SPLITS for k in open_)
        if stalled or nodes + 2 * n_new * _PANEL_COST > spec.max_nodes:
            achieved = max(toterrs[k] / abs(totals[k]) if totals[k] != 0.0
                           else math.inf for k in open_)
            cause = ("roundoff stalls the error" if stalled else
                     f"node budget {spec.max_nodes} exhausted")
            raise AccuracyError(
                f"{cause} at relative error {achieved:.3e}",
                np.array(totals) if vector else totals[0], achieved)
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[~split], lo[split], mid])
        new_hi = np.concatenate([hi[~split], mid, hi[split]])
        keep = len(lo) - n_new
        add_lo, add_hi = new_lo[keep:], new_hi[keep:]
        add_vals, add_errs, _ = _panel_values(
            f, add_lo, add_hi, *_panel_nodes(add_lo, add_hi))
        # dqagse's iroff1 test on each split a component needed; the value
        # half is read only where the error half holds
        bound = (add_errs[:, :n_new] + add_errs[:, n_new:]
                 >= 0.99 * errs[:, split])
        if bound.any():
            kids = add_vals[:, :n_new] + add_vals[:, n_new:]
            bound &= np.abs(vals[:, split] - kids) <= 1e-5 * np.abs(kids)
            for k in open_:
                roundoff[k] += int(np.count_nonzero(bound[k]
                                                    & needs[k][split]))
        lo, hi = new_lo, new_hi
        vals = np.concatenate([vals[:, ~split], add_vals], axis=1)
        errs = np.concatenate([errs[:, ~split], add_errs], axis=1)
        nodes += 2 * n_new * _PANEL_COST

    if vector:
        totals, toterrs = np.array(totals), np.array(toterrs)
    else:
        totals, toterrs = totals[0], toterrs[0]
    if full_output:
        return IntegrationResult(totals, toterrs, nodes)
    return totals


def integrate_half_line(f: Callable, spec: QuadratureSpec = QuadratureSpec(),
                        full_output: bool = False):
    """Integrate ``f`` over ``[0, inf)`` via the map ``s = u / (1 - u)``.

    The integrand must decay at least like ``s**-2`` and stop oscillating
    (the map packs late oscillations next to ``u = 1``: ``cos(40 s) / (1 +
    s**4)`` exhausts the default budget).  It may be ``(nodes, K)``-valued.
    ``f`` gets read-only nodes ``s``; on the initial panels they and the
    Jacobian ``(1 - u)**2`` are built once per process.
    """
    initial_u, initial_s, initial_jac = _half_line_nodes()

    def mapped(u):
        if u is initial_u:
            s, jac = initial_s, initial_jac
        else:
            s, jac = _half_line_map(u)
        y = np.asarray(f(s), dtype=float)
        return y / (jac[:, None] if y.ndim == 2 else jac)

    return integrate_interval(mapped, 0.0, 1.0, spec=spec,
                              full_output=full_output)


def _half_line_map(u: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Read-only ``s = u / (1 - u)`` and the Jacobian ``(1 - u)**2`` that
    divides the integrand."""
    s = u / (1.0 - u)
    jac = (1.0 - u) ** 2
    s.setflags(write=False)
    jac.setflags(write=False)
    return s, jac


@functools.lru_cache(maxsize=1)
def _half_line_nodes() -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nodes ``u`` of ``integrate_interval``'s initial panels on ``[0,
    1]`` and their ``_half_line_map``, shared read-only."""
    u = _initial_panels(0.0, 1.0, _DEFAULT_PANELS)[3]
    return (u,) + _half_line_map(u)


@functools.lru_cache(maxsize=None)
def _legendre_rule(order: int) -> Tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on ``[-1, 1]``."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_panel_rule(edges: np.ndarray, order: int = 12):
    """Composite Gauss-Legendre nodes and weights over consecutive panels."""
    x, w = _legendre_rule(order)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights
