"""Tolerance-controlled adaptive quadrature on intervals and the half line.

All integrators accept vectorized integrands ``f(x: ndarray) -> ndarray`` and
refine Gauss-Legendre panels until the summed error estimate (difference of a
15-point and a 7-point rule) meets the requested tolerance.  Panel sums are
accumulated with ``math.fsum`` in interval order, so results are bit-stable
regardless of refinement history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import AccuracyError, InvalidParameterError

_GL_LO = np.polynomial.legendre.leggauss(7)
_GL_HI = np.polynomial.legendre.leggauss(15)


@dataclass(frozen=True)
class QuadratureSpec:
    """Accuracy contract for the adaptive integrators.

    ``rel_tol`` is the target relative tolerance, ``abs_tol`` an absolute
    floor used when the integral itself is (numerically) zero and
    ``max_nodes`` the hard budget on integrand evaluations.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 0.0
    max_nodes: int = 400_000

    def __post_init__(self):
        if not (self.rel_tol > 0 and math.isfinite(self.rel_tol)):
            raise InvalidParameterError("rel_tol must be positive and finite")
        if not (self.abs_tol >= 0 and math.isfinite(self.abs_tol)):
            raise InvalidParameterError(
                "abs_tol must be non-negative and finite")
        if not self.max_nodes >= 44:
            raise InvalidParameterError(
                "max_nodes below a single panel evaluation")


class IntegrationResult(NamedTuple):
    value: float
    error_estimate: float
    nodes_used: int


def _panel_values(f, lo, hi):
    """High- and low-order panel estimates for a batch of panels."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x_hi = mid[:, None] + half[:, None] * _GL_HI[0][None, :]
    x_lo = mid[:, None] + half[:, None] * _GL_LO[0][None, :]
    npan = len(lo)
    both = np.concatenate([x_hi.ravel(), x_lo.ravel()])
    y = np.asarray(f(both), dtype=float)
    y_hi = y[: npan * 15].reshape(npan, 15)
    y_lo = y[npan * 15:].reshape(npan, 7)
    v_hi = half * (y_hi @ _GL_HI[1])
    v_lo = half * (y_lo @ _GL_LO[1])
    return v_hi, np.abs(v_hi - v_lo)


def integrate_interval(f: Callable, a: float, b: float,
                       spec: QuadratureSpec = QuadratureSpec(),
                       initial_panels: int = 8,
                       full_output: bool = False):
    """Integrate ``f`` over ``[a, b]`` to the tolerance in ``spec``.

    Raises
    ------
    AccuracyError
        If the node budget runs out first; carries the best estimate.
    """
    edges = np.linspace(a, b, initial_panels + 1)
    lo = edges[:-1].copy()
    hi = edges[1:].copy()
    vals, errs = _panel_values(f, lo, hi)
    nodes = initial_panels * 22

    while True:
        order = np.argsort(lo, kind="stable")
        total = math.fsum(vals[order])
        toterr = float(np.sum(errs))
        target = max(spec.rel_tol * abs(total), spec.abs_tol)
        if toterr <= target:
            break
        # refine every panel holding more than its share of the error budget
        split = errs > max(toterr / (2 * len(lo)), target / (4 * len(lo)))
        if not np.any(split):
            split = errs == errs.max()
        n_new = int(np.sum(split))
        if nodes + 2 * n_new * 22 > spec.max_nodes:
            achieved = toterr / abs(total) if total != 0.0 else math.inf
            raise AccuracyError(
                f"node budget {spec.max_nodes} exhausted at relative error "
                f"{achieved:.3e}", total, achieved)
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[~split], lo[split], mid])
        new_hi = np.concatenate([hi[~split], mid, hi[split]])
        keep_vals, keep_errs = vals[~split], errs[~split]
        add_vals, add_errs = _panel_values(f, new_lo[len(keep_vals):],
                                           new_hi[len(keep_vals):])
        lo, hi = new_lo, new_hi
        vals = np.concatenate([keep_vals, add_vals])
        errs = np.concatenate([keep_errs, add_errs])
        nodes += 2 * n_new * 22

    if full_output:
        return IntegrationResult(total, toterr, nodes)
    return total


def integrate_half_line(f: Callable, spec: QuadratureSpec = QuadratureSpec(),
                        full_output: bool = False):
    """Integrate ``f`` over ``[0, inf)`` via the map ``s = u / (1 - u)``.

    The integrand must decay at least like ``s**-2`` so that the mapped
    integrand is bounded near ``u = 1``.
    """

    def mapped(u):
        s = u / (1.0 - u)
        return f(s) / (1.0 - u) ** 2

    return integrate_interval(mapped, 0.0, 1.0, spec=spec,
                              full_output=full_output)


def gauss_panel_rule(edges: np.ndarray, order: int = 12):
    """Composite Gauss-Legendre nodes and weights over consecutive panels."""
    x, w = np.polynomial.legendre.leggauss(order)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights
