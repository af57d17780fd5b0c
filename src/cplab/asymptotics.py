"""Separation sweeps, power-law extraction, and lattice refinement studies.

These drivers tie the finite-lattice numerics to the continuum asymptotics:
sweep any observable, given as a callable of the separation, over a
separation ladder, fit the log-log slope of the resulting ``(R, values)``
pair, and track how energies settle as the box grows and the cutoff rises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import CplabError, FitDomainError, InvalidParameterError
from .model import ChargeProfile, Geometry, ModelParams, build_lattice
from .oscillator import (assemble_one_electron, assemble_two_electron,
                         binding_energy, ground_energy)

__all__ = ["SweepResult", "PowerFit", "sweep_R", "fit_power_law",
           "convergence_study"]


@dataclass
class SweepResult:
    """Values of one observable over an increasing separation ladder.

    Failed evaluations never yield NaN rows: they are dropped from the
    arrays and recorded in ``gaps`` with their diagnostic.
    """

    R: np.ndarray
    value: np.ndarray
    r7_scaled: np.ndarray
    r9_scaled: np.ndarray
    gaps: List[Tuple[float, str]] = field(default_factory=list)


@dataclass(frozen=True)
class PowerFit:
    """Least-squares slope of ``log |value|`` against ``log R``."""

    exponent: float
    coefficient: float
    residual_rms: float
    window: Tuple[float, float]
    low_confidence: bool = False


def sweep_R(grid: Sequence[float],
            evaluator: Callable[[float], float]) -> SweepResult:
    """Evaluate ``evaluator(R)`` over an increasing, positive and finite
    separation grid.

    The caller binds every other argument of the observable, e.g.
    ``lambda R: fourth_order_main(R, params, profile).value``.  Evaluation
    failures (a ``CplabError``) and non-finite values are recorded as gaps
    and the sweep continues; any other exception, a ``LinAlgError`` or
    ``FloatingPointError`` included, is a bug and propagates.  Warnings
    the evaluator emits (a lattice binding past half the box warns of its
    periodic images) pass through.
    """
    if not callable(evaluator):
        raise InvalidParameterError(
            f"evaluator must be a callable of R, got {evaluator!r}")
    grid = [float(g) for g in grid]
    if not grid or not all(g > 0 and math.isfinite(g) for g in grid):
        raise InvalidParameterError(
            "grid must be nonempty, positive and finite")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise InvalidParameterError("grid must be strictly increasing")
    rows, gaps = [], []
    for r in grid:
        try:
            v = float(evaluator(r))
        except CplabError as exc:  # gap row, sweep continues
            gaps.append((r, f"{type(exc).__name__}: {exc}"))
            continue
        if not np.isfinite(v):
            gaps.append((r, "non-finite value"))
            continue
        rows.append((r, v))
    rr = np.array([x[0] for x in rows])
    vv = np.array([x[1] for x in rows])
    return SweepResult(R=rr, value=vv, r7_scaled=rr ** 7 * vv,
                       r9_scaled=rr ** 9 * vv, gaps=gaps)


def fit_power_law(points, window: Optional[Tuple[float, float]] = None
                  ) -> PowerFit:
    """Ordinary least squares of ``log |value|`` on ``log R``.

    ``points`` is an ``(R, values)`` pair of arrays, e.g. ``(sweep.R,
    sweep.value)`` of a ``SweepResult``.
    The window must hold two distinct R, and all values inside it must be
    finite and share one sign, at finite positive R, or ``FitDomainError``
    is raised; two distinct R give an exact degenerate fit, however many
    points repeat them, flagged low-confidence.
    """
    if not (isinstance(points, tuple) and len(points) == 2):
        raise FitDomainError("points must be an (R, values) pair of arrays")
    rr, vv = np.asarray(points[0], float), np.asarray(points[1], float)
    if rr.ndim != 1 or rr.shape != vv.shape:
        raise FitDomainError("R and values must be 1-D and of equal length")
    if window is not None:
        keep = (rr >= window[0]) & (rr <= window[1])
        rr, vv = rr[keep], vv[keep]
    distinct = len(set(rr.tolist()))
    if distinct < 2:
        raise FitDomainError("need at least two distinct R to fit")
    if not (np.all(rr > 0) and np.all(np.isfinite(rr))
            and np.all(np.isfinite(vv))):
        raise FitDomainError(
            "R and values inside window must be finite, R positive")
    if np.any(vv == 0) or (np.any(vv > 0) and np.any(vv < 0)):
        raise FitDomainError("values change sign (or vanish) inside window")
    x = np.log(rr)
    y = np.log(np.abs(vv))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    rms = float(np.sqrt(np.mean(resid ** 2)))
    sign = 1.0 if vv[0] > 0 else -1.0
    return PowerFit(exponent=float(slope),
                    coefficient=sign * math.exp(float(intercept)),
                    residual_rms=rms,
                    window=(float(rr.min()), float(rr.max())),
                    low_confidence=distinct == 2)


def convergence_study(L_ladder: Sequence[float],
                      Lambda_ladder: Sequence[float], params: ModelParams,
                      profile: ChargeProfile, R: float
                      ) -> List[Dict[str, float]]:
    """Refinement table over growing boxes at each fixed cutoff.

    The box ladder is the inner loop (matching the iterated-limit order);
    each row carries the one- and two-dipole energies, the binding
    (``binding_energy`` of ``E2``'s form, not the difference of the
    energies) and the signed successive differences along the box ladder.
    """
    if not (len(L_ladder) and len(Lambda_ladder)) or \
       any(b <= a for a, b in zip(L_ladder, L_ladder[1:])) or \
       any(b <= a for a, b in zip(Lambda_ladder, Lambda_ladder[1:])):
        raise InvalidParameterError(
            "ladders must be nonempty and strictly increasing")
    if R >= min(L_ladder) / 2.0:
        raise InvalidParameterError(
            "separation must stay below half the smallest box")
    rows: List[Dict[str, float]] = []
    for lam in Lambda_ladder:
        prev_e1 = prev_bind = None
        for box in L_ladder:
            lattice = build_lattice(box, lam)
            e1 = ground_energy(assemble_one_electron(
                params, lattice, profile)).energy
            pair = assemble_two_electron(params, lattice, profile,
                                         Geometry(R))
            e2, bind = ground_energy(pair).energy, binding_energy(pair)
            rows.append({"Lambda": lam, "L": box, "N": lattice.count,
                         "E1": e1, "E2": e2, "binding": bind,
                         "dE1": math.nan if prev_e1 is None else e1 - prev_e1,
                         "dbinding": (math.nan if prev_bind is None
                                      else bind - prev_bind)})
            prev_e1, prev_bind = e1, bind
    return rows
