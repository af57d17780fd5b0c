"""Separation sweeps, power-law extraction, and lattice refinement studies.

These drivers tie the finite-lattice numerics to the continuum asymptotics:
sweep an observable over a separation ladder, fit the log-log slope, and
track how energies settle as the box grows and the cutoff rises.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .continuum import fourth_order_error, fourth_order_main
from .errors import FitDomainError, InvalidParameterError
from .model import ChargeProfile, Geometry, ModelParams, build_lattice
from .oscillator import (LatticePeriodicityWarning, assemble_one_electron,
                         assemble_two_electron, binding_energy_exact,
                         ground_energy)
from .traces import TraceSystem, trace_word

__all__ = ["SweepResult", "PowerFit", "sweep_R", "fit_power_law",
           "convergence_study"]


@dataclass
class SweepResult:
    """Values of one observable over an increasing separation ladder.

    Failed evaluations never yield NaN rows: they are dropped from the
    arrays and recorded in ``gaps`` with their diagnostic.  ``warn`` flags
    rows where the finite-box periodicity caveat applies.
    """

    R: np.ndarray
    value: np.ndarray
    r7_scaled: np.ndarray
    r9_scaled: np.ndarray
    evaluator: str
    params_echo: Dict[str, float]
    warn: List[bool] = field(default_factory=list)
    gaps: List[Tuple[float, str]] = field(default_factory=list)


@dataclass(frozen=True)
class PowerFit:
    """Least-squares slope of ``log |value|`` against ``log R``."""

    exponent: float
    log_coefficient: float
    coefficient: float
    residual_rms: float
    window: Tuple[float, float]
    low_confidence: bool = False


def _builtin_evaluator(name: str, params: ModelParams,
                       profile: ChargeProfile, lattice=None,
                       rel_tol: float = 1e-8):
    if name == "continuum-main":
        return lambda R: fourth_order_main(R, params, profile,
                                           rel_tol=rel_tol).value
    if name == "continuum-error":
        return lambda R: fourth_order_error(R, params, profile,
                                            rel_tol=rel_tol).value
    if name == "lattice-binding":
        if lattice is None:
            raise InvalidParameterError(
                "lattice-binding evaluator needs a lattice")
        return lambda R: binding_energy_exact(params, lattice, profile, R)
    raise InvalidParameterError(f"unknown evaluator {name!r}")


def sweep_R(grid: Sequence[float],
            evaluator: Union[str, Callable[[float], float]],
            params: ModelParams, profile: ChargeProfile, lattice=None,
            rel_tol: float = 1e-8) -> SweepResult:
    """Evaluate an observable over an increasing positive separation grid.

    ``evaluator`` is either a callable or one of the names
    "continuum-main", "continuum-error", "lattice-binding".  Evaluation
    failures are recorded as gaps and the sweep continues.
    """
    grid = [float(g) for g in grid]
    if not grid or any(g <= 0 for g in grid):
        raise InvalidParameterError("grid must be nonempty and positive")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise InvalidParameterError("grid must be strictly increasing")
    name = evaluator if isinstance(evaluator, str) else getattr(
        evaluator, "__name__", "custom")
    fn = (_builtin_evaluator(evaluator, params, profile, lattice, rel_tol)
          if isinstance(evaluator, str) else evaluator)
    rows, warn, gaps = [], [], []
    periodic = isinstance(evaluator, str) and evaluator == "lattice-binding"
    for r in grid:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", LatticePeriodicityWarning)
                v = float(fn(r))
        except Exception as exc:  # gap row, sweep continues
            gaps.append((r, f"{type(exc).__name__}: {exc}"))
            continue
        if not np.isfinite(v):
            gaps.append((r, "non-finite value"))
            continue
        rows.append((r, v))
        warn.append(periodic and lattice is not None
                    and r >= lattice.box_period / 2.0)
    rr = np.array([x[0] for x in rows])
    vv = np.array([x[1] for x in rows])
    return SweepResult(R=rr, value=vv, r7_scaled=rr ** 7 * vv,
                       r9_scaled=rr ** 9 * vv, evaluator=name,
                       params_echo={"e": params.e, "nu0": params.nu0},
                       warn=warn, gaps=gaps)


def fit_power_law(points, window: Optional[Tuple[float, float]] = None
                  ) -> PowerFit:
    """Ordinary least squares of ``log |value|`` on ``log R``.

    ``points`` is a pair of arrays or a sequence of (R, value) pairs.  All
    values inside the window must share one sign; two points give an exact
    degenerate fit flagged low-confidence.
    """
    if isinstance(points, SweepResult):
        rr, vv = points.R, points.value
    elif isinstance(points, tuple) and len(points) == 2:
        rr, vv = np.asarray(points[0], float), np.asarray(points[1], float)
    else:
        arr = np.asarray(list(points), dtype=float)
        rr, vv = arr[:, 0], arr[:, 1]
    if window is not None:
        keep = (rr >= window[0]) & (rr <= window[1])
        rr, vv = rr[keep], vv[keep]
    else:
        window = (float(rr.min()), float(rr.max())) if len(rr) else (0.0, 0.0)
    if len(rr) < 2:
        raise FitDomainError("need at least two points to fit")
    if np.any(vv == 0) or (np.any(vv > 0) and np.any(vv < 0)):
        raise FitDomainError("values change sign (or vanish) inside window")
    x = np.log(rr)
    y = np.log(np.abs(vv))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    rms = float(np.sqrt(np.mean(resid ** 2)))
    sign = 1.0 if vv[0] > 0 else -1.0
    return PowerFit(exponent=float(slope), log_coefficient=float(intercept),
                    coefficient=sign * math.exp(float(intercept)),
                    residual_rms=rms,
                    window=(float(rr.min()), float(rr.max())),
                    low_confidence=len(rr) == 2)


def convergence_study(L_ladder: Sequence[float],
                      Lambda_ladder: Sequence[float], params: ModelParams,
                      profile: ChargeProfile, R: float,
                      include_fourth_order: bool = False,
                      dim_cap: Optional[int] = None
                      ) -> List[Dict[str, float]]:
    """Refinement table over growing boxes at each fixed cutoff.

    The box ladder is the inner loop (matching the iterated-limit order);
    each row carries the one- and two-dipole energies, the binding (from
    ``binding_energy_exact``, not the difference of the energies), the
    signed successive differences along the box ladder, and optionally the
    lattice fourth-order main term for comparison against the continuum.
    Rows whose matrix dimension would exceed ``dim_cap`` (no cap by
    default) are skipped, so a resource cap yields a partial table rather
    than a failure.
    """
    if any(b <= a for a, b in zip(L_ladder, L_ladder[1:])) or \
       any(b <= a for a, b in zip(Lambda_ladder, Lambda_ladder[1:])):
        raise InvalidParameterError("ladders must be strictly increasing")
    if R >= min(L_ladder) / 2.0:
        raise InvalidParameterError(
            "separation must stay below half the smallest box")
    rows: List[Dict[str, float]] = []
    for lam in Lambda_ladder:
        prev_e1 = prev_bind = None
        for box in L_ladder:
            lattice = build_lattice(box, lam)
            dim = 6 + 4 * lattice.count
            if dim_cap is not None and dim > dim_cap:
                rows.append({"Lambda": lam, "L": box, "N": lattice.count,
                             "skipped": True})
                continue
            e1 = ground_energy(assemble_one_electron(
                params, lattice, profile)).energy
            e2 = ground_energy(assemble_two_electron(
                params, lattice, profile, Geometry(R))).energy
            bind = binding_energy_exact(params, lattice, profile, R)
            row = {"Lambda": lam, "L": box, "N": lattice.count,
                   "E1": e1, "E2": e2, "binding": bind,
                   "dE1": math.nan if prev_e1 is None else e1 - prev_e1,
                   "dbinding": (math.nan if prev_bind is None
                                else bind - prev_bind)}
            if include_fourth_order:
                system = TraceSystem(params, lattice, profile, Geometry(R))
                row["main4"] = (trace_word((1, 1, 2, 2), system)
                                + trace_word((2, 2, 1, 1), system))
            rows.append(row)
            prev_e1, prev_bind = e1, bind
    return rows
