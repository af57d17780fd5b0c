"""Seeded job lists for the cplab benchmark, their execution, and the
dual-route checks applied to their outputs.

Every job is a flat configuration document, parsed by
``cplab.cli.parse_config`` exactly as a user's file would be, plus the entry
point it feeds: a CLI subcommand (``cli.run`` + ``cli.emit``) or a top-level
library call.  The seed only moves parameter values inside the admissible
region and picks the separations; the structure of each list (boxes, orders,
job counts) is fixed, so the work per list is nearly seed-independent.

Checks run after the timed passes.  Each output row is compared against the
other route for the same quantity, at a tolerance relative to the quantity:

- energies: dense ``ground_energy`` vs ``series_one_electron``, within the
  series tail bound plus ``ENERGY_RTOL`` of the energy;
- binding: dense ``binding_energy_exact`` vs ``series_binding``, within the
  series tail bound plus ``BINDING_RTOL`` of the series value;
- continuum: t-representation vs ``direct-quadrature``, within
  ``CONTINUUM_RTOL`` (the accuracy the direct route states), and
  ``R**7 value / cp_constant`` within ``CP_LIMIT_TOL`` at ``R = 120``.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

import cplab
from cplab import cli

WORKLOADS = ("lattice-exact", "trace-series", "continuum-sweep")

#: summed seconds are reported for each of these job kinds
KINDS = ("energy", "binding", "convergence", "series_energy",
         "series_binding", "cp_sweep", "error_sweep", "direct_route")

#: constraint-passing (e, nu0, xi) sets spanning the admissible region; the
#: first and fourth are weak-coupling sets whose binding energies lie far
#: below the dense route's roundoff floor
BASE_SETS = ((0.5, 2.0, 1.0), (0.5, 3.0, 0.25), (0.8, 2.5, 0.5),
             (1.2, 1.5, 1.5), (0.3, 4.0, 0.35))
#: continuum sets keep xi fixed: the direct route's cost grows as (R/xi)**2
CONTINUUM_SETS = ((0.5, 2.0, 1.0), (1.2, 1.5, 1.5))
#: relative jitter the seed applies to each parameter (all jittered sets
#: stay admissible on every box used here)
JITTER = 0.03
CONTINUUM_R = (30.0, 60.0, 120.0)
R_MAX = 120.0

ENERGY_RTOL = 1e-10
BINDING_RTOL = 1e-4
CONTINUUM_RTOL = 1e-6
CP_LIMIT_TOL = 0.05
#: order of the series used as the reference for dense results
REFERENCE_ORDER = 8


@dataclass(frozen=True)
class Job:
    kind: str
    call: str
    config: str


def _jitter(rng: random.Random, base, fixed_xi: bool = False):
    def j(v):
        return float(f"{v * rng.uniform(1 - JITTER, 1 + JITTER):.6g}")
    e, nu0, xi = base
    return j(e), j(nu0), (xi if fixed_xi else j(xi))


def _grid(rng: random.Random, lo: float, hi: float, n: int) -> List[float]:
    while True:
        g = sorted(round(rng.uniform(lo, hi), 4) for _ in range(n))
        if all(b > a for a, b in zip(g, g[1:])):
            return g


def _config(params, L: float = 2.0, R_grid=None, max_order: int = 4,
            Lambda: float = 1.0) -> str:
    e, nu0, xi = params
    lines = [f"e = {e!r}", f"nu0 = {nu0!r}", f"xi = {xi!r}", f"L = {L!r}",
             f"Lambda = {Lambda!r}", f"max_order = {max_order}"]
    if R_grid is not None:
        lines.append("R_grid = " + ", ".join(str(r) for r in R_grid))
    return "\n".join(lines) + "\n"


def generate(workload: str, seed: int) -> List[Job]:
    """The fixed job list of one workload for one seed."""
    rng = random.Random(f"{workload}:{seed}")
    jobs: List[Job] = []
    if workload == "lattice-exact":
        sets = [_jitter(rng, b) for b in BASE_SETS]
        rng.shuffle(sets)
        for params, L in zip(sets, (2.0, 3.0, 4.0)):
            jobs.append(Job("energy", "energy", _config(params, L)))
        for params in sets:
            jobs.append(Job("binding", "binding",
                            _config(params, 2.0, _grid(rng, 0.1, 0.95, 3))))
        jobs.append(Job("binding", "binding",
                        _config(sets[3], 3.0, _grid(rng, 0.15, 1.45, 2))))
        # the CLI refines over boxes L, 1.5 L, 2 L at Lambda and 2 Lambda;
        # from Lambda = 0.625 the table holds N = 26, 26, 124 and 124, 342,
        # and the finest cell (N = 1330) exceeds the CLI's dim cap
        jobs.append(Job("convergence", "convergence",
                        _config(sets[4], 2.0, Lambda=0.625)))
    elif workload == "trace-series":
        for base in BASE_SETS:
            params = _jitter(rng, base)
            for L in (2.0, 3.0):
                rs = _grid(rng, 0.1 * L, 0.45 * L, 2)
                for order in (4, 6, 8):
                    jobs.append(Job("series_energy", "series_one_electron",
                                    _config(params, L, max_order=order)))
                    jobs += [Job("series_binding", "series_binding",
                                 _config(params, L, [r], order)) for r in rs]
    elif workload == "continuum-sweep":
        for base in CONTINUUM_SETS:
            params = _jitter(rng, base, fixed_xi=True)
            for kind, sub in (("cp_sweep", "cp-sweep"),
                              ("error_sweep", "error-sweep")):
                r_min = round(rng.uniform(10.0, 30.0), 3)
                jobs.append(Job(kind, sub, _config(
                    params, R_grid=[r_min, R_MAX, 6, "geometric"])))
            for r in CONTINUUM_R:
                for call in ("fourth_order_main", "fourth_order_error"):
                    jobs.append(Job("direct_route", call,
                                    _config(params, R_grid=[r])))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs


def warmup_jobs(workload: str) -> List[Job]:
    """One small job per entry point of the workload, run before timing."""
    params = BASE_SETS[0]
    if workload == "lattice-exact":
        return [Job("energy", "energy", _config(params, 1.0)),
                Job("binding", "binding", _config(params, 1.0, [0.3]))]
    if workload == "trace-series":
        return [Job("series_energy", "series_one_electron",
                    _config(params, 1.0)),
                Job("series_binding", "series_binding",
                    _config(params, 1.0, [0.3]))]
    return [Job("cp_sweep", "cp-sweep", _config(params, R_grid=[10.0, 12.0])),
            Job("error_sweep", "error-sweep",
                _config(params, R_grid=[10.0, 12.0])),
            Job("direct_route", "fourth_order_main",
                _config(params, R_grid=[5.0])),
            Job("direct_route", "fourth_order_error",
                _config(params, R_grid=[5.0]))]


def blas_warmup() -> None:
    """Start BLAS/LAPACK once so that no job pays for it."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((400, 400))
    np.linalg.eigvalsh(a + a.T)
    a @ a


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def execute(job: Job) -> str:
    """Run one job through cplab's public entry points; return its document.

    Names are looked up on the ``cplab`` and ``cli`` modules at call time so
    that wrappers installed by the tracer are the ones called.  A
    ``CplabError`` becomes an ``error:`` document.
    """
    try:
        cfg = cli.parse_config(job.config)
        if job.call in cli.SUBCOMMANDS:
            return cli.emit(cli.run(job.call, cfg), "json")
        params = cplab.ModelParams(e=cfg.e, nu0=cfg.nu0)
        profile = cplab.make_gaussian_profile(cfg.xi)
        if job.call == "series_one_electron":
            lattice = cplab.build_lattice(cfg.L, cfg.Lambda)
            res = cplab.series_one_electron(params, lattice, profile,
                                            max_order=cfg.max_order)
            out = {"value": res.value, "tail_bound": res.tail_bound}
        elif job.call == "series_binding":
            lattice = cplab.build_lattice(cfg.L, cfg.Lambda)
            res = cplab.series_binding(params, lattice, profile,
                                       cfg.R_grid[0], max_order=cfg.max_order)
            out = {"value": res.value, "tail_bound": res.tail_bound}
        else:
            fn = getattr(cplab, job.call)
            res = fn(cfg.R_grid[0], params, profile,
                     route="direct-quadrature")
            out = {"value": res.value}
        return json.dumps(out, sort_keys=True)
    except cplab.CplabError as exc:
        return f"error: {type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# dual-route checks
# ---------------------------------------------------------------------------

def _close(value: float, ref: float, slack: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= slack


class Checker:
    """Verdicts for job documents; second-route values are computed once."""

    def __init__(self):
        self._refs: Dict[tuple, object] = {}

    def _ref(self, cfg, route: str, *args):
        """Value of ``route`` at the parameters of ``cfg``, cached."""
        key = (route, cfg.e, cfg.nu0, cfg.xi) + args
        if key not in self._refs:
            self._refs[key] = self._compute(cfg, route, *args)
        return self._refs[key]

    @staticmethod
    def _compute(cfg, route: str, *args):
        params = cplab.ModelParams(e=cfg.e, nu0=cfg.nu0)
        profile = cplab.make_gaussian_profile(cfg.xi)
        if route in ("fourth_order_main", "fourth_order_error"):
            R, method = args
            return float(getattr(cplab, route)(R, params, profile,
                                               route=method).value)
        L, lam = args[:2]
        lattice = cplab.build_lattice(L, lam)
        if route == "series_energy":
            return cplab.series_one_electron(params, lattice, profile,
                                             max_order=REFERENCE_ORDER)
        if route == "series_binding":
            return cplab.series_binding(params, lattice, profile, args[2],
                                        max_order=REFERENCE_ORDER)
        if route == "dense_energy":
            return cplab.ground_energy(cplab.assemble_one_electron(
                params, lattice, profile)).energy
        return cplab.binding_energy_exact(params, lattice, profile, args[2])

    def _energy_row(self, cfg, L, lam, energy) -> Optional[str]:
        ref = self._ref(cfg, "series_energy", L, lam)
        slack = ref.tail_bound + ENERGY_RTOL * abs(ref.value)
        if _close(energy, ref.value, slack):
            return None
        return (f"energy {energy!r} vs series {ref.value!r} "
                f"(L={L}, Lambda={lam}, allowed {slack:.3g})")

    def _binding_row(self, cfg, L, lam, R, binding) -> Optional[str]:
        ref = self._ref(cfg, "series_binding", L, lam, R)
        slack = ref.tail_bound + BINDING_RTOL * abs(ref.value)
        if _close(binding, ref.value, slack):
            return None
        return (f"binding {binding!r} vs series {ref.value!r} "
                f"(L={L}, R={R}, allowed {slack:.3g})")

    def _continuum_row(self, cfg, R, call, value, method) -> Optional[str]:
        ref = self._ref(cfg, call, R, method)
        if not _close(value, ref, CONTINUUM_RTOL * abs(ref)):
            return f"{call} {value!r} vs {method} {ref!r} at R={R}"
        if call == "fourth_order_main" and R == R_MAX:
            ratio = R ** 7 * value / cplab.cp_constant(cfg.nu0)
            if not abs(ratio - 1.0) <= CP_LIMIT_TOL:
                return f"R^7 value / cp = {ratio!r} at R={R}"
        return None

    def _dense_energy_row(self, cfg, value, tail) -> Optional[str]:
        dense = self._ref(cfg, "dense_energy", cfg.L, cfg.Lambda)
        if _close(value, dense, tail + ENERGY_RTOL * abs(dense)):
            return None
        return f"series energy {value!r} vs dense {dense!r}"

    def _dense_binding_row(self, cfg, value, tail) -> Optional[str]:
        R = cfg.R_grid[0]
        dense = self._ref(cfg, "dense_binding", cfg.L, cfg.Lambda, R)
        if _close(value, dense, tail + BINDING_RTOL * abs(value)):
            return None
        return (f"series binding {value!r} vs dense {dense!r} "
                f"(L={cfg.L}, R={R})")

    @staticmethod
    def _guarded(check, *args) -> Optional[str]:
        """A second route that raises fails the operation it checks."""
        try:
            return check(*args)
        except cplab.CplabError as exc:
            return f"second route raised {type(exc).__name__}: {exc}"

    @staticmethod
    def expected_ops(job: Job) -> int:
        """Operations a job stands for: one per requested output row."""
        if job.call in ("binding", "cp-sweep", "error-sweep"):
            return len(cli.parse_config(job.config).resolved_grid())
        return 1

    def verdicts(self, job: Job, doc: str) -> List[Optional[str]]:
        """One entry per operation: ``None`` if it passed, else the reason."""
        n = self.expected_ops(job)
        if doc.startswith("error:"):
            return [doc] * n
        cfg = cli.parse_config(job.config)
        out = json.loads(doc)
        guard = self._guarded
        if job.call == "series_one_electron":
            return [guard(self._dense_energy_row, cfg, out["value"],
                          out["tail_bound"])]
        if job.call == "series_binding":
            return [guard(self._dense_binding_row, cfg, out["value"],
                          out["tail_bound"])]
        if job.call not in cli.SUBCOMMANDS:
            return [guard(self._continuum_row, cfg, cfg.R_grid[0], job.call,
                          out["value"], "t-representation")]
        if out["warnings"]:
            return ["; ".join(out["warnings"])] * n
        rows = out["rows"]
        if job.call == "energy":
            return [guard(self._energy_row, cfg, cfg.L, cfg.Lambda,
                          rows[0][0])]
        found = {row[0]: row[1] for row in rows}
        if job.call == "binding":
            return [guard(self._binding_row, cfg, cfg.L, cfg.Lambda, r,
                          found[r])
                    if r in found else f"no row for R={r}"
                    for r in cfg.resolved_grid()]
        if job.call == "convergence":
            R = out["scalars"]["R"]
            return [guard(self._energy_row, cfg, L, lam, e1)
                    or guard(self._binding_row, cfg, L, lam, R, binding)
                    for lam, L, _, e1, _, binding, _, _ in rows] \
                or ["convergence table is empty"]
        call = ("fourth_order_main" if job.call == "cp-sweep"
                else "fourth_order_error")
        return [guard(self._continuum_row, cfg, r, call, found[r],
                      "direct-quadrature")
                if r in found else f"gap: no row for R={r}"
                for r in cfg.resolved_grid()]
