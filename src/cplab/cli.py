"""Batch front end: config parsing, subcommand dispatch, table serialization.

Usage: ``cplab <subcommand> --config <path> [--out <path>] [--format csv|json]``.

The configuration is a flat key-value document (``key = value`` lines, ``#``
comments) or the same flat object as JSON.  The human-readable run header
(constraints, wall clock) goes to stderr; the result document alone goes to
``--out`` or stdout, so identical configs produce byte-identical documents.
Exit codes: 0 success, 1 error, 2 results computed under violated
constraints.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
import time
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from . import __version__
from .asymptotics import convergence_study, fit_power_law, sweep_R
from .continuum import (ab_identity_check, angular_factor, closed_integral,
                        cp_constant, fourth_order_error, fourth_order_main,
                        integral_quadrature_oracle)
from .errors import ConfigError, CplabError
from .model import (ConstraintReport, ModelParams, build_lattice,
                    check_constraints, make_gaussian_profile)
from .oscillator import (LatticePeriodicityWarning, assemble_one_electron,
                         binding_energy_exact, ground_energy)
from .quadrature import QuadratureSpec
from .traces import series_one_electron

__all__ = ["RunConfig", "RunReport", "parse_config", "run", "emit", "main"]

SUBCOMMANDS = ("check", "energy", "binding", "series", "cp-sweep",
               "error-sweep", "convergence", "integrals-selftest")


@dataclass
class RunConfig:
    e: float = 0.5
    nu0: float = 2.0
    xi: float = 1.0
    L: float = 2.0
    Lambda: float = 1.0
    R_grid: Optional[List[float]] = None
    max_order: int = 4
    quad_rel_tol: float = 1e-10
    include_direct_term: bool = False
    output_path: Optional[str] = None
    output_format: str = "csv"

    def resolved_grid(self) -> List[float]:
        """Separation grid; defaults to the geometric ladder 30..120 times xi."""
        if self.R_grid is not None:
            return list(self.R_grid)
        return [30.0 * self.xi, 42.0 * self.xi, 60.0 * self.xi,
                84.0 * self.xi, 120.0 * self.xi]

    def as_dict(self) -> Dict:
        return {"e": self.e, "nu0": self.nu0, "xi": self.xi, "L": self.L,
                "Lambda": self.Lambda, "R_grid": self.resolved_grid(),
                "max_order": self.max_order,
                "quad_rel_tol": self.quad_rel_tol,
                "include_direct_term": self.include_direct_term,
                "output_format": self.output_format}


@dataclass
class RunReport:
    config: Dict
    constraints: Dict
    columns: List[str]
    rows: List[List[float]]
    scalars: Dict[str, float] = field(default_factory=dict)
    warnings: List[str] = field(default_factory=list)
    wall_clock_s: Optional[float] = None
    version: str = __version__


def _parse_bool(key: str, raw: Union[str, bool]) -> bool:
    """A JSON boolean or one of the spellings ``true 1 yes`` / ``false 0
    no``; anything else, a JSON number included, raises."""
    if isinstance(raw, bool):
        return raw
    low = raw.strip().lower() if isinstance(raw, str) else None
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigError(f"key '{key}': expected a boolean, got {raw!r}")


def _parse_text(key: str, raw) -> str:
    """``raw`` itself; a JSON value other than a string raises."""
    if not isinstance(raw, str):
        raise ConfigError(f"key '{key}': expected a string, got {raw!r}")
    return raw


def _unique(pairs) -> Dict:
    """The ``(key, value)`` pairs as a dict; a repeated key raises."""
    entries = {}
    for key, value in pairs:
        if key in entries:
            raise ConfigError(f"key '{key}': repeated")
        entries[key] = value
    return entries


def _parse_number(key: str, raw, kind: type = float):
    """``kind(raw)`` for ``kind`` float or int; a non-number, a boolean or a
    fraction read as an int raises ``ConfigError`` naming ``key``."""
    fraction = isinstance(raw, float) and kind is int and not raw.is_integer()
    if not (isinstance(raw, bool) or fraction):
        with contextlib.suppress(TypeError, ValueError, OverflowError):
            return kind(raw)
    name = "a number" if kind is float else "an integer"
    raise ConfigError(f"key '{key}': expected {name}, got {raw!r}")


def _parse_grid(key: str, raw) -> List[float]:
    """Either an explicit list of separations or (min, max, count, spacing)."""
    if isinstance(raw, str):
        items = [s.strip() for s in raw.split(",") if s.strip()]
    elif isinstance(raw, (list, tuple)):
        items = list(raw)
    else:
        raise ConfigError(f"key '{key}': expected a list")
    if items and isinstance(items[-1], str) and \
            items[-1].lower() in ("linear", "geometric"):
        if len(items) != 4:
            raise ConfigError(
                f"key '{key}': spaced form is (min, max, count, spacing)")
        lo, hi = _parse_number(key, items[0]), _parse_number(key, items[1])
        count = _parse_number(key, items[2], int)
        if not (0 < lo < hi < math.inf) or count < 2:
            raise ConfigError(f"key '{key}': need 0 < min < max < inf and "
                              "count >= 2")
        if items[-1].lower() == "linear":
            return list(np.linspace(lo, hi, count))
        return list(np.geomspace(lo, hi, count))
    grid = [_parse_number(key, x) for x in items]
    if not grid or not all(0 < g < math.inf for g in grid) or \
            any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError(
            f"key '{key}': grid must be positive, finite and increasing")
    return grid


def parse_config(text: str) -> RunConfig:
    """Validate a flat key-value or JSON document into a RunConfig.

    Unknown or repeated keys, type mismatches and constraint violations
    (positivity, finiteness, parity of max_order) raise ``ConfigError``
    naming the offending key.  JSON values are not coerced: a string key
    takes a string, a boolean key a boolean or a key-value spelling.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            entries = json.loads(text, object_pairs_hook=_unique)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON config: {exc}") from None
        if not isinstance(entries, dict):
            raise ConfigError("JSON config must be a flat object")
    else:
        pairs = []
        for lineno, line in enumerate(text.splitlines(), 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError(f"line {lineno}: expected 'key = value'")
            key, _, value = body.partition("=")
            pairs.append((key.strip(), value.strip()))
        entries = _unique(pairs)

    cfg = RunConfig()
    for key, raw in entries.items():
        if key in ("e", "nu0", "xi", "L", "Lambda", "quad_rel_tol"):
            val = _parse_number(key, raw)
            if not (val > 0 and math.isfinite(val)):
                raise ConfigError(f"key '{key}': must be positive and finite")
            setattr(cfg, key, val)
        elif key == "max_order":
            val = _parse_number(key, raw, int)
            if val < 2 or val % 2:
                raise ConfigError(
                    "key 'max_order': must be an even integer >= 2")
            cfg.max_order = val
        elif key == "include_direct_term":
            cfg.include_direct_term = _parse_bool(key, raw)
        elif key == "R_grid":
            cfg.R_grid = _parse_grid(key, raw)
        elif key == "output_path":
            cfg.output_path = _parse_text(key, raw) or None
        elif key == "output_format":
            fmt = _parse_text(key, raw).strip().lower()
            if fmt not in ("csv", "json"):
                raise ConfigError("key 'output_format': must be csv or json")
            cfg.output_format = fmt
        else:
            raise ConfigError(f"unknown key '{key}'")
    return cfg


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _context(cfg: RunConfig):
    params = ModelParams(e=cfg.e, nu0=cfg.nu0)
    profile = make_gaussian_profile(cfg.xi)
    lattice = build_lattice(cfg.L, cfg.Lambda)
    report = check_constraints(params, profile, lattice)
    return params, profile, lattice, report


def _run_check(cfg, params, profile, lattice, report):
    d = report.as_dict()
    return list(d), [[float(v) for v in d.values()]], {}


def _run_energy(cfg, params, profile, lattice, report):
    res = ground_energy(assemble_one_electron(params, lattice, profile))
    cols = ["energy", "trace_difference", "zero_point_shift",
            "min_eigenvalue", "n_eigenvalues", "n_clamped"]
    row = [res.energy, res.trace_difference, res.zero_point_shift,
           res.min_eigenvalue, float(res.n_eigenvalues), float(res.n_clamped)]
    return cols, [row], {}


def _run_binding(cfg, params, profile, lattice, report):
    cols = ["R", "binding", "warn_period"]
    rows = []
    for r in cfg.resolved_grid():
        # the warn_period column reports the periodicity warning
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LatticePeriodicityWarning)
            b = binding_energy_exact(params, lattice, profile, r,
                                     cfg.include_direct_term)
        rows.append([r, b, float(r >= cfg.L / 2.0)])
    return cols, rows, {}


def _run_series(cfg, params, profile, lattice, report):
    quad = QuadratureSpec(rel_tol=cfg.quad_rel_tol)
    series = series_one_electron(params, lattice, profile,
                                 max_order=cfg.max_order, quad=quad)
    exact = ground_energy(assemble_one_electron(params, lattice, profile))
    cols = ["order", "term", "partial_energy"]
    rows = []
    partial = series.zero_point_shift
    for order, term in zip(series.orders, series.contributions):
        partial -= term
        rows.append([float(order), term, partial])
    # compare the corrections E - 1.5 e nu, not the full energies, so the
    # check resolves the correction at its own magnitude; the slack is the
    # two routes' own quadrature error estimates
    d = abs(exact.trace_difference + math.fsum(series.contributions))
    slack = math.fsum(series.error_estimates) + exact.error_estimate
    scalars = {"series_energy": series.value, "exact_energy": exact.energy,
               "abs_difference": d, "tail_bound": series.tail_bound,
               "within_tail": float(d <= series.tail_bound + slack),
               "a": series.a}
    return cols, rows, scalars


def _sweep_to_max(grid, term, params, profile, cfg, name):
    """``sweep_R`` of the continuum ``term`` (``fourth_order_main`` or
    ``fourth_order_error``) over ``grid``; a gap at its last separation,
    which the at-max scalars read, is a ``CplabError`` naming the
    separation and the gap's diagnostic."""
    tol = max(cfg.quad_rel_tol, 1e-9)
    sweep = sweep_R(grid, lambda R: term(R, params, profile,
                                         rel_tol=tol).value)
    for r, diagnostic in sweep.gaps:
        if r == grid[-1]:
            raise CplabError(f"the {name} term at R = {r!r}, the grid's last "
                             f"separation, is a gap: {diagnostic}")
    return sweep


def _continuum_sweep(cfg, params, profile, term, name, subcommand):
    """Sweep one continuum term over the grid: the table, the sweep, and
    the scalars of a power-law fit over the upper half of the grid.  A
    grid of fewer than two separations cannot be fitted and raises
    ``ConfigError`` before any term is evaluated."""
    grid = cfg.resolved_grid()
    if len(grid) < 2:
        raise ConfigError(f"key 'R_grid': {subcommand} fits a power law "
                          "and needs at least two separations")
    sweep = _sweep_to_max(grid, term, params, profile, cfg, name)
    rows = [[r, v, s7, s9] for r, v, s7, s9 in
            zip(sweep.R, sweep.value, sweep.r7_scaled, sweep.r9_scaled)]
    start = min(len(sweep.R) // 2, len(sweep.R) - 2)
    fit = fit_power_law((sweep.R[start:], sweep.value[start:]))
    scalars = {"fit_exponent": fit.exponent,
               "fit_coefficient": fit.coefficient,
               "fit_residual_rms": fit.residual_rms}
    return ["R", "value", "r7_scaled", "r9_scaled"], rows, sweep, scalars


def _run_cp_sweep(cfg, params, profile, lattice, report):
    cols, rows, sweep, scalars = _continuum_sweep(
        cfg, params, profile, fourth_order_main, "main", "cp-sweep")
    ref = cp_constant(cfg.nu0)
    scalars["cp_constant"] = ref
    scalars["r7_rel_dev_at_max"] = abs(sweep.r7_scaled[-1] - ref) / ref
    return cols, rows, scalars


def _run_error_sweep(cfg, params, profile, lattice, report):
    cols, rows, sweep, scalars = _continuum_sweep(
        cfg, params, profile, fourth_order_error, "crossed", "error-sweep")
    main = _sweep_to_max(cfg.resolved_grid()[-1:], fourth_order_main, params,
                         profile, cfg, "main")
    scalars["crossed_over_main_at_max"] = abs(2.0 * sweep.value[-1]
                                              / main.value[-1])
    return cols, rows, scalars


def _run_convergence(cfg, params, profile, lattice, report):
    ladder_l = [cfg.L, 1.5 * cfg.L, 2 * cfg.L]
    ladder_lam = [cfg.Lambda, 2 * cfg.Lambda]
    r = 0.3 * cfg.L
    rows_raw = convergence_study(ladder_l, ladder_lam, params, profile, r)
    cols = ["Lambda", "L", "N", "E1", "E2", "binding", "dE1", "dbinding"]
    rows = [[row["Lambda"], row["L"], float(row["N"]), row["E1"], row["E2"],
             row["binding"], row["dE1"], row["dbinding"]]
            for row in rows_raw]
    return cols, rows, {"R": r}


def _run_integrals_selftest(cfg, params, profile, lattice, report):
    rng = np.random.default_rng(20200426)
    cols = ["check", "value", "reference", "rel_error", "passed"]
    rows = []
    worst = 0.0
    for i in range(20):
        a, b, c = rng.uniform(0.1, 10.0, size=3)
        for kind, (na, nb, nc) in (("111", (1, 1, 1)), ("221", (2, 2, 1)),
                                   ("212", (2, 1, 2)), ("311", (3, 1, 1))):
            closed = closed_integral(kind, a, b, c)
            oracle = integral_quadrature_oracle(na, nb, nc, a, b, c)
            rel = abs(closed - oracle) / abs(oracle)
            worst = max(worst, rel)
            if i < 3:
                rows.append([float(kind), closed, oracle, rel,
                             float(rel < 1e-8)])
    sym = abs(closed_integral("221", 2.0, 3.0, 5.0)
              - closed_integral("212", 2.0, 5.0, 3.0))
    ab = ab_identity_check()
    ang = angular_factor(0.0, 0.0)
    rows.append([0.0, sym, 0.0, sym, float(sym < 1e-12)])
    rows.append([1.0, ab, 23.0 * math.pi,
                 abs(ab - 23 * math.pi) / (23 * math.pi),
                 float(abs(ab - 23 * math.pi) / (23 * math.pi) < 1e-6)])
    rows.append([2.0, ang, 6.0 * math.pi ** 2,
                 abs(ang - 6 * math.pi ** 2) / (6 * math.pi ** 2),
                 float(abs(ang - 6 * math.pi ** 2) < 1e-10)])
    scalars = {"worst_closed_form_rel_error": worst,
               "symmetry_gap": sym,
               "kernel_identity_over_23pi": ab / (23.0 * math.pi),
               "kernel_identity_times_4pi2": ab * (2 * math.pi) ** 2}
    ok = worst < 1e-8 and sym < 1e-12 and \
        abs(ab - 23 * math.pi) / (23 * math.pi) < 1e-6
    scalars["all_passed"] = float(ok)
    return cols, rows, scalars


_DISPATCH = {"check": _run_check, "energy": _run_energy,
             "binding": _run_binding, "series": _run_series,
             "cp-sweep": _run_cp_sweep, "error-sweep": _run_error_sweep,
             "convergence": _run_convergence,
             "integrals-selftest": _run_integrals_selftest}


def run(subcommand: str, config: RunConfig) -> RunReport:
    """Execute one subcommand and collect its report."""
    if subcommand not in SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand '{subcommand}'")
    t0 = time.perf_counter()
    params, profile, lattice, report = _context(config)
    cols, rows, scalars = _DISPATCH[subcommand](config, params, profile,
                                                lattice, report)
    wall = time.perf_counter() - t0
    violated = [f"constraint violated: {name}" for name in report.violated]
    return RunReport(config=config.as_dict(), constraints=report.as_dict(),
                     columns=cols, rows=rows, scalars=scalars,
                     warnings=violated, wall_clock_s=wall)


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _finite_or_null(x):
    """``x`` with every non-finite float, at any depth, replaced by
    ``None``: JSON has no NaN or infinity, so the document writes null."""
    if isinstance(x, dict):
        return {k: _finite_or_null(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_finite_or_null(v) for v in x]
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def emit(report: RunReport, output_format: str) -> str:
    """Serialize a report: CSV emits the table alone, JSON the whole report.

    Numbers carry 17 significant digits so parsing reproduces each double
    bit-exactly.  A non-finite number is ``nan`` or ``inf`` in CSV and null
    in JSON, which has neither.  The wall clock lives on stderr only; the
    document keeps a null placeholder so identical configs yield identical
    bytes.
    """
    if output_format == "csv":
        lines = [",".join(report.columns)]
        lines += [",".join(_fmt(x) for x in row) for row in report.rows]
        return "\n".join(lines) + "\n"
    if output_format == "json":
        doc = {"config": report.config, "constraints": report.constraints,
               "columns": report.columns, "rows": report.rows,
               "scalars": report.scalars, "warnings": report.warnings,
               "wall_clock_s": None, "version": report.version}
        return json.dumps(_finite_or_null(doc), indent=2, sort_keys=True,
                          allow_nan=False) + "\n"
    raise ConfigError(f"unknown output format '{output_format}'")


def _print_header(report: RunReport, stream) -> None:
    print(f"cplab {report.version}", file=stream)
    c = report.constraints
    print(f"constraints: c_inf={c['c_inf']:.6g} a={c['a']:.6g} "
          f"D_rho={c['D_rho']:.6g} c_L={c['c_L']:.6g}", file=stream)
    for name in ConstraintReport.FLAGS:
        print(f"  {name}: {'pass' if c[name] else 'FAIL'}", file=stream)
    for w in report.warnings:
        print(f"warning: {w}", file=stream)
    for k in sorted(report.scalars):
        print(f"{k} = {report.scalars[k]:.10g}", file=stream)
    print(f"wall_clock_s = {report.wall_clock_s:.3f}", file=stream)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cplab",
        description="Dipole-coupled oscillator laboratory for the retarded "
                    "van der Waals potential")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", help="path to a flat key-value or JSON "
                                         "configuration document")
    parser.add_argument("--out", help="write the result document here")
    parser.add_argument("--format", choices=("csv", "json"),
                        help="overrides output_format from the config")
    args = parser.parse_args(argv)
    try:
        if args.config:
            with open(args.config, "r", encoding="utf-8") as fh:
                config = parse_config(fh.read())
        else:
            config = RunConfig()
        report = run(args.subcommand, config)
        fmt = args.format or config.output_format
        doc = emit(report, fmt)
        _print_header(report, sys.stderr)
        out_path = args.out or config.output_path
        if out_path:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(doc)
        else:
            sys.stdout.write(doc)
    except CplabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    return 0 if not report.warnings else 2


if __name__ == "__main__":
    sys.exit(main())
