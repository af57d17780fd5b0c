#!/usr/bin/env python3
"""cplab benchmark: one closed-loop caller drives cplab's public entry points.

Run from the repository root:

    python3 bench/run.py --workload lattice-exact --seed 1 --seconds 30

The seed generates a fixed job list (see ``workloads.py``).  The list is run
in passes, back to back, until ``--seconds`` would be exceeded (at least one
pass); timings are medians over passes.  Every job's output is checked
against its second route after the timed passes.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, including the
tracing overhead.  A human-readable
table and the machine facts precede the result, which is the last line of
standard output.  The full result and the spans are written under
``.bench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

#: BLAS threads, pinned below the core count: one thread varies least
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
#: fresh processes timed for setup_s
SETUP_PROBES = 9

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

COUNT_METRICS = (
    "oscillator.ground_energy.calls", "oscillator.ground_energy.dim3_sum",
    "oscillator.binding_energy_exact.calls",
    "oscillator.ground_energy.calls_per_binding_job",
    "traces.word_integrand_fast.calls", "quadrature.integrate.calls",
    "quadrature.integrate.nodes", "continuum.closed_integral.elements",
    "asymptotics.sweep_R.gaps")
SELF_METRICS = (
    "oscillator.ground_energy", "oscillator.assemble",
    "traces.word_integrand_fast", "traces.series_binding",
    "traces.series_one_electron", "quadrature.integrate",
    "continuum.closed_integral", "continuum.fourth_order_main",
    "continuum.fourth_order_error", "asymptotics.sweep_R",
    "asymptotics.convergence_study", "asymptotics.fit_power_law",
    "model.build_lattice", "model.check_constraints", "cli.parse_config",
    "cli.run", "cli.emit")
TRACE_TIMES = ("trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s",
               "trace.layers_self_s", "trace.unattributed_s")


def per_layer_names():
    return ([(n, "count") for n in COUNT_METRICS]
            + [(n + ".self_s", "s") for n in SELF_METRICS]
            + [(n, "s") for n in TRACE_TIMES] + [("trace.spans", "count")])


def _pin_blas() -> None:
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, if it can be asked."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh
                     if "blas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": _blas_threads(),
            "blas_threads_requested": BLAS_THREADS,
            "numpy": np.__version__, "python": platform.python_version(),
            "machine": platform.machine()}


def _setup_seconds(workload: str) -> list:
    """Wall time of fresh processes that import cplab and warm up."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           workload, "--setup-probe"]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        # no timeout: a timed wait polls in steps of up to 50 ms
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return samples


def _run_passes(jobs, seconds, cplab=None, tracer=None):
    """Run the job list in passes until ``seconds`` would be exceeded.

    With a tracer, passes alternate between untraced and traced (at least
    one of each), so that both see the same interference.  Returns one dict
    per pass: job times, job documents and, for traced passes, self seconds
    by layer per job and the pass's counters.
    """
    import workloads
    passes = []
    t_start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.start_pass()
            tracer.install(cplab)
        times, docs = [], []
        try:
            for i, job in enumerate(jobs):
                t0 = time.perf_counter()
                if traced:
                    doc = tracer.run_job(i, job.kind,
                                         lambda: workloads.execute(job))
                else:
                    doc = workloads.execute(job)
                times.append(time.perf_counter() - t0)
                docs.append(doc)
        finally:
            if traced:
                tracer.restore()
        record = {"times": times, "docs": docs, "traced": traced}
        if traced:
            record["layers"] = tracer.pass_layers(len(jobs))
            record["counts"] = tracer.pass_counts()
        passes.append(record)
        elapsed = time.perf_counter() - t_start
        typical = statistics.median(sum(p["times"]) for p in passes)
        if elapsed + typical > seconds and (tracer is None or traced):
            return passes


def _fastest(passes):
    """For each job, the index of the pass in which it ran fastest."""
    return [min(range(len(passes)), key=lambda k: passes[k]["times"][i])
            for i in range(len(passes[0]["times"]))]


def _best_times(passes):
    """Each job's best time over the passes.

    Interference from other processes only ever adds time, and on a shared
    host it comes in phases of several seconds; the best time per job is
    far steadier than any statistic of whole passes.
    """
    return [passes[k]["times"][i] for i, k in enumerate(_fastest(passes))]


def _layer_metrics(jobs, untraced, traced):
    """Per-layer metrics from the traced passes.

    Self times come from each job's fastest traced pass, so that the layers
    plus the unattributed glue add up to ``trace.wall_s``.
    """
    from spans import JOB_PREFIX
    self_s = {}
    for i, k in enumerate(_fastest(traced)):
        for name, sec in traced[k]["layers"][i].items():
            self_s[name] = self_s.get(name, 0.0) + sec
    counts = traced[0]["counts"]
    stable = all(p["counts"] == counts for p in traced)
    calls = {}
    for key, n in counts.items():
        if isinstance(key, tuple):
            calls[key[0]] = calls.get(key[0], 0) + n
    binding_jobs = sum(job.kind == "binding" for job in jobs)
    out = {name: counts.get(name, 0) for name in COUNT_METRICS}
    for name in ("oscillator.ground_energy", "oscillator.binding_energy_exact",
                 "traces.word_integrand_fast", "quadrature.integrate"):
        out[name + ".calls"] = calls.get(name, 0)
    out["oscillator.ground_energy.calls_per_binding_job"] = (
        counts.get(("oscillator.ground_energy", "binding"), 0) / binding_jobs
        if binding_jobs else 0)
    out.update({n + ".self_s": self_s.get(n, 0.0) for n in SELF_METRICS})
    unattributed = sum(v for k, v in self_s.items()
                       if k.startswith(JOB_PREFIX))
    out["trace.wall_s"] = sum(_best_times(traced))
    out["trace.untraced_wall_s"] = sum(_best_times(untraced))
    out["trace.overhead_s"] = (out["trace.wall_s"]
                               - out["trace.untraced_wall_s"])
    out["trace.layers_self_s"] = sum(self_s.values()) - unattributed
    out["trace.unattributed_s"] = unattributed
    out["trace.spans"] = counts["trace.spans"]
    return out, stable


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="import, warm up and exit (times setup_s)")
    args = parser.parse_args(argv)

    if not (SRC / "cplab" / "__init__.py").is_file():
        print(f"error: no cplab sources under {SRC}", file=sys.stderr)
        return 2
    _pin_blas()
    sys.path.insert(0, str(SRC))
    import cplab
    if Path(cplab.__file__).resolve().parent != SRC / "cplab":
        print(f"error: imported cplab from {cplab.__file__}", file=sys.stderr)
        return 2
    import workloads
    from spans import Tracer
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {workloads.WORKLOADS}")

    # warm-up policy: BLAS start-up and first calls happen here, counted in
    # setup_s (by the probes) and never in a job
    workloads.blas_warmup()
    for job in workloads.warmup_jobs(args.workload):
        workloads.execute(job)
    if args.setup_probe:
        return 0

    jobs = workloads.generate(args.workload, args.seed)
    setup = [] if args.trace else _setup_seconds(args.workload)
    tracer = Tracer() if args.trace else None
    passes = _run_passes(jobs, args.seconds, cplab, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # correctness: identical documents on every pass, then the dual routes.
    # Each operation of the job list counts once, whatever the number of
    # passes, so that attempted and failed depend on the seed alone.
    reproducible = all(p["docs"] == passes[0]["docs"] for p in passes)
    checker = workloads.Checker()
    failures = []
    attempted = 0
    for job, doc in zip(jobs, passes[0]["docs"]):
        verdicts = checker.verdicts(job, doc)
        attempted += len(verdicts)
        failures += [(job, reason) for reason in verdicts if reason]
    failed = len(failures)

    best = _best_times(passes)
    kinds = {k: sum(t for t, job in zip(best, jobs) if job.kind == k)
             for k in workloads.KINDS}
    pass_walls = [sum(p["times"]) for p in passes]
    facts = machine_facts()
    if args.trace:
        metrics_raw, counts_stable = _layer_metrics(
            jobs, [p for p in passes if not p["traced"]],
            [p for p in passes if p["traced"]])
        units = dict(per_layer_names())
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.json.gz",
                     {"workload": args.workload, "seed": args.seed,
                      "jobs": [job.kind for job in jobs], "machine": facts})
    else:
        counts_stable = True
        metrics_raw = {"wall_s": sum(best),
                       "setup_s": statistics.median(setup),
                       "peak_rss_mb": peak_rss_mb}
        units = dict(END_TO_END)
    correct = (reproducible and counts_stable
               and all(math.isfinite(v) for v in metrics_raw.values()))
    metrics = {k: {"value": v, "unit": units[k]}
               for k, v in metrics_raw.items()}
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "jobs": len(jobs), "passes": len(passes),
              "pass_walls_s": pass_walls, "setup_samples_s": setup,
              "kind_seconds": kinds, "failed_frac": failed / attempted,
              "correct": correct, "reproducible": reproducible,
              "counts_stable": counts_stable, "attempted": attempted,
              "failed": failed, "metrics": metrics, "machine": facts,
              "failures": [f"{job.kind} {job.call}: {reason}"
                           for job, reason in failures]}
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"result-{args.workload}-{args.seed}"
              f"-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)

    print(f"# cplab benchmark: workload {args.workload}, seed {args.seed}, "
          f"{len(jobs)} jobs x {len(passes)} passes, one closed-loop caller")
    print("# machine " + json.dumps(facts, sort_keys=True))
    print(f"# pass wall: median {statistics.median(pass_walls):.4g} s, "
          f"max {max(pass_walls):.4g} s over {len(passes)} passes")
    for name, entry in metrics.items():
        print(f"{name:50s} {entry['value']:>16.6g} {entry['unit']}")
    if not args.trace:
        print(f"{'failed_frac':50s} {failed / attempted:>16.6g} 1"
              f"   ({failed}/{attempted} operations)")
        for kind in workloads.KINDS:
            print(f"{kind + '_s':50s} {kinds[kind]:>16.6g} s")
    for job, reason in failures:
        print(f"failed: {job.kind} {job.call}: {reason}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
