"""Span recording around cplab's public functions, installed from outside.

A ``Tracer`` replaces each listed function by a wrapper in every cplab
module namespace that binds it (``cli``, ``traces`` and ``asymptotics``
import names directly, so patching the defining module alone would miss
their calls).  Each call records a span ``[name, start, end, parent, job]``
in memory.  A layer's self time is its spans' duration minus the part
covered by their direct children.

The integrand handed to ``integrate_interval`` is wrapped as well: its span
carries the name of the layer that called the integrator, so integrand time
is credited to that layer and ``quadrature.integrate`` keeps only the
integrator's own bookkeeping.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np

#: metric-name prefix of the root span opened around every job
JOB_PREFIX = "job."


def _dim3(counts, args, kwargs, out):
    form = args[0] if args else kwargs["form"]
    counts["oscillator.ground_energy.dim3_sum"] += form.dim ** 3


def _elements(counts, args, kwargs, out):
    counts["continuum.closed_integral.elements"] += int(np.size(out))


def _gaps(counts, args, kwargs, out):
    counts["asymptotics.sweep_R.gaps"] += len(out.gaps)


def layer_targets(cplab) -> List[tuple]:
    """``(owner, attribute, layer, counter)`` for every traced function."""
    osc, tr, qu = cplab.oscillator, cplab.traces, cplab.quadrature
    co, asy, mo, cli = (cplab.continuum, cplab.asymptotics, cplab.model,
                        cplab.cli)
    return [
        (osc, "ground_energy", "oscillator.ground_energy", _dim3),
        (osc, "assemble_one_electron", "oscillator.assemble", None),
        (osc, "assemble_two_electron", "oscillator.assemble", None),
        (osc, "binding_energy_exact", "oscillator.binding_energy_exact",
         None),
        (tr.TraceSystem, "word_integrand_fast", "traces.word_integrand_fast",
         None),
        (tr, "series_binding", "traces.series_binding", None),
        (tr, "series_one_electron", "traces.series_one_electron", None),
        (qu, "integrate_interval", "quadrature.integrate", None),
        (co, "closed_integral", "continuum.closed_integral", _elements),
        (co, "fourth_order_main", "continuum.fourth_order_main", None),
        (co, "fourth_order_error", "continuum.fourth_order_error", None),
        (asy, "sweep_R", "asymptotics.sweep_R", _gaps),
        (asy, "convergence_study", "asymptotics.convergence_study", None),
        (asy, "fit_power_law", "asymptotics.fit_power_law", None),
        (mo, "build_lattice", "model.build_lattice", None),
        (mo, "check_constraints", "model.check_constraints", None),
        (cli, "parse_config", "cli.parse_config", None),
        (cli, "run", "cli.run", None),
        (cli, "emit", "cli.emit", None),
    ]


class Tracer:
    """In-memory spans and per-pass counters for wrapped cplab functions."""

    def __init__(self):
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.job: int = -1
        self._kind: str = ""
        self._stack: List[int] = []
        self._pass_start = 0
        self.pass_starts: List[int] = []
        self._patched: List[tuple] = []

    # -- span bookkeeping ---------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.job])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def run_job(self, job_id: int, kind: str, fn: Callable):
        """Call ``fn`` under a root span named after the job kind.

        ``job_id`` is the job's index in the list; spans of one pass start
        at the matching entry of ``pass_starts``.
        """
        self.job, self._kind = job_id, kind
        idx = self._open(JOB_PREFIX + kind)
        try:
            return fn()
        finally:
            self._close(idx)

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, counter: Optional[Callable]):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[(name, tracer._kind)] += 1
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counter is not None:
                counter(tracer.counts, args, kwargs, out)
            return out

        return wrapper

    def _wrap_integrator(self, fn: Callable):
        tracer = self
        name = "quadrature.integrate"

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            caller = tracer.spans[tracer._stack[-1]][0]

            def integrand(x):
                tracer.counts["quadrature.integrate.nodes"] += int(np.size(x))
                idx = tracer._open(caller)
                try:
                    return f(x)
                finally:
                    tracer._close(idx)

            tracer.counts[(name, tracer._kind)] += 1
            idx = tracer._open(name)
            try:
                return fn(integrand, *args, **kwargs)
            finally:
                tracer._close(idx)

        return wrapper

    def install(self, cplab) -> None:
        """Patch every binding of each target function in the cplab package."""
        modules = [cplab] + [getattr(cplab, m) for m in
                             ("cli", "traces", "asymptotics", "oscillator",
                              "continuum", "quadrature", "model")]
        for owner, attr, name, counter in layer_targets(cplab):
            original = getattr(owner, attr)
            wrapped = (self._wrap_integrator(original)
                       if name == "quadrature.integrate"
                       else self._wrap(name, original, counter))
            if isinstance(owner, type):
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                keys = [k for k, v in vars(mod).items() if v is original]
                for key in keys:
                    self._patched.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def restore(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # -- aggregation ----------------------------------------------------------

    def start_pass(self) -> None:
        self._pass_start = len(self.spans)
        self.pass_starts.append(self._pass_start)
        self.counts = Counter()

    def pass_layers(self, n_jobs: int) -> List[Dict[str, float]]:
        """Self seconds by layer for each job of the current pass."""
        spans = self.spans[self._pass_start:]
        base = self._pass_start
        child = defaultdict(float)
        for name, start, end, parent, job in spans:
            if parent >= base:
                child[parent - base] += end - start
        per_job: List[Dict[str, float]] = [defaultdict(float)
                                           for _ in range(n_jobs)]
        for i, (name, start, end, parent, job) in enumerate(spans):
            per_job[job][name] += (end - start) - child[i]
        return per_job

    def pass_counts(self) -> Counter:
        """Counters of the current pass, with the number of spans."""
        counts = Counter(self.counts)
        counts["trace.spans"] = len(self.spans) - self._pass_start
        return counts

    def write(self, path, meta: Dict) -> None:
        """Dump every span as gzipped JSON with a name table."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {"meta": meta, "pass_starts": self.pass_starts, "names": names,
               "columns": ["name", "start", "end", "parent", "job"],
               "spans": [[index[s[0]], s[1], s[2], s[3], s[4]]
                         for s in self.spans]}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)
