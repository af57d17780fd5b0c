#!/usr/bin/env python3
"""Self-test of the cplab benchmark.

Run from the repository root (takes about two minutes):

    python3 bench/selftest.py

For each workload it runs the benchmark twice with the same seed, traced,
and asserts that every count metric (quadrature nodes, word-integrand
calls, ground_energy calls, the dim**3 sum, closed-form elements, ...)
repeats exactly, that both runs report ``correct``, and that the printed
metric names and units are the ones ``BENCHMARK.json`` declares.  It also
runs the benchmark untraced once per workload, and once in a directory
holding only ``BENCHMARK.json`` and ``bench/``, where it must fail without
printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(workload, seed, trace, cwd=ROOT):
    """One short run: a single pass, or one untraced and one traced pass."""
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def _result(proc):
    if proc.returncode != 0:
        raise AssertionError(f"benchmark exited {proc.returncode}:\n"
                             f"{proc.stderr}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res
    assert res["correct"] is True, res
    assert res["attempted"] >= 1 and 0 <= res["failed"] <= res["attempted"]
    return res


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in (w["name"] for w in spec["workloads"]):
        first, second = (_result(_run(workload, 7, 1)) for _ in range(2))
        for res in (first, second):
            assert {k: v["unit"] for k, v in res["metrics"].items()} == \
                declared[1], workload
        counts = [name for name, unit in declared[1].items()
                  if unit == "count"]
        differ = [name for name in counts
                  if first["metrics"][name]["value"]
                  != second["metrics"][name]["value"]]
        assert not differ, f"{workload}: counts differ between runs: {differ}"
        assert first["attempted"] == second["attempted"]
        assert first["failed"] == second["failed"]
        untraced = _result(_run(workload, 7, 0))
        assert {k: v["unit"] for k, v in untraced["metrics"].items()} == \
            declared[0], workload
        assert all(v["value"] > 0 for v in untraced["metrics"].values())
        print(f"ok {workload}: {len(counts)} counts repeat exactly, "
              f"{first['failed']}/{first['attempted']} operations failed")

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(spec["workloads"][0]["name"], 7, 0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok: without the sources the benchmark fails and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
