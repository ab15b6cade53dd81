"""Smoke test of the benchmark at tiny job sizes.

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced through ``run.py``,
checks the result line against ``BENCHMARK.json`` (keys, every metric
name and unit, no failed job), that traced and untraced runs produce the
same output digests, that per-layer self times add up to no more than
the traced job time, and that the benchmark refuses to run in a directory
that holds only ``BENCHMARK.json`` and the benchmark's own files.  Exits
0 when every check holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 180


def _run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def _check_result(result, units, where) -> list:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{where}: attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(units):
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(units) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(units))}")
    for name, metric in metrics.items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} = {value!r}")
        if name in units and metric.get("unit") != units[name]:
            problems.append(f"{where}: {name} unit {metric.get('unit')!r} != {units[name]!r}")
    return problems


def _check_refusal() -> list:
    """The benchmark alone, without the package source, must fail without a result."""
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "cli-pipeline", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        digests = {}
        for trace in (0, 1):
            where = f"{workload} trace={trace}"
            proc = _run(ROOT, workload, trace)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            detail = json.loads(lines[-2])["detail"]
            result = json.loads(lines[-1])
            problems += _check_result(result, units[trace], where)
            problems += [f"{where}: {p}" for p in detail["problems"]]
            digests[trace] = detail["digests"]
            if trace:
                metrics = result["metrics"]
                self_norm = sum(v["value"] for n, v in metrics.items() if n.endswith(".self_norm"))
                if self_norm > metrics["trace.traced_job_norm"]["value"] * (1 + 1e-9):
                    problems.append(f"{where}: self times {self_norm} exceed the traced job time")
        if len(digests) == 2 and digests[0] != digests[1]:
            problems.append(f"{workload}: traced digests {digests[1]} != untraced {digests[0]}")
        print(f"{workload}: {'ok' if not problems else 'FAILED'}", flush=True)
    problems += _check_refusal()
    for problem in problems:
        print(problem, file=sys.stderr)
    print("smoke: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
