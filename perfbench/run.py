"""Benchmark for sftselect: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One process, one client, jobs back to back.  Set-up is timed in
separate probe processes that start this script with ``--setup-only``,
each paired with a probe of a bare interpreter that imports numpy.  The
last line of stdout is the result, the line before it the environment and
job details; both also go to ``.perfbench_out/``.  With ``--trace 1`` the
run alternates untraced and traced jobs and reports per-layer self times
instead of the end-to-end metrics.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
TMP = ROOT / ".perfbench_tmp"
PINNED = Path(__file__).resolve().parent / "pinned.json"
PROBE_TIMEOUT_S = 60
#: Pairs of set-up and reference probes per run.
PROBES = {"full": 11, "tiny": 1}
#: The reference probe: interpreter start and ``import numpy``, the floor of
#: any set-up of the package, and independent of the package's code.
#: ``setup_s`` is the set-up time beyond it.
REF_PROBE = [sys.executable, "-c", "import numpy; print('ready', flush=True)"]
SPEED_INTERVAL_S = 0.01


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: smoke test")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "sftselect").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _probe(cmd) -> float:
    """Wall time from starting ``cmd`` until it prints ``ready``."""
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"probe {cmd[1:3]} failed with exit code {proc.returncode}")
    return elapsed


def _probe_setup(args) -> tuple:
    """Wall time of a fresh interpreter on this script until its set-up is
    done (interpreter start, imports, fixture parsing and the scratch
    directory), and of the reference probe run just before it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-only"]
    ref = _probe(REF_PROBE)
    return _probe(cmd), ref


def _reference_loop() -> float:
    """Wall time of a fixed pure-Python loop that formats 200 CSV-like rows
    of floats: a sample of the machine's current speed.  String formatting
    and allocation track the workloads' speed swings more closely than
    integer arithmetic does."""
    start = time.perf_counter()
    rows = []
    for i in range(200):
        f = i * 0.0137
        rows.append(f"{i},{f!r},{abs(f - 0.5)!r}\n")
    "".join(rows)
    return time.perf_counter() - start


class _Run:
    """Job loop state: counts, timings and digests of one run.

    While a job runs, SIGALRM times the reference loop every
    ``SPEED_INTERVAL_S`` of wall time (about 2% of the job).  The shared
    machine's speed swings by up to 1.5x within seconds and drifts over
    minutes; a job's time in reference-loop units cancels most of that.
    """

    def __init__(self, workload, pinned):
        self.workload = workload
        self.pinned = pinned
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = None
        self.times = {}  # job id -> wall seconds
        self.ref = {}  # job id -> mean reference-loop time during the job
        self.loops = {}  # job id -> wall time / ref
        self.traced_jobs = []
        self.setup = []

    def job(self, tracer=None):
        wl = self.workload
        job_id = self.attempted
        self.attempted += 1
        wl.prepare()
        if tracer is not None:
            tracer.install(job_id)
            self.traced_jobs.append(job_id)
        error = None
        speed = []
        signal.signal(signal.SIGALRM, lambda _sig, _frame: speed.append(_reference_loop()))
        signal.setitimer(signal.ITIMER_REAL, SPEED_INTERVAL_S, SPEED_INTERVAL_S)
        start = time.perf_counter()
        try:
            result = wl.job()
        except Exception as exc:  # a failing job is counted and the run goes on
            error = f"{type(exc).__name__}: {exc}"
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            if tracer is not None:
                tracer.uninstall()
        self.times[job_id] = elapsed
        self.ref[job_id] = statistics.fmean(speed or [_reference_loop()])
        self.loops[job_id] = elapsed / self.ref[job_id]
        if error is None:
            digests, problems = wl.collect(result)
            digests = dict(sorted(digests.items()))
            if self.pinned is not None and digests != self.pinned:
                problems.append(f"output digests differ from pinned.json: {digests}")
            if self.digests is None:
                self.digests = digests
            elif digests != self.digests:
                problems.append(f"job {job_id} digests differ from job 0: {digests}")
        else:
            problems = [error]
        if problems:
            self.failed += 1
            self.problems.extend(f"job {job_id}: {p}" for p in problems[:5])
        return job_id


def _measure(run, args, tracer):
    """Warm-up job, then jobs back to back until ``args.seconds`` have
    passed; a traced run alternates traced and untraced jobs, traced first.
    Set-up probes are spread evenly over the measured time."""
    probes = PROBES[args.size]
    run.job()
    untraced, traced = [], []
    start = time.perf_counter()
    deadline = start + args.seconds
    while time.perf_counter() < deadline or not untraced or (tracer and not traced):
        due = (time.perf_counter() - start) / args.seconds * probes
        if len(run.setup) < min(due, probes):
            run.setup.append(_probe_setup(args))
        use_tracer = tracer is not None and len(traced) <= len(untraced)
        job_id = run.job(tracer if use_tracer else None)
        (traced if use_tracer else untraced).append(job_id)
    while len(run.setup) < probes:
        run.setup.append(_probe_setup(args))
    return untraced, traced


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _layer_metrics(run, tracer, untraced):
    """Per traced job means.  Self times are in reference-loop units, each
    job's spans divided by that job's mean reference-loop time, so they add
    up to at most ``trace.traced_job_norm``."""
    import spans

    jobs = run.traced_jobs
    totals = defaultdict(float)
    for (job, name), seconds in tracer.self_times().items():
        totals[f"{name}.self_norm"] += seconds / run.ref[job]
    for (_job, name), count in tracer.counts.items():
        totals[name] += count
    metrics = {
        name: _metric(totals[name] / len(jobs), unit)
        for name, unit in spans.metric_units().items()
    }
    symbols_in = totals["experiment.run_experiment.symbols_in"]
    symbols_out = totals["experiment.run_experiment.symbols_out"]
    metrics["experiment.keep_ratio"]["value"] = symbols_out / symbols_in if symbols_in else 0.0
    traced_norm = statistics.fmean(run.loops[j] for j in jobs)
    attributed = sum(v for k, v in totals.items() if k.endswith(".self_norm")) / len(jobs)
    traced_s = statistics.fmean(run.times[j] for j in jobs)
    metrics["trace.traced_job_norm"]["value"] = traced_norm
    metrics["trace.overhead_norm"]["value"] = traced_norm - statistics.fmean(
        run.loops[j] for j in untraced
    )
    metrics["trace.unattributed_norm"]["value"] = traced_norm - attributed
    metrics["trace.traced_job_s"]["value"] = traced_s
    metrics["trace.overhead_s"]["value"] = traced_s - statistics.fmean(
        run.times[j] for j in untraced
    )
    metrics["trace.spans"]["value"] = len(tracer.spans) / len(jobs)
    return metrics


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "sftselect" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'sftselect'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import spans
    import sftselect
    import workloads

    if Path(sftselect.__file__).resolve().parent != SRC / "sftselect":
        print(f"error: imported sftselect from {sftselect.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    TMP.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP))
    try:
        cls = workloads.WORKLOADS[args.workload]
        wl = cls(args.seed, workloads.SIZES[args.size], tmp)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        pinned = None
        if args.size == "full" and cls.pinned_seed in (None, args.seed):
            pinned = json.loads(PINNED.read_text()).get(args.workload)
        run = _Run(wl, pinned)
        tracer = spans.Tracer() if args.trace else None
        untraced, traced = _measure(run, args, tracer)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass

    job_s = statistics.median(run.times[j] for j in untraced)
    job_norm = statistics.median(run.loops[j] for j in untraced)
    if tracer is None:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "job_norm": _metric(job_norm, "ref_loops"),
            "items_per_ref_loop": _metric(wl.items / job_norm, "1/ref_loop"),
            "peak_rss_mb": _metric(rss_mb, "MB"),
            "setup_s": _metric(statistics.median(t - ref for t, ref in run.setup), "s"),
        }
    else:
        metrics = _layer_metrics(run, tracer, untraced)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "size": args.size,
        "job_size": wl.sizes,
        "items_per_job": wl.items,
        "job_s": job_s,
        "items_per_s": wl.items / job_s,
        "job_s_samples": len(untraced),
        "traced_job_samples": len(traced),
        "setup_samples": len(run.setup),
        "job_times_s": [run.times[j] for j in sorted(run.times)],
        "setup_times_s": [t for t, _ref in run.setup],
        "ref_probe_times_s": [ref for _t, ref in run.setup],
        "job_norm_samples": [run.loops[j] for j in sorted(run.loops)],
        "digests": run.digests,
        "digests_pinned": pinned is not None,
        "problems": run.problems[:20],
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    Path(f"{stem}.json").write_text(json.dumps({"detail": detail, "result": result}, indent=1))
    if tracer is not None:
        tracer.write(f"{stem}.spans.jsonl")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
