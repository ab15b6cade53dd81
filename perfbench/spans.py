"""Per-layer tracing from outside the package.

The tracer replaces public functions of ``sftselect`` with timing wrappers
for the duration of one job and puts the originals back afterwards.  A
function is replaced under every name a package module binds it to, so a
caller sees the wrapper whichever module it imported the name from.
Generators are timed per ``next()``.  Spans are kept in memory as
(name, start, end, parent, job) and written out when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict


def _nominal_runs(selector, n):
    return len(selector.alphabet) ** n


_COUNT = "count"
_NORM = "ref_loops"

#: (layer name, module, attribute, is_generator, counters, counter units).
#: ``counters(args, result)`` gives the counts of one call, so they
#: do not depend on the clock; ``nominal_runs`` is #A**n per call, computed
#: from the arguments, not observed.  The run_experiment counters are not
#: reported themselves; they give ``experiment.keep_ratio``.
LAYERS = (
    ("seqgen.generate_chunks", "sftselect.seqgen", "generate_chunks", True,
     lambda a, r: {"symbols": len(r)}, {"symbols": _COUNT}),
    ("seqgen.splitmix64_floats", "sftselect.seqgen", "splitmix64_floats", False, None, {}),
    ("seqgen.sample_markov", "sftselect.seqgen", "sample_markov", False, None, {}),
    ("experiment.run_experiment", "sftselect.experiment", "run_experiment", False,
     lambda a, r: {"symbols_in": r.input_length, "symbols_out": r.output_length}, {}),
    ("machines.SelectionCursor.feed_indices", "sftselect.machines",
     "SelectionCursor.feed_indices", False,
     lambda a, r: {"symbols_in": len(a[1]), "symbols_out": len(r)},
     {"symbols_in": _COUNT, "symbols_out": _COUNT}),
    ("seqgen.BlockCounter.update", "sftselect.seqgen", "BlockCounter.update", False,
     lambda a, r: {"calls": 1, "symbols": len(a[1])}, {"calls": _COUNT, "symbols": _COUNT}),
    ("seqgen.discrepancy", "sftselect.seqgen", "discrepancy", False, None, {}),
    ("measures.block_measure_array", "sftselect.measures", "block_measure_array", False,
     None, {}),
    ("experiment.write_experiment_csv", "sftselect.experiment", "write_experiment_csv", False,
     lambda a, r: {"bytes": a[1].tell()}, {"bytes": "B"}),
    ("oracles.count_output_prefix_runs", "sftselect.oracles", "count_output_prefix_runs",
     False, lambda a, r: {"calls": 1, "nominal_runs": _nominal_runs(a[0], a[2])},
     {"calls": _COUNT, "nominal_runs": _COUNT}),
    ("oracles.measure_output_prefix_runs", "sftselect.oracles", "measure_output_prefix_runs",
     False, lambda a, r: {"calls": 1, "nominal_runs": _nominal_runs(a[0], a[4])},
     {"calls": _COUNT, "nominal_runs": _COUNT}),
    ("oracles.equirun_scan", "sftselect.oracles", "equirun_scan", False,
     lambda a, r: {"witness_n": r.witness_n or 0}, {"witness_n": _COUNT}),
    ("chains.snake_distribution", "sftselect.chains", "snake_distribution", False, None, {}),
    ("machines.snake_automaton", "sftselect.machines", "snake_automaton", False, None, {}),
    ("machines.scc_decomposition", "sftselect.machines", "scc_decomposition", False, None, {}),
    ("compat.check_selector_compatibility", "sftselect.compat",
     "check_selector_compatibility", False, lambda a, r: {"calls": 1}, {"calls": _COUNT}),
    ("formats.write_symbol_text", "sftselect.formats", "write_symbol_text", False,
     lambda a, r: {"bytes": len(r)}, {"bytes": "B"}),
    ("formats.read_symbol_text", "sftselect.formats", "read_symbol_text", False,
     lambda a, r: {"bytes": len(a[1])}, {"bytes": "B"}),
    ("formats.serialize_measure", "sftselect.formats", "serialize_measure", False, None, {}),
)

#: Subcommands the workloads run; ``cli.main`` is traced as ``cli.<subcommand>``.
CLI_COMMANDS = ("gen", "select", "freq", "lemma-check", "snake")


def metric_units() -> dict:
    """Every per-layer metric the traced run emits, name -> unit.  Self
    times are in reference-loop units, like the end-to-end ``job_norm``."""
    units = {}
    for name, _module, _attr, _gen, _counters, counter_units in LAYERS:
        units[f"{name}.self_norm"] = _NORM
        units.update({f"{name}.{c}": unit for c, unit in counter_units.items()})
    units["experiment.keep_ratio"] = "ratio"
    units.update({f"cli.{command}.self_norm": _NORM for command in CLI_COMMANDS})
    units.update(
        {
            "trace.traced_job_norm": _NORM,
            "trace.overhead_norm": _NORM,
            "trace.unattributed_norm": _NORM,
            "trace.traced_job_s": "s",
            "trace.overhead_s": "s",
            "trace.spans": _COUNT,
        }
    )
    return units


def _resolve(module_name, attr):
    owner = sys.modules[module_name]
    for part in attr.split(".")[:-1]:
        owner = getattr(owner, part)
    return owner, attr.split(".")[-1]


class Tracer:
    """Span recorder; ``install(job)`` wraps the layers, ``uninstall()``
    restores the originals."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, job]
        self.counts = defaultdict(float)  # (job, metric) -> total
        self._stack = []
        self._job = None
        self._restore = []

    def _enter(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._job])
        return index

    def _exit(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _count(self, name, counters, args, result):
        if counters is not None:
            for key, value in counters(args, result).items():
                self.counts[(self._job, f"{name}.{key}")] += value

    def _wrap(self, name, fn, counters):
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(index)
            tracer._count(name, counters, args, result)
            return result

        return wrapper

    def _wrap_generator(self, name, fn, counters):
        tracer = self

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    index = tracer._enter(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(index)
                    tracer._count(name, counters, args, item)
                    yield item
            finally:
                inner.close()

        return wrapper

    def _wrap_cli(self, fn):
        tracer = self

        def wrapper(argv):
            index = tracer._enter(f"cli.{argv[0]}")
            try:
                return fn(argv)
            finally:
                tracer._exit(index)

        return wrapper

    def _replace(self, original, wrapper):
        """Bind ``wrapper`` wherever a package module binds ``original``."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "sftselect" and not mod_name.startswith("sftselect."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, original))

    def install(self, job):
        self._job = job
        for name, module, attr, is_gen, counters, _units in LAYERS:
            owner, leaf = _resolve(module, attr)
            original = vars(owner)[leaf]
            make = self._wrap_generator if is_gen else self._wrap
            wrapper = make(name, original, counters)
            if isinstance(owner, type):
                setattr(owner, leaf, wrapper)
                self._restore.append((owner, leaf, original))
            else:
                self._replace(original, wrapper)
        cli = sys.modules["sftselect.cli"]
        self._restore.append((cli, "main", cli.main))
        cli.main = self._wrap_cli(cli.main)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        self._job = None

    def self_times(self) -> dict:
        """(job, layer) -> self time: span duration minus the time its
        direct child spans cover."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _job in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(float)
        for i, (name, start, end, _parent, job) in enumerate(self.spans):
            totals[(job, name)] += (end - start) - child[i]
        return totals

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
