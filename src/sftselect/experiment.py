"""End-to-end frequency-preservation experiments.

An experiment generates a reproducible input sequence, streams it through a
selector, counts length-k blocks on both sides, and compares the output
frequencies against the target measure (uniform or Markov).  The sequence
is processed in bounded chunks: memory stays O(#states + #A**max(k))
however long the input is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, TextIO

import numpy as np

from .compat import CompatibilityResult, check_selector_compatibility
from .errors import NotCompatible, ValidationError
from .formats import machine_digest
from .machines import Selector, _require_oblivious, scc_decomposition, transition_rows, walk
from .measures import MarkovMeasure, block_measure_array, support_forbidden_blocks, uniform_measure
from .seqgen import (
    SLIDING,
    ALIGNED,
    BlockCounter,
    FrequencyReport,
    GeneratorSpec,
    discrepancy,
    generate_chunks,
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to rerun an experiment bit-for-bit."""

    selector: Selector
    generator: GeneratorSpec
    measure: Optional[MarkovMeasure] = None  # None = uniform target
    ks: tuple = (1, 2, 3)
    mode: str = SLIDING
    tolerance: float = 0.01
    after_recurrent: bool = False
    chunk: int = 1 << 16

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValidationError("tolerance must be positive")
        if not self.ks or any(k < 1 for k in self.ks):
            raise ValidationError("block lengths must be >= 1")
        if self.generator.n < max(self.ks) * 100:
            raise ValidationError(
                f"input length {self.generator.n} is too short for meaningful "
                f"frequencies at k = {max(self.ks)} (need at least {max(self.ks) * 100})"
            )
        if self.mode not in (SLIDING, ALIGNED):
            raise ValidationError(f"unknown counting mode {self.mode!r}")

    @property
    def target(self) -> MarkovMeasure:
        return self.measure if self.measure is not None else uniform_measure(
            self.selector.alphabet
        )


@dataclass(frozen=True)
class ExperimentReport:
    """Discrepancies on both sides of the selector plus the support check.

    ``passed`` follows the tolerance contract only (every output discrepancy
    within tolerance); ``support_ok`` separately records that no forbidden
    block of the target measure occurred in the output, and the CLI demands
    both for a zero exit.
    """

    config: ExperimentConfig = field(repr=False)
    input_length: int
    output_length: int
    input_discrepancies: dict
    output_discrepancies: dict
    output_reports: dict = field(repr=False)
    input_reports: dict = field(repr=False)
    forbidden_counts: dict
    recurrent_entry: Optional[int]
    compatibility: Optional[CompatibilityResult] = field(repr=False, default=None)

    @property
    def passed(self) -> bool:
        return all(d <= self.config.tolerance for d in self.output_discrepancies.values())

    @property
    def support_ok(self) -> bool:
        return all(c == 0 for c in self.forbidden_counts.values())


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Stream the generated input through the selector and report.

    Preconditions: the selector must be oblivious, and in Markov mode it
    must pass compatibility checking against the measure (the caller sees
    the violations in the raised NotCompatible via
    ``check_selector_compatibility``).  With ``after_recurrent`` counting is
    restarted at the position where the run enters a recurrent component;
    by default the transient prefix is counted too, tolerances absorb it.
    """
    selector = config.selector
    _require_oblivious(selector)
    compat = None
    if config.measure is not None:
        compat = check_selector_compatibility(selector, config.measure)
        if not compat.ok:
            raise NotCompatible(compat.violations)

    target = config.target
    alpha = selector.alphabet
    na = len(alpha)
    nxt, keep = selector.tables()
    rows = transition_rows(nxt)

    scc = scc_decomposition(selector)
    recurrent = np.array([scc.recurrent[scc.component_of(q)] for q in selector.states])
    state = selector.state_index(selector.initial)
    entry_pos: Optional[int] = 0 if recurrent[state] else None

    in_counters = {k: BlockCounter(na, k, config.mode) for k in config.ks}
    out_counters = {k: BlockCounter(na, k, config.mode) for k in config.ks}
    pair_counter = BlockCounter(na, 2, SLIDING)  # forbidden-block watch

    pos = 0
    for chunk in generate_chunks(config.generator, config.chunk):
        path = walk(selector, rows, chunk, state, pos)
        kept = keep[path[:-1], chunk]
        out = chunk[kept]
        split_in = split_out = 0
        if entry_pos is None:
            hits = np.flatnonzero(recurrent[path[1:]])
            split_in = int(hits[0]) + 1 if hits.size else chunk.size
            split_out = int(np.count_nonzero(kept[:split_in]))
            if hits.size:
                entry_pos = pos + split_in
        pos += chunk.size
        state = int(path[-1])
        if config.after_recurrent:
            in_chunk = chunk[split_in:]
            out_chunk = out[split_out:]
        else:
            in_chunk = chunk
            out_chunk = out
        for counter in in_counters.values():
            counter.update(in_chunk)
        for counter in out_counters.values():
            counter.update(out_chunk)
        pair_counter.update(out_chunk)

    input_reports = {}
    output_reports = {}
    input_disc = {}
    output_disc = {}
    for k in config.ks:
        cin, cout = in_counters[k], out_counters[k]
        rin = FrequencyReport(alphabet=alpha, mode=config.mode, k=k, n=cin.n, counts=cin.counts)
        rout = FrequencyReport(alphabet=alpha, mode=config.mode, k=k, n=cout.n, counts=cout.counts)
        input_reports[k] = rin
        output_reports[k] = rout
        input_disc[k] = discrepancy(rin, target)
        output_disc[k] = discrepancy(rout, target)

    forbidden = {}
    for a, b in sorted(support_forbidden_blocks(target)):
        code = alpha.index(a) * na + alpha.index(b)
        forbidden[(a, b)] = int(pair_counter.counts[code])

    return ExperimentReport(
        config=config,
        input_length=pos,
        output_length=out_counters[config.ks[0]].n,
        input_discrepancies=input_disc,
        output_discrepancies=output_disc,
        output_reports=output_reports,
        input_reports=input_reports,
        forbidden_counts=forbidden,
        recurrent_entry=entry_pos,
        compatibility=compat,
    )


def write_experiment_csv(report: ExperimentReport, out: TextIO):
    """Deterministic CSV: provenance comments, one block row per output
    block for every requested k (ascending k, blocks lexicographic), and a
    PASS/FAIL footer."""
    config = report.config
    gen = config.generator
    out.write(f"# generator={gen.kind}\n")
    out.write(f"# seed={gen.seed}\n")
    out.write(f"# n={gen.n}\n")
    out.write(f"# selector={machine_digest(config.selector)}\n")
    out.write(f"# mode={config.mode}\n")
    out.write(f"# tolerance={config.tolerance!r}\n")
    out.write(f"# target={'markov' if config.measure is not None else 'uniform'}\n")
    entry = report.recurrent_entry
    out.write(f"# recurrent_entry={entry if entry is not None else 'never'}\n")
    out.write(f"# output_length={report.output_length}\n")
    for k in sorted(config.ks):
        out.write(f"# input_D_{k}={report.input_discrepancies[k]!r}\n")
    out.write("block,count,frequency,target,abs_error\n")
    target = config.target
    for k in sorted(config.ks):
        rep = report.output_reports[k]
        targets = block_measure_array(target, k)
        freqs = rep.frequencies
        for code, word in enumerate(rep.alphabet.words(k)):
            label = rep.alphabet.word_label(word)
            f = float(freqs[code])
            t = float(targets[code])
            out.write(f"{label},{int(rep.counts[code])},{f!r},{t!r},{abs(f - t)!r}\n")
    failures = [
        f"D_{k}={report.output_discrepancies[k]!r}"
        for k in sorted(config.ks)
        if report.output_discrepancies[k] > config.tolerance
    ]
    support_failures = [
        f"occ({a}{b})={c}" for (a, b), c in report.forbidden_counts.items() if c
    ]
    if failures or support_failures:
        out.write(f"# RESULT FAIL {' '.join(failures + support_failures)}\n")
    else:
        out.write("# RESULT PASS\n")
