"""End-to-end frequency-preservation experiments.

An experiment generates a reproducible input sequence, streams it through a
selector, counts length-k blocks on both sides, and compares the output
frequencies against the target measure (uniform or Markov).  The sequence
is processed in bounded chunks: memory stays O(#states + #A**max(k))
however long the input is, with one count vector per side when sliding.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Optional, TextIO

import numpy as np

from .compat import CompatibilityResult, check_selector_compatibility
from .errors import NotCompatible, ValidationError
from .formats import machine_digest
from .machines import Selector, _require_oblivious, scc_decomposition, transition_rows, walk
from .measures import MarkovMeasure, block_measure_ladder, support_forbidden_blocks, uniform_measure
from .seqgen import (
    SLIDING,
    ALIGNED,
    BlockCounter,
    FrequencyReport,
    GeneratorSpec,
    generate_chunks,
)

# most block rows joined into one write, and most labels in a suffix list
_CSV_SLICE = 1024


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
        # each block length is counted and written once, shortest first
        object.__setattr__(self, "ks", tuple(sorted(set(self.ks or ()))))
        if not self.tolerance > 0:  # NaN too
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
    Sliding counts of every k, and of the forbidden-pair watch, are
    marginals of one counter per side at max(ks + (2,)); aligned blocks do
    not nest, so aligned mode keeps one counter per k and a pair counter.
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
    if target.alphabet != alpha:
        raise ValidationError("target measure and selector use different alphabets")
    na = len(alpha)
    nxt, keep = selector.tables()
    table = transition_rows(nxt)

    scc = scc_decomposition(selector)
    recurrent = np.array([scc.recurrent[scc.component_of(q)] for q in selector.states])
    state = selector.state_index(selector.initial)
    entry_pos: Optional[int] = 0 if recurrent[state] else None

    sliding = config.mode == SLIDING
    lengths = [max(*config.ks, 2)] if sliding else config.ks
    in_counters = [BlockCounter(na, k, config.mode) for k in lengths]
    out_counters = [BlockCounter(na, k, config.mode) for k in lengths]
    if not sliding:
        out_counters.append(BlockCounter(na, 2))  # the forbidden-pair watch

    pos = 0
    for chunk in generate_chunks(config.generator, config.chunk):
        path = walk(selector, table, chunk, state, pos)
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
        for counter in in_counters:
            counter.update(in_chunk)
        for counter in out_counters:
            counter.update(out_chunk)

    def reports(counters) -> dict:
        return {
            k: FrequencyReport(
                alphabet=alpha, mode=config.mode, k=k, n=counters[0].n,
                counts=counters[0].marginal(k) if sliding else counters[lengths.index(k)].counts,
            )
            for k in config.ks
        }

    input_reports = reports(in_counters)
    output_reports = reports(out_counters)
    gaps = {
        k: (input_reports[k].max_gap(t), output_reports[k].max_gap(t))
        for k, t in block_measure_ladder(target, config.ks)
    }
    input_disc = {k: gaps[k][0] for k in config.ks}
    output_disc = {k: gaps[k][1] for k in config.ks}

    pairs = out_counters[0].marginal(2) if sliding else out_counters[-1].counts
    forbidden = {}
    for a, b in sorted(support_forbidden_blocks(target)):
        forbidden[(a, b)] = int(pairs[alpha.index(a) * na + alpha.index(b)])

    return ExperimentReport(
        config=config,
        input_length=pos,
        output_length=out_counters[0].n,
        input_discrepancies=input_disc,
        output_discrepancies=output_disc,
        output_reports=output_reports,
        input_reports=input_reports,
        forbidden_counts=forbidden,
        recurrent_entry=entry_pos,
        compatibility=compat,
    )


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values; unlike ``np.unique``, which hashes in
    numpy 2.4 and peaks at about three times the input, one sorted copy."""
    s = np.sort(values)
    return s[np.concatenate(([True], s[1:] != s[:-1]))]


def _write_block_rows(rep: FrequencyReport, targets: Optional[np.ndarray], out: TextIO):
    """Write the rows of one block length, blocks in lexicographic order.
    A row is a label and a tail, ``,count,frequency,target,abs_error``
    (``,count,frequency`` when ``targets`` is None); each distinct (count,
    target bits) tail is formatted once.  A label is a head of leading
    letters plus one of the labels of the last m letters, built once: m is
    the most letters, 1 to k, with #A**m <= ``_CSV_SLICE`` (1 if #A is
    larger).  Each head's rows, #A**m of them, go out in one ``write``."""
    counts = np.asarray(rep.counts, dtype=np.int64)
    freqs = rep.frequencies
    columns = [counts]
    if targets is not None:
        columns.append(np.ascontiguousarray(targets, dtype=np.float64).view(np.uint64))
    levels = [_distinct(column) for column in columns]
    alpha = rep.alphabet
    sep = "" if alpha.single_char else " "
    m = 1
    while m < rep.k and len(alpha) ** (m + 1) <= _CSV_SLICE:
        m += 1
    suffixes = [sep.join(w) for w in alpha.words(m)]
    tails, lo = {}, 0
    for letters in alpha.words(rep.k - m):
        hi = lo + len(suffixes)
        # a tail's key: its count's rank, then its target bits' rank
        key = 0
        for column, level in zip(columns, levels):
            key = key * level.size + np.searchsorted(level, column[lo:hi])
        keys = key.tolist()
        rows = dict(zip(keys, range(lo, hi)))  # a row of each key
        for new in rows.keys() - tails.keys():
            f = float(freqs[rows[new]])
            tail = f",{int(counts[rows[new]])},{f!r}"
            if targets is not None:
                t = float(targets[rows[new]])
                tail += f",{t!r},{abs(f - t)!r}"
            tails[new] = tail + "\n"
        head = sep.join(letters) + sep if letters else ""
        # rows are head + suffix + tail: one head, then a head between rows
        out.write(head + head.join(map(operator.add, suffixes, map(tails.__getitem__, keys))))
        lo = hi


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
    for k in config.ks:
        out.write(f"# input_D_{k}={report.input_discrepancies[k]!r}\n")
    out.write("block,count,frequency,target,abs_error\n")
    for k, targets in block_measure_ladder(config.target, config.ks):
        _write_block_rows(report.output_reports[k], targets, out)
    failures = [
        f"D_{k}={report.output_discrepancies[k]!r}"
        for k in config.ks
        if report.output_discrepancies[k] > config.tolerance
    ]
    support_failures = [
        f"occ({a}{b})={c}" for (a, b), c in report.forbidden_counts.items() if c
    ]
    if failures or support_failures:
        out.write(f"# RESULT FAIL {' '.join(failures + support_failures)}\n")
    else:
        out.write("# RESULT PASS\n")
