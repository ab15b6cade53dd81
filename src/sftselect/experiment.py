"""End-to-end frequency-preservation experiments.

An experiment generates a reproducible input sequence, streams it through a
selector, counts length-k blocks on both sides, and compares the output
frequencies against the target measure (uniform or Markov).  The sequence
is processed in bounded chunks: memory stays O(#states + #A**max(k))
however long the input is, with one count vector per side when sliding.
Each chunk is walked to its keep bits (:func:`sftselect.machines._kept`),
trimmed, selected and counted by :func:`sftselect.seqgen._block_counters`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, TextIO

import numpy as np

from .compat import CompatibilityResult, check_selector_compatibility
from .errors import NotCompatible, ValidationError
from .formats import machine_digest
from .machines import Selector, _kept, _require_oblivious, _selection_tables, run_states
from .machines import scc_decomposition
from .measures import MarkovMeasure, block_measure_ladder, support_forbidden_blocks, uniform_measure
from .seqgen import ALIGNED, SLIDING, BlockCounter, FrequencyReport, GeneratorSpec, generate_chunks
from .seqgen import _block_counters, _block_reports

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
    Each chunk is walked to its keep bits, trimmed of that prefix, selected
    and counted; recurrent classes are closed, so only the first chunk
    that ends in one walks its state path, to place the entry.
    The counters of each side are :func:`sftselect.seqgen._block_counters`'s;
    the forbidden-pair watch reads the output's sliding counter, at
    max(ks + (2,)), or in aligned mode a sliding pair counter serving no length.
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
    table, keeps = _selection_tables(selector)

    scc = scc_decomposition(selector)
    recurrent = np.array([scc.recurrent[scc.component_of(q)] for q in selector.states])
    state = selector.state_index(selector.initial)
    entry_pos: Optional[int] = 0 if recurrent[state] else None

    ins = _block_counters(na, config.ks, config.mode)
    outs = _block_counters(na, config.ks, config.mode, least=2)
    # the forbidden-pair watch reads the sliding top counter, or its own
    watch = next(iter(outs)) if config.mode == SLIDING else BlockCounter(na, 2)
    outs.setdefault(watch, [])

    pos = 0
    for chunk in generate_chunks(config.generator, config.chunk):
        kept, end = _kept(selector, table, keeps, chunk, state, pos)
        if entry_pos is None and recurrent[end]:  # recurrent classes are closed
            entry_pos = pos + int(np.argmax(recurrent[run_states(table, chunk, state)[1:]])) + 1
        state = end
        skip = 0  # the transient prefix of the chunk, left out after_recurrent
        if config.after_recurrent:
            skip = chunk.size if entry_pos is None else max(entry_pos - pos, 0)
        pos += chunk.size
        chunk = chunk[skip:]
        out = np.compress(kept[skip:], chunk)
        for counter in ins:
            counter.update(chunk)
        for counter in outs:
            counter.update(out)

    input_reports = _block_reports(alpha, ins)
    output_reports = _block_reports(alpha, outs)
    gaps = {
        k: (input_reports[k].max_gap(t), output_reports[k].max_gap(t))
        for k, t in block_measure_ladder(target, config.ks)
    }
    input_disc = {k: gaps[k][0] for k in config.ks}
    output_disc = {k: gaps[k][1] for k in config.ks}

    pairs = watch.marginal(2)
    forbidden = {}
    for a, b in sorted(support_forbidden_blocks(target)):
        forbidden[(a, b)] = int(pairs[alpha.index(a) * na + alpha.index(b)])

    return ExperimentReport(
        config=config,
        input_length=pos,
        output_length=watch.n,
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


def _write_block_rows(rep: FrequencyReport, targets, out: TextIO, suffixes: Optional[dict] = None):
    """Write the rows of one block length, blocks in lexicographic order.
    A row is a label and a tail, ``,count,frequency,target,abs_error``
    (``,count,frequency`` when ``targets`` is None).  A label is a head of
    leading letters plus one of the suffixes, the labels of the last m
    letters: m is the most letters, 1 to k, with #A**m <= ``_CSV_SLICE``
    (1 if #A is larger), built once per m in a shared ``suffixes`` dict.
    A row's key is (count - least count) * T + the rank of its target's
    bits among the T distinct ones (T = 1 without targets).  Over a range
    of at most #A**k keys, its rank is read from the cumulative sum of a
    presence table; otherwise, with the count's rank for count - least
    count, it is searched among the sorted distinct keys.  Each distinct
    tail is formatted once, and each slice of #A**m rows (one head) goes
    out in one ``write``, a ``"".join`` over (head, suffix, tail) triples."""
    counts = np.asarray(rep.counts, dtype=np.int64)
    alpha = rep.alphabet
    m = 1
    while m < rep.k and len(alpha) ** (m + 1) <= _CSV_SLICE:
        m += 1
    size = len(alpha) ** m
    slices = [slice(lo, lo + size) for lo in range(0, counts.size, size)]
    if targets is not None:
        bits = np.ascontiguousarray(targets, dtype=np.float64).view(np.uint64)
        level = _distinct(bits)
    tsize = 1 if targets is None else level.size
    low = int(counts.min())
    span = (int(counts.max()) - low + 1) * tsize
    table = span <= counts.size
    values = None if table else _distinct(counts)
    rank = np.empty(counts.size, dtype=np.int64)
    for s in slices:  # a row's key: its count's code, then its target bits' rank
        key = counts[s] - low if table else np.searchsorted(values, counts[s])
        rank[s] = key if targets is None else key * tsize + np.searchsorted(level, bits[s])
    if table:
        present = np.zeros(span, dtype=bool)
        present[rank] = True
        keys, at = np.flatnonzero(present), np.cumsum(present) - 1
    else:
        keys = _distinct(rank)
    for s in slices:  # now the key's rank
        rank[s] = at[rank[s]] if table else np.searchsorted(keys, rank[s])
    c = keys // tsize + low if table else values[keys // tsize]
    c, f = c.tolist(), (c / max(rep.windows, 1)).tolist()  # no windows: every count is 0
    if targets is None:
        tails = [f",{c},{f!r}\n" for c, f in zip(c, f)]
    else:
        t, ts = level.view(np.float64).tolist(), (keys % tsize).tolist()
        texts = [repr(x) for x in t]
        tails = [f",{c},{f!r},{texts[i]},{abs(f - t[i])!r}\n" for c, f, i in zip(c, f, ts)]
    tails = np.array(tails, dtype=object)
    sep = "" if alpha.single_char else " "
    # RFC 4180: a symbol with , or " quotes every label, " written as ""
    quote = '"' if any(c in a for a in alpha for c in ',"') else ""
    suffixes = {} if suffixes is None else suffixes
    if m not in suffixes:
        suffixes[m] = [sep.join(w).replace('"', '""') + quote for w in alpha.words(m)]
    triples = np.empty((size, 3), dtype=object)
    triples[:, 1] = suffixes[m]
    for head, s in zip(alpha.words(rep.k - m), slices):
        triples[:, 0] = quote + (sep.join(head).replace('"', '""') + sep if head else "")
        triples[:, 2] = tails[rank[s]]
        out.write("".join(triples.ravel().tolist()))


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
    suffixes = {}
    for k, targets in block_measure_ladder(config.target, config.ks):
        _write_block_rows(report.output_reports[k], targets, out, suffixes)
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
