"""Compatibility of machines with the support of a Markov measure.

A machine is compatible with the support shift when its states can be
labelled by the last symbol read (``last_read``) so that every transition
reads a symbol with positive probability after the source label.  Selectors
additionally carry a last-*selected* label (``last_selected``): a KEEP
transition requires the two labels of its source to agree and stamps both
labels of its target with the symbol read, while a DROP transition carries
the last-selected label along unchanged.

The text file format spells these labels ``iota`` (last read) and ``eta``
(last selected); explicit declarations are only consulted for states that
inference cannot reach.

Automata and selectors go through one checker, ``_check``: a selector is
an automaton with one more label, so the last-selected propagation is the
only step that runs for selectors alone, and every edge is verified in one
pass either way.  ``_step_weights`` is the one lift of a measure onto a
compatible machine: reading a from state q weighs P[last_read(q), a].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NotCompatible
from .machines import Automaton, Selector
from .measures import MarkovMeasure

IOTA_CLASH = "IotaClash"
ETA_CLASH = "EtaClash"
FORBIDDEN_STEP = "ForbiddenStep"
KEEP_MISMATCH = "KeepMismatch"
MISSING_DECLARATION = "MissingDeclaration"


@dataclass(frozen=True)
class Violation:
    """One failed compatibility constraint; ``location`` is a state or a
    transition tuple."""

    kind: str
    location: object
    detail: str

    def __str__(self):
        loc = self.location
        if isinstance(loc, tuple):
            loc = " ".join(str(x) for x in loc)
        return f"VIOLATION {self.kind} {loc} {self.detail}"


@dataclass(frozen=True)
class CompatibilityWitness:
    """Total state labelings certifying compatibility.

    ``last_selected`` is None for plain automata.  ``unconstrained`` lists
    selector states whose last-selected label is not forced by any KEEP
    transition or declaration and was defaulted to the last-read label of
    their equality class.
    """

    last_read: dict
    last_selected: Optional[dict] = None
    unconstrained: tuple = ()


@dataclass(frozen=True)
class CompatibilityResult:
    witness: Optional[CompatibilityWitness]
    violations: tuple = ()
    notes: tuple = ()

    @property
    def ok(self) -> bool:
        return self.witness is not None and not self.violations


def _edges(machine):
    """Uniform view of transitions as (source, symbol, keeps|None, target)."""
    states, symbols = machine.states, machine.alphabet.symbols
    keep = machine.tables()[1] if isinstance(machine, Selector) else None
    for i, a, t in machine._arcs():
        yield states[i], symbols[a], None if keep is None else keep.item(i, a), states[t]


def _infer_last_read(machine, declared):
    """Return (labeling, violations).  Incoming transition labels win; the
    declared map (the machine's own when None) only fills states without
    incoming transitions."""
    declared = machine.declared_last_read if declared is None else dict(declared)
    labels: dict = {}
    violations = []
    seen = set()
    for p, a, _keeps, q in _edges(machine):
        if q in labels:
            if labels[q] != a and (q, labels[q], a) not in seen:
                seen.add((q, labels[q], a))
                violations.append(
                    Violation(
                        IOTA_CLASH,
                        q,
                        f"incoming transitions read both {labels[q]!r} and {a!r}",
                    )
                )
        else:
            labels[q] = a
    for q in machine.states:
        if q in labels:
            continue
        if q in declared:
            labels[q] = declared[q]
        else:
            violations.append(
                Violation(
                    MISSING_DECLARATION,
                    q,
                    "state has no incoming transition and no iota declaration",
                )
            )
    return labels, violations


def infer_iota(machine, declared=None) -> dict:
    """Total last-read labeling of a machine (file keyword ``iota``).

    Raises NotCompatible carrying the violations when two incoming symbols
    clash or a source-only state is undeclared.
    """
    labels, violations = _infer_last_read(machine, declared)
    if violations:
        raise NotCompatible(violations)
    return labels


def _infer_last_selected(selector: Selector, last_read: dict, violations: list):
    """Last-selected labels by constraint propagation, appending the clashes
    to ``violations``: return (labeling, unconstrained states).  A drop
    transition's two ends share one class, and each class one label."""
    parent = {q: q for q in selector.states}
    anchors: dict = {}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def anchor(state, symbol, why):
        root = find(state)
        prev = anchors.get(root)
        if prev is None:
            anchors[root] = (symbol, why)
        elif prev[0] != symbol:
            violations.append(
                Violation(
                    ETA_CLASH,
                    state,
                    f"last-selected label forced to {prev[0]!r} ({prev[1]}) and {symbol!r} ({why})",
                )
            )

    for p, a, keeps, q in _edges(selector):
        if keeps:
            anchor(q, a, f"target of keep transition {p} -{a}-> {q}")
            if p in last_read:
                anchor(p, last_read[p], f"source of keep transition {p} -{a}-> {q}")
        else:
            rp, rq = find(p), find(q)
            if rp != rq:
                ap, aq = anchors.pop(rp, None), anchors.pop(rq, None)
                parent[rq] = root = rp
                if ap is not None and aq is not None and ap[0] != aq[0]:
                    violations.append(
                        Violation(
                            ETA_CLASH,
                            (p, a, q),
                            f"drop transition merges classes labelled {ap[0]!r} and {aq[0]!r}",
                        )
                    )
                merged = ap if ap is not None else aq
                if merged is not None:
                    anchors[root] = merged
    for state, symbol in selector.declared_last_selected.items():
        anchor(state, symbol, "eta declaration")

    last_selected: dict = {}
    unconstrained = []
    class_default: dict = {}
    for q in selector.states:
        root = find(q)
        if root in anchors:
            last_selected[q] = anchors[root][0]
            continue
        # unanchored class: any constant label satisfies the definition, so
        # the whole class takes the last-read label of its first member
        if root not in class_default and q in last_read:
            class_default[root] = last_read[q]
        if root in class_default:
            last_selected[q] = class_default[root]
            unconstrained.append(q)
    return last_selected, unconstrained


def _check(machine, mu: MarkovMeasure, declared) -> CompatibilityResult:
    """The one compatibility check: infer the last-read labels and, for a
    selector only, the last-selected labels, then verify every edge once
    with the completed labelings (an automaton has no last-selected labels,
    so only its ForbiddenStep test can fail)."""
    last_read, violations = _infer_last_read(machine, declared)
    last_selected, unconstrained = None, []
    if isinstance(machine, Selector):
        last_selected, unconstrained = _infer_last_selected(machine, last_read, violations)
    selected = last_selected or {}
    for p, a, keeps, q in _edges(machine):
        if p in last_read and mu.P[last_read[p], a] == 0.0:
            violations.append(
                Violation(FORBIDDEN_STEP, (p, a, q), f"P[{last_read[p]},{a}] = 0")
            )
        if keeps:
            if p in last_read and p in selected and selected[p] != last_read[p]:
                violations.append(
                    Violation(
                        KEEP_MISMATCH,
                        (p, a, q),
                        f"keep from a state with last read {last_read[p]!r} but last selected {selected[p]!r}",
                    )
                )
            if q in selected and selected[q] != a:
                violations.append(
                    Violation(ETA_CLASH, (p, a, q), f"target last-selected label is not {a!r}")
                )

    notes = tuple(
        f"UnconstrainedEta {q}: no selection reaches this state; defaulted to iota"
        for q in unconstrained
    )
    if violations:
        return CompatibilityResult(witness=None, violations=tuple(violations), notes=notes)
    witness = CompatibilityWitness(
        last_read=dict(last_read),
        last_selected=last_selected,
        unconstrained=tuple(unconstrained),
    )
    return CompatibilityResult(witness=witness, violations=(), notes=notes)


def check_automaton_compatibility(
    automaton: Automaton, mu: MarkovMeasure, declared=None
) -> CompatibilityResult:
    """Infer the last-read labeling and verify every transition reads a
    positive-probability step."""
    return _check(automaton, mu, declared)


def check_selector_compatibility(
    selector: Selector, mu: MarkovMeasure, declared=None
) -> CompatibilityResult:
    """Infer both labelings of a selector and verify the compatibility
    constraints; all violations are collected rather than failing fast.

    Last-selected inference is constraint propagation: DROP transitions
    merge source and target into one equality class and KEEP transitions
    anchor classes to concrete symbols.  Classes left unanchored (and
    undeclared) default to the last-read label of their first member, which
    is reported in ``notes`` since any symbol would satisfy the definition.
    """
    return _check(selector, mu, declared)


def _step_weights(machine, mu: MarkovMeasure, witness: CompatibilityWitness) -> np.ndarray:
    """The lift of mu onto ``machine``: entry (state index q, symbol index a)
    is P[last_read(q), a], the weight of reading a from q, whether or not
    that transition is defined."""
    rows = mu.alphabet.encode([witness.last_read[q] for q in machine.states])
    return mu.P.entries[np.ix_(rows, mu.alphabet.encode(machine.alphabet))]


def is_shift_complete(machine, mu: MarkovMeasure, witness: CompatibilityWitness):
    """Whether every positive-probability continuation can be read everywhere.

    Returns (ok, missing) where ``missing`` lists the (state, symbol) pairs
    with P[last_read(state), symbol] > 0 but no outgoing transition.
    """
    pairs = np.argwhere((_step_weights(machine, mu, witness) > 0.0) & (machine.tables()[0] < 0))
    missing = [(machine.states[q], machine.alphabet.symbols[a]) for q, a in pairs.tolist()]
    return not missing, missing
