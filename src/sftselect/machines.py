"""Deterministic automata and selectors with run semantics.

A selector is a deterministic transducer in which every transition either
copies the symbol it reads to the output (KEEP) or emits nothing (DROP), so
the output of any run is a subsequence of its input.  An automaton is the
same machine with the actions removed.  Both kinds may have a partial
transition map; machines over the full shift are expected to be complete,
which is a separate validation rather than a construction requirement.

All machine types are immutable after construction and safe to share across
threads.  The only mutable object here is :class:`SelectionCursor`, which is
single-owner while being fed.

Every deterministic walk over an index array goes through one kernel,
:func:`run_states`: given the rows of a dense next-state table (see
:func:`transition_rows`), letters and a start state, it returns the path
of states, the start included.  A selector's output on the walk is then
``letters[keep[path[:-1], letters]]`` and state-visit counts are
``np.bincount(path[:-1])``.  Markov sampling in :mod:`sftselect.seqgen` is
the same walk over a draw table.  The scalar :func:`run_word` stays as the
reference the kernel is tested against.

Every connectivity question goes through one graph routine, Tarjan's
algorithm in :func:`_strong_components`: :func:`scc_decomposition`,
:meth:`check_trim` and the irreducibility test of :mod:`sftselect.measures`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

import numpy as np

from .alphabet import Alphabet, as_word
from .errors import (
    Incomplete,
    NotOblivious,
    UndefinedTransition,
    UnknownSymbol,
    ValidationError,
)

KEEP = "keep"
DROP = "drop"


@dataclass(frozen=True)
class Run:
    """A finite run through a machine.

    ``visits`` counts each state as the *source* of a transition, so the
    counts sum to ``len(input)`` and a state frequency is ``visits[q]/n``.
    For an automaton run the output is always the empty word.
    """

    start: object
    input: tuple
    output: tuple
    visits: dict
    end: object

    @property
    def length(self) -> int:
        return len(self.input)


class _MachineBase:
    """Shared storage/behaviour of automata and selectors."""

    @staticmethod
    def _target_of(value):
        """Target state of a stored transition value."""
        return value

    def __init__(self, alphabet: Alphabet, states: Iterable, initial):
        if not isinstance(alphabet, Alphabet):
            alphabet = Alphabet(alphabet)
        self._alphabet = alphabet
        self._states = tuple(states)
        if len(set(self._states)) != len(self._states):
            raise ValidationError("duplicate state identifiers")
        if not self._states:
            raise ValidationError("machine needs at least one state")
        self._state_index = {q: i for i, q in enumerate(self._states)}
        if initial not in self._state_index:
            raise ValidationError(f"initial state {initial!r} is not a declared state")
        self._initial = initial
        # delta[state][symbol] -> target (automaton) or (target, keep) (selector)
        self._delta = {q: {} for q in self._states}
        self._trim_checked = False
        self._declared_last_read: dict = {}
        self._declared_last_selected: dict = {}

    @property
    def alphabet(self) -> Alphabet:
        return self._alphabet

    @property
    def states(self) -> tuple:
        return self._states

    @property
    def initial(self):
        return self._initial

    @property
    def trim_checked(self) -> bool:
        """Whether :meth:`check_trim` has verified trimness on this machine."""
        return self._trim_checked

    @property
    def declared_last_read(self) -> dict:
        """Per-state ``iota`` declarations (used only for states that label
        inference cannot reach)."""
        return dict(self._declared_last_read)

    @property
    def declared_last_selected(self) -> dict:
        """Per-state ``eta`` declarations."""
        return dict(self._declared_last_selected)

    def declare_labels(self, last_read=None, last_selected=None):
        """Attach iota/eta declarations (normally done by the file parser)."""
        for mapping, store in (
            (last_read, self._declared_last_read),
            (last_selected, self._declared_last_selected),
        ):
            for state, symbol in (mapping or {}).items():
                self.state_index(state)
                if symbol not in self._alphabet:
                    raise UnknownSymbol(symbol, self._alphabet.symbols)
                store[state] = symbol
        return self

    def state_index(self, state) -> int:
        try:
            return self._state_index[state]
        except KeyError:
            raise ValidationError(f"unknown state {state!r}") from None

    def _add_edge(self, src, symbol, value):
        if src not in self._delta:
            raise ValidationError(f"unknown state {src!r}")
        if symbol not in self._alphabet:
            raise UnknownSymbol(symbol, self._alphabet.symbols)
        row = self._delta[src]
        if symbol in row:
            raise ValidationError(f"duplicate transition from {src!r} on {symbol!r}")
        row[symbol] = value

    def defined_symbols(self, state) -> tuple:
        """Symbols with an outgoing transition from ``state``, in alphabet order."""
        row = self._delta[state]
        return tuple(a for a in self._alphabet if a in row)

    def missing_pairs(self) -> list:
        """(state, symbol) pairs without a transition, in declaration order."""
        return [
            (q, a)
            for q in self._states
            for a in self._alphabet
            if a not in self._delta[q]
        ]

    def is_complete(self) -> bool:
        return not self.missing_pairs()

    def validate_complete(self) -> None:
        missing = self.missing_pairs()
        if missing:
            raise Incomplete(*missing[0])

    def successors(self, state) -> tuple:
        """Distinct target states reachable in one step, in alphabet order."""
        row = self._delta[state]
        seen, out = set(), []
        for a in self._alphabet:
            if a in row:
                t = self._target_of(row[a])
                if t not in seen:
                    seen.add(t)
                    out.append(t)
        return tuple(out)

    def check_trim(self) -> tuple[bool, list]:
        """Verify every state is reachable from the initial state and lies on
        some infinite run (i.e. can reach a cycle).  Records the verification
        flag and returns (ok, offending states).  Condensation edges point to
        lower component indices, so reachability sweeps down from the initial
        component; a component is alive if cyclic or with an alive successor."""
        report = scc_decomposition(self)
        comps = report.components
        out = [[] for _ in comps]
        for src, dst in report.condensation_edges:
            out[src].append(dst)
        reached = [False] * len(comps)
        reached[report.component_of(self._initial)] = True
        for c in reversed(range(len(comps))):
            if reached[c]:
                for t in out[c]:
                    reached[t] = True
        alive = []
        for c, members in enumerate(comps):
            cyclic = len(members) > 1 or members[0] in self.successors(members[0])
            alive.append(cyclic or any(alive[t] for t in out[c]))
        good = [r and a for r, a in zip(reached, alive)]
        bad = [q for q in self._states if not good[report.component_of(q)]]
        ok = not bad
        self._trim_checked = ok
        return ok, bad

    def __eq__(self, other) -> bool:
        return (
            type(self) is type(other)
            and self._alphabet == other._alphabet
            and self._states == other._states
            and self._initial == other._initial
            and self._delta == other._delta
            and self._declared_last_read == other._declared_last_read
            and self._declared_last_selected == other._declared_last_selected
        )

    def __hash__(self):
        return hash((type(self).__name__, self._alphabet, self._states, self._initial))


class Automaton(_MachineBase):
    """A deterministic automaton with a possibly partial transition map."""

    def __init__(self, alphabet, states, initial, transitions: Iterable[tuple]):
        """``transitions`` is an iterable of (source, symbol, target)."""
        super().__init__(alphabet, states, initial)
        for src, symbol, dst in transitions:
            if dst not in self._state_index:
                raise ValidationError(f"unknown target state {dst!r}")
            self._add_edge(src, symbol, dst)

    def step(self, state, symbol, position=None):
        if symbol not in self._alphabet:
            raise UnknownSymbol(symbol, self._alphabet.symbols)
        try:
            return self._delta[state][symbol]
        except KeyError:
            raise UndefinedTransition(state, symbol, position) from None

    def step_or_none(self, state, symbol):
        return self._delta[state].get(symbol)

    def transitions(self) -> Iterator[tuple]:
        """(source, symbol, target) triples in declaration/alphabet order."""
        for q in self._states:
            row = self._delta[q]
            for a in self._alphabet:
                if a in row:
                    yield q, a, row[a]

    def tables(self) -> tuple[np.ndarray]:
        """The dense next-state array indexed by (state, symbol), as a
        1-tuple like :meth:`Selector.tables`; undefined entries hold -1."""
        nq, na = len(self._states), len(self._alphabet)
        nxt = np.full((nq, na), -1, dtype=np.int64)
        for q, a, t in self.transitions():
            nxt[self._state_index[q], self._alphabet.index(a)] = self._state_index[t]
        return (nxt,)


class Selector(_MachineBase):
    """A deterministic selector: every transition KEEPs or DROPs the symbol read."""

    @staticmethod
    def _target_of(value):
        return value[0]

    def __init__(self, alphabet, states, initial, transitions: Iterable[tuple]):
        """``transitions`` is an iterable of (source, symbol, action, target)
        with action in {"keep", "drop"}."""
        super().__init__(alphabet, states, initial)
        for src, symbol, action, dst in transitions:
            if action not in (KEEP, DROP):
                raise ValidationError(f"invalid action {action!r}")
            if dst not in self._state_index:
                raise ValidationError(f"unknown target state {dst!r}")
            self._add_edge(src, symbol, (dst, action == KEEP))

    def step(self, state, symbol, position=None) -> tuple:
        """Return (target, keeps) for one transition."""
        if symbol not in self._alphabet:
            raise UnknownSymbol(symbol, self._alphabet.symbols)
        try:
            return self._delta[state][symbol]
        except KeyError:
            raise UndefinedTransition(state, symbol, position) from None

    def step_or_none(self, state, symbol):
        return self._delta[state].get(symbol)

    def action(self, state, symbol) -> str:
        return KEEP if self.step(state, symbol)[1] else DROP

    def transitions(self) -> Iterator[tuple]:
        """(source, symbol, action, target) in declaration/alphabet order."""
        for q in self._states:
            row = self._delta[q]
            for a in self._alphabet:
                if a in row:
                    t, keeps = row[a]
                    yield q, a, (KEEP if keeps else DROP), t

    def underlying_automaton(self) -> Automaton:
        """The same machine with actions removed (declared labels kept)."""
        automaton = Automaton(
            self._alphabet,
            self._states,
            self._initial,
            ((q, a, t) for q, a, _act, t in self.transitions()),
        )
        automaton.declare_labels(
            last_read=self._declared_last_read,
            last_selected=self._declared_last_selected,
        )
        return automaton

    def tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Dense (next_state, keep) arrays indexed by (state, symbol);
        undefined next states hold -1."""
        nq, na = len(self._states), len(self._alphabet)
        nxt = np.full((nq, na), -1, dtype=np.int64)
        keep = np.zeros((nq, na), dtype=bool)
        for q, a, act, t in self.transitions():
            qi, ai = self._state_index[q], self._alphabet.index(a)
            nxt[qi, ai] = self._state_index[t]
            keep[qi, ai] = act == KEEP
        return nxt, keep


def run_word(machine, start, word) -> Run:
    """Follow ``word`` from ``start`` and return the full run.

    For a selector the output collects the KEEP symbols in order; for an
    automaton the output is empty.  Raises UndefinedTransition at the first
    missing transition (1-based position) and UnknownSymbol for foreign
    symbols.
    """
    word = as_word(word)
    is_selector = isinstance(machine, Selector)
    machine.state_index(start)
    state = start
    visits: dict = {}
    out = []
    for pos, symbol in enumerate(word, start=1):
        visits[state] = visits.get(state, 0) + 1
        if is_selector:
            state, keeps = machine.step(state, symbol, position=pos)
            if keeps:
                out.append(symbol)
        else:
            state = machine.step(state, symbol, position=pos)
    return Run(start=start, input=word, output=tuple(out), visits=visits, end=state)


def transition_rows(nxt: np.ndarray) -> list:
    """The rows of a next-state table in the form :func:`run_states` walks:
    nested lists in which undefined (-1) entries lead to an absorbing dead
    state numbered ``len(nxt)``.  Building them costs one list entry per
    table entry, so a caller that walks in chunks builds them once."""
    dead = len(nxt)
    rows = np.where(nxt < 0, dead, nxt).tolist()
    rows.append([dead] * nxt.shape[1])
    return rows


def run_states(rows: list, letters: np.ndarray, state: int) -> np.ndarray:
    """The states of the walk from ``state`` over the :func:`transition_rows`
    ``rows``: the start, then the state after each letter (one more entry
    than ``letters``).  A walk that falls off the table ends in the dead
    state."""
    out = [state]
    append = out.append
    for a in letters.tolist():
        state = rows[state][a]
        append(state)
    return np.array(out, dtype=np.int64)


def walk(machine, rows: list, letters: np.ndarray, state: int, position: int = 0) -> np.ndarray:
    """:func:`run_states` over ``machine``'s transition rows, raising
    UndefinedTransition at the first undefined step; ``position`` is the
    number of input symbols consumed before ``letters`` (errors report the
    1-based position of the offending symbol)."""
    path = run_states(rows, letters, state)
    dead = len(rows) - 1
    if path[-1] == dead:
        i = int(np.argmax(path == dead))
        raise UndefinedTransition(
            machine.states[path[i - 1]],
            machine.alphabet.symbol(int(letters[i - 1])),
            position=position + i,
        )
    return path


class SelectionCursor:
    """Resumable streaming application of a selector.

    Feed input symbols incrementally; KEEP symbols come back as they are
    read.  The cursor is the one mutable object of this module: it must not
    be fed concurrently, but may be handed between threads between calls.
    """

    def __init__(self, selector: Selector, start=None):
        self._selector = selector
        self._position = 0
        nxt, self._keep = selector.tables()
        self._rows = transition_rows(nxt)
        self._state_idx = selector.state_index(
            selector.initial if start is None else start
        )

    @property
    def state(self):
        return self._selector.states[self._state_idx]

    @property
    def position(self) -> int:
        """Number of input symbols consumed so far."""
        return self._position

    def feed(self, symbol) -> list:
        """Consume one symbol; return the (possibly empty) list of emitted symbols."""
        sel = self._selector
        self._position += 1
        state = sel.states[self._state_idx]
        target, keeps = sel.step(state, symbol, position=self._position)
        self._state_idx = sel.state_index(target)
        return [symbol] if keeps else []

    def feed_many(self, symbols: Iterable) -> list:
        out = []
        for s in symbols:
            out.extend(self.feed(s))
        return out

    def feed_indices(self, indices: np.ndarray) -> np.ndarray:
        """Fast path over symbol-index arrays; returns emitted indices.

        On an undefined transition the cursor stops at the offending
        symbol: ``position`` is its 1-based position and ``state`` the state
        that has no transition on it, as after the same error from :meth:`feed`.
        """
        try:
            path = walk(self._selector, self._rows, indices, self._state_idx, self._position)
        except UndefinedTransition as err:
            self._position = err.position
            self._state_idx = self._selector.state_index(err.state)
            raise
        self._position += len(indices)
        self._state_idx = int(path[-1])
        return indices[self._keep[path[:-1], indices]].astype(np.int64)


def apply_selector(selector: Selector, stream: Iterable) -> Iterator:
    """Lazily apply a selector to a stream of symbols, yielding KEPT symbols.

    Consuming n input symbols yields exactly the output of
    ``run_word(selector, selector.initial, first n symbols)``.
    """
    cursor = SelectionCursor(selector)
    for symbol in stream:
        yield from cursor.feed(symbol)


def select_text(selector: Selector, text: str) -> str:
    """Run a selector over single-character symbol text and return the output text."""
    out = SelectionCursor(selector).feed_indices(selector.alphabet.encode(text))
    return selector.alphabet.text(out)


def is_oblivious(selector: Selector) -> tuple[bool, Optional[object]]:
    """True when all transitions leaving each state share one action.

    On failure also returns the first state (in declaration order) with
    mixed actions.
    """
    seen: dict = {}
    mixed = set()
    for q, _a, act, _t in selector.transitions():
        if seen.setdefault(q, act) != act:
            mixed.add(q)
    for q in selector.states:
        if q in mixed:
            return False, q
    return True, None


def _require_oblivious(selector: Selector):
    """Raise NotOblivious at the first state with mixed actions."""
    ok, witness = is_oblivious(selector)
    if not ok:
        raise NotOblivious(witness)


def state_action(selector: Selector, state) -> Optional[str]:
    """The common action of a state's outgoing transitions, or None if the
    state has no outgoing transitions.  Raises NotOblivious on mixed actions."""
    actions = {act for q, _a, act, _t in selector.transitions() if q == state}
    if len(actions) > 1:
        raise NotOblivious(state)
    return actions.pop() if actions else None


@dataclass(frozen=True)
class SccReport:
    """Strongly connected components of a machine's transition graph.

    ``components`` is in reverse-topological order of the condensation (a
    component appears after everything it can reach); ``recurrent`` flags
    components that no transition leaves; ``condensation_edges`` holds
    (source component index, target component index) pairs.
    """

    components: tuple
    recurrent: tuple
    condensation_edges: frozenset
    component_index: dict = field(repr=False)

    @property
    def strongly_connected(self) -> bool:
        return len(self.components) == 1

    def component_of(self, state) -> int:
        return self.component_index[state]

    def recurrent_states(self) -> frozenset:
        out = set()
        for comp, rec in zip(self.components, self.recurrent):
            if rec:
                out.update(comp)
        return frozenset(out)


def _strong_components(succ: list) -> list:
    """Tarjan's algorithm on successor index lists: the strongly connected
    components as ascending index lists in reverse-topological order (a
    component comes after every component it reaches).  Iterative, so
    graphs of ~10^6 vertices fit."""
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list = []
    components: list = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    components.append(sorted(comp))
    return components


def scc_decomposition(machine) -> SccReport:
    """Strongly connected components of the transition graph, found by
    :func:`_strong_components` over state indices."""
    states = machine.states
    succ = [[machine.state_index(t) for t in machine.successors(q)] for q in states]
    comps = tuple(tuple(states[v] for v in c) for c in _strong_components(succ))
    comp_index = {q: i for i, c in enumerate(comps) for q in c}
    edges = set()
    for v, q in enumerate(states):
        for w in succ[v]:
            ci, cj = comp_index[q], comp_index[states[w]]
            if ci != cj:
                edges.add((ci, cj))
    sources = {src for src, _dst in edges}
    recurrent = tuple(i not in sources for i in range(len(comps)))
    return SccReport(
        components=comps,
        recurrent=recurrent,
        condensation_edges=frozenset(edges),
        component_index=comp_index,
    )


def snake_automaton(machine: Automaton, n: int) -> Automaton:
    """The automaton whose states are the realizable length-``n`` runs of
    ``machine``, written as pairs (start state, input word).

    A transition reads one more symbol and slides the length-n window:
    ``(p, b w') --a--> (p.b, w' a)`` whenever both runs exist.  Pairs whose
    run does not exist in a partial machine are omitted.
    """
    if n < 1:
        raise ValidationError("snake construction needs n >= 1")
    states = []
    for p in machine.states:
        # depth-first enumeration of realizable words of length n, lex order
        stack = [(p, ())]
        while stack:
            q, w = stack.pop()
            if len(w) == n:
                states.append((p, w))
                continue
            for a in reversed(machine.alphabet.symbols):
                t = machine.step_or_none(q, a)
                if t is not None:
                    stack.append((t, w + (a,)))
    state_set = set(states)
    transitions = []
    for (p, w) in states:
        b = w[0]
        pb = machine.step_or_none(p, b)
        for a in machine.alphabet:
            target = (pb, w[1:] + (a,))
            if target in state_set:
                transitions.append(((p, w), a, target))
    initial = next(
        ((p, w) for (p, w) in states if p == machine.initial), states[0] if states else None
    )
    if initial is None:
        raise ValidationError(f"machine has no run of length {n}")
    return Automaton(machine.alphabet, states, initial, transitions)


def snake_state_label(state, alphabet: Alphabet) -> str:
    """Printable token for a snake state (p, w): ``p*w``."""
    p, w = state
    return f"{p}*{alphabet.word_label(w)}"


def dfa_to_selector(machine: Automaton, accepting) -> Selector:
    """Turn a DFA into the oblivious selector that keeps a symbol exactly
    when the preceding prefix is accepted: transitions out of accepting
    states KEEP, all others DROP."""
    accepting = set(accepting)
    for q in accepting:
        machine.state_index(q)
    return Selector(
        machine.alphabet,
        machine.states,
        machine.initial,
        (
            (q, a, KEEP if q in accepting else DROP, t)
            for q, a, t in machine.transitions()
        ),
    )


def selector_to_dfa(selector: Selector) -> tuple[Automaton, frozenset]:
    """Inverse of :func:`dfa_to_selector` for oblivious selectors: drop the
    actions and report the KEEP states as accepting."""
    _require_oblivious(selector)
    accepting = frozenset(q for q, _a, act, _t in selector.transitions() if act == KEEP)
    return selector.underlying_automaton(), accepting
