"""Deterministic automata and selectors with run semantics.

A selector is a deterministic transducer in which every transition either
copies the symbol it reads to the output (KEEP) or emits nothing (DROP), so
the output of any run is a subsequence of its input.  An automaton is the
same machine with the actions removed.  Both kinds may have a partial
transition map; machines over the full shift are expected to be complete,
which is a separate validation rather than a construction requirement.

A machine stores its transition map once, as the read-only dense arrays
that ``tables()`` returns, indexed by (state index, symbol index): ``nxt``
holds target state indices (-1 where undefined) and, for a selector,
``keep`` the actions (False where undefined).  Stepping, transitions,
successors, equality, SCCs and :func:`snake_automaton`, which builds the
run machine by arithmetic on big-endian word codes, all read them.  So
machines are immutable and safe to share across threads.  The only
mutable object here is :class:`SelectionCursor`, single-owner while fed.

Every deterministic walk over an index array goes through one kernel,
:func:`_emitted`: given the walk table of a dense next-state table (see
:func:`transition_rows`), a table laid out like its trace, letters and a
start state, it returns each letter's entry and the end state.  Over the
trace they are states (:func:`run_states`; ``np.bincount(path[:-1])``
counts visits), over :func:`_selection_tables` a selector's keep bits,
which ``np.compress`` applies, and over a draw table uint8 Markov samples
(:mod:`sftselect.seqgen`).  The scalar :func:`run_word` and the path
gather :func:`_selected` are the references the kernel is tested against.

The walk table is built once per stream, from ``tables()`` as stored.  For
the largest block length k whose tables fit a fixed entry budget, it holds a
block table (state, code of k letters) -> end state and a trace table of the
k states inside each block, read off the word-end tables of
:func:`_word_ends`: undefined transitions lead to an absorbing dead state,
so partial machines walk like complete ones and :func:`walk` finds the first
undefined step in the path.  :func:`_emitted` finds each k-block's end state
and writes the entries of the blocks with one ``np.take``; the fewer than k
letters after the last block read the row of their zero-padded block.  On a
complete table, a block that synchronizes (Volkov, LATA 2008: its word
leads every state to one state) ends in that state wherever it began, so
from a live state one gather of the codes gives the ends of such blocks,
and each loose block takes a Python step, if a slice has at most one in
``_GROUP``: i.i.d. draw tables, ``after_ones.sel`` and the golden-mean
Parry draw table (94% of its 7-letter codes) are walked so.  Other block
ends follow the enumerative data-parallel walk of Mytkowicz, Musuvathi and
Schulte (ASPLOS 2014): for at most ``_GROUP_STATES`` states, ``_GROUP``
gathers map every start state through each group of ``_GROUP`` blocks at
once, a Python loop walks the group starts, and ``_GROUP`` gathers from
those give the block ends.  Snakes take a Python step a block.

Every big-endian block code in the package is :func:`block_codes`: its
``step`` is k for disjoint blocks (the walk, aligned block counting) and 1
for the sliding windows of block counting.  :func:`block_letters` is its
inverse, which spells out Champernowne words and snake run labels.  Their
arrays, and a Markov draw table's symbols, take the narrowest unsigned dtype
of their largest value (:func:`_narrow_dtype`, int64 past uint32): a pass
moves 1 to 4 bytes a code or letter; the walk widens m/k codes to int64.

Every connectivity question reads one condensation, :func:`_condensation`
(Tarjan's algorithm on the next-state rows), and :func:`_reached`, one sweep
down from a component: :func:`scc_decomposition`, :meth:`check_trim` and
the irreducibility test of :mod:`sftselect.measures`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

import numpy as np

from .alphabet import Alphabet, _require_letters, word_token
from .errors import (
    Incomplete,
    NotOblivious,
    UndefinedTransition,
    ValidationError,
)

KEEP = "keep"
DROP = "drop"

# Entries a walk table's block and trace tables may take, which fixes the
# block length; the longest block (it bounds a unary alphabet's, and block
# codes cost one numpy pass per letter); and the most letters
# :func:`_emitted` walks at a time.
_BLOCK_BUDGET = 1 << 16
_MAX_BLOCK = 16
_SLICE = 1 << 16
# Blocks per group, and the most states (dead one included) for which the
# group walk beats a step a block: 0.3x the time at 4 states, 0.95x at 16.
_GROUP = 16
_GROUP_STATES = 16
#: bytes one array a request sizes may take: a BlockCounter's counts, a
#: snake's run tables, a dense state chain
COUNT_BUDGET_BYTES = 1 << 30


def _require_budget(need: int, what: str, error=ValidationError):
    """Raise ``error`` naming ``what`` if ``need`` bytes pass the budget; a
    power of #A is sized as #A ** min(n, 64), past it for two or more letters."""
    if need > COUNT_BUDGET_BYTES:
        raise error(f"{what}, past the budget of {COUNT_BUDGET_BYTES} bytes")


def _narrow_dtype(top: int) -> np.dtype:
    """The narrowest unsigned dtype that holds ``top`` >= 0, int64 past uint32."""
    return np.min_scalar_type(top) if top < 1 << 32 else np.dtype(np.int64)


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


class _MachineBase:
    """Shared storage/behaviour of automata and selectors: the dense
    tables described in the module docstring and every view of them."""

    def __init__(self, alphabet, states: Iterable, initial, transitions: Iterable[tuple]):
        self._declare(alphabet, states, initial)
        nxt = np.full((len(self._states), len(self._alphabet)), -1, dtype=np.int64)
        keep = np.zeros(nxt.shape, dtype=bool)
        index = self._state_index
        for src, symbol, keeps, dst in self._parse(transitions):
            if dst not in index:
                raise ValidationError(f"unknown target state {dst!r}")
            if src not in index:
                raise ValidationError(f"unknown state {src!r}")
            a = self._alphabet.index(symbol)
            if nxt[index[src], a] >= 0:
                raise ValidationError(f"duplicate transition from {src!r} on {symbol!r}")
            nxt[index[src], a] = index[dst]
            keep[index[src], a] = keeps
        self._store(nxt, keep if isinstance(self, Selector) else None)

    @classmethod
    def _from_tables(cls, alphabet, states, initial, nxt, keep=None):
        """A machine over given dense tables, which it stores read-only."""
        machine = cls.__new__(cls)
        machine._declare(alphabet, states, initial)
        machine._store(nxt, keep)
        return machine

    def _declare(self, alphabet, states: Iterable, initial):
        self._alphabet = Alphabet(alphabet)
        self._states = tuple(states)
        self._state_index = {q: i for i, q in enumerate(self._states)}
        if len(self._state_index) != len(self._states):
            raise ValidationError("duplicate state identifiers")
        if not self._states:
            raise ValidationError("machine needs at least one state")
        if initial not in self._state_index:
            raise ValidationError(f"initial state {initial!r} is not a declared state")
        self._initial = initial
        self._trim_checked = False
        self._declared_last_read: dict = {}
        self._declared_last_selected: dict = {}

    def _store(self, nxt: np.ndarray, keep):
        self._nxt, self._keep = nxt, keep
        for table in self.tables():
            table.setflags(write=False)

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
                self._alphabet.index(symbol)  # a foreign symbol raises UnknownSymbol
                store[state] = symbol
        return self

    def state_index(self, state) -> int:
        try:
            return self._state_index[state]
        except KeyError:
            raise ValidationError(f"unknown state {state!r}") from None

    def tables(self) -> tuple:
        """The stored read-only arrays indexed by (state, symbol): ``(nxt,)``
        for an automaton and ``(nxt, keep)`` for a selector; undefined next
        states hold -1 and undefined actions False."""
        return (self._nxt,) if self._keep is None else (self._nxt, self._keep)

    def _arcs(self):
        """(source index, symbol index, target index) of every defined
        transition, in state then alphabet order."""
        src, sym = np.nonzero(self._nxt >= 0)
        return zip(src.tolist(), sym.tolist(), self._nxt[src, sym].tolist())

    def step(self, state, symbol, position=None):
        """The target of one transition, or (target, keeps) for a selector."""
        self._alphabet.index(symbol)  # a foreign symbol raises UnknownSymbol
        value = self.step_or_none(state, symbol) if state in self._state_index else None
        if value is None:
            raise UndefinedTransition(state, symbol, position)
        return value

    def step_or_none(self, state, symbol):
        if symbol not in self._alphabet:
            return None
        i, a = self._state_index[state], self._alphabet.index(symbol)
        t = self._nxt.item(i, a)
        if t < 0:
            return None
        return self._states[t] if self._keep is None else (self._states[t], self._keep.item(i, a))

    def missing_pairs(self) -> list:
        """(state, symbol) pairs without a transition, in declaration order."""
        symbols = self._alphabet.symbols
        return [(self._states[i], symbols[a]) for i, a in np.argwhere(self._nxt < 0).tolist()]

    def validate_complete(self) -> None:
        missing = self.missing_pairs()
        if missing:
            raise Incomplete(*missing[0])

    def successors(self, state) -> tuple:
        """Distinct target states reachable in one step, in alphabet order."""
        row = self._nxt[self._state_index[state]].tolist()
        return tuple(self._states[t] for t in dict.fromkeys(row) if t >= 0)

    def check_trim(self) -> tuple[bool, list]:
        """Verify every state is reachable from the initial state and lies on
        some infinite run (i.e. can reach a cycle).  Records the verification
        flag and returns (ok, offending states).  A component is alive if
        cyclic or with an alive successor (of lower index)."""
        comps, comp_of, out = _condensation(self._nxt)
        reached = _reached(out, comp_of[self._state_index[self._initial]])
        alive = []
        for c, members in enumerate(comps):
            cyclic = len(members) > 1 or members[0] in self._nxt[members[0]]
            alive.append(cyclic or any(alive[t] for t in out[c]))
        bad = [q for q, c in zip(self._states, comp_of.tolist()) if not (reached[c] and alive[c])]
        self._trim_checked = not bad
        return not bad, bad

    def __eq__(self, other) -> bool:
        return (
            type(self) is type(other)
            and self._alphabet == other._alphabet
            and self._states == other._states
            and self._initial == other._initial
            and all(map(np.array_equal, self.tables(), other.tables()))
            and self._declared_last_read == other._declared_last_read
            and self._declared_last_selected == other._declared_last_selected
        )

    def __hash__(self):
        return hash((type(self).__name__, self._alphabet, self._states, self._initial))


class Automaton(_MachineBase):
    """A deterministic automaton with a possibly partial transition map.

    ``transitions`` is an iterable of (source, symbol, target)."""

    @staticmethod
    def _parse(transitions):
        for src, symbol, dst in transitions:
            yield src, symbol, False, dst

    def transitions(self) -> Iterator[tuple]:
        """(source, symbol, target) triples in declaration/alphabet order."""
        states, symbols = self._states, self._alphabet.symbols
        for i, a, t in self._arcs():
            yield states[i], symbols[a], states[t]


class Selector(_MachineBase):
    """A deterministic selector: every transition KEEPs or DROPs the symbol read.

    ``transitions`` is an iterable of (source, symbol, action, target) with
    action in {"keep", "drop"}."""

    @staticmethod
    def _parse(transitions):
        for src, symbol, action, dst in transitions:
            if action not in (KEEP, DROP):
                raise ValidationError(f"invalid action {action!r}")
            yield src, symbol, action == KEEP, dst

    def transitions(self) -> Iterator[tuple]:
        """(source, symbol, action, target) in declaration/alphabet order."""
        states, symbols, keep = self._states, self._alphabet.symbols, self._keep
        for i, a, t in self._arcs():
            yield states[i], symbols[a], KEEP if keep.item(i, a) else DROP, states[t]

    def underlying_automaton(self) -> Automaton:
        """The same machine with actions removed (declared labels kept)."""
        automaton = Automaton._from_tables(self._alphabet, self._states, self._initial, self._nxt)
        automaton.declare_labels(
            last_read=self._declared_last_read,
            last_selected=self._declared_last_selected,
        )
        return automaton


def run_word(machine, start, word) -> Run:
    """Follow ``word`` from ``start`` and return the full run.

    For a selector the output collects the KEEP symbols in order; for an
    automaton the output is empty.  Raises UndefinedTransition at the first
    missing transition (1-based position) and UnknownSymbol for foreign
    symbols.
    """
    word = tuple(word)
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


def block_codes(letters: np.ndarray, k: int, base: int, step: Optional[int] = None) -> np.ndarray:
    """Big-endian codes of the k-blocks of ``letters`` over ``base``
    letters that start every ``step`` letters (default k): block
    ``a1..ak`` has code ``(..(a1*base + a2)..)*base + ak``.  Step k gives
    the ``len(letters) // k`` disjoint blocks, step 1 the
    ``len(letters) - k + 1`` sliding windows; the result is a new array in
    the narrow dtype of ``base**k - 1`` (:func:`_narrow_dtype`).  The
    letters are cast to it once, and no partial code passes the last one,
    so none wraps.  Disjoint blocks, and windows of k <= 3, take Horner's
    rule in place, k - 1 passes.  Wider windows double between two
    buffers: for each bit of k after the highest, ``code_2h[i] = code_h[i]
    * base**h + code_h[i + h]``, then one more letter if the bit is set; 4
    passes for k = 16, against 15."""
    step = k if step is None else step
    letters = np.asarray(letters).astype(_narrow_dtype(base**k - 1), copy=False)
    end = max((len(letters) - k) // step + 1, 0) * step
    if step != 1 or k <= 3:
        codes = letters[:end:step].copy()
        for j in range(1, k):
            codes *= base
            codes += letters[j : j + end : step]
        return codes
    codes, h = letters.copy(), 1
    spare = np.empty_like(codes)
    for bit in bin(k)[3:]:
        m = max(codes.size - 2 * h + 1, 0)  # the windows of width 2h
        np.multiply(codes[:m], base**h, out=spare[:m])
        spare[:m] += codes[h : h + m]
        codes, spare, h = spare, codes, 2 * h
        if bit == "1":
            m = max(codes.size - h, 0)
            codes[:m] *= base
            codes[:m] += letters[h : h + m]
            h += 1
    return codes[:end]


def block_letters(codes: np.ndarray, k: int, base: int) -> np.ndarray:
    """The inverse of :func:`block_codes`: row i holds the k big-endian
    letters of ``codes[i]``, in the narrow dtype of ``base - 1``, taken off
    the low end of a narrow copy of the codes (it holds ``base`` too) into
    their columns: one pass per letter, and no temporary but that copy."""
    codes = np.array(codes, dtype=_narrow_dtype(max(base**k - 1, base)))
    letters = np.empty((codes.size, k), dtype=_narrow_dtype(base - 1))
    for j in range(k - 1, -1, -1):
        np.remainder(codes, base, out=letters[:, j], casting="unsafe")
        codes //= base
    return letters


@dataclass(frozen=True)
class WalkTable:
    """A next-state table in the form :func:`_emitted` walks, built by
    :func:`transition_rows`.

    ``dead`` is the absorbing state that undefined transitions lead to.
    ``rows[s][c]`` is the state reached from s by the k-letter block with
    code c (see :func:`block_codes`), and row ``s * letters**k + c`` of
    ``trace`` holds the k states visited on the way.  Entry j of a trace
    row depends only on the first j+1 letters of the block, so the letters
    that do not fill a block read the row of their zero-padded block.
    ``end[s, c]`` is ``rows[s][c] * letters**k``, a trace row to gather.
    On a complete table, ``sync[c]`` is the state that the block of code c
    leads every live state to, if that block synchronizes, and -1 where
    those states differ; a block from a live state then ends in ``sync[c]``
    whatever state it began in.  It is None for a partial table and when
    no block synchronizes.
    """

    dead: int
    letters: int
    k: int
    rows: list = field(repr=False)
    trace: np.ndarray = field(repr=False)
    end: np.ndarray = field(repr=False)
    sync: Optional[np.ndarray] = field(default=None, repr=False)


def transition_rows(nxt: np.ndarray) -> WalkTable:
    """The walk table of a next-state table: undefined (-1) entries lead
    to an absorbing dead state numbered ``len(nxt)``, and the block length
    k is the largest (at least 1, at most ``_MAX_BLOCK``) with
    ``(len(nxt)+1) * letters**k * k`` within ``_BLOCK_BUDGET``.  Building
    it costs one row entry per table entry plus that budget, so a caller
    that walks in chunks builds it once.  The columns of the k-letter end
    table whose live rows agree give ``sync``, if the machine is complete."""
    nq, na = nxt.shape
    k = 1
    while k < _MAX_BLOCK and (nq + 1) * na ** (k + 1) * (k + 1) <= _BLOCK_BUDGET:
        k += 1
    # trace[s, c, j] is the state after the first j+1 letters of block c,
    # which is end[s, c // na**(k-1-j)] for the (j+1)-letter end table
    trace = np.empty((nq + 1, na**k, k), dtype=np.int64)
    for j, end in enumerate(_word_ends(nxt, k)):
        trace.reshape(nq + 1, na ** (j + 1), -1, k)[:, :, :, j] = end[:, :, None]
    sync = np.where((end[:nq] == end[0]).all(axis=0), end[0], -1)
    sync = None if (nxt < 0).any() or sync.max() < 0 else sync
    return WalkTable(nq, na, k, _rows(end), trace.reshape(-1, k), end * na**k, sync)


def _word_ends(nxt: np.ndarray, n: int) -> Iterator[np.ndarray]:
    """For j = 1..n, the end state of every j-letter word (column: its code)
    from every state (row); undefined steps lead to the dead last row."""
    full = np.vstack([np.where(nxt < 0, len(nxt), nxt), np.full(nxt.shape[1], len(nxt))])
    end = np.arange(len(full))[:, None]
    for _ in range(n):
        end = full[end].reshape(len(full), -1)
        yield end


def _rows(ends: np.ndarray) -> list:
    """``ends`` as a list of tuple rows in which equal entries share one
    int object, so the rows' referents stay few and cache-resident: the
    entries are read from an object array of the state numbers, so no
    table-sized set of distinct ints is made."""
    flat = iter(np.array(range(len(ends)), dtype=object)[ends].ravel().tolist())
    return list(zip(*[flat] * ends.shape[1]))


def _block_ends(rows: list, codes: np.ndarray, state: int) -> list:
    """The state after each block of ``codes`` from ``state``: the one
    Python step per block.  Iterating a memoryview makes each code's int
    as it is read, and the walrus keeps the state in a fast local."""
    return [state := rows[state][c] for c in memoryview(codes)]


def _trace_rows(table: WalkTable, codes: np.ndarray, state: int) -> tuple:
    """The trace row of each block of ``codes`` from ``state`` and the
    state after the last block.  From a live state over a table with
    ``sync``, one gather ``sync[codes]`` gives the ends of the blocks that
    synchronize, and each loose block (-1) takes a Python step, in block
    order, from the end of the one before (the first from ``state``), if
    at most ``m // _GROUP`` are loose: no more steps than the group walk.
    Otherwise the group walk of the module docstring or a step a block.
    The codes are widened to int64 first, so ``state * width + code``
    cannot wrap."""
    codes = codes.astype(np.int64, copy=False)
    flat, width, m = table.end.ravel(), table.letters**table.k, len(codes)
    if table.sync is not None and state != table.dead:
        ends = table.sync[codes]
        loose = np.flatnonzero(ends < 0)
        if len(loose) <= m // _GROUP:
            for i in loose.tolist():
                ends[i] = table.rows[ends.item(i - 1) if i else state][codes.item(i)]
            return np.concatenate(([state], ends[:-1])) * width + codes, ends.item(-1)
    if len(table.end) > _GROUP_STATES or m < _GROUP:
        lanes, ends = codes[None, :], _block_ends(table.rows, codes, state)
    else:  # lanes[j, i] is block j of group i; codes repeat to pad the last
        lanes = np.resize(codes, (-(-m // _GROUP), _GROUP)).T.copy()
        fold = np.arange(0, flat.size, width)[:, None]
        for lane in lanes:
            fold = flat[fold + lane]
        ends = _block_ends((fold // width).tolist(), np.arange(lanes.shape[1]), state)
    lanes[0, 0] += state * width
    lanes[0, 1:] += np.fromiter(ends, dtype=np.int64, count=lanes.shape[1] - 1) * width
    for last, lane in zip(lanes, lanes[1:]):
        lane += flat[last]
    rows = lanes.T.ravel()[:m]
    return rows, int(flat[rows[-1]]) // width


def _emitted(table: WalkTable, emit: np.ndarray, letters: np.ndarray, state: int) -> tuple:
    """(entries, end state) of the walk from ``state`` over ``table``: the
    entry of ``emit``, any table laid out like ``table.trace``, for each
    letter.  A walk that falls off the table ends in the dead state.

    The block ends come from :func:`_trace_rows`, and one ``np.take`` of
    ``emit`` writes the entries of the blocks.  Letters are walked in
    slices of at most ``_SLICE``, so the Python lists stay bounded."""
    k, na = table.k, table.letters
    letters = _require_letters(letters, na)
    n = len(letters)
    out = np.empty(n, dtype=emit.dtype)
    r = n % k  # the letters after the last block
    span = _SLICE - _SLICE % k
    for lo in range(0, n - r, span):
        hi = min(lo + span, n - r)
        rows, state = _trace_rows(table, block_codes(letters[lo:hi], k, na), state)
        np.take(emit, rows, axis=0, out=out[lo:hi].reshape(-1, k), mode="clip")
    if r:  # they read the row of their zero-padded block
        row = state * na**k + int(block_codes(letters[n - r :], r, na)[0]) * na ** (k - r)
        out[n - r :] = emit[row, :r]
        state = int(table.trace[row, r - 1])
    return out, state


def run_states(table: WalkTable, letters: np.ndarray, state: int) -> np.ndarray:
    """The int64 path of the walk from ``state`` over ``table``: the start,
    then the state after each letter (:func:`_emitted` over the trace)."""
    return np.concatenate([[state], _emitted(table, table.trace, letters, state)[0]])


def walk(
    machine, table: WalkTable, letters: np.ndarray, state: int, position: int = 0
) -> np.ndarray:
    """:func:`run_states` over ``machine``'s walk table, raising
    UndefinedTransition at the first undefined step; ``position`` is the
    number of input symbols consumed before ``letters`` (errors report the
    1-based position of the offending symbol)."""
    path = run_states(table, letters, state)
    if path[-1] == table.dead:
        i = int(np.argmax(path == table.dead))
        raise UndefinedTransition(
            machine.states[path[i - 1]],
            machine.alphabet.symbol(int(letters[i - 1])),
            position=position + i,
        )
    return path


def _selection_tables(selector: Selector) -> tuple:
    """(walk table, keep table) of a selector, the keep bits laid out like
    the trace: ``[s * #A**k + c, j]`` keeps the j-th letter of block c read
    from s.  The dead state keeps nothing.  One byte per trace entry."""
    nxt, keep = selector.tables()
    table, na = transition_rows(nxt), nxt.shape[1]
    full = np.vstack([keep, np.zeros(na, dtype=bool)]).ravel()
    rows = np.arange(len(table.trace))
    before = np.hstack([(rows // na**table.k)[:, None], table.trace[:, :-1]])
    return table, full[before * na + block_letters(rows % na**table.k, table.k, na)]


def _kept(machine, table: WalkTable, keeps, letters: np.ndarray, state: int, position=0) -> tuple:
    """:func:`_emitted` over a keep table (:func:`_selection_tables`); a walk
    that ends in the dead state is walked again, only to raise :func:`walk`'s."""
    kept, end = _emitted(table, keeps, letters, state)
    if end == table.dead:
        walk(machine, table, letters, state, position)
    return kept, end


def _selected(keep: np.ndarray, path: np.ndarray, letters: np.ndarray) -> np.ndarray:
    """The letters kept on ``path`` by one flat gather: :func:`_kept`'s reference."""
    return np.compress(keep.ravel()[path[:-1] * keep.shape[1] + letters], letters)


class SelectionCursor:
    """Resumable streaming application of a selector.

    Feed input symbols incrementally; KEEP symbols come back as they are
    read.  The cursor is the one mutable object of this module: it must not
    be fed concurrently, but may be handed between threads between calls.
    """

    def __init__(self, selector: Selector, start=None):
        self._selector = selector
        self._position = 0
        self._table, self._keeps = _selection_tables(selector)
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
        """Consume one symbol; return the (possibly empty) list of emitted
        symbols.  A symbol outside the alphabet raises UnknownSymbol and is
        not consumed: ``position`` and ``state`` stay as they were."""
        sel = self._selector
        sel.alphabet.index(symbol)  # a foreign symbol raises UnknownSymbol
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
        """Fast path over symbol-index arrays; returns the emitted indices, in their dtype.

        On an undefined transition the cursor stops at the offending
        symbol: ``position`` is its 1-based position and ``state`` the state
        that has no transition on it, as after the same error from :meth:`feed`.
        """
        try:
            kept, end = _kept(
                self._selector, self._table, self._keeps, indices, self._state_idx, self._position
            )
        except UndefinedTransition as err:
            self._position = err.position
            self._state_idx = self._selector.state_index(err.state)
            raise
        self._position += len(indices)
        self._state_idx = end
        return np.compress(kept, indices)


def apply_selector(selector: Selector, stream: Iterable) -> Iterator:
    """Lazily apply a selector to a stream of symbols, yielding KEPT symbols.

    Consuming n input symbols yields exactly the output of
    ``run_word(selector, selector.initial, first n symbols)``.
    """
    cursor = SelectionCursor(selector)
    for symbol in stream:
        yield from cursor.feed(symbol)


def is_oblivious(selector: Selector) -> tuple[bool, Optional[object]]:
    """True when all transitions leaving each state share one action.

    On failure also returns the first state (in declaration order) with
    mixed actions.
    """
    nxt, keep = selector.tables()
    mixed = np.flatnonzero(keep.any(axis=1) & ((nxt >= 0) & ~keep).any(axis=1))
    return (True, None) if not len(mixed) else (False, selector.states[mixed[0]])


def _require_oblivious(selector: Selector):
    """Raise NotOblivious at the first state with mixed actions."""
    ok, witness = is_oblivious(selector)
    if not ok:
        raise NotOblivious(witness)


def state_action(selector: Selector, state) -> Optional[str]:
    """The common action of a state's outgoing transitions, or None if the
    state has no outgoing transitions.  Raises NotOblivious on mixed actions."""
    i = selector.state_index(state)
    nxt, keep = selector.tables()
    actions = {KEEP if k else DROP for t, k in zip(nxt[i].tolist(), keep[i].tolist()) if t >= 0}
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


def _strong_components(nxt: np.ndarray) -> list:
    """Tarjan's algorithm on the rows of a next-state array, -1 skipped: the
    strongly connected components as ascending index lists in reverse-
    topological order (a component comes after every component it reaches).
    Iterative, so graphs of ~10^6 vertices fit."""
    rows = nxt.tolist()
    n = len(rows)
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
        work = [(root, iter(rows[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if w < 0:
                    continue
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(rows[w])))
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


def _condensation(nxt: np.ndarray):
    """(components, comp_of, out): :func:`_strong_components` of ``nxt``, each
    state's component (int64) and each component's successor set, all lower."""
    comps = _strong_components(nxt)
    comp_of = np.empty(nxt.shape[0], dtype=np.int64)
    for i, c in enumerate(comps):
        comp_of[c] = i
    src, sym = np.nonzero(nxt >= 0)
    ci, cj = comp_of[src], comp_of[nxt[src, sym]]
    cross = ci != cj
    out: list = [set() for _ in comps]
    for c, d in set(zip(ci[cross].tolist(), cj[cross].tolist())):
        out[c].add(d)
    return comps, comp_of, out


def _reached(out: list, c: int) -> list:
    """Per component of the condensation ``out``, whether component ``c``
    reaches it; successors have lower indices, so one sweep down from c."""
    reached = [False] * len(out)
    reached[c] = True
    for d in range(c, -1, -1):
        if reached[d]:
            for t in out[d]:
                reached[t] = True
    return reached


def scc_decomposition(machine) -> SccReport:
    """Strongly connected components of the transition graph (see :func:`_condensation`)."""
    states = machine.states
    index_comps, _comp_of, out = _condensation(machine.tables()[0])
    comps = tuple(tuple(states[v] for v in c) for c in index_comps)
    return SccReport(
        components=comps,
        recurrent=tuple(not succ for succ in out),
        condensation_edges=frozenset((c, d) for c, succ in enumerate(out) for d in succ),
        component_index={q: i for i, c in enumerate(comps) for q in c},
    )


def _snake_runs(machine, n: int) -> np.ndarray:
    """The realizable length-``n`` runs of ``machine`` as ascending codes
    ``p * #A**n + c``: start state index p, big-endian word code c (see
    :func:`block_codes`).  Each possible run may become a state of
    :func:`snake_automaton`, whose traced peak is under 24 bytes per
    next state and label letter plus 256 (labels, index dict, tables), so
    sizes past ``COUNT_BUDGET_BYTES`` raise ValidationError before anything
    is allocated, and so does a machine with no run of length n."""
    if n < 1:
        raise ValidationError("snake construction needs n >= 1")
    nxt = machine.tables()[0]
    nq, na = nxt.shape
    per_run = 24 * (na + n) + 256
    what = f"snake of length {n} has up to {nq}*{na}**{n} runs of {per_run} bytes"
    _require_budget(nq * na ** min(n, 64) * per_run, what)
    for end in _word_ends(nxt, n):  # the last table, of the n-letter words
        pass
    runs = np.flatnonzero(end[:nq].ravel() < nq)
    if not len(runs):
        raise ValidationError(f"machine has no run of length {n}")
    return runs


def snake_automaton(machine: Automaton, n: int) -> Automaton:
    """The automaton whose states are the realizable length-``n`` runs of
    ``machine`` (see :func:`_snake_runs`), written as pairs (start state,
    input word), ordered by start state, then word.

    A transition reads one more symbol and slides the length-n window:
    ``(p, b w') --a--> (p.b, w' a)`` whenever both runs exist.  Pairs whose
    run does not exist in a partial machine are omitted.
    """
    return _snake_from_runs(machine, n, _snake_runs(machine, n))


def _snake_from_runs(machine: Automaton, n: int, runs: np.ndarray) -> Automaton:
    """:func:`snake_automaton` on the runs :func:`_snake_runs` found."""
    nxt = machine.tables()[0]
    nq, na = nxt.shape
    width = na**n
    number = np.full(nq * width, -1, dtype=np.int64)
    number[runs] = np.arange(len(runs))
    p, code = np.divmod(runs, width)
    tail = width // na
    targets = (nxt[p, code // tail] * width + code % tail * na)[:, None] + np.arange(na)
    codes, word_of = np.unique(code, return_inverse=True)
    letters = block_letters(codes, n, na)
    symbols = np.array(machine.alphabet.symbols, dtype=object)
    words = list(map(tuple, symbols[letters].tolist()))
    base = machine.states
    states = [(base[i], words[j]) for i, j in zip(p.tolist(), word_of.tolist())]
    start = machine.state_index(machine.initial)
    first = int(np.searchsorted(p, start))
    initial = states[first] if first < len(p) and p[first] == start else states[0]
    return Automaton._from_tables(machine.alphabet, states, initial, number[targets])


def snake_state_label(state, alphabet: Alphabet) -> str:
    """Printable token for a snake state (p, w): ``p*w``, w spelled by
    :func:`sftselect.alphabet.word_token`."""
    p, w = state
    return f"{p}*{word_token(w, alphabet.single_char)}"


def dfa_to_selector(machine: Automaton, accepting) -> Selector:
    """Turn a DFA into the oblivious selector that keeps a symbol exactly
    when the preceding prefix is accepted: transitions out of accepting
    states KEEP, all others DROP."""
    nxt = machine.tables()[0]
    accepts = np.zeros(len(nxt), dtype=bool)
    accepts[[machine.state_index(q) for q in set(accepting)]] = True
    keep = accepts[:, None] & (nxt >= 0)
    return Selector._from_tables(machine.alphabet, machine.states, machine.initial, nxt, keep)


def selector_to_dfa(selector: Selector) -> tuple[Automaton, frozenset]:
    """Inverse of :func:`dfa_to_selector` for oblivious selectors: drop the
    actions and report the KEEP states as accepting."""
    _require_oblivious(selector)
    keeps = selector.tables()[1].any(axis=1)
    accepting = frozenset(q for q, k in zip(selector.states, keeps.tolist()) if k)
    return selector.underlying_automaton(), accepting
