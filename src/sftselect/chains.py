"""Markov chains induced by automata on random input.

On uniform input a complete deterministic automaton walks a chain whose
entry (p, q) is the fraction of symbols leading p to q; on Markov input a
compatible machine walks the chain with entries P[last_read(p), a] along
its transitions.  The snake construction lifts these chains to states that
are whole length-n runs, which is how per-run frequencies are computed.

A chain is kept as its edge arrays (source, target, weight), one edge per
defined transition, which the one builder ``_chain`` takes from a (state,
symbol) weight array.  Pair sums and the dense matrix are built from the
edges only when read.  Every stationary vector a chain carries has been
checked on its edges by :func:`_check_stationary`, balance residual
``max |xP - x|`` included.  Machine chains solve theirs densely on the
unique closed (recurrent) class and extend it by zero to transient
states; machines with several closed classes have no distinguished
stationary vector and raise NotIrreducible where one is required.  A
snake chain is never solved: it carries its closed-form vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .alphabet import Alphabet
from .compat import CompatibilityWitness, _step_weights, is_shift_complete
from .errors import NotIrreducible, NotShiftComplete, UndefinedTransition, UnknownSymbol
from .errors import UnrealizableRun, ValidationError
from .machines import (
    Automaton, SccReport, _require_budget, _snake_from_runs, _snake_runs, block_letters,
    run_word, scc_decomposition, transition_rows, walk,
)
from .measures import (
    ROW_SUM_TOL, STATIONARITY_TOL, MarkovMeasure, _solve_balance, conditional_word_measure,
)


def _pair_sums(src, dst, weight, size: int) -> tuple:
    """The edges summed per (source, target) pair: (rows, cols, sums), one
    entry per pair in row-major order.  ``bincount`` over the pair ranks
    adds each pair's weights in edge order, as unbuffered ``np.add.at``
    does, from 0.0."""
    pairs, rank = np.unique(src * size + dst, return_inverse=True)
    entries = (*np.divmod(pairs, size), np.bincount(rank, weights=weight, minlength=len(pairs)))
    for array in entries:
        array.setflags(write=False)
    return entries


def _dense(size: int, rows, cols, sums) -> np.ndarray:
    matrix = np.zeros((size, size))
    matrix[rows, cols] = sums
    matrix.setflags(write=False)
    return matrix


def _require_dense(size: int):
    """Refuse a chain whose dense matrix would pass ``COUNT_BUDGET_BYTES``."""
    what = f"a dense chain over {size} states needs {size}**2 float64 entries"
    _require_budget(size * size * 8, what)


@dataclass(frozen=True)
class StateChain:
    """A Markov chain over the states of a machine.

    ``edges`` is (source, target, weight) by machine state index, one
    read-only entry per defined transition in state then alphabet order.
    ``entries`` (see :func:`_pair_sums`) and the read-only dense ``matrix``
    are built from them on first read.  ``stationary`` has passed
    :func:`_check_stationary`; it is None when the chain has several
    closed classes (no canonical stationary vector) or was not solved.
    """

    machine: object
    edges: tuple = field(repr=False)
    scc: SccReport
    stationary: Optional[np.ndarray]

    @cached_property
    def entries(self) -> tuple:
        return _pair_sums(*self.edges, len(self.machine.states))

    @cached_property
    def matrix(self) -> np.ndarray:
        return _dense(len(self.machine.states), *self.entries)

    def stationary_of(self, state) -> float:
        return float(self.require_stationary()[self.machine.state_index(state)])

    def require_stationary(self) -> np.ndarray:
        if self.stationary is None:
            raise NotIrreducible(
                "chain has several closed classes; no canonical stationary distribution"
            )
        return self.stationary

    @property
    def irreducible(self) -> bool:
        return self.scc.strongly_connected


def _check_stationary(chain: StateChain, x: np.ndarray) -> float:
    """The balance residual ``max |xP - x|`` of ``x`` over the chain's
    edges, one weighted ``bincount``, after checking the rest from the
    edges too: the chain has exactly one closed class (so its stationary
    vector is unique), every row sums to 1 within ``ROW_SUM_TOL`` and x is
    a probability vector.  A residual past ``STATIONARITY_TOL`` raises
    NotIrreducible, as do several closed classes; the rest raise
    ValidationError."""
    src, dst, weight = chain.edges
    size = len(x)
    if sum(chain.scc.recurrent) != 1:
        raise NotIrreducible(
            "chain has several closed classes; no canonical stationary distribution"
        )
    sums = np.bincount(src, weight, minlength=size)
    bad = np.flatnonzero(~(np.abs(sums - 1.0) <= ROW_SUM_TOL))
    if bad.size:
        raise ValidationError(
            f"row {chain.machine.states[bad[0]]!r} sums to {float(sums[bad[0]])!r}, "
            f"not 1 (tolerance {ROW_SUM_TOL})"
        )
    if not (np.all(x >= 0.0) and abs(x.sum() - 1.0) <= ROW_SUM_TOL):
        raise ValidationError(f"stationary masses sum to {float(x.sum())!r}, not 1")
    residual = float(np.max(np.abs(np.bincount(dst, x[src] * weight, minlength=size) - x)))
    if not residual <= STATIONARITY_TOL:
        raise NotIrreducible(
            f"vector is not stationary for the chain "
            f"(balance residual {residual:.3e} > {STATIONARITY_TOL})"
        )
    return residual


def _chain(machine, weights: np.ndarray, solve: bool = True) -> StateChain:
    """The chain with an edge of weight ``weights[p, a]`` from p to q for
    every transition p -a-> q (indices), with, when ``solve``, the
    stationary vector of its unique closed class, solved densely on the
    chain's cached ``matrix`` and checked on its edges by
    :func:`_check_stationary`, which raises for a vector that fails.  A
    chain whose dense matrix would pass ``COUNT_BUDGET_BYTES`` raises
    ValidationError before anything is built."""
    size = len(machine.states)
    _require_dense(size)
    nxt = machine.tables()[0]
    src, sym = np.nonzero(nxt >= 0)
    edges = (src, nxt[src, sym], weights[src, sym])
    for array in edges:
        array.setflags(write=False)
    scc = scc_decomposition(machine)
    chain = StateChain(machine=machine, edges=edges, scc=scc, stationary=None)
    closed = [i for i, rec in enumerate(scc.recurrent) if rec]
    if solve and len(closed) == 1:
        idx = [machine.state_index(q) for q in scc.components[closed[0]]]
        x = np.zeros(size)
        x[idx] = _solve_balance(chain.matrix[np.ix_(idx, idx)])
        _check_stationary(chain, x)
        x.setflags(write=False)
        # set in place, so that the chain keeps the matrix it has cached
        object.__setattr__(chain, "stationary", x)
    return chain


def uniform_chain(machine: Automaton) -> StateChain:
    """Chain of a complete deterministic automaton on uniform input: entry
    (p, q) counts the symbols leading p to q, divided by #A."""
    machine.validate_complete()
    return _chain(machine, np.full(machine.tables()[0].shape, 1.0 / len(machine.alphabet)))


def compatible_chain(
    machine,
    mu: MarkovMeasure,
    witness: CompatibilityWitness,
    require_complete: bool = True,
) -> StateChain:
    """Chain of a compatible machine on mu-distributed input: the entry for a
    transition p -a-> q is P[last_read(p), a].

    Rows are stochastic exactly when the machine can read every
    positive-probability continuation; with ``require_complete`` the missing
    pairs raise NotShiftComplete, otherwise a substochastic chain is
    returned (its stationary vector is not computed).
    """
    ok, missing = is_shift_complete(machine, mu, witness)
    if not ok and require_complete:
        raise NotShiftComplete(missing)
    return _chain(machine, _step_weights(machine, mu, witness), solve=ok)


def support_automaton(mu: MarkovMeasure) -> Automaton:
    """One state per symbol, a transition a -b-> b whenever P[a,b] > 0; the
    walk of this machine is the measure's own chain."""
    alpha = mu.alphabet
    transitions = [
        (a, b, b) for a in alpha for b in alpha if mu.P[a, b] > 0.0
    ]
    start = next(a for a in alpha if mu.pi[a] > 0.0)
    machine = Automaton(alpha, list(alpha.symbols), start, transitions)
    machine.declare_labels(last_read={a: a for a in alpha})
    return machine


@dataclass(frozen=True)
class SnakeDistribution:
    """Closed-form distribution of a snake chain.

    ``chain`` carries the closed-form last-read vector x as its stationary
    vector once x has passed :func:`_check_stationary`; ``check_residual``
    is x's balance residual ``max |xP - x|`` over the chain's edges.
    ``values`` is x, or the last-selected variant when asked for.
    """

    snake: Automaton
    chain: StateChain
    values: np.ndarray
    check_residual: float

    def value_of(self, state) -> float:
        return float(self.values[self.snake.state_index(state)])


def snake_distribution(
    machine: Automaton,
    n: int,
    mu: Optional[MarkovMeasure] = None,
    witness: Optional[CompatibilityWitness] = None,
    labeling: str = "last_read",
) -> SnakeDistribution:
    """Distribution of the length-n run chain.

    Uniform mode (no measure): each snake state (p, w) has mass
    stationary(p) / #A**n.  Markov mode: mass stationary(p) *
    mu_{last_read(p)}(w); the alternative ``labeling="last_selected"``
    weights runs by the conditional measure of the last selected symbol
    instead and is exposed for output-block arguments; any other labeling
    is refused first, in either mode.  Only the last-read
    form x is the stationary vector of the input-driven chain; it is
    checked on the snake chain's edges (see :func:`_check_stationary`) and
    no matrix is built or solved.  A snake whose dense chain would pass
    the budget is refused once its runs are counted, before the base chain
    is solved or any (p, w) label is built.
    """
    if labeling not in ("last_read", "last_selected"):
        raise ValidationError(f"unknown labeling {labeling!r}")
    runs = _snake_runs(machine, n)
    _require_dense(len(runs))
    na = len(machine.alphabet)
    p, code = np.divmod(runs, na**n)
    if mu is None:
        base_pi = uniform_chain(machine).require_stationary()
        values = x = base_pi[p] / float(na) ** n
        weights = np.full((len(runs), na), 1.0 / na)
    else:
        if witness is None:
            raise ValidationError("Markov snake distribution needs a compatibility witness")
        base_pi = compatible_chain(machine, mu, witness).require_stationary()
        labels = getattr(witness, labeling)
        if labels is None:
            raise ValidationError("witness carries no last-selected labeling")
        # letters in measure order; the products run left to right, as
        # conditional_word_measure multiplies them
        order = mu.alphabet.encode(machine.alphabet)
        letters = order[block_letters(code, n, na)]
        P = mu.P.entries

        def mass(labels) -> np.ndarray:
            value = P[mu.alphabet.encode([labels[q] for q in machine.states])[p], letters[:, 0]]
            for j in range(1, n):
                value = value * P[letters[:, j - 1], letters[:, j]]
            return base_pi[p] * value

        x = mass(witness.last_read)
        values = x if labeling == "last_read" else mass(labels)
        weights = P[np.ix_(letters[:, -1], order)]
    snake = _snake_from_runs(machine, n, runs)
    chain = _chain(snake, weights, solve=False)
    residual = _check_stationary(chain, x)
    x.setflags(write=False)
    values.setflags(write=False)
    return SnakeDistribution(
        snake=snake, chain=replace(chain, stationary=x), values=values, check_residual=residual
    )


def lifted_run_measure(
    chain: StateChain,
    mu: MarkovMeasure,
    witness: CompatibilityWitness,
    state,
    word,
) -> float:
    """Measure of the run (state, word) under the lifted chain:
    stationary(state) * mu_{last_read(state)}(word).  A word :func:`run_word`
    cannot follow (an undefined step, a foreign symbol) raises UnrealizableRun."""
    word = tuple(word)
    try:
        run_word(chain.machine, state, word)
    except (UndefinedTransition, UnknownSymbol):
        raise UnrealizableRun(state, word) from None
    return chain.stationary_of(state) * conditional_word_measure(
        mu, witness.last_read[state], word
    )


@dataclass(frozen=True)
class StateFrequencyReport:
    """Empirical source-state counts over the first n transitions of a run,
    against a reference stationary vector."""

    machine: object
    n: int
    counts: dict
    reference: np.ndarray = field(repr=False)
    max_deviation: float

    def ratio_of(self, state) -> float:
        return self.counts.get(state, 0) / self.n


def empirical_state_frequencies(
    machine,
    x,
    n: Optional[int] = None,
    chain: Optional[StateChain] = None,
) -> StateFrequencyReport:
    """Run the machine over (the first n symbols of) ``x`` and compare each
    state's source-occurrence frequency with the chain's stationary vector.

    ``x`` may be a token iterable or an index array; ``chain`` defaults to
    the uniform-input chain of the machine.
    """
    if chain is None:
        chain = uniform_chain(machine)
    reference = chain.require_stationary()
    alpha: Alphabet = machine.alphabet
    if isinstance(x, np.ndarray):
        idx = x
    else:
        idx = alpha.encode(x)
    if n is None:
        n = len(idx)
    if n < 0:
        raise ValidationError(f"input length n = {n} is negative")
    idx = idx[:n]
    if len(idx) < n:
        raise ValidationError(f"input has only {len(idx)} symbols, need {n}")
    table = transition_rows(machine.tables()[0])
    state = machine.state_index(machine.initial)
    counts = np.bincount(walk(machine, table, idx, state)[:-1], minlength=len(machine.states))
    deviation = float(np.max(np.abs(counts / n - reference))) if n else float("nan")
    count_map = {q: int(counts[i]) for i, q in enumerate(machine.states)}
    return StateFrequencyReport(
        machine=machine,
        n=n,
        counts=count_map,
        reference=reference,
        max_deviation=deviation,
    )

