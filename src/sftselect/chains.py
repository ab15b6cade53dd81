"""Markov chains induced by automata on random input.

On uniform input a complete deterministic automaton walks a chain whose
entry (p, q) is the fraction of symbols leading p to q; on Markov input a
compatible machine walks the chain with entries P[last_read(p), a] along
its transitions.  The snake construction lifts these chains to states that
are whole length-n runs, which is how per-run frequencies are computed.

Stationary vectors are solved on the unique closed (recurrent) class and
extended by zero to transient states; machines with several closed classes
have no distinguished stationary vector and raise NotIrreducible where one
is required.  One builder, ``_chain``, sums a (state, symbol) weight
array along the edge arrays (source, target, weight) of the defined
transitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .alphabet import Alphabet
from .compat import CompatibilityWitness, _step_weights, is_shift_complete
from .errors import NotIrreducible, NotShiftComplete, UnrealizableRun, ValidationError
from .machines import (
    COUNT_BUDGET_BYTES, Automaton, SccReport, scc_decomposition, snake_automaton,
    transition_rows, walk,
)
from .measures import (
    Distribution, MarkovMeasure, StochasticMatrix, _solve_balance, conditional_word_measure,
)

SNAKE_CHECK_TOL = 1e-9


@dataclass(frozen=True)
class StateChain:
    """A Markov chain over the states of a machine.

    ``matrix`` is indexed by machine state order; ``stationary`` is None when
    the chain has several closed classes (no canonical stationary vector).
    """

    machine: object
    matrix: np.ndarray
    scc: SccReport
    stationary: Optional[np.ndarray]

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


def _chain(machine, weights: np.ndarray, solve: bool = True) -> StateChain:
    """The chain adding ``weights[p, a]`` at (p, q) for every transition
    p -a-> q (indices), in state then alphabet order, with, when ``solve``,
    the stationary vector of its unique closed class; past
    ``COUNT_BUDGET_BYTES`` it raises ValidationError before allocating."""
    nq = len(machine.states)
    if nq * nq * 8 > COUNT_BUDGET_BYTES:
        raise ValidationError(
            f"a dense chain over {nq} states needs {nq}**2 float64 entries, "
            f"past the budget of {COUNT_BUDGET_BYTES} bytes"
        )
    nxt = machine.tables()[0]
    src, sym = np.nonzero(nxt >= 0)
    matrix = np.zeros((nq, nq))
    # add.at is unbuffered: repeated (src, dst) pairs sum in edge order
    np.add.at(matrix, (src, nxt[src, sym]), weights[src, sym])
    matrix.setflags(write=False)
    scc = scc_decomposition(machine)
    closed = [i for i, rec in enumerate(scc.recurrent) if rec]
    stationary = None
    if solve and len(closed) == 1:
        idx = [machine.state_index(q) for q in scc.components[closed[0]]]
        stationary = np.zeros(nq)
        stationary[idx] = _solve_balance(matrix[np.ix_(idx, idx)])
        stationary.setflags(write=False)
    return StateChain(machine=machine, matrix=matrix, scc=scc, stationary=stationary)


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
    """Closed-form stationary distribution of a snake chain, cross-checked
    against the eigensolved stationary vector of the lifted chain."""

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
    instead and is exposed for output-block arguments, but only the
    last-read form is the stationary vector of the input-driven chain and
    only it is verified against the eigensolve.
    """
    snake = snake_automaton(machine, n)
    if mu is None:
        base = uniform_chain(machine)
        base_pi = base.require_stationary()
        scale = float(len(machine.alphabet)) ** n
        values = np.array(
            [base_pi[machine.state_index(p)] / scale for (p, _w) in snake.states]
        )
        snake_chain = uniform_chain(snake)
    else:
        if witness is None:
            raise ValidationError("Markov snake distribution needs a compatibility witness")
        base = compatible_chain(machine, mu, witness)
        base_pi = base.require_stationary()
        if labeling == "last_read":
            labels = witness.last_read
        elif labeling == "last_selected":
            if witness.last_selected is None:
                raise ValidationError("witness carries no last-selected labeling")
            labels = witness.last_selected
        else:
            raise ValidationError(f"unknown labeling {labeling!r}")
        values = np.array(
            [
                base_pi[machine.state_index(p)]
                * conditional_word_measure(mu, labels[p], w)
                for (p, w) in snake.states
            ]
        )
        snake_witness = CompatibilityWitness(
            last_read={(p, w): w[-1] for (p, w) in snake.states}
        )
        snake_chain = compatible_chain(snake, mu, snake_witness)
    residual = float("nan")
    if labeling == "last_read":
        residual = float(np.max(np.abs(values - snake_chain.require_stationary())))
        if residual > SNAKE_CHECK_TOL:
            raise NotIrreducible(
                f"closed-form snake distribution disagrees with the eigensolve "
                f"(residual {residual:.3e} > {SNAKE_CHECK_TOL})"
            )
    values.setflags(write=False)
    return SnakeDistribution(
        snake=snake, chain=snake_chain, values=values, check_residual=residual
    )


def lifted_run_measure(
    chain: StateChain,
    mu: MarkovMeasure,
    witness: CompatibilityWitness,
    state,
    word,
) -> float:
    """Measure of the run (state, word) under the lifted chain:
    stationary(state) * mu_{last_read(state)}(word).  The run must exist."""
    machine = chain.machine
    nxt = machine.tables()[0]
    q = machine.state_index(state)
    word = tuple(word)
    for a in word:
        q = nxt.item(q, machine.alphabet.index(a)) if a in machine.alphabet else -1
        if q < 0:
            raise UnrealizableRun(state, word)
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
    start=None,
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
    idx = idx[:n]
    if len(idx) < n:
        raise ValidationError(f"input has only {len(idx)} symbols, need {n}")
    table = transition_rows(machine.tables()[0])
    state = machine.state_index(machine.initial if start is None else start)
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


def chain_as_measure(chain: StateChain, name_fn=None) -> tuple[Distribution, StochasticMatrix]:
    """Render a state chain in measure form (states become the alphabet).

    Only valid when the chain is stochastic and has a stationary vector;
    used by the chain/snake printers.
    """
    names = [
        name_fn(q) if name_fn else str(q) for q in chain.machine.states
    ]
    return (
        Distribution(names, chain.require_stationary()),
        StochasticMatrix(names, chain.matrix),
    )
