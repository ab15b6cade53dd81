"""The run enumeration ``_walk_runs`` against its definition: every input
word of length n from ``itertools.product``, in order, stepped with
``step_or_none``; the words stepped to the end are the runs.  Inputs,
outputs, end states and weights must be identical, each weight of the same
type and with the same float64 bytes."""

import random
from itertools import product

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import sftselect as ss
from sftselect.oracles import _walk_runs

from conftest import random_selector
from test_prefix_tables import random_weights


def reference_runs(machine, start, n, weights=None) -> list:
    """The realizable length-n runs from ``start``, word by word."""
    runs = []
    for u in product(machine.alphabet.symbols, repeat=n):
        state, out, acc = start, [], 1.0
        for a in u:
            step = machine.step_or_none(state, a)
            if step is None:
                break
            target, keeps = step if isinstance(machine, ss.Selector) else (step, False)
            if weights is not None:
                acc = acc * weights(state, a)
            if keeps:
                out.append(a)
            state = target
        else:
            runs.append((u, tuple(out), state, acc))
    return runs


def exact(runs) -> list:
    """Runs with each weight as its type and float64 bytes."""
    return [(u, v, end, type(w), np.float64(w).tobytes()) for u, v, end, w in runs]


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    size=st.integers(1, 3),
    n=st.integers(0, 6),
    weighted=st.booleans(),
    automaton=st.booleans(),
)
def test_walk_runs_is_the_definition(seed, size, n, weighted, automaton):
    rng = random.Random(seed)
    machine = random_selector(rng, partial=True, symbols=[str(i) for i in range(size)])
    if automaton:
        machine = machine.underlying_automaton()
    weights = random_weights(rng, machine)[1] if weighted else None
    start = rng.choice(machine.states)
    expected = exact(reference_runs(machine, start, n, weights))
    assert exact(_walk_runs(machine, start, n, weights)) == expected


def test_a_long_unary_run():
    selector = ss.Selector(["a"], ["p", "q"], "p", [("p", "a", "drop", "q"), ("q", "a", "keep", "p")])
    rows = {"p": np.float64(0.9995), "q": np.float64(1.0)}

    def weights(state, a):
        return rows[state]

    runs = list(_walk_runs(selector, "p", 2000, weights))
    assert exact(runs) == exact(reference_runs(selector, "p", 2000, weights))
    assert len(runs[0][0]) == 2000 and len(runs[0][1]) == 1000
