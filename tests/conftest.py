import random

import numpy as np
import pytest

import sftselect as ss
from sftselect import fixtures as fx


@pytest.fixture
def binary():
    return fx.binary_alphabet()


@pytest.fixture
def after_ones():
    return fx.after_ones_selector()


@pytest.fixture
def nonoblivious():
    return fx.nonoblivious_selector()


@pytest.fixture
def even_positions():
    return fx.even_positions_selector()


@pytest.fixture
def even_positions_full():
    return fx.even_positions_selector(include_forbidden_reads=True)


@pytest.fixture
def golden():
    return fx.golden_parry_measure()


@pytest.fixture
def uniform2():
    return fx.uniform_binary_measure()


@pytest.fixture
def golden_witness(even_positions, golden):
    return ss.check_selector_compatibility(even_positions, golden).witness


def txt(word) -> str:
    return "".join(word)


def random_complete_dfa(rng: random.Random, max_states: int = 4):
    """Seeded random complete binary DFA plus a random accepting set."""
    n = rng.randint(1, max_states)
    states = [f"s{i}" for i in range(n)]
    transitions = [
        (q, a, states[rng.randrange(n)]) for q in states for a in ("0", "1")
    ]
    dfa = ss.Automaton(["0", "1"], states, states[0], transitions)
    accepting = {q for q in states if rng.random() < 0.5}
    return dfa, accepting


def random_selector(rng: random.Random, max_states: int = 4, partial: bool = False) -> ss.Selector:
    """Seeded random binary selector with per-transition actions; complete
    unless ``partial``, which leaves out each transition with probability 1/4."""
    n = rng.randint(1, max_states)
    states = [f"s{i}" for i in range(n)]
    transitions = [
        (q, a, rng.choice(("keep", "drop")), states[rng.randrange(n)])
        for q in states
        for a in ("0", "1")
    ]
    if partial:
        transitions = [t for t in transitions if rng.random() >= 0.25]
    return ss.Selector(["0", "1"], states, states[0], transitions)


def random_irreducible_measure(rng: random.Random, size: int) -> ss.MarkovMeasure:
    """Random strictly positive stochastic matrix with its stationary vector."""
    alpha = ss.Alphabet([str(i) for i in range(size)])
    rows = np.array([[rng.random() + 0.05 for _ in range(size)] for _ in range(size)])
    rows /= rows.sum(axis=1, keepdims=True)
    P = ss.StochasticMatrix(alpha, rows)
    pi = ss.stationary_distribution(P)
    return ss.MarkovMeasure(pi, P)


def random_word(rng: random.Random, alphabet, max_len: int, min_len: int = 0):
    length = rng.randint(min_len, max_len)
    return tuple(rng.choice(alphabet.symbols) for _ in range(length))


def reference_pick(weights, u: float) -> int:
    """Scalar inverse CDF: the first i with u < w[0] + ... + w[i], summed
    left to right, else the last positive weight."""
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if u < acc:
            return i
    return max(i for i, w in enumerate(weights) if w > 0.0)


def reference_sample(mu: ss.MarkovMeasure, seed: int, n: int) -> np.ndarray:
    """Scalar Markov sampling: one ``SplitMix64`` float per symbol, the first
    symbol drawn from pi and each next one from its predecessor's row."""
    rows = mu.P.entries.tolist()
    weights = mu.pi.weights.tolist()
    gen = ss.SplitMix64(seed)
    out = []
    for _ in range(n):
        out.append(reference_pick(weights, gen.next_float()))
        weights = rows[out[-1]]
    return np.array(out, dtype=np.int64)
