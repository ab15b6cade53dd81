"""Word measures: Bernoulli, Markov, conditional measures, and the Parry
measure of an irreducible shift of finite type.

A Markov measure assigns mu(a1..ak) = pi[a1] * P[a1,a2] * ... * P[a(k-1),ak];
its support is the shift of finite type whose forbidden blocks are the
length-2 words with a zero transition entry.  Everything here is immutable
after construction and all operations are pure.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .alphabet import Alphabet, as_word
from .errors import (
    NonConvergence,
    NotIrreducible,
    ValidationError,
    WeightsNotNormalized,
)
from .machines import _strong_components

ROW_SUM_TOL = 1e-12
STATIONARITY_TOL = 1e-10
EIGEN_RESIDUAL_TOL = 1e-10
POWER_ITER_TOL = 1e-13
POWER_ITER_BUDGET = 10**6


def _as_matrix(entries, size) -> np.ndarray:
    m = np.array(entries, dtype=float)
    if m.shape != (size, size):
        raise ValidationError(f"expected a {size}x{size} matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValidationError("matrix entries must be finite")
    if (m < 0).any():
        raise ValidationError("matrix entries must be nonnegative")
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class Distribution:
    """A probability vector over an alphabet, in declaration order."""

    alphabet: Alphabet
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alphabet", Alphabet(self.alphabet))
        w = np.array(self.weights, dtype=float)
        if w.shape != (len(self.alphabet),):
            raise ValidationError("weight vector length does not match the alphabet")
        if not np.isfinite(w).all():
            raise ValidationError("weights must be finite")
        if (w < 0).any():
            raise ValidationError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > ROW_SUM_TOL:
            raise WeightsNotNormalized(f"weights sum to {w.sum()!r}, not 1")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def __getitem__(self, symbol) -> float:
        return float(self.weights[self.alphabet.index(symbol)])

    def items(self):
        return zip(self.alphabet.symbols, self.weights.tolist())


@dataclass(frozen=True)
class StochasticMatrix:
    """A row-stochastic matrix of transition probabilities, symbol-indexed."""

    alphabet: Alphabet
    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alphabet", Alphabet(self.alphabet))
        m = _as_matrix(self.entries, len(self.alphabet))
        bad = np.nonzero(np.abs(m.sum(axis=1) - 1.0) > ROW_SUM_TOL)[0]
        if bad.size:
            a = self.alphabet.symbol(int(bad[0]))
            raise ValidationError(
                f"row {a!r} sums to {m[bad[0]].sum()!r}, not 1 (tolerance {ROW_SUM_TOL})"
            )
        object.__setattr__(self, "entries", m)

    def __getitem__(self, pair) -> float:
        a, b = pair
        return float(self.entries[self.alphabet.index(a), self.alphabet.index(b)])


@dataclass(frozen=True)
class MarkovMeasure:
    """A stationary distribution together with its stochastic matrix."""

    pi: Distribution
    P: StochasticMatrix

    def __post_init__(self):
        if self.pi.alphabet != self.P.alphabet:
            raise ValidationError("pi and P must share one alphabet")
        resid = np.max(np.abs(self.pi.weights @ self.P.entries - self.pi.weights))
        if resid > STATIONARITY_TOL:
            raise ValidationError(
                f"pi is not stationary for P (residual {resid:.3e} > {STATIONARITY_TOL})"
            )

    @property
    def alphabet(self) -> Alphabet:
        return self.pi.alphabet


@dataclass(frozen=True)
class SftSpec:
    """A shift of finite type given by a nonnegative symbol-adjacency matrix;
    the zero entries are the forbidden length-2 blocks.

    ``irreducible`` records strong connectivity of the nonzero pattern of a
    nonempty shift (a lone symbol without a self-loop has none) and
    ``aperiodic`` whether some power of the pattern is everywhere positive.
    """

    alphabet: Alphabet
    M: np.ndarray
    irreducible: bool = field(init=False)
    aperiodic: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "alphabet", Alphabet(self.alphabet))
        m = _as_matrix(self.M, len(self.alphabet))
        object.__setattr__(self, "M", m)
        mask = m > 0
        object.__setattr__(self, "irreducible", bool(mask.any()) and _pattern_gap(mask) is None)
        object.__setattr__(self, "aperiodic", self.irreducible and _pattern_period(mask) == 1)


def _pattern_gap(mask: np.ndarray):
    """None when the boolean pattern is strongly connected, else the first
    (i, j) index pair, row by row, with no path from i to j.  A component
    reaches itself and what its successors, listed earlier, reach."""
    n = mask.shape[0]
    succ = [np.flatnonzero(row).tolist() for row in mask]
    comp_of = [0] * n
    reach: list = []
    for c, members in enumerate(_strong_components(succ)):
        for v in members:
            comp_of[v] = c
        reach.append(set(members).union(
            *(reach[comp_of[w]] for v in members for w in succ[v] if comp_of[w] != c)
        ))
    everything = set(range(n))
    for i in range(n):
        missing = everything - reach[comp_of[i]]
        if missing:
            return i, min(missing)
    return None


def _require_connected(mask: np.ndarray, alphabet: Alphabet, what: str):
    """Raise NotIrreducible, its message led by ``what``, unless the
    boolean pattern has a nonzero entry and is strongly connected."""
    gap = _pattern_gap(mask)
    if gap is None and mask.any():
        return
    if gap is None:
        raise NotIrreducible(f"{what}: it has no nonzero entry")
    a, b = alphabet.symbol(gap[0]), alphabet.symbol(gap[1])
    raise NotIrreducible(f"{what}: no path from {a!r} to {b!r}", components=(a, b))


def _pattern_period(mask: np.ndarray) -> int:
    """Cycle-length gcd of a strongly connected boolean pattern."""
    n = mask.shape[0]
    level = {0: 0}
    queue = [0]
    g = 0
    while queue:
        u = queue.pop()
        for v in np.nonzero(mask[u])[0]:
            v = int(v)
            if v not in level:
                level[v] = level[u] + 1
                queue.append(v)
            else:
                g = math.gcd(g, level[u] + 1 - level[v])
    return abs(g) if g else 0


def word_measure(mu: MarkovMeasure, word: Iterable[str]) -> float:
    """mu(w) = pi[w1] * prod P[wi, wi+1]; the empty word has measure 1."""
    w = as_word(word)
    if not w:
        return 1.0
    alpha = mu.alphabet
    idx = [alpha.index(s) for s in w]
    value = float(mu.pi.weights[idx[0]])
    entries = mu.P.entries
    for i, j in zip(idx, idx[1:]):
        value *= entries[i, j]
    return float(value)


def conditional_word_measure(mu: MarkovMeasure, symbol: str, word: Iterable[str]) -> float:
    """Measure of ``word`` conditioned on the previous symbol: starts from the
    transition row of ``symbol`` instead of the stationary vector."""
    w = as_word(word)
    prev = mu.alphabet.index(symbol)
    value = 1.0
    entries = mu.P.entries
    for s in w:
        cur = mu.alphabet.index(s)
        value *= entries[prev, cur]
        prev = cur
    return float(value)


def make_bernoulli(alphabet, weights) -> MarkovMeasure:
    """The memoryless measure with the given symbol weights: every row of P
    equals the weight vector.  Zero-weight symbols are allowed but flagged
    with a warning; they carry no support."""
    alphabet = Alphabet(alphabet)
    dist = weights if isinstance(weights, Distribution) else Distribution(alphabet, np.asarray(weights, dtype=float))
    if dist.alphabet != alphabet:
        raise ValidationError("weights alphabet mismatch")
    zero = [a for a, w in dist.items() if w == 0.0]
    if zero:
        warnings.warn(f"zero-probability symbols excluded from support: {zero}", stacklevel=2)
    rows = np.tile(dist.weights, (len(alphabet), 1))
    return MarkovMeasure(dist, StochasticMatrix(alphabet, rows))


def uniform_measure(alphabet) -> MarkovMeasure:
    """The Bernoulli measure giving every symbol weight 1/#A."""
    alphabet = Alphabet(alphabet)
    n = len(alphabet)
    return make_bernoulli(alphabet, np.full(n, 1.0 / n))


def _solve_balance(P: np.ndarray) -> np.ndarray:
    """Probability vector x with x P = x for a stochastic matrix with one
    closed class: the balance equations with the last one replaced by the
    normalization, least squares if that system is singular, then clipped
    to be nonnegative and renormalized."""
    n = P.shape[0]
    A = P.T - np.eye(n)
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        x = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        x, *_ = np.linalg.lstsq(
            np.vstack([P.T - np.eye(n), np.ones(n)]),
            np.append(np.zeros(n), 1.0),
            rcond=None,
        )
    x = np.clip(x, 0.0, None)
    x /= x.sum()
    return x


def stationary_distribution(P: StochasticMatrix) -> Distribution:
    """The unique probability vector fixed by an irreducible stochastic matrix.

    Solved directly (one stochastic-balance equation replaced by the
    normalization); the residual is checked against 1e-12.
    """
    _require_connected(P.entries > 0, P.alphabet, "nonzero pattern is not strongly connected")
    x = _solve_balance(P.entries)
    resid = np.max(np.abs(x @ P.entries - x))
    if resid > 1e-12:
        raise NonConvergence(1)
    return Distribution(P.alphabet, x)


def _power_iteration(M: np.ndarray, tol: float = POWER_ITER_TOL, budget: int = POWER_ITER_BUDGET):
    """Dominant-eigenpair power iteration on M, run on M + I so that periodic
    irreducible patterns still converge; the shift is subtracted from the
    Rayleigh estimate at the end."""
    n = M.shape[0]
    shifted = M + np.eye(n)
    x = np.full(n, 1.0 / n)
    for _ in range(budget):
        y = shifted @ x
        y /= y.sum()
        if np.max(np.abs(y - x)) < tol:
            x = y
            break
        x = y
    else:
        raise NonConvergence(budget)
    theta = float(x @ (M @ x) / (x @ x))
    return theta, x


@dataclass(frozen=True)
class ParryResult:
    """Parry measure together with the dominant eigenvalue and eigenvectors."""

    theta: float
    measure: MarkovMeasure
    left: np.ndarray
    right: np.ndarray


def parry_measure(spec: SftSpec) -> ParryResult:
    """Maximal-entropy Markov measure of an irreducible SFT.

    With dominant eigenvalue theta and left/right eigenvectors l, r scaled so
    that sum(l*r) = 1:  P[i,j] = M[i,j] * r[j] / (theta * r[i]) and
    pi[i] = l[i] * r[i].
    """
    if not spec.irreducible:
        _require_connected(spec.M > 0, spec.alphabet, "SFT matrix is not irreducible")
    theta, right = _power_iteration(spec.M)
    _, left = _power_iteration(spec.M.T)
    for vec, mat in ((right, spec.M), (left, spec.M.T)):
        resid = np.max(np.abs(mat @ vec - theta * vec))
        if resid > EIGEN_RESIDUAL_TOL * np.max(np.abs(vec)):
            raise NonConvergence(POWER_ITER_BUDGET)
    left = left / float(left @ right)
    entries = spec.M * right[None, :] / (theta * right[:, None])
    # the eigen tail leaves rows stochastic only to ~1e-12; renormalizing
    # moves entries by less than the already-checked residual
    entries /= entries.sum(axis=1, keepdims=True)
    pi = Distribution(spec.alphabet, left * right)
    measure = MarkovMeasure(pi, StochasticMatrix(spec.alphabet, entries))
    return ParryResult(theta=theta, measure=measure, left=left, right=right)


def support_forbidden_blocks(mu: MarkovMeasure) -> set:
    """The length-2 words of measure zero: pairs (a, b) with P[a,b] = 0."""
    alpha = mu.alphabet
    zero = np.argwhere(mu.P.entries == 0.0)
    return {(alpha.symbol(int(i)), alpha.symbol(int(j))) for i, j in zero}


def word_in_support(mu: MarkovMeasure, word: Iterable[str]) -> bool:
    """Whether the word has positive measure (no forbidden step, positive
    initial weight).  The empty word is always in the support."""
    w = as_word(word)
    if not w:
        return True
    if mu.pi[w[0]] <= 0.0:
        return False
    entries = mu.P.entries
    prev = mu.alphabet.index(w[0])
    for s in w[1:]:
        cur = mu.alphabet.index(s)
        if entries[prev, cur] <= 0.0:
            return False
        prev = cur
    return True


def block_measure_array(mu: MarkovMeasure, k: int) -> np.ndarray:
    """Measures of all length-k words as a vector of length #A**k.

    Index encoding is big-endian in alphabet order: the word w maps to
    sum(index(w[i]) * #A**(k-1-i)), matching lexicographic enumeration.
    """
    return next(block_measure_ladder(mu, [k]))[1]


def block_measure_ladder(mu: MarkovMeasure, ks):
    """Yield (k, block_measure_array(mu, k)) for k in sorted(ks): one pass
    that extends a single vector, so only the current one is kept."""
    n = len(mu.alphabet)
    m, j = np.array(mu.pi.weights, dtype=float), 1
    for k in sorted(ks):
        if k < 1:
            raise ValidationError("block length must be >= 1")
        while j < k:
            m, j = (m.reshape(-1, n, 1) * mu.P.entries).reshape(-1), j + 1
        yield k, m
