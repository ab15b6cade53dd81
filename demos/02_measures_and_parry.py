"""Markov measures, stationary vectors, and the Parry measure.

A Markov measure weights a word by its starting probability times the
transition probabilities along it; the Parry measure is the distinguished
(maximal-entropy) Markov measure of a shift of finite type, built from the
dominant eigenvalue and eigenvectors of its adjacency matrix.
"""

import numpy as np

import sftselect as ss
from sftselect import fixtures

# The golden-mean shift forbids the block 11; its matrix zeroes that entry.
spec = fixtures.golden_mean_sft()
print("adjacency matrix:\n", spec.M)
print("irreducible:", spec.irreducible, "| aperiodic:", spec.aperiodic)

result = ss.parry_measure(spec)
print("\ndominant eigenvalue", result.theta, "(the golden ratio)")
print("pi =", result.measure.pi.weights)
print("P  =\n", result.measure.P.entries)

mu = fixtures.golden_parry_measure()  # bundled closed form, exact zeros and ones
for w in ("0", "1", "01", "11", "010"):
    print(f"mu({w}) = {ss.word_measure(mu, w):.10f}")
print("forbidden blocks:", ss.support_forbidden_blocks(mu))
print("0110 in support?", ss.word_in_support(mu, "0110"))

# Conditional measures start from a transition row instead of pi; together
# with pi they decompose the measure.
w = "0100"
total = sum(mu.pi[a] * ss.conditional_word_measure(mu, a, w) for a in mu.alphabet)
print(f"\nsum_a pi(a) mu_a({w}) = {total:.15f} = mu({w}) = {ss.word_measure(mu, w):.15f}")

# Stationary vectors of arbitrary irreducible stochastic matrices.
P = ss.StochasticMatrix(ss.Alphabet(["a", "b", "c"]), np.array([
    [0.2, 0.5, 0.3],
    [0.6, 0.1, 0.3],
    [0.25, 0.25, 0.5],
]))
pi = ss.stationary_distribution(P)
print("\nstationary of a 3x3 chain:", pi.weights)
print("residual:", np.max(np.abs(pi.weights @ P.entries - pi.weights)))
