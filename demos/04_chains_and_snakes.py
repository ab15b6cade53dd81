"""State chains and snake chains.

Driving a machine with random input makes its state sequence a Markov
chain; the stationary vector of that chain predicts how often each state is
visited.  Lifting the chain to whole length-n runs (the snake chain) gives
closed-form frequencies for every run, which is the engine behind the
preservation results.
"""

import sftselect as ss
from sftselect import fixtures

# Uniform input: each transition carries weight 1/#A.
auto = fixtures.nonoblivious_selector().underlying_automaton()
chain = ss.uniform_chain(auto)
print("uniform chain matrix:\n", chain.matrix)
print("stationary:", chain.stationary)

# The prediction is checkable: run the machine over a pseudorandom sample
# and compare per-state frequencies.
x = ss.sample_markov(fixtures.uniform_binary_measure(), seed=7, n=200_000)
report = ss.empirical_state_frequencies(auto, x)
print("empirical counts:", report.counts)
print("max deviation from stationary:", report.max_deviation)

# Markov input: transition weights come from the measure via the last-read
# labels; rows are stochastic because the machine reads every
# positive-probability continuation.
golden = fixtures.golden_parry_measure()
selector = fixtures.even_positions_selector()
witness = ss.check_selector_compatibility(selector, golden).witness
markov_chain = ss.compatible_chain(selector.underlying_automaton(), golden, witness)
print("\ncompatible chain stationary:")
for q in selector.states:
    print(f"  {q}: {markov_chain.stationary_of(q):.6f}")

# The lifted measure of a run factors as stationary mass times the
# conditional measure of its input word.
print("\nlifted measure of run 000 * 01:",
      ss.lifted_run_measure(markov_chain, golden, witness, "000", "01"))

# Snake chains: states are whole length-n runs.  The closed-form stationary
# distribution x is verified internally by its balance residual max|xP - x|,
# taken over the chain's edges, without solving the chain.
dist = ss.snake_distribution(selector.underlying_automaton(), 2, mu=golden, witness=witness)
print("\nsnake chain on length-2 runs:", len(dist.snake.states), "states")
print("closed form balance residual max|xP - x|:", dist.check_residual)
for state in dist.snake.states[:6]:
    label = ss.snake_state_label(state, selector.alphabet)
    print(f"  {label}: {dist.value_of(state):.6f}")
