"""Finite-state selectors over shift spaces.

The package builds deterministic selectors (transducers that either copy or
drop each symbol they read), Markov and Parry measures over shifts of
finite type, the compatibility machinery tying machines to a measure's
support, and the chain/counting tools used to verify, exactly at small
scale and statistically at desk scale, that oblivious finite-state
selection preserves normality and genericity for Markov measures.
"""

from .alphabet import Alphabet, EPSILON_TOKEN
from .chains import (
    SnakeDistribution,
    StateChain,
    StateFrequencyReport,
    compatible_chain,
    empirical_state_frequencies,
    lifted_run_measure,
    snake_distribution,
    support_automaton,
    uniform_chain,
)
from .compat import (
    CompatibilityResult,
    CompatibilityWitness,
    Violation,
    check_automaton_compatibility,
    check_selector_compatibility,
    infer_iota,
    is_shift_complete,
)
from .errors import (
    BlockLengthOutOfRange,
    CapExceeded,
    Incomplete,
    NonConvergence,
    NotCompatible,
    NotIrreducible,
    NotOblivious,
    NotShiftComplete,
    NotStronglyConnected,
    ParseError,
    SftSelectError,
    UndefinedTransition,
    UnknownSymbol,
    UnrealizableRun,
    ValidationError,
    WeightsNotNormalized,
)
from .experiment import ExperimentConfig, ExperimentReport, run_experiment, write_experiment_csv
from .machines import (
    DROP,
    KEEP,
    Automaton,
    Run,
    SccReport,
    SelectionCursor,
    Selector,
    apply_selector,
    dfa_to_selector,
    is_oblivious,
    run_word,
    scc_decomposition,
    select_text,
    selector_to_dfa,
    snake_automaton,
    snake_state_label,
    state_action,
)
from .measures import (
    Distribution,
    MarkovMeasure,
    ParryResult,
    SftSpec,
    StochasticMatrix,
    block_measure_array,
    conditional_word_measure,
    make_bernoulli,
    parry_measure,
    stationary_distribution,
    support_forbidden_blocks,
    uniform_measure,
    word_in_support,
    word_measure,
)
from .oracles import (
    EquirunScanResult,
    LemmaCheckResult,
    RunEnumeration,
    brute_force_prefix_selection,
    count_output_prefix_runs,
    enumerate_runs,
    equirun_scan,
    lemma_check,
    measure_output_prefix_runs,
)
from .seqgen import (
    ALIGNED,
    CHAMPERNOWNE,
    MARKOV_SAMPLE,
    SLIDING,
    BlockCounter,
    FrequencyReport,
    GeneratorSpec,
    SplitMix64,
    block_frequencies,
    champernowne,
    discrepancy,
    generate,
    generate_chunks,
    sample_markov,
    splitmix64_floats,
)

__version__ = "0.1.0"
