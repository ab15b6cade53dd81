import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sftselect as ss
from sftselect import fixtures as fx

from conftest import random_irreducible_measure, random_word

GOLDEN = (1 + math.sqrt(5)) / 2


class TestWordMeasure:
    def test_golden_single_symbol(self, golden):
        assert ss.word_measure(golden, "0") == pytest.approx(0.7236067977, abs=1e-9)

    def test_forbidden_block_is_null(self, golden):
        assert ss.word_measure(golden, "11") == 0.0

    def test_golden_010(self, golden):
        assert ss.word_measure(golden, "010") == pytest.approx(0.2763932023, abs=1e-9)

    def test_empty_word(self, golden, uniform2):
        assert ss.word_measure(golden, "") == 1.0
        assert ss.word_measure(uniform2, "") == 1.0

    def test_unknown_symbol(self, golden):
        with pytest.raises(ss.UnknownSymbol):
            ss.word_measure(golden, "02")


class TestConditionalMeasure:
    def test_after_one_zero_is_forced(self, golden):
        assert ss.conditional_word_measure(golden, "1", "0") == 1.0

    def test_forced_zero(self, golden):
        assert ss.conditional_word_measure(golden, "0", "11") == 0.0

    def test_empty_word(self, golden):
        for a in golden.alphabet:
            assert ss.conditional_word_measure(golden, a, "") == 1.0

    def test_decomposition_identity(self, golden):
        rng = random.Random(3)
        for _ in range(100):
            w = random_word(rng, golden.alphabet, 8)
            total = sum(
                golden.pi[a] * ss.conditional_word_measure(golden, a, w)
                for a in golden.alphabet
            )
            assert total == pytest.approx(ss.word_measure(golden, w), abs=1e-12)


class TestStationaryDistribution:
    def test_doubly_stochastic(self, binary):
        P = ss.StochasticMatrix(binary, [[0.5, 0.5], [0.5, 0.5]])
        pi = ss.stationary_distribution(P)
        assert np.allclose(pi.weights, [0.5, 0.5], atol=1e-12)

    def test_golden_rows(self, binary):
        P = ss.StochasticMatrix(binary, [[1 / GOLDEN, 1 / GOLDEN**2], [1.0, 0.0]])
        pi = ss.stationary_distribution(P)
        expected = [GOLDEN**2 / (1 + GOLDEN**2), 1 / (1 + GOLDEN**2)]
        assert np.allclose(pi.weights, expected, atol=1e-12)

    def test_identity_not_irreducible(self, binary):
        P = ss.StochasticMatrix(binary, [[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ss.NotIrreducible) as err:
            ss.stationary_distribution(P)
        assert err.value.components is not None

    def test_residual_bound(self):
        rng = random.Random(10)
        for size in (2, 3, 5, 8):
            mu = random_irreducible_measure(rng, size)
            resid = np.max(np.abs(mu.pi.weights @ mu.P.entries - mu.pi.weights))
            assert resid <= 1e-12


class TestParryMeasure:
    def test_golden_fixture_is_the_closed_form(self):
        """The bundled golden measure holds, bit for bit, the doubles of
        pi = (g^2, 1)/(1+g^2) and rows (1/g, 1/g^2), (1, 0)."""
        mu = fx.golden_parry_measure()
        pi = np.array([GOLDEN**2 / (1 + GOLDEN**2), 1 / (1 + GOLDEN**2)])
        P = np.array([[1 / GOLDEN, 1 / GOLDEN**2], [1.0, 0.0]])
        assert np.array_equal(mu.pi.weights.view(np.uint64), pi.view(np.uint64))
        assert np.array_equal(mu.P.entries.view(np.uint64), P.view(np.uint64))

    def test_golden_mean(self):
        result = fx.golden_parry()
        assert result.theta == pytest.approx(1.6180339887499, abs=1e-9)
        assert np.allclose(
            result.measure.pi.weights, [0.7236067977, 0.2763932023], atol=1e-9
        )
        assert np.allclose(
            result.measure.P.entries,
            [[0.6180339887, 0.3819660113], [1.0, 0.0]],
            atol=1e-9,
        )

    def test_full_shift_is_uniform(self, binary):
        result = ss.parry_measure(ss.SftSpec(binary, [[1, 1], [1, 1]]))
        assert result.theta == pytest.approx(2.0, abs=1e-12)
        assert np.allclose(result.measure.pi.weights, [0.5, 0.5], atol=1e-10)
        assert np.allclose(result.measure.P.entries, 0.5, atol=1e-10)

    def test_periodic_two_cycle(self, binary):
        result = ss.parry_measure(ss.SftSpec(binary, [[0, 1], [1, 0]]))
        assert result.theta == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(result.measure.P.entries, [[0, 1], [1, 0]], atol=1e-12)
        assert np.allclose(result.measure.pi.weights, [0.5, 0.5], atol=1e-10)

    def test_reducible_rejected(self, binary):
        with pytest.raises(ss.NotIrreducible):
            ss.parry_measure(ss.SftSpec(binary, [[1, 1], [0, 1]]))

    def test_eigen_residuals(self):
        spec = fx.golden_mean_sft()
        result = ss.parry_measure(spec)
        for vec, mat in ((result.right, spec.M), (result.left, spec.M.T)):
            resid = np.max(np.abs(mat @ vec - result.theta * vec))
            assert resid <= 1e-10 * np.max(np.abs(vec))

    def test_support_pattern_matches_matrix(self):
        rng = random.Random(17)
        for _ in range(20):
            size = rng.randint(2, 5)
            mask = np.zeros((size, size))
            # random irreducible pattern: a cycle plus random extras
            for i in range(size):
                mask[i, (i + 1) % size] = rng.random() + 0.2
            for i in range(size):
                for j in range(size):
                    if rng.random() < 0.4:
                        mask[i, j] = rng.random() + 0.2
            spec = ss.SftSpec(ss.Alphabet([str(i) for i in range(size)]), mask)
            result = ss.parry_measure(spec)
            assert np.array_equal(result.measure.P.entries > 0, spec.M > 0)
            assert (result.measure.pi.weights > 0).all()


class TestBernoulli:
    def test_uniform_binary_words(self, uniform2):
        assert ss.word_measure(uniform2, "010") == pytest.approx(1 / 8, abs=1e-15)

    def test_biased_product(self, binary):
        mu = ss.make_bernoulli(binary, [0.9, 0.1])
        assert ss.word_measure(mu, "11") == pytest.approx(0.01, abs=1e-15)

    def test_zero_weight_flagged(self, binary):
        with pytest.warns(UserWarning):
            mu = ss.make_bernoulli(binary, [1.0, 0.0])
        assert ss.word_measure(mu, "1") == 0.0
        assert not ss.word_in_support(mu, "1")

    def test_not_normalized(self, binary):
        with pytest.raises(ss.WeightsNotNormalized):
            ss.make_bernoulli(binary, [0.9, 0.2])
        with pytest.raises(ss.ValidationError, match="weights alphabet mismatch"):
            ss.make_bernoulli(binary, ss.Distribution(["a", "b"], [0.5, 0.5]))


class TestSupport:
    def test_golden_forbidden_blocks(self, golden):
        assert ss.support_forbidden_blocks(golden) == {("1", "1")}

    def test_uniform_has_none(self, uniform2):
        assert ss.support_forbidden_blocks(uniform2) == set()

    def test_word_in_support(self, golden):
        assert not ss.word_in_support(golden, "0110")
        assert ss.word_in_support(golden, "0101")
        assert ss.word_in_support(golden, "")


class TestSftSpec:
    def test_golden_flags(self):
        spec = fx.golden_mean_sft()
        assert spec.irreducible and spec.aperiodic

    def test_periodic_flags(self, binary):
        spec = ss.SftSpec(binary, [[0, 1], [1, 0]])
        assert spec.irreducible and not spec.aperiodic

    def test_reducible_flags(self, binary):
        spec = ss.SftSpec(binary, [[1, 1], [0, 1]])
        assert not spec.irreducible

    def test_empty_shift_is_not_irreducible(self):
        spec = ss.SftSpec(ss.Alphabet(["a"]), [[0.0]])
        assert not spec.irreducible and not spec.aperiodic
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ss.NotIrreducible, match="no nonzero entry"):
                ss.parry_measure(spec)

    def test_lone_self_loop_is_irreducible(self):
        spec = ss.SftSpec(ss.Alphabet(["a"]), [[2.0]])
        assert spec.irreducible and spec.aperiodic
        assert ss.parry_measure(spec).theta == pytest.approx(2.0)


class TestNonFiniteEntries:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_stochastic_matrix(self, binary, bad):
        with pytest.raises(ss.ValidationError, match="finite"):
            ss.StochasticMatrix(binary, [[bad, 1.0], [0.5, 0.5]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_distribution(self, binary, bad):
        with pytest.raises(ss.ValidationError, match="finite"):
            ss.Distribution(binary, np.array([bad, 1.0]))

    def test_sft_matrix(self, binary):
        with pytest.raises(ss.ValidationError, match="finite"):
            ss.SftSpec(binary, [[math.nan, 1.0], [1.0, 0.0]])

    def test_measure_file(self):
        text = "alphabet 0 1\npi 0.5 0.5\nrow nan 1\nrow 0.5 0.5\n"
        with pytest.raises(ss.ValidationError, match="finite"):
            ss.formats.parse_measure_text(text)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda a: ss.StochasticMatrix(a, [[1.0, 0.0]]), r"expected a 2x2 matrix, got shape \(1, 2\)"),
        (lambda a: ss.SftSpec(a, [[1.0, 0.0], [1.0, -1.0]]), "matrix entries must be nonnegative"),
        (lambda a: ss.Distribution(a, [1.0]), "weight vector length does not match the alphabet"),
        (lambda a: ss.Distribution(a, [1.5, -0.5]), "weights must be nonnegative"),
        (
            lambda a: ss.MarkovMeasure(ss.Distribution(["x", "y"], [0.5, 0.5]), ss.StochasticMatrix(a, np.eye(2))),
            "pi and P must share one alphabet",
        ),
    ],
)
def test_shape_sign_and_alphabet_are_validated(binary, build, message):
    with pytest.raises(ss.ValidationError, match=message):
        build(binary)


class TestMeasureAxioms:
    def test_randomized_identities(self):
        # Kolmogorov consistency, shift invariance, and the conditional
        # decomposition, each on randomized measures and words
        rng = random.Random(20240811)
        checked = 0
        for _ in range(500):
            mu = random_irreducible_measure(rng, rng.randint(2, 5))
            w = random_word(rng, mu.alphabet, 8)
            base = ss.word_measure(mu, w)
            extend = sum(ss.word_measure(mu, w + (a,)) for a in mu.alphabet)
            prepend = sum(ss.word_measure(mu, (a,) + w) for a in mu.alphabet)
            decompose = sum(
                mu.pi[a] * ss.conditional_word_measure(mu, a, w) for a in mu.alphabet
            )
            assert abs(extend - base) <= 1e-12
            assert abs(prepend - base) <= 1e-12
            assert abs(decompose - base) <= 1e-12
            checked += 1
        assert checked == 500

    def test_block_measure_array_matches_word_measure(self, golden):
        for k in (1, 2, 3, 4):
            arr = ss.block_measure_array(golden, k)
            for code, w in enumerate(golden.alphabet.words(k)):
                assert arr[code] == pytest.approx(ss.word_measure(golden, w), abs=1e-15)
            assert arr.sum() == pytest.approx(1.0, abs=1e-12)


def _warshall(mask):
    """Reflexive-transitive closure of a boolean pattern by Warshall's
    algorithm: ``reach[i][j]`` when j can be reached from i in zero or more
    steps."""
    n = len(mask)
    reach = [[i == j or bool(mask[i][j]) for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    reach[i][j] = reach[i][j] or reach[k][j]
    return reach


def _first_gap(mask):
    """The first (i, j), row by row, with no path from i to j, or None."""
    reach = _warshall(mask)
    n = len(mask)
    return next(((i, j) for i in range(n) for j in range(n) if not reach[i][j]), None)


def _primitive(mask):
    """Whether some power of the pattern is everywhere positive; Wielandt's
    bound (n - 1)**2 + 1 on the exponent makes the search finite."""
    n = len(mask)
    power = mask.copy()
    for _ in range((n - 1) ** 2 + 1):
        if power.all():
            return True
        power = (power.astype(int) @ mask.astype(int)) > 0
    return False


patterns = st.integers(1, 9).flatmap(
    lambda n: st.lists(st.booleans(), min_size=n * n, max_size=n * n).map(
        lambda cells: np.array(cells, dtype=bool).reshape(n, n)
    )
)


@settings(max_examples=400, deadline=None)
@given(mask=patterns)
def test_pattern_connectivity_matches_warshall(mask):
    n = mask.shape[0]
    alphabet = ss.Alphabet([str(i) for i in range(n)])
    gap = _first_gap(mask)
    spec = ss.SftSpec(alphabet, mask.astype(float))
    # a strongly connected pattern is irreducible unless its shift is
    # empty, which here means the 1x1 zero pattern
    empty = not mask.any()
    assert spec.irreducible == (gap is None and not empty)
    assert spec.aperiodic == (gap is None and not empty and _primitive(mask))
    # every row needs an entry to be stochastic; a self-loop keeps the gap honest
    stoch = mask | np.diag(~mask.any(axis=1))
    stoch_gap = _first_gap(stoch)
    P = ss.StochasticMatrix(alphabet, stoch / stoch.sum(axis=1, keepdims=True))
    if stoch_gap is None:
        pi = ss.stationary_distribution(P)
        assert np.allclose(pi.weights @ P.entries, pi.weights, atol=1e-12)
    else:
        a, b = (alphabet.symbol(i) for i in stoch_gap)
        with pytest.raises(ss.NotIrreducible) as err:
            ss.stationary_distribution(P)
        assert err.value.components == (a, b)
        assert str(err.value) == (
            f"nonzero pattern is not strongly connected: no path from {a!r} to {b!r}"
        )
    if gap is not None:
        a, b = (alphabet.symbol(i) for i in gap)
        with pytest.raises(ss.NotIrreducible) as err:
            ss.parry_measure(spec)
        assert err.value.components == (a, b)
        assert str(err.value) == f"SFT matrix is not irreducible: no path from {a!r} to {b!r}"
    elif empty:
        with pytest.raises(ss.NotIrreducible, match="no nonzero entry"):
            ss.parry_measure(spec)
