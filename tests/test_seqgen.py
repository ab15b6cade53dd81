import random

import numpy as np
import pytest

import sftselect as ss


class TestSplitMix64:
    def test_scalar_vector_agreement(self):
        for seed in (0, 1, 2**64 - 1, 0xDEADBEEF):
            gen = ss.SplitMix64(seed)
            scalar = np.array([gen.next_float() for _ in range(256)])
            assert np.array_equal(scalar, ss.splitmix64_floats(seed, 256))

    def test_offset_continuation(self):
        whole = ss.splitmix64_floats(42, 1000)
        parts = np.concatenate(
            [ss.splitmix64_floats(42, 100, offset=i * 100) for i in range(10)]
        )
        assert np.array_equal(whole, parts)

    def test_range(self):
        u = ss.splitmix64_floats(7, 10000)
        assert (u >= 0).all() and (u < 1).all()


class TestChampernowne:
    def test_binary_prefix(self, binary):
        assert binary.text(ss.champernowne(binary, 10)) == "0100011011"

    def test_single_symbol(self, binary):
        assert binary.text(ss.champernowne(binary, 1)) == "0"

    def test_ternary_prefix(self):
        alpha = ss.Alphabet(["0", "1", "2"])
        assert alpha.text(ss.champernowne(alpha, 6)) == "012000"

    def test_zero_length(self, binary):
        assert ss.champernowne(binary, 0).size == 0

    def test_symbol_balance_at_scale(self, binary, uniform2):
        x = ss.champernowne(binary, 10**6)
        report = ss.block_frequencies(binary, x, 1)
        assert ss.discrepancy(report, uniform2) < 0.02


class TestSampleMarkov:
    def test_frozen_uniform_vector(self, binary, uniform2):
        # regression pin for the exact splitmix64 + inverse-CDF pipeline
        assert binary.text(ss.sample_markov(uniform2, 1, 8)) == "11100111"

    def test_frozen_golden_prefix(self, binary, golden):
        assert binary.text(ss.sample_markov(golden, 7, 16)) == "0010000000010100"

    def test_dirac_measure_is_forced(self, binary):
        with pytest.warns(UserWarning):
            mu = ss.make_bernoulli(binary, [1.0, 0.0])
        assert binary.text(ss.sample_markov(mu, 9, 32)) == "0" * 32

    def test_forbidden_blocks_never_sampled(self, binary, golden):
        x = ss.sample_markov(golden, 123, 10**6)
        report = ss.block_frequencies(binary, x, 2)
        assert report.count_of(("1", "1")) == 0

    def test_deterministic(self, golden):
        a = ss.sample_markov(golden, 5, 4096)
        b = ss.sample_markov(golden, 5, 4096)
        assert np.array_equal(a, b)
        c = ss.sample_markov(golden, 6, 4096)
        assert not np.array_equal(a, c)

    def test_chunked_generation_identical(self, binary, golden):
        spec = ss.GeneratorSpec(
            kind=ss.MARKOV_SAMPLE, alphabet=binary, n=10_000, measure=golden, seed=77
        )
        whole = ss.sample_markov(golden, 77, 10_000)
        for chunk in (1, 97, 4096):
            parts = np.concatenate(list(ss.generate_chunks(spec, chunk=chunk)))
            assert np.array_equal(whole, parts)

    def test_champernowne_chunks_identical(self, binary):
        spec = ss.GeneratorSpec(kind=ss.CHAMPERNOWNE, alphabet=binary, n=54_321)
        whole = ss.champernowne(binary, 54_321)
        parts = np.concatenate(list(ss.generate_chunks(spec, chunk=777)))
        assert np.array_equal(whole, parts)

    def test_generator_spec_validation(self, binary, golden):
        with pytest.raises(ss.ValidationError):
            ss.GeneratorSpec(kind="nonsense", alphabet=binary, n=10)
        with pytest.raises(ss.ValidationError):
            ss.GeneratorSpec(kind=ss.MARKOV_SAMPLE, alphabet=binary, n=10)

    def test_chunk_size_must_be_positive(self, binary, golden):
        for kind, measure in ((ss.CHAMPERNOWNE, None), (ss.MARKOV_SAMPLE, golden)):
            spec = ss.GeneratorSpec(kind=kind, alphabet=binary, n=10, measure=measure)
            for chunk in (0, -1):
                with pytest.raises(ss.ValidationError):
                    next(ss.generate_chunks(spec, chunk))

    def test_seed_range(self, binary, uniform2):
        for seed in (-1, 2**64):
            with pytest.raises(ss.ValidationError):
                ss.GeneratorSpec(
                    kind=ss.MARKOV_SAMPLE, alphabet=binary, n=8, measure=uniform2, seed=seed
                )
            with pytest.raises(ss.ValidationError):
                ss.sample_markov(uniform2, seed, 8)
        top = 2**64 - 1
        gen = ss.SplitMix64(top)
        expected = [int(gen.next_float() >= 0.5) for _ in range(8)]
        assert ss.sample_markov(uniform2, top, 8).tolist() == expected


class TestBlockFrequencies:
    def test_sliding_example(self, binary):
        report = ss.block_frequencies(binary, "0101", 2, ss.SLIDING)
        assert report.count_of(("0", "1")) == 2
        assert report.count_of(("1", "0")) == 1
        assert report.frequency_of(("0", "1")) == pytest.approx(2 / 3)
        assert report.frequency_of(("1", "0")) == pytest.approx(1 / 3)

    def test_aligned_example(self, binary):
        report = ss.block_frequencies(binary, "0101", 2, ss.ALIGNED)
        assert report.count_of(("0", "1")) == 2
        assert report.windows == 2
        assert report.frequency_of(("0", "1")) == 1.0

    def test_champernowne_k1(self, binary):
        report = ss.block_frequencies(binary, "0100011011", 1)
        assert report.count_of(("0",)) == 5
        assert report.count_of(("1",)) == 5

    def test_window_count_identity(self, binary):
        rng = random.Random(4)
        for _ in range(50):
            n = rng.randint(1, 400)
            x = "".join(rng.choice("01") for _ in range(n))
            for k in range(1, min(n, 6) + 1):
                sliding = ss.block_frequencies(binary, x, k, ss.SLIDING)
                aligned = ss.block_frequencies(binary, x, k, ss.ALIGNED)
                assert int(sliding.counts.sum()) == n - k + 1
                assert int(aligned.counts.sum()) == n // k

    def test_modes_agree_for_k1(self, binary):
        rng = random.Random(8)
        x = "".join(rng.choice("01") for _ in range(997))
        sliding = ss.block_frequencies(binary, x, 1, ss.SLIDING)
        aligned = ss.block_frequencies(binary, x, 1, ss.ALIGNED)
        assert np.array_equal(sliding.counts, aligned.counts)

    def test_matches_naive_counter(self, binary):
        rng = random.Random(12)
        for _ in range(30):
            n = rng.randint(5, 200)
            x = "".join(rng.choice("01") for _ in range(n))
            for k in (1, 2, 3):
                report = ss.block_frequencies(binary, x, k, ss.SLIDING)
                for word in binary.words(k):
                    w = "".join(word)
                    naive = sum(1 for i in range(n - k + 1) if x[i : i + k] == w)
                    assert report.count_of(word) == naive

    def test_block_length_bounds(self, binary):
        with pytest.raises(ss.BlockLengthOutOfRange):
            ss.block_frequencies(binary, "0101", 0)
        with pytest.raises(ss.BlockLengthOutOfRange):
            ss.block_frequencies(binary, "0101", 5)

    def test_block_codes_past_int64_rejected(self):
        # only sizes past the int64 code range: these fail before allocating
        for size, k in ((2, 63), (2, 64), (3, 40), (2, 10**9)):
            with pytest.raises(ss.BlockLengthOutOfRange):
                ss.BlockCounter(size, k)
        assert ss.BlockCounter(1, 100).counts.size == 1

    def test_streaming_counter_matches_oneshot(self, binary):
        rng = random.Random(31)
        x = np.array([rng.randrange(2) for _ in range(5000)], dtype=np.int64)
        for mode in (ss.SLIDING, ss.ALIGNED):
            for k in (1, 2, 4):
                counter = ss.BlockCounter(2, k, mode)
                i = 0
                while i < x.size:
                    j = min(x.size, i + rng.randint(1, 64))
                    counter.update(x[i:j])
                    i = j
                oneshot = ss.block_frequencies(binary, x, k, mode)
                assert np.array_equal(counter.counts, oneshot.counts)


class TestDiscrepancy:
    def test_alternating_is_balanced(self, binary, uniform2):
        report = ss.block_frequencies(binary, "0101010101", 1)
        assert ss.discrepancy(report, uniform2) == 0.0

    def test_constant_is_maximally_biased(self, binary, uniform2):
        report = ss.block_frequencies(binary, "0000000000", 1)
        assert ss.discrepancy(report, uniform2) == pytest.approx(0.5)

    def test_golden_sample_discrepancy(self, binary, golden):
        x = ss.sample_markov(golden, 2024, 10**6)
        report = ss.block_frequencies(binary, x, 2)
        assert ss.discrepancy(report, golden) < 0.01

    def test_absent_blocks_count(self, binary, uniform2):
        # a sequence missing a block entirely is still charged for it
        report = ss.block_frequencies(binary, "1111", 2)
        assert ss.discrepancy(report, uniform2) == pytest.approx(0.75)
