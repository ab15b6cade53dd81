"""The four benchmark workloads.

Each workload is built once per run (its set-up: fixture parsing and the
run's scratch directory) and then runs the same job back to back.  A job
only calls the package's public API: ``sftselect.experiment`` functions
or ``sftselect.cli.main``, always looked up on the module at call time, so
the tracer in ``spans.py`` sees the calls.  ``collect`` turns a job's
result into SHA-256 digests of its outputs plus any check that failed;
``run.py`` compares the digests with ``pinned.json``.
"""

from __future__ import annotations

import hashlib
import io
from collections import Counter

import numpy as np

from sftselect import (
    CHAMPERNOWNE,
    MARKOV_SAMPLE,
    Alphabet,
    ExperimentConfig,
    GeneratorSpec,
    SelectionCursor,
    SplitMix64,
    uniform_measure,
)
from sftselect import cli, experiment, formats, seqgen
from sftselect.fixtures import data_path

#: Seed at which the seed-dependent outputs are pinned.
DEFAULT_SEED = 0

#: Symbols compared with the scalar sampling reference on every seed.
REFERENCE_SYMBOLS = 4096

#: Job sizes.  ``tiny`` is for the smoke test only; digests are pinned for
#: ``full``.  Experiments keep n >= 1e5 so the 0.01 tolerance still holds.
SIZES = {
    "full": {
        "experiment_n": 10**6,
        "champernowne_k_max": 16,
        "lemma_n_max": 12,
        "lemma_w_max": 4,
        "equirun_n_max": 16,
        "snake_n": 8,
        "pipeline_n": 10**6,
    },
    "tiny": {
        "experiment_n": 10**5,
        "champernowne_k_max": 4,
        "lemma_n_max": 5,
        "lemma_w_max": 2,
        "equirun_n_max": 16,
        "snake_n": 3,
        "pipeline_n": 10**4,
    },
}


def reference_sample(mu, seed: int, count: int) -> np.ndarray:
    """Scalar reference for Markov sampling: one ``SplitMix64`` float per
    symbol, inverse CDF over the weights in alphabet order, the first symbol
    from the stationary vector.  Returns ``count`` symbol indices as uint8."""

    def cdf(weights):
        acc, cumulative = 0.0, []
        for w in weights:
            acc += w
            cumulative.append(acc)
        return cumulative, max(i for i, w in enumerate(weights) if w > 0.0)

    rows = [cdf(row) for row in mu.P.entries.tolist()]
    cumulative, last = cdf(mu.pi.weights.tolist())
    next_float = SplitMix64(seed).next_float
    out = bytearray(count)
    for j in range(count):
        u = next_float()
        pick = last
        for i, c in enumerate(cumulative):
            if u < c:
                pick = i
                break
        out[j] = pick
        cumulative, last = rows[pick]
    return np.frombuffer(out, dtype=np.uint8)


def _symbols(text: bytes) -> np.ndarray:
    """Binary symbol text ('0'/'1' plus a final newline) as 0/1 values."""
    return np.frombuffer(text.rstrip(b"\n"), dtype=np.uint8) - ord("0")


def _block_counts(y: np.ndarray, k: int) -> dict:
    """Sliding counts of the binary blocks of length k in y, by label."""
    codes = np.zeros(max(y.size - k + 1, 0), dtype=np.int64)
    for j in range(k):
        codes = codes * 2 + y[j : y.size - k + 1 + j]
    counts = np.bincount(codes, minlength=2**k).tolist()
    return {format(code, f"0{k}b"): count for code, count in enumerate(counts)}


class _DigestSink(io.RawIOBase):
    """Write-only byte stream that keeps a SHA-256 of what is written, its
    size, its first ``HEAD`` bytes and its last ``TAIL`` bytes, and nothing
    else, so checking a job's output adds no memory of its own."""

    HEAD = 1 << 16
    TAIL = 256

    def __init__(self):
        super().__init__()
        self.sha = hashlib.sha256()
        self.size = 0
        self.head = b""
        self.tail = b""

    def writable(self):
        return True

    def seekable(self):
        return True  # for tell(); seek() itself stays unsupported

    def tell(self):
        return self.size

    def write(self, b):
        self.sha.update(b)
        self.size += len(b)
        if len(self.head) < self.HEAD:
            self.head += bytes(b[: self.HEAD - len(self.head)])
        self.tail = (self.tail + bytes(b[-self.TAIL :]))[-self.TAIL :]
        return len(b)


def _digest_text_stream():
    """A text stream into a ``_DigestSink``, written through a 1 MiB buffer."""
    sink = _DigestSink()
    text = io.TextIOWrapper(io.BufferedWriter(sink, 1 << 20), encoding="utf-8", newline="\n")
    return text, sink


class _Experiment:
    """``run_experiment`` plus ``write_experiment_csv`` into a stream that
    keeps only the CSV's digest, head and tail."""

    def __init__(self, config):
        self.config = config
        self.items = config.generator.n
        self.sizes = {
            "n": config.generator.n,
            "k_range": [min(config.ks), max(config.ks)],
            "mode": config.mode,
            "tolerance": config.tolerance,
        }

    def prepare(self):
        pass

    def job(self):
        report = experiment.run_experiment(self.config)
        text, sink = _digest_text_stream()
        experiment.write_experiment_csv(report, text)
        text.flush()
        return sink

    def collect(self, sink):
        problems = []
        if not sink.tail.endswith(b"# RESULT PASS\n"):
            problems.append("experiment CSV does not end with '# RESULT PASS'")
        return {"csv": sink.sha.hexdigest()}, problems


class ExperimentMarkov(_Experiment):
    name = "experiment-markov"
    pinned_seed = DEFAULT_SEED

    def __init__(self, seed, size, tmp):
        selector = formats.parse_selector(data_path("even_positions.sel"))
        mu = formats.parse_measure(data_path("golden_parry.msr"))
        n = size["experiment_n"]
        spec = GeneratorSpec(
            kind=MARKOV_SAMPLE, alphabet=selector.alphabet, n=n, measure=mu, seed=seed
        )
        super().__init__(ExperimentConfig(selector=selector, generator=spec, measure=mu))
        self._reference_checked = False

    def collect(self, sink):
        digests, problems = super().collect(sink)
        spec = self.config.generator
        if f"\n# seed={spec.seed}\n".encode() not in sink.head:
            problems.append("experiment CSV does not record the run's seed")
        if not self._reference_checked:  # the run's first job, its warm-up
            self._reference_checked = True
            problems += self._check_reference(sink)
        return digests, problems

    def _check_reference(self, sink):
        """The output block counts in the CSV against those of the scalar
        reference stream of all n symbols, selected by the public
        ``SelectionCursor``: this checks the symbols ``run_experiment``
        consumed, however it draws them.  The first 4,096 symbols of the
        public ``seqgen.generate_chunks`` stream are also compared directly."""
        spec, problems = self.config.generator, []
        if sink.size > len(sink.head):
            return ["experiment CSV is longer than the kept head; counts not checked"]
        reference = reference_sample(spec.measure, spec.seed, spec.n)
        first = next(iter(seqgen.generate_chunks(spec, self.config.chunk)))
        head = min(first.size, REFERENCE_SYMBOLS)
        if not np.array_equal(first[:head], reference[:head]):
            problems.append("generated symbols differ from the scalar SplitMix64 reference")
        rows = sink.head.decode().splitlines()
        header = rows.index("block,count,frequency,target,abs_error")
        counts = {}
        for row in rows[header + 1 :]:
            if not row.startswith("#"):
                block, count = row.split(",")[:2]
                counts[block] = int(count)
        # selected and counted a chunk at a time, carrying the last k-1
        # symbols, so that the check does not raise the run's peak RSS
        expected = {k: Counter() for k in self.config.ks}
        cursor = SelectionCursor(self.config.selector)
        carry = np.zeros(0, dtype=np.int64)
        for i in range(0, spec.n, self.config.chunk):
            out = cursor.feed_indices(reference[i : i + self.config.chunk])
            for k in self.config.ks:
                tail = carry[carry.size - k + 1 :]
                expected[k].update(_block_counts(np.concatenate([tail, out]), k))
            carry = np.concatenate([carry, out])[-max(self.config.ks) :]
        for k in self.config.ks:
            if any(counts.get(block) != count for block, count in expected[k].items()):
                problems.append(f"k={k} output block counts differ from the scalar reference")
        return problems


class ExperimentChampernowne(_Experiment):
    name = "experiment-champernowne"
    pinned_seed = None  # Champernowne input does not depend on the seed

    def __init__(self, seed, size, tmp):
        selector = formats.parse_selector(data_path("after_ones.sel"))
        n = size["experiment_n"]
        k_max = size["champernowne_k_max"]
        spec = GeneratorSpec(kind=CHAMPERNOWNE, alphabet=selector.alphabet, n=n)
        ks = tuple(range(1, k_max + 1))
        # The Champernowne prefix converges slowly at middle block lengths:
        # at n = 1e6 the output's D_7 is 0.0134, so 0.01 would fail.
        config = ExperimentConfig(selector=selector, generator=spec, ks=ks, tolerance=0.02)
        super().__init__(config)


class _CliJob:
    """A fixed list of ``cli.main`` calls writing to files in the run's
    scratch directory."""

    def prepare(self):
        for path in self.outputs.values():
            path.unlink(missing_ok=True)

    def job(self):
        return [cli.main(argv) for argv in self.argvs]

    def collect(self, codes):
        problems = [
            f"{argv[0]} exited with {code}"
            for argv, code in zip(self.argvs, codes)
            if code != 0
        ]
        outputs = {}
        for name, path in self.outputs.items():
            try:
                outputs[name] = path.read_bytes()
            except FileNotFoundError:
                problems.append(f"output {name} was not written")
        digests = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
        if problems:
            return digests, problems
        return digests, self.check(outputs)


class ExactLemma(_CliJob):
    name = "exact-lemma"
    pinned_seed = None  # exhaustive enumeration has no random input

    def __init__(self, seed, size, tmp):
        after_ones = str(data_path("after_ones.sel"))
        even = str(data_path("even_positions.sel"))
        golden = str(data_path("golden_parry.msr"))
        n_max, w_max = str(size["lemma_n_max"]), str(size["lemma_w_max"])
        self.outputs = {
            "after_ones": tmp / "after_ones.lemma",
            "even_positions": tmp / "even_positions.lemma",
            "equirun": tmp / "equirun.lemma",
            "snake": tmp / "snake.msr",
        }
        out = {name: str(path) for name, path in self.outputs.items()}
        self.argvs = [
            ["lemma-check", "--selector", after_ones, "--n-max", n_max, "--w-max", w_max,
             "--out", out["after_ones"]],
            ["lemma-check", "--selector", even, "--measure", golden, "--n-max", n_max,
             "--w-max", w_max, "--out", out["even_positions"]],
            ["lemma-check", "--equirun", "2", "--epsilon", "0.01", "--selector", after_ones,
             "--n-max", str(size["equirun_n_max"]), "--out", out["equirun"]],
            ["snake", "--selector", after_ones, "-n", str(size["snake_n"]), "--out", out["snake"]],
        ]
        self.items = 0
        self.sizes = {
            "n_max": size["lemma_n_max"],
            "w_max": size["lemma_w_max"],
            "equirun_n_max": size["equirun_n_max"],
            "equirun_k": 2,
            "snake_n": size["snake_n"],
        }

    def check(self, outputs):
        problems = []
        lemma_lines = 0
        for name in ("after_ones", "even_positions", "equirun"):
            for line in outputs[name].decode().splitlines():
                if line.startswith("LEMMA "):
                    lemma_lines += 1
                    if not line.endswith(" PASS"):
                        problems.append(f"{name}: {line}")
        if not any(
            line.startswith("# equirun witness n=")
            for line in outputs["equirun"].decode().splitlines()
        ):
            problems.append("equirun output has no witness line")
        self.items = lemma_lines
        return problems


class CliPipeline(_CliJob):
    name = "cli-pipeline"
    pinned_seed = DEFAULT_SEED

    def __init__(self, seed, size, tmp):
        n = size["pipeline_n"]
        self.seed = seed
        self.items = n
        self.outputs = {"x": tmp / "x", "y": tmp / "y", "f": tmp / "f"}
        x, y, f = (str(self.outputs[name]) for name in ("x", "y", "f"))
        self.argvs = [
            ["gen", "--kind", "uniform", "--n", str(n), "--seed", str(seed), "--out", x],
            ["select", "--selector", str(data_path("after_ones.sel")), "--in", x, "--out", y],
            ["freq", "--k", "1", "--k", "2", "--k", "3", "--uniform", "--in", y, "--out", f],
        ]
        self.sizes = {"n": n, "k_range": [1, 3], "mode": "sliding"}
        self._reference = None

    def check(self, outputs):
        problems = []
        if self._reference is None:
            uniform = uniform_measure(Alphabet(["0", "1"]))
            self._reference = reference_sample(uniform, self.seed, REFERENCE_SYMBOLS)
        x, y = _symbols(outputs["x"]), _symbols(outputs["y"])
        if not np.array_equal(x[:REFERENCE_SYMBOLS], self._reference[: x.size]):
            problems.append("gen output differs from the scalar SplitMix64 reference")
        # after_ones keeps exactly the symbols that follow a 1
        if not np.array_equal(y, x[1:][x[:-1] == 1]):
            problems.append("select output is not the after_ones selection of gen output")
        counts = {}
        for row in outputs["f"].decode().splitlines()[1:]:
            block, count = row.split(",")[:2]
            counts[block] = int(count)
        for k in (1, 2, 3):
            for block, count in _block_counts(y, k).items():
                if counts.get(block) != count:
                    problems.append(f"freq count of k={k} block {block} is wrong")
        return problems


WORKLOADS = {
    cls.name: cls for cls in (ExperimentMarkov, ExperimentChampernowne, ExactLemma, CliPipeline)
}
