"""Command-line front end.

Exit codes: 0 success, 1 usage or parse/validation failure, 2 domain
validation failure (compatibility, irreducibility, completeness), 3 check
failure (a lemma bound or an experiment tolerance/support check did not
hold).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .alphabet import Alphabet
from .chains import chain_as_measure, compatible_chain, snake_distribution, uniform_chain
from .compat import check_automaton_compatibility, check_selector_compatibility
from .errors import (
    BlockLengthOutOfRange,
    CapExceeded,
    Incomplete,
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
)
from .experiment import ExperimentConfig, run_experiment, write_experiment_csv
from .formats import (
    parse_automaton,
    parse_matrix,
    parse_measure,
    parse_selector,
    read_symbol_text,
    serialize_measure,
    write_symbol_text,
)
from .machines import SelectionCursor, Selector, snake_state_label
from .measures import (
    Distribution,
    MarkovMeasure,
    StochasticMatrix,
    block_measure_array,
    parry_measure,
    stationary_distribution,
    uniform_measure,
)
from .oracles import equirun_scan, lemma_check
from .seqgen import CHAMPERNOWNE, MARKOV_SAMPLE, GeneratorSpec, block_frequencies, generate

_PARSE_ERRORS = (
    ParseError,
    ValidationError,
    UnknownSymbol,
    BlockLengthOutOfRange,
    OSError,
)
_DOMAIN_ERRORS = (
    NotCompatible,
    NotIrreducible,
    NotOblivious,
    NotShiftComplete,
    NotStronglyConnected,
    Incomplete,
    UndefinedTransition,
    UnrealizableRun,
    CapExceeded,
)


def _read_input(args) -> str:
    if getattr(args, "infile", None):
        return Path(args.infile).read_text()
    return sys.stdin.read()


def _open_out(args):
    if getattr(args, "out", None):
        return open(args.out, "w")
    return None


def _emit(args, text: str):
    if getattr(args, "out", None):
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _target_measure(args, alphabet=None) -> MarkovMeasure:
    if getattr(args, "measure", None):
        return parse_measure(args.measure)
    if getattr(args, "uniform", False):
        if alphabet is None and getattr(args, "alphabet", None):
            alphabet = Alphabet(args.alphabet)
        if alphabet is None:
            raise ValidationError("--uniform needs an alphabet (from a machine or --alphabet)")
        return uniform_measure(alphabet)
    raise ValidationError("specify --measure FILE or --uniform")


def cmd_gen(args) -> int:
    if args.kind == "champernowne":
        alphabet = Alphabet(args.alphabet) if args.alphabet else Alphabet(["0", "1"])
        spec = GeneratorSpec(kind=CHAMPERNOWNE, alphabet=alphabet, n=args.n)
    else:
        if args.kind == "uniform":
            alphabet = Alphabet(args.alphabet) if args.alphabet else Alphabet(["0", "1"])
            mu = uniform_measure(alphabet)
        else:
            if not args.measure:
                raise ValidationError("--kind sample needs --measure FILE")
            mu = parse_measure(args.measure)
            alphabet = mu.alphabet
        spec = GeneratorSpec(
            kind=MARKOV_SAMPLE, alphabet=alphabet, n=args.n, measure=mu, seed=args.seed
        )
    _emit(args, write_symbol_text(spec.alphabet, generate(spec)) + "\n")
    return 0


def cmd_select(args) -> int:
    selector = parse_selector(args.selector)
    text = _read_input(args)
    idx = read_symbol_text(selector.alphabet, text)
    out = SelectionCursor(selector).feed_indices(idx)
    _emit(args, write_symbol_text(selector.alphabet, out) + "\n")
    return 0


def cmd_freq(args) -> int:
    alphabet = Alphabet(args.alphabet) if args.alphabet else Alphabet(["0", "1"])
    if args.measure or args.uniform:
        mu = _target_measure(args, alphabet)
        alphabet = mu.alphabet
    else:
        mu = None
    idx = read_symbol_text(alphabet, _read_input(args))
    lines = []
    header = "block,count,frequency" + (",target,abs_error" if mu else "")
    lines.append(header)
    for k in sorted(set(args.k)):
        report = block_frequencies(alphabet, idx, k, args.mode)
        targets = block_measure_array(mu, k) if mu else None
        freqs = report.frequencies
        for code, word in enumerate(alphabet.words(k)):
            label = alphabet.word_label(word)
            f = float(freqs[code])
            row = f"{label},{int(report.counts[code])},{f!r}"
            if targets is not None:
                t = float(targets[code])
                row += f",{t!r},{abs(f - t)!r}"
            lines.append(row)
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_parry(args) -> int:
    result = parry_measure(parse_matrix(args.matrix))
    _emit(args, f"theta {result.theta!r}\n" + serialize_measure(result.measure))
    return 0


def cmd_stationary(args) -> int:
    text = Path(args.path).read_text()
    from .formats import parse_matrix_text, parse_measure_text

    try:
        mu = parse_measure_text(text)
        matrix = mu.P
    except ParseError:
        spec = parse_matrix_text(text)
        matrix = StochasticMatrix(spec.alphabet, spec.M)
    pi = stationary_distribution(matrix)
    _emit(args, "pi " + " ".join(repr(float(x)) for x in pi.weights) + "\n")
    return 0


def cmd_compat(args) -> int:
    mu = parse_measure(args.measure)
    if args.selector:
        machine = parse_selector(args.selector)
        result = check_selector_compatibility(machine, mu)
    else:
        machine = parse_automaton(args.automaton)
        result = check_automaton_compatibility(machine, mu)
    for note in result.notes:
        print(f"# {note}", file=sys.stderr)
    if result.ok:
        lines = []
        for q in machine.states:
            lines.append(f"iota {q} {result.witness.last_read[q]}")
        if result.witness.last_selected is not None:
            for q in machine.states:
                lines.append(f"eta {q} {result.witness.last_selected[q]}")
        _emit(args, "\n".join(lines) + "\n")
        return 0
    for violation in result.violations:
        print(violation)
    return 2


def _load_machine_for_chain(args):
    """The machine given (selector or automaton) and its automaton."""
    if args.selector:
        selector = parse_selector(args.selector)
        return selector, selector.underlying_automaton()
    automaton = parse_automaton(args.automaton)
    return automaton, automaton


def _compatible_witness(machine, mu):
    """The compatibility witness of ``machine`` for ``mu``, or None after
    printing the violations to stdout (the command then exits 2)."""
    if isinstance(machine, Selector):
        result = check_selector_compatibility(machine, mu)
    else:
        result = check_automaton_compatibility(machine, mu)
    if result.ok:
        return result.witness
    for violation in result.violations:
        print(violation)
    return None


def cmd_chain(args) -> int:
    machine, automaton = _load_machine_for_chain(args)
    if args.measure:
        mu = parse_measure(args.measure)
        witness = _compatible_witness(machine, mu)
        if witness is None:
            return 2
        chain = compatible_chain(machine, mu, witness)
    else:
        chain = uniform_chain(automaton)
    pi, matrix = chain_as_measure(chain)
    _emit(args, serialize_measure(MarkovMeasure(pi, matrix)))
    return 0


def cmd_snake(args) -> int:
    machine, automaton = _load_machine_for_chain(args)
    if args.measure:
        mu = parse_measure(args.measure)
        witness = _compatible_witness(machine, mu)
        if witness is None:
            return 2
        dist = snake_distribution(automaton, args.n, mu=mu, witness=witness)
    else:
        dist = snake_distribution(automaton, args.n)
    alpha = automaton.alphabet
    names = [snake_state_label(q, alpha) for q in dist.snake.states]
    named = Alphabet(names)
    pi = Distribution(named, dist.values)
    matrix = StochasticMatrix(named, dist.chain.matrix)
    _emit(args, serialize_measure(MarkovMeasure(pi, matrix)))
    return 0


def _format_lemma_line(result) -> str:
    from .alphabet import EPSILON_TOKEN

    word = "".join(result.word) if result.word else EPSILON_TOKEN
    value = result.value if isinstance(result.value, int) else repr(result.value)
    if result.lower is None:
        bound = result.upper if isinstance(result.upper, int) else repr(result.upper)
    else:
        lo = result.lower if isinstance(result.lower, int) else repr(result.lower)
        hi = result.upper if isinstance(result.upper, int) else repr(result.upper)
        bound = f"[{lo},{hi}]"
    status = "PASS" if result.passed else "FAIL"
    return (
        f"LEMMA {result.lemma} p={result.state} n={result.n} w={word} "
        f"value={value} bound={bound} {status}"
    )


def cmd_lemma_check(args) -> int:
    selector = parse_selector(args.selector)
    mu = parse_measure(args.measure) if args.measure else None
    witness = None
    if mu is not None:
        witness = _compatible_witness(selector, mu)
        if witness is None:
            return 2
    lines = []
    all_pass = True
    if args.equirun is not None:
        scan = equirun_scan(
            selector,
            args.equirun,
            args.epsilon,
            args.n_max,
            mu=mu,
            witness=witness,
            cap=args.max_enum,
        )
        for r in scan.results:
            lines.append(_format_lemma_line(r))
        all_pass = scan.passed
        if scan.passed:
            lines.append(f"# equirun witness n={scan.witness_n}")
    else:
        for r in lemma_check(
            selector, args.n_max, args.w_max, mu=mu, witness=witness, cap=args.max_enum
        ):
            all_pass = all_pass and r.passed
            lines.append(_format_lemma_line(r))
    _emit(args, "\n".join(lines) + "\n")
    return 0 if all_pass else 3


def cmd_experiment(args) -> int:
    selector = parse_selector(args.selector)
    target = parse_measure(args.measure) if args.measure else None
    alphabet = selector.alphabet
    if args.gen == "champernowne":
        spec = GeneratorSpec(kind=CHAMPERNOWNE, alphabet=alphabet, n=args.n)
    else:
        sample_measure = target if target is not None else uniform_measure(alphabet)
        spec = GeneratorSpec(
            kind=MARKOV_SAMPLE,
            alphabet=alphabet,
            n=args.n,
            measure=sample_measure,
            seed=args.seed,
        )
    config = ExperimentConfig(
        selector=selector,
        generator=spec,
        measure=target,
        ks=tuple(sorted(set(args.k))),
        mode=args.mode,
        tolerance=args.tolerance,
        after_recurrent=args.after_recurrent,
    )
    report = run_experiment(config)
    out = _open_out(args)
    try:
        write_experiment_csv(report, out if out else sys.stdout)
    finally:
        if out:
            out.close()
    for k in sorted(config.ks):
        print(
            f"k={k} input_D={report.input_discrepancies[k]:.6f} "
            f"output_D={report.output_discrepancies[k]:.6f}",
            file=sys.stderr,
        )
    bad_support = {f"{a}{b}": c for (a, b), c in report.forbidden_counts.items() if c}
    if bad_support:
        print(f"forbidden blocks in output: {bad_support}", file=sys.stderr)
    return 0 if report.passed and report.support_ok else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sftselect",
        description="Finite-state selection over shifts: machines, measures, and experiments.",
    )
    sub = parser.add_subparsers(dest="command")

    def add(name, func, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--out", help="write output to this file instead of stdout")
        return p

    p = add("gen", cmd_gen, "generate a sequence")
    p.add_argument("--kind", choices=["champernowne", "uniform", "sample"], default="uniform")
    p.add_argument("--n", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--measure", help="measure file for --kind sample")
    p.add_argument("--alphabet", nargs="+", help="symbols for champernowne/uniform")

    p = add("select", cmd_select, "run a selector over a sequence")
    p.add_argument("--selector", required=True)
    p.add_argument("--in", dest="infile", help="input sequence file (default stdin)")

    p = add("freq", cmd_freq, "block frequencies of a sequence")
    p.add_argument("--k", type=int, action="append", required=True)
    p.add_argument("--mode", choices=["sliding", "aligned"], default="sliding")
    p.add_argument("--measure")
    p.add_argument("--uniform", action="store_true")
    p.add_argument("--alphabet", nargs="+")
    p.add_argument("--in", dest="infile")

    p = add("parry", cmd_parry, "Parry measure of an SFT matrix")
    p.add_argument("matrix")

    p = add("stationary", cmd_stationary, "stationary distribution of a stochastic matrix")
    p.add_argument("path")

    p = add("compat", cmd_compat, "check compatibility with a measure")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--selector")
    group.add_argument("--automaton")
    p.add_argument("--measure", required=True)

    p = add("chain", cmd_chain, "state chain of a machine")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--selector")
    group.add_argument("--automaton")
    p.add_argument("--measure")

    p = add("snake", cmd_snake, "length-n run chain of a machine")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--selector")
    group.add_argument("--automaton")
    p.add_argument("--measure")
    p.add_argument("-n", type=int, required=True)

    p = add("lemma-check", cmd_lemma_check, "check the run-counting bounds exactly")
    p.add_argument("--selector", required=True)
    p.add_argument("--measure")
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--w-max", type=int, default=4)
    p.add_argument(
        "--max-enum",
        type=int,
        default=1 << 20,
        help="cap on the nominal runs (#A**n) of a measure walk; counts are not capped",
    )
    p.add_argument("--equirun", type=int, help="run the two-sided scan for this block length")
    p.add_argument("--epsilon", type=float, default=0.1)

    p = add("experiment", cmd_experiment, "end-to-end frequency preservation experiment")
    p.add_argument("--selector", required=True)
    p.add_argument("--measure")
    p.add_argument("--uniform", action="store_true")
    p.add_argument("--gen", choices=["sample", "champernowne"], default="sample")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=1_000_000)
    p.add_argument("--k", type=int, action="append")
    p.add_argument("--mode", choices=["sliding", "aligned"], default="sliding")
    p.add_argument("--tolerance", type=float, default=0.01)
    p.add_argument("--after-recurrent", action="store_true")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 1
    if getattr(args, "command", None) == "experiment" and not args.k:
        args.k = [1, 2, 3]
    try:
        return args.func(args)
    except _PARSE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NotCompatible as exc:
        for violation in exc.violations:
            print(violation, file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(
            f"error: {exc}; raise --max-enum or use the statistical path "
            "(the experiment subcommand) instead",
            file=sys.stderr,
        )
        return 2
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SftSelectError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
