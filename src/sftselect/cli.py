"""Command-line front end.

Exit codes: 0 success, 1 usage or parse/validation failure, 2 domain
validation failure (compatibility, irreducibility, completeness), 3 check
failure (a lemma bound or an experiment tolerance/support check did not
hold).  A library error exits with its type's ``exit_code``.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path

from .alphabet import EPSILON_TOKEN, Alphabet
from .chains import chain_as_measure, compatible_chain, snake_distribution, uniform_chain
from .compat import check_automaton_compatibility, check_selector_compatibility
from .errors import CapExceeded, NotCompatible, ParseError, SftSelectError, ValidationError
from .experiment import ExperimentConfig, _write_block_rows, run_experiment, write_experiment_csv
from .formats import (
    parse_automaton,
    parse_matrix,
    parse_matrix_text,
    parse_measure,
    parse_measure_text,
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
    block_measure_ladder,
    parry_measure,
    stationary_distribution,
    uniform_measure,
)
from .oracles import equirun_scan, lemma_check
from .seqgen import CHAMPERNOWNE, MARKOV_SAMPLE, GeneratorSpec, block_frequency_reports, generate

def _read_input(args) -> str:
    if getattr(args, "infile", None):
        return Path(args.infile).read_text()
    return sys.stdin.read()


@contextlib.contextmanager
def _output(args):
    """The --out file opened for writing, or stdout."""
    if getattr(args, "out", None):
        with open(args.out, "w") as out:
            yield out
    else:
        yield sys.stdout


def _emit(args, text: str):
    with _output(args) as out:
        out.write(text)


def _alphabet(args) -> Alphabet:
    """The --alphabet symbols, binary when the option is absent."""
    return Alphabet(args.alphabet or ["0", "1"])


def cmd_gen(args) -> int:
    if args.kind == "champernowne":
        spec = GeneratorSpec(kind=CHAMPERNOWNE, alphabet=_alphabet(args), n=args.n)
    else:
        if args.kind == "uniform":
            mu = uniform_measure(_alphabet(args))
        elif args.measure:
            mu = parse_measure(args.measure)
        else:
            raise ValidationError("--kind sample needs --measure FILE")
        spec = GeneratorSpec(
            kind=MARKOV_SAMPLE, alphabet=mu.alphabet, n=args.n, measure=mu, seed=args.seed
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
    alphabet = _alphabet(args)
    if args.measure:
        mu = parse_measure(args.measure)
        if args.alphabet and mu.alphabet != alphabet:
            raise ValidationError(
                f"--alphabet {list(alphabet)} differs from the measure's {list(mu.alphabet)}"
            )
        alphabet = mu.alphabet
    else:
        mu = uniform_measure(alphabet) if args.uniform else None
    idx = read_symbol_text(alphabet, _read_input(args))
    reports = block_frequency_reports(alphabet, idx, args.k, args.mode)
    ladder = block_measure_ladder(mu, reports) if mu else ((k, None) for k in reports)
    with _output(args) as out:
        out.write("block,count,frequency" + (",target,abs_error" if mu else "") + "\n")
        for k, targets in ladder:
            _write_block_rows(reports[k], targets, out)
    return 0


def cmd_parry(args) -> int:
    result = parry_measure(parse_matrix(args.matrix))
    _emit(args, f"theta {result.theta!r}\n" + serialize_measure(result.measure))
    return 0


def cmd_stationary(args) -> int:
    text = Path(args.path).read_text()
    try:
        mu = parse_measure_text(text)
        matrix = mu.P
    except ParseError:
        spec = parse_matrix_text(text)
        matrix = StochasticMatrix(spec.alphabet, spec.M)
    pi = stationary_distribution(matrix)
    _emit(args, "pi " + " ".join(repr(float(x)) for x in pi.weights) + "\n")
    return 0


def _load_machine(args):
    """The --selector or --automaton machine and its automaton."""
    if args.selector:
        selector = parse_selector(args.selector)
        return selector, selector.underlying_automaton()
    automaton = parse_automaton(args.automaton)
    return automaton, automaton


def _compatibility(machine, mu):
    """The compatibility result of a selector or an automaton for ``mu``,
    its violations printed to stdout."""
    if isinstance(machine, Selector):
        result = check_selector_compatibility(machine, mu)
    else:
        result = check_automaton_compatibility(machine, mu)
    for violation in result.violations:
        print(violation)
    return result


def _measure_and_witness(args, machine):
    """(measure, compatibility witness) for --measure, or (None, None)
    without it.  A failed check prints its violations to stdout, then
    raises NotCompatible carrying none, so ``main`` prints nothing more."""
    if not args.measure:
        return None, None
    mu = parse_measure(args.measure)
    result = _compatibility(machine, mu)
    if not result.ok:
        raise NotCompatible(())
    return mu, result.witness


def cmd_compat(args) -> int:
    mu = parse_measure(args.measure)
    machine, _automaton = _load_machine(args)
    result = _compatibility(machine, mu)
    for note in result.notes:
        print(f"# {note}", file=sys.stderr)
    if not result.ok:
        raise NotCompatible(())
    witness = result.witness
    lines = [f"iota {q} {witness.last_read[q]}" for q in machine.states]
    if witness.last_selected is not None:
        lines += [f"eta {q} {witness.last_selected[q]}" for q in machine.states]
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_chain(args) -> int:
    machine, automaton = _load_machine(args)
    mu, witness = _measure_and_witness(args, machine)
    if mu is None:
        chain = uniform_chain(automaton)
    else:
        chain = compatible_chain(machine, mu, witness)
    pi, matrix = chain_as_measure(chain)
    _emit(args, serialize_measure(MarkovMeasure(pi, matrix)))
    return 0


def cmd_snake(args) -> int:
    machine, automaton = _load_machine(args)
    mu, witness = _measure_and_witness(args, machine)
    dist = snake_distribution(automaton, args.n, mu=mu, witness=witness)
    named = [snake_state_label(q, automaton.alphabet) for q in dist.snake.states]
    pi = Distribution(named, dist.values)
    matrix = StochasticMatrix(named, dist.chain.matrix)
    _emit(args, serialize_measure(MarkovMeasure(pi, matrix)))
    return 0


def _number(x) -> str:
    """An int as is, anything else (a float or np.float64) by its repr."""
    return str(x) if isinstance(x, int) else repr(x)


def _format_lemma_line(result) -> str:
    word = "".join(result.word) if result.word else EPSILON_TOKEN
    if result.lower is None:
        bound = _number(result.upper)
    else:
        bound = f"[{_number(result.lower)},{_number(result.upper)}]"
    status = "PASS" if result.passed else "FAIL"
    return (
        f"LEMMA {result.lemma} p={result.state} n={result.n} w={word} "
        f"value={_number(result.value)} bound={bound} {status}"
    )


def cmd_lemma_check(args) -> int:
    if args.equirun is not None and args.n_max < args.equirun:
        raise ValidationError(f"--n-max {args.n_max} is below --equirun {args.equirun}")
    selector = parse_selector(args.selector)
    mu, witness = _measure_and_witness(args, selector)
    lines = []
    all_pass = True
    if args.equirun is not None:
        scan = equirun_scan(
            selector, args.equirun, args.epsilon, args.n_max,
            mu=mu, witness=witness, cap=args.max_enum,
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
        sample = target if target is not None else uniform_measure(alphabet)
        spec = GeneratorSpec(
            kind=MARKOV_SAMPLE, alphabet=alphabet, n=args.n, measure=sample, seed=args.seed
        )
    config = ExperimentConfig(
        selector=selector,
        generator=spec,
        measure=target,
        ks=args.k or (1, 2, 3),
        mode=args.mode,
        tolerance=args.tolerance,
        after_recurrent=args.after_recurrent,
    )
    report = run_experiment(config)
    with _output(args) as out:
        write_experiment_csv(report, out)
    for k in config.ks:
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

    def add_machine(name, func, help, measure_required=False):
        """A subcommand reading one machine (see :func:`_load_machine`)."""
        p = add(name, func, help)
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--selector")
        group.add_argument("--automaton")
        p.add_argument("--measure", required=measure_required)
        return p

    add_machine("compat", cmd_compat, "check compatibility with a measure", True)
    add_machine("chain", cmd_chain, "state chain of a machine")
    p = add_machine("snake", cmd_snake, "length-n run chain of a machine")
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
    target = p.add_mutually_exclusive_group()
    target.add_argument("--measure")
    target.add_argument("--uniform", action="store_true")
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
    try:
        return args.func(args)
    except NotCompatible as exc:
        for violation in exc.violations:
            print(violation, file=sys.stderr)
        return exc.exit_code
    except CapExceeded as exc:
        print(
            f"error: {exc}; raise --max-enum or use the statistical path "
            "(the experiment subcommand) instead",
            file=sys.stderr,
        )
        return exc.exit_code
    except (SftSelectError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 1)


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
