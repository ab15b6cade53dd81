"""Command-line front end.

Exit codes: 0 success, 1 usage or parse/validation failure, 2 domain
validation failure (compatibility, irreducibility, completeness), 3 check
failure (a lemma bound or an experiment tolerance/support check did not
hold), 141 (:data:`CLOSED_STDOUT`) when the reader of stdout closed it
before the command was done, as in ``sftselect lemma-check ... | head``,
with nothing on stderr.  A library error exits with its type's
``exit_code``; a failed write to an ``--out`` file is an ``error:`` line
and exit 1, as any other ``OSError``.  :func:`main` builds its parser once
per process and runs subcommand ``x-y`` by ``cmd_x_y``, looked up at each call.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from decimal import Decimal

from .alphabet import Alphabet, word_token
from .chains import compatible_chain, snake_distribution, uniform_chain
from .compat import _check
from .errors import (
    CapExceeded, NotCompatible, SftSelectError, UndefinedTransition, UnknownSymbol, ValidationError
)
from .experiment import ExperimentConfig, _write_block_rows, run_experiment, write_experiment_csv
from .formats import (
    _file_text,
    _transition_text,
    _undecodable,
    parse_automaton,
    parse_matrix,
    parse_measure,
    parse_selector,
    read_symbol_text,
    serialize_measure,
    serialize_sparse_measure,
    write_symbol_text,
)
from .machines import SelectionCursor, snake_state_label
from .measures import block_measure_ladder, parry_measure, stationary_distribution, uniform_measure
from .oracles import DEFAULT_RUN_CAP, _lemma_rows, equirun_scan
from .seqgen import CHAMPERNOWNE, MARKOV_SAMPLE, GeneratorSpec, generate_chunks
from .seqgen import _block_lengths, _count_blocks

# the status of a command whose reader closed stdout before it was done:
# 128 + SIGPIPE, what a shell reports for a filter that signal ends
CLOSED_STDOUT = 141
# LEMMA lines per write: memory stays bounded, and a pipe sees few writes
_LEMMA_BATCH = 1024
# characters of a symbol input read at a time, so memory stays bounded
_PIECE = 1 << 16


def _input(args):
    """The --in file opened for reading as UTF-8, or stdin, as a context manager."""
    return open(args.infile, encoding="utf-8") if args.infile else contextlib.nullcontext(sys.stdin)


def _symbol_pieces(alphabet: Alphabet, source, path):
    """The symbols of the text ``source``, the file at ``path`` or stdin,
    as index arrays, read :data:`_PIECE` characters at a time.  Over
    multi-character symbols a token cut at the end of a piece waits for the
    next one, unless it is already longer than the longest symbol.  A
    foreign symbol is refused with its position in the whole input, after
    the symbols before it have been yielded; a byte that does not decode,
    by its offset in the file."""
    done, held, longest = 0, "", max(map(len, alphabet.symbols))  # held: a token not yet ended
    while True:
        try:
            piece = source.read(_PIECE)
        except UnicodeDecodeError as exc:
            raise _undecodable(path, exc) from None
        cut = len(piece)
        if piece and not alphabet.single_char and not piece[-1].isspace():
            cut -= len(piece.rsplit(None, 1)[-1])
        if cut or not piece:
            text, held = held + piece[:cut], piece[cut:]
            try:
                idx = read_symbol_text(alphabet, text)
            except UnknownSymbol as exc:
                symbols = "".join(text.split()) if alphabet.single_char else text.split()
                yield alphabet.encode(symbols[: exc.position - 1])
                raise UnknownSymbol(exc.symbol, alphabet, done + exc.position) from None
            done += idx.size
            if idx.size:
                yield idx
            if not piece:
                return
        else:
            held += piece
        if len(held) > longest:  # no symbol matches it, however it ends
            raise UnknownSymbol(held, alphabet, done + 1)


def _output(args):
    """The --out file opened for writing, or stdout, as a context manager."""
    return open(args.out, "w", encoding="utf-8") if args.out else contextlib.nullcontext(sys.stdout)


def _emit(args, text: str):
    with _output(args) as out:
        out.write(text)


def _alphabet(args) -> Alphabet:
    """The --alphabet symbols, binary when the option is absent."""
    return Alphabet(args.alphabet or ["0", "1"])


def _spec(args, alphabet: Alphabet, mu) -> GeneratorSpec:
    """The --n symbols of Champernowne's sequence over ``alphabet`` without
    a measure, else of a --seed sample of ``mu`` (seed 0 when absent)."""
    if mu is None:
        return GeneratorSpec(CHAMPERNOWNE, alphabet, args.n)
    return GeneratorSpec(MARKOV_SAMPLE, alphabet, args.n, measure=mu, seed=args.seed or 0)


def cmd_gen(args) -> int:
    if args.kind == "champernowne" and args.seed is not None:
        raise ValidationError("--seed does not apply to --kind champernowne, which has no seed")
    if args.kind == "sample":
        if not args.measure:
            raise ValidationError("--kind sample needs --measure FILE")
        if args.alphabet:
            raise ValidationError(
                f"--alphabet {args.alphabet} does not apply to --kind sample, "
                "which draws over the measure's alphabet"
            )
        mu = parse_measure(args.measure)
    elif args.measure:
        raise ValidationError(
            f"--measure does not apply to --kind {args.kind}, only to --kind sample"
        )
    else:
        mu = uniform_measure(_alphabet(args)) if args.kind == "uniform" else None
    alphabet = _alphabet(args) if mu is None else mu.alphabet
    spec, sep = _spec(args, alphabet, mu), "" if alphabet.single_char else " "
    with _output(args) as out:  # a chunk a write, so memory stays bounded
        for i, chunk in enumerate(generate_chunks(spec)):
            out.write((sep if i else "") + write_symbol_text(alphabet, chunk))
        out.write("\n")
    return 0


def _selections(selector, pieces):
    """What ``selector`` keeps of each index array of ``pieces``, read as
    one input; at an undefined transition, what the symbols before it keep,
    then the error."""
    cursor = SelectionCursor(selector)
    for idx in pieces:
        start, done = cursor.state, cursor.position
        try:
            yield cursor.feed_indices(idx)
        except UndefinedTransition as err:
            yield SelectionCursor(selector, start).feed_indices(idx[: err.position - 1 - done])
            raise


def cmd_select(args) -> int:
    selector = parse_selector(args.selector)
    alphabet, sep = selector.alphabet, ""
    if args.infile and args.out and os.path.exists(args.out):
        if os.path.samefile(args.infile, args.out):  # writing would cut what is still unread
            raise ValidationError("--in and --out name the same file")
    with _input(args) as source, _output(args) as out:  # a piece a write
        for kept in _selections(selector, _symbol_pieces(alphabet, source, args.infile)):
            if kept.size:
                out.write(sep + write_symbol_text(alphabet, kept))
                sep = "" if alphabet.single_char else " "
        out.write("\n")
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
    ks = _block_lengths(args.k)
    with _input(args) as source:  # the count budget is checked before a piece is read
        pieces = _symbol_pieces(alphabet, source, args.infile)
        reports = _count_blocks(alphabet, ks, args.mode, pieces)
    ladder = block_measure_ladder(mu, reports) if mu else ((k, None) for k in reports)
    with _output(args) as out:
        out.write("block,count,frequency" + (",target,abs_error" if mu else "") + "\n")
        suffixes = {}
        for k, targets in ladder:
            _write_block_rows(reports[k], targets, out, suffixes)
    return 0


def cmd_parry(args) -> int:
    result = parry_measure(parse_matrix(args.matrix))
    _emit(args, f"theta {result.theta!r}\n" + serialize_measure(result.measure))
    return 0


def cmd_stationary(args) -> int:
    pi = stationary_distribution(_transition_text(_file_text(args.path)))
    _emit(args, "pi " + " ".join(repr(float(x)) for x in pi.weights) + "\n")
    return 0


def _load_machine(args):
    """The --selector or --automaton machine."""
    return parse_selector(args.selector) if args.selector else parse_automaton(args.automaton)


def _compatibility(machine, mu):
    """The compatibility result of a selector or an automaton for ``mu``,
    its violations printed to stdout."""
    result = _check(machine, mu, None)
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
    machine = _load_machine(args)
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


def _emit_chain(args, chain, label=str) -> int:
    """Write a chain as measure text from its summed edges, state q named
    ``label(q)``.  The names are checked as an alphabet; the stationary
    vector was checked on the edges."""
    values = chain.require_stationary()
    names = Alphabet(label(q) for q in chain.machine.states)
    _emit(args, serialize_sparse_measure(names, values, *chain.entries))
    return 0


def cmd_chain(args) -> int:
    machine = _load_machine(args)
    mu, witness = _measure_and_witness(args, machine)
    chain = uniform_chain(machine) if mu is None else compatible_chain(machine, mu, witness)
    return _emit_chain(args, chain)


def cmd_snake(args) -> int:
    machine = _load_machine(args)
    mu, witness = _measure_and_witness(args, machine)
    dist = snake_distribution(machine, args.n, mu=mu, witness=witness)
    return _emit_chain(args, dist.chain, lambda q: snake_state_label(q, machine.alphabet))


def _number(x) -> str:
    """An int in full (Decimal has no digit limit), else a float's repr."""
    return str(Decimal(x)) if isinstance(x, int) else repr(x)


def _lemma_head(lemma: str, state, n: int) -> str:
    """The ``LEMMA`` line's text before the word, shared by a table's lines."""
    return f"LEMMA {lemma} p={state} n={n} w="


def _bound_text(lower, upper) -> str:
    """The ``bound=`` text: the upper bound, or the equirun band."""
    return _number(upper) if lower is None else f"[{_number(lower)},{_number(upper)}]"


def _format_lemma_line(result, single_char: bool = True) -> str:
    """One ``LEMMA`` line; ``single_char`` tells :func:`word_token` how the
    checked alphabet spells the word.  :func:`cmd_lemma_check` writes the
    same pieces, each made once."""
    r = result
    return (
        f"{_lemma_head(r.lemma, r.state, r.n)}{word_token(r.word, single_char)} "
        f"value={_number(r.value)} bound={_bound_text(r.lower, r.upper)} "
        f"{'PASS' if r.passed else 'FAIL'}"
    )


def cmd_lemma_check(args) -> int:
    if args.equirun is None and args.epsilon is not None:
        raise ValidationError("--epsilon does not apply without --equirun")
    if args.equirun is not None and args.w_max is not None:
        raise ValidationError("--w-max does not apply with --equirun")
    if args.max_enum is not None and not args.measure:
        raise ValidationError("--max-enum does not apply without --measure")
    cap = DEFAULT_RUN_CAP if args.max_enum is None else args.max_enum
    selector = parse_selector(args.selector)
    mu, witness = _measure_and_witness(args, selector)
    footer = ""
    if args.equirun is not None:
        epsilon = 0.1 if args.epsilon is None else args.epsilon
        scan = equirun_scan(
            selector, args.equirun, epsilon, args.n_max, mu=mu, witness=witness, cap=cap
        )
        tables, lengths = scan.rows, [args.equirun]
        if scan.passed:
            footer = f"# equirun witness n={scan.witness_n}\n"
    else:
        w_max = 4 if args.w_max is None else args.w_max
        tables = _lemma_rows(selector, args.n_max, w_max, mu, witness, cap)
        lengths = range(min(args.n_max, w_max) + 1)
    # each word's token, each table's head and each bound's text (with either
    # status) are made once.  A table checks a prefix of the words in this
    # order, by length and then lexicographically, so zip pairs its rows with
    # their tokens; a zero bound is not looked up (0.0 and -0.0 print apart)
    alphabet, tails, all_pass, lines = selector.alphabet, {}, True, []
    tokens = [word_token(w, alphabet.single_char) for i in lengths for w in alphabet.words(i)]
    with _output(args) as out:  # lines go out as they are made, a batch a write
        for rows in tables:
            head = None
            for (lemma, p, n, _w, value, upper, lower, _e, passed, _s), token in zip(rows, tokens):
                if head is None:
                    head = _lemma_head(lemma, p, n)
                tail = tails.get(upper) if upper else None
                if tail is None:
                    bound = _bound_text(lower, upper)
                    tail = tails[upper] = (f" bound={bound} PASS\n", f" bound={bound} FAIL\n")
                all_pass = all_pass and passed
                status = tail[0] if passed else tail[1]
                lines.append(f"{head}{token} value={_number(value)}{status}")
                if len(lines) == _LEMMA_BATCH:
                    out.write("".join(lines))
                    lines.clear()
        out.write("".join(lines) + footer)
    return 0 if all_pass else 3


def cmd_experiment(args) -> int:
    if args.gen == "champernowne" and args.seed is not None:
        raise ValidationError("--seed does not apply to --gen champernowne, which has no seed")
    selector = parse_selector(args.selector)
    target = parse_measure(args.measure) if args.measure else None
    alphabet = selector.alphabet
    sample = target if target is not None else uniform_measure(alphabet)
    config = ExperimentConfig(
        selector=selector,
        generator=_spec(args, alphabet, None if args.gen == "champernowne" else sample),
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

    def add(name, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--out", help="write output to this file instead of stdout")
        return p

    p = add("gen", "generate a sequence")
    p.add_argument("--kind", choices=["champernowne", "uniform", "sample"], default="uniform")
    p.add_argument("--n", type=int, default=1_000_000)
    p.add_argument("--seed", type=int)
    p.add_argument("--measure", help="measure file for --kind sample")
    p.add_argument("--alphabet", nargs="+", help="symbols for champernowne/uniform")

    p = add("select", "run a selector over a sequence")
    p.add_argument("--selector", required=True)
    p.add_argument("--in", dest="infile", help="input sequence file (default stdin)")

    p = add("freq", "block frequencies of a sequence")
    p.add_argument("--k", type=int, action="append", required=True)
    p.add_argument("--mode", choices=["sliding", "aligned"], default="sliding")
    target = p.add_mutually_exclusive_group()
    target.add_argument("--measure")
    target.add_argument("--uniform", action="store_true")
    p.add_argument("--alphabet", nargs="+")
    p.add_argument("--in", dest="infile")

    p = add("parry", "Parry measure of an SFT matrix")
    p.add_argument("matrix")

    p = add("stationary", "stationary distribution of a stochastic matrix")
    p.add_argument("path")

    def add_machine(name, help, measure_required=False):
        """A subcommand reading one machine (see :func:`_load_machine`)."""
        p = add(name, help)
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--selector")
        group.add_argument("--automaton")
        p.add_argument("--measure", required=measure_required)
        return p

    add_machine("compat", "check compatibility with a measure", True)
    add_machine("chain", "state chain of a machine")
    p = add_machine("snake", "length-n run chain of a machine")
    p.add_argument("-n", type=int, required=True)

    p = add("lemma-check", "check the run-counting bounds exactly")
    p.add_argument("--selector", required=True)
    p.add_argument("--measure")
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--w-max", type=int)
    p.add_argument(
        "--max-enum",
        type=int,
        help="cap on the nominal runs (#A**n) of a measure walk; counts are not capped",
    )
    p.add_argument("--equirun", type=int, help="run the two-sided scan for this block length")
    p.add_argument("--epsilon", type=float)

    p = add("experiment", "end-to-end frequency preservation experiment")
    p.add_argument("--selector", required=True)
    target = p.add_mutually_exclusive_group()
    target.add_argument("--measure")
    target.add_argument("--uniform", action="store_true")
    p.add_argument("--gen", choices=["sample", "champernowne"], default="sample")
    p.add_argument("--seed", type=int)
    p.add_argument("--n", type=int, default=1_000_000)
    p.add_argument("--k", type=int, action="append")
    p.add_argument("--mode", choices=["sliding", "aligned"], default="sliding")
    p.add_argument("--tolerance", type=float, default=0.01)
    p.add_argument("--after-recurrent", action="store_true")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` shares across calls, built at the first one."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 1
    try:
        return globals()["cmd_" + args.command.replace("-", "_")](args)
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
        if isinstance(exc, BrokenPipeError) and not args.out:
            # the reader closed stdout: point it at the null device, so what
            # it still holds goes nowhere at exit instead of failing again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return CLOSED_STDOUT
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 1)


def entry():
    # the standard streams are UTF-8 under any locale, as files are; stdout and stderr
    # keep their error handlers, so a C locale's surrogate-escaped --alphabet byte goes back out
    if sys.stdin is not None:
        sys.stdin.reconfigure(encoding="utf-8", errors="strict")
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.reconfigure(encoding="utf-8", errors=stream.errors)
    sys.exit(main())


if __name__ == "__main__":
    entry()
