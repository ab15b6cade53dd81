"""Line-based text formats for machines, measures, and matrices.

Machine files::

    # comments run to end of line, blank lines are ignored
    alphabet 0 1
    states q0 q1
    initial q0
    iota q0 0          # optional last-read declarations
    eta q0 0           # optional last-selected declarations
    trans q0 0 drop q0 # selectors: src symbol keep|drop dst
    trans q0 0 q0      # automata: src symbol dst

Measure files hold ``alphabet``, one ``pi`` line, and one ``row`` line per
symbol in alphabet order; matrix files are the same without ``pi``.  Values
are decimal doubles.  A duplicate (source, symbol) transition is a parse
error, and the token ``eps`` is reserved for the empty word.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from .alphabet import Alphabet
from .errors import ParseError, UnknownSymbol, ValidationError
from .machines import Automaton, Selector
from .measures import Distribution, MarkovMeasure, SftSpec, StochasticMatrix


def _lines(text: str):
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield number, line.split()


def _parse_machine_text(text: str, kind: str):
    alphabet = None
    states = None
    initial = None
    iota: dict = {}
    eta: dict = {}
    transitions = []
    seen_edges = set()
    for number, fields in _lines(text):
        key, args = fields[0], fields[1:]
        if key == "alphabet":
            if alphabet is not None:
                raise ParseError(number, "duplicate alphabet line")
            try:
                alphabet = Alphabet(args)
            except ValidationError as exc:
                raise ParseError(number, str(exc)) from None
        elif key == "states":
            if states is not None:
                raise ParseError(number, "duplicate states line")
            if len(set(args)) != len(args) or not args:
                raise ParseError(number, "states must be nonempty and distinct")
            states = list(args)
        elif key == "initial":
            if initial is not None:
                raise ParseError(number, "duplicate initial line")
            if len(args) != 1:
                raise ParseError(number, "initial takes exactly one state")
            initial = args[0]
        elif key in ("iota", "eta"):
            if len(args) != 2:
                raise ParseError(number, f"{key} takes a state and a symbol")
            store = iota if key == "iota" else eta
            if args[0] in store:
                raise ParseError(number, f"duplicate {key} declaration for {args[0]}")
            store[args[0]] = args[1]
        elif key == "trans":
            expected = 4 if kind == "selector" else 3
            if len(args) != expected:
                raise ParseError(
                    number,
                    f"trans takes {expected} fields for a {kind} "
                    f"(src symbol {'keep|drop ' if kind == 'selector' else ''}dst)",
                )
            if kind == "selector" and args[2] not in ("keep", "drop"):
                raise ParseError(number, f"action must be keep or drop, got {args[2]!r}")
            edge = tuple(args[:2])
            if edge in seen_edges:
                raise ParseError(number, f"duplicate transition from {args[0]} on {args[1]}")
            seen_edges.add(edge)
            transitions.append(tuple(args))
        else:
            raise ParseError(number, f"unknown keyword {key!r}")
    for name, value in (("alphabet", alphabet), ("states", states), ("initial", initial)):
        if value is None:
            raise ParseError(0, f"missing {name} line")
    cls = Selector if kind == "selector" else Automaton
    try:
        machine = cls(alphabet, states, initial, transitions)
        machine.declare_labels(last_read=iota, last_selected=eta)
    except (ValidationError, UnknownSymbol) as exc:
        raise ParseError(0, str(exc)) from None
    return machine


def parse_selector_text(text: str) -> Selector:
    return _parse_machine_text(text, "selector")


def parse_automaton_text(text: str) -> Automaton:
    return _parse_machine_text(text, "automaton")


def _parse_rows_text(text: str, want_pi: bool | None):
    """(alphabet, pi, matrix) of a measure or matrix text: ``want_pi`` True
    needs a pi line, False refuses one and None takes either (pi None
    without one)."""
    alphabet = None
    pi = None
    rows = []
    for number, fields in _lines(text):
        key, args = fields[0], fields[1:]
        if key == "alphabet":
            if alphabet is not None:
                raise ParseError(number, "duplicate alphabet line")
            try:
                alphabet = Alphabet(args)
            except ValidationError as exc:
                raise ParseError(number, str(exc)) from None
        elif key == "pi":
            if want_pi is False:
                raise ParseError(number, "pi line not allowed in a matrix file")
            if pi is not None:
                raise ParseError(number, "duplicate pi line")
            pi = _floats(number, args)
        elif key == "row":
            rows.append((number, _floats(number, args)))
        else:
            raise ParseError(number, f"unknown keyword {key!r}")
    if alphabet is None:
        raise ParseError(0, "missing alphabet line")
    size = len(alphabet)
    if len(rows) != size:
        raise ParseError(0, f"expected {size} row lines, found {len(rows)}")
    for number, row in rows:
        if len(row) != size:
            raise ParseError(number, f"row needs {size} entries, found {len(row)}")
    matrix = np.array([row for _n, row in rows], dtype=float)
    if pi is None and want_pi:
        raise ParseError(0, "missing pi line")
    if pi is not None and len(pi) != size:
        raise ParseError(0, f"pi needs {size} entries, found {len(pi)}")
    return alphabet, pi, matrix


def _floats(number, tokens):
    out = []
    for tok in tokens:
        try:
            out.append(float(tok))
        except ValueError:
            raise ParseError(number, f"not a decimal number: {tok!r}") from None
    return out


def _measure(alphabet: Alphabet, pi, matrix) -> MarkovMeasure:
    return MarkovMeasure(Distribution(alphabet, np.array(pi)), StochasticMatrix(alphabet, matrix))


def parse_measure_text(text: str) -> MarkovMeasure:
    return _measure(*_parse_rows_text(text, want_pi=True))


def _transition_text(text: str) -> StochasticMatrix:
    """The P of a measure text, its pi validated, or a matrix text as a
    stochastic matrix: one parse, with the pi line optional."""
    alphabet, pi, matrix = _parse_rows_text(text, want_pi=None)
    if pi is None:
        return StochasticMatrix(alphabet, matrix)
    return _measure(alphabet, pi, matrix).P


def parse_matrix_text(text: str) -> SftSpec:
    alphabet, _pi, matrix = _parse_rows_text(text, want_pi=False)
    return SftSpec(alphabet, matrix)


def parse_selector(path) -> Selector:
    return parse_selector_text(Path(path).read_text())


def parse_automaton(path) -> Automaton:
    return parse_automaton_text(Path(path).read_text())


def parse_measure(path) -> MarkovMeasure:
    return parse_measure_text(Path(path).read_text())


def parse_matrix(path) -> SftSpec:
    return parse_matrix_text(Path(path).read_text())


def serialize_machine(machine) -> str:
    """The canonical text of a selector or an automaton: one ``trans`` line
    per :meth:`transitions` tuple, so a selector's lines carry the action."""
    lines = [
        "alphabet " + " ".join(machine.alphabet.symbols),
        "states " + " ".join(str(q) for q in machine.states),
        f"initial {machine.initial}",
    ]
    for key, mapping in (
        ("iota", machine.declared_last_read),
        ("eta", machine.declared_last_selected),
    ):
        lines += [f"{key} {q} {mapping[q]}" for q in machine.states if q in mapping]
    lines += ["trans " + " ".join(map(str, t)) for t in machine.transitions()]
    return "\n".join(lines) + "\n"


serialize_selector = serialize_automaton = serialize_machine


def _line(key: str, size: int, cols: list, values: list) -> str:
    """The one row formatter: ``key`` and then ``size`` cells, space
    separated, the ``repr`` of ``values[i]`` in column ``cols[i]``
    (ascending) and ``0.0`` in every other.  A sparse row costs one
    ``repr`` per entry; the zero cells between entries are slices of one
    string."""
    zeros = " 0.0" * size
    parts, at = [key], 0
    for j, x in zip(cols, values):
        parts += (zeros[4 * at : 4 * j], " ", repr(x))
        at = j + 1
    parts.append(zeros[4 * at :])
    return "".join(parts)


def _nonzero(values: np.ndarray) -> tuple:
    """The index arrays and the values of the entries of ``values`` whose
    bits are not all zero, in row-major order; -0.0 is kept, so it prints
    with its sign."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    index = np.nonzero(values.view(np.uint64))
    return (*index, values[index])


def _rows(size: int, rows: np.ndarray, cols: np.ndarray, values: np.ndarray) -> list:
    """``row`` lines 0..size-1 of a square matrix given by its entries
    (rows, cols, values), sorted row-major, zero elsewhere."""
    bounds = np.searchsorted(rows, np.arange(size + 1)).tolist()
    cols, values = cols.tolist(), values.tolist()
    return [_line("row", size, cols[i:j], values[i:j]) for i, j in zip(bounds, bounds[1:])]


def serialize_sparse_measure(alphabet: Alphabet, pi, rows, cols, values) -> str:
    """The text :func:`serialize_measure` writes for the measure with
    stationary vector ``pi`` and transition entries (rows, cols, values),
    sorted row-major, one per pair (as ``StateChain.entries`` holds them).
    Nothing is validated here: the caller has checked the measure."""
    size = len(alphabet)
    pi_cols, pi_values = (array.tolist() for array in _nonzero(pi))
    lines = ["alphabet " + " ".join(alphabet.symbols), _line("pi", size, pi_cols, pi_values)]
    lines += _rows(size, rows, cols, values)
    return "\n".join(lines) + "\n"


def serialize_measure(mu: MarkovMeasure) -> str:
    return serialize_sparse_measure(mu.alphabet, mu.pi.weights, *_nonzero(mu.P.entries))


def serialize_matrix(spec: SftSpec) -> str:
    lines = ["alphabet " + " ".join(spec.alphabet.symbols)]
    lines += _rows(len(spec.alphabet), *_nonzero(spec.M))
    return "\n".join(lines) + "\n"


def machine_digest(machine) -> str:
    """Short provenance hash of a machine's canonical serialization."""
    return hashlib.sha256(serialize_machine(machine).encode()).hexdigest()[:12]


def read_symbol_text(alphabet: Alphabet, text: str) -> np.ndarray:
    """Parse raw sequence text: contiguous characters for single-character
    alphabets (whitespace ignored), whitespace-separated tokens otherwise."""
    if alphabet.single_char:
        stripped = "".join(text.split())
        return alphabet.encode(stripped)
    return alphabet.encode(text.split())


def write_symbol_text(alphabet: Alphabet, indices) -> str:
    return alphabet.text(indices)
