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
are decimal doubles, and the token ``eps`` is reserved for the empty word.

One reader, :func:`_read`, groups a file's lines by keyword and checks
each line as it reads it.  A refusal of a line names it (``ParseError.line``):
a machine's ``trans`` lines are fed to its constructor, and its
``iota``/``eta`` lines declared, one at a time, so the machine's own checks
name the line they were reading.  An error of the whole file (a missing
line, the wrong number of ``row`` lines) has ``line`` None.
"""

from __future__ import annotations

import codecs
import hashlib
from pathlib import Path

import numpy as np

from .alphabet import Alphabet
from .errors import ParseError, UnknownSymbol, ValidationError
from .machines import Automaton, Selector
from .measures import Distribution, MarkovMeasure, SftSpec, StochasticMatrix

#: The keywords a file holds at most once.
_ONCE = ("alphabet", "states", "initial", "pi")
#: Bytes read at a time when a file is scanned for a byte that is not UTF-8.
_SCAN = 1 << 16


def _read(text: str, checks: dict) -> dict:
    """Each keyword of ``checks`` -> its lines in file order, as (line
    number, ``checks[key](fields)``) of the fields after the keyword;
    comments and blank lines are skipped.  The first bad line in the file
    is the one refused, a check's ValidationError naming it."""
    found: dict = {key: [] for key in checks}
    for number, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        key = fields[0]
        if key not in found:
            raise ParseError(number, f"unknown keyword {key!r}")
        if key in _ONCE and found[key]:
            raise ParseError(number, f"duplicate {key} line")
        try:
            found[key].append((number, checks[key](fields[1:])))
        except ValidationError as exc:
            raise ParseError(number, str(exc)) from None
    return found


def _require(found: dict, *keys) -> list:
    """The (line number, value) of the one line of each of ``keys``."""
    for key in keys:
        if not found[key]:
            raise ParseError(None, f"missing {key} line")
    return [found[key][0] for key in keys]


def _need(ok: bool, fields: list, message: str) -> list:
    """A line's ``fields`` if ``ok``, else its refusal with ``message``."""
    if not ok:
        raise ValidationError(message)
    return fields


def _parse_machine_text(text: str, kind: str):
    width = 4 if kind == "selector" else 3
    article, action = ("a", "keep|drop ") if width == 4 else ("an", "")
    usage = f"trans takes {width} fields for {article} {kind} (src symbol {action}dst)"
    found = _read(text, {
        "alphabet": Alphabet,
        "states": lambda f: _need(0 < len(f) == len(set(f)), f, "states must be nonempty and distinct"),
        "initial": lambda f: _need(len(f) == 1, f, "initial takes exactly one state"),
        "iota": lambda f: _need(len(f) == 2, f, "iota takes a state and a symbol"),
        "eta": lambda f: _need(len(f) == 2, f, "eta takes a state and a symbol"),
        "trans": lambda f: _need(len(f) == width, f, usage),
    })
    (_, alphabet), (_, states), (at, (initial,)) = _require(found, "alphabet", "states", "initial")

    def transitions():
        nonlocal at  # the line the machine is reading, named by its refusals
        for at, step in found["trans"]:
            yield step

    try:
        machine = (Selector if width == 4 else Automaton)(alphabet, states, initial, transitions())
        for key, labels in (("iota", "last_read"), ("eta", "last_selected")):
            for at, (state, symbol) in found[key]:
                if state in getattr(machine, "_declared_" + labels):  # read, not copied
                    raise ParseError(at, f"duplicate {key} declaration for {state}")
                machine.declare_labels(**{labels: {state: symbol}})
    except (ValidationError, UnknownSymbol) as exc:
        raise ParseError(at, str(exc)) from None
    return machine


def parse_selector_text(text: str) -> Selector:
    return _parse_machine_text(text, "selector")


def parse_automaton_text(text: str) -> Automaton:
    return _parse_machine_text(text, "automaton")


def _floats(tokens: list) -> list:
    out = []
    for tok in tokens:
        try:
            out.append(float(tok))
        except ValueError:
            raise ValidationError(f"not a decimal number: {tok!r}") from None
    return out


def _sized(key: str, number: int, values: list, size: int) -> list:
    if len(values) != size:
        raise ParseError(number, f"{key} needs {size} entries, found {len(values)}")
    return values


def _parse_rows_text(text: str, pi_check=_floats):
    """(alphabet, pi, matrix) of a measure or matrix text, ``pi`` the
    (line number, values) of its ``pi`` line or None without one;
    ``pi_check`` reads that line (a matrix file's refuses it)."""
    found = _read(text, {"alphabet": Alphabet, "pi": pi_check, "row": _floats})
    ((_, alphabet),) = _require(found, "alphabet")
    size, rows = len(alphabet), found["row"]
    if len(rows) != size:
        raise ParseError(None, f"expected {size} row lines, found {len(rows)}")
    matrix = np.array([_sized("row", number, row, size) for number, row in rows], dtype=float)
    return alphabet, (found["pi"] or [None])[0], matrix


def _measure(alphabet: Alphabet, pi, matrix) -> MarkovMeasure:
    if pi is None:
        raise ParseError(None, "missing pi line")
    weights = np.array(_sized("pi", *pi, len(alphabet)))
    return MarkovMeasure(Distribution(alphabet, weights), StochasticMatrix(alphabet, matrix))


def parse_measure_text(text: str) -> MarkovMeasure:
    return _measure(*_parse_rows_text(text))


def _transition_text(text: str) -> StochasticMatrix:
    """The P of a measure text (its pi validated) or of a matrix text."""
    alphabet, pi, matrix = _parse_rows_text(text)
    return StochasticMatrix(alphabet, matrix) if pi is None else _measure(alphabet, pi, matrix).P


def parse_matrix_text(text: str) -> SftSpec:
    refusal = "pi line not allowed in a matrix file"
    alphabet, _pi, matrix = _parse_rows_text(text, lambda f: _need(False, f, refusal))
    return SftSpec(alphabet, matrix)


def _undecodable(path, exc: UnicodeDecodeError) -> ParseError:
    """The ParseError for text that ``exc`` could not decode.  For the file
    at ``path`` it names the file's first byte that UTF-8 does not decode
    and that byte's offset, found by reading the file again :data:`_SCAN`
    bytes at a time; for stdin (``path`` None), the byte of ``exc``."""
    name, at = "stdin", ""
    if path is not None:
        name, decoder, done = path, codecs.getincrementaldecoder("utf-8")(), 0
        with open(path, "rb") as raw:
            while True:
                piece = raw.read(_SCAN)
                done += len(piece)
                try:
                    decoder.decode(piece, final=not piece)
                except UnicodeDecodeError as err:  # err.object: bytes held back, then piece
                    exc, at = err, f" at byte offset {done - len(err.object) + err.start}"
                if at or not piece:
                    break
    byte = exc.object[exc.start]
    return ParseError(None, f"{name}: byte {byte:#04x}{at} is not UTF-8 text ({exc.reason})")


def _file_text(path) -> str:
    """The UTF-8 text of the file at ``path``; an undecodable byte is
    refused (:func:`_undecodable`), not raised as a UnicodeDecodeError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise _undecodable(path, exc) from None


def parse_selector(path) -> Selector:
    return parse_selector_text(_file_text(path))


def parse_automaton(path) -> Automaton:
    return parse_automaton_text(_file_text(path))


def parse_measure(path) -> MarkovMeasure:
    return parse_measure_text(_file_text(path))


def parse_matrix(path) -> SftSpec:
    return parse_matrix_text(_file_text(path))


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


#: Every character below 256 that ``str.split()`` takes for whitespace:
#: ``\t \n \x0b \x0c \r \x1c-\x1f``, space, ``\x85`` and ``\xa0``.
SPACES = bytes(c for c in range(256) if chr(c).isspace())


def read_symbol_text(alphabet: Alphabet, text: str) -> np.ndarray:
    """Parse raw sequence text: contiguous characters for single-character
    alphabets (whitespace ignored), whitespace-separated tokens otherwise.
    A symbol outside the alphabet is refused with its 1-based position.

    The letters are uint8 (a read-only array) over an alphabet of single
    latin-1 characters, int64 otherwise.  There latin-1 text is read by one
    ``bytes.translate`` that also drops :data:`SPACES`; text holding wider
    whitespace (U+3000, say) or a foreign symbol takes the path that
    splits it."""
    if not alphabet.single_char:
        return alphabet.encode(text.split())
    letters = alphabet._byte_letters(text, SPACES)
    if letters is None:  # wider whitespace, or a foreign symbol to find
        text = "".join(text.split())
        letters = alphabet._byte_letters(text)
    return alphabet.encode(text) if letters is None else letters


def write_symbol_text(alphabet: Alphabet, indices) -> str:
    return alphabet.text(indices)
