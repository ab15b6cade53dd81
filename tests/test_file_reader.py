"""Machine, measure and matrix files go through one reader.

The parsers below are the two keyword loops the reader replaced, kept as
the reference: on valid texts with shuffled lines, comments and blank
lines both give equal objects, and on texts with one corrupted line both
refuse at the same line.  The changes are the documented ones: where the
old parsers said ``line 0``, a refusal now names the line the machine was
reading, or no line for an error of the whole file, and the duplicate
transition and bad action messages are the machine's own.
"""

import random

import numpy as np
import pytest

import sftselect as ss
from sftselect.errors import ParseError, UnknownSymbol, ValidationError
from sftselect.formats import (
    _transition_text,
    parse_automaton_text,
    parse_matrix_text,
    parse_measure_text,
    parse_selector_text,
    serialize_machine,
    serialize_matrix,
    serialize_measure,
)

from conftest import random_selector


def _old_lines(text):
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield number, line.split()


def _old_parse_machine_text(text, kind):
    alphabet = states = initial = None
    iota, eta, transitions, seen_edges = {}, {}, [], set()
    for number, fields in _old_lines(text):
        key, args = fields[0], fields[1:]
        if key == "alphabet":
            if alphabet is not None:
                raise ParseError(number, "duplicate alphabet line")
            try:
                alphabet = ss.Alphabet(args)
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
    cls = ss.Selector if kind == "selector" else ss.Automaton
    try:
        machine = cls(alphabet, states, initial, transitions)
        machine.declare_labels(last_read=iota, last_selected=eta)
    except (ValidationError, UnknownSymbol) as exc:
        raise ParseError(0, str(exc)) from None
    return machine


def _old_floats(number, tokens):
    out = []
    for tok in tokens:
        try:
            out.append(float(tok))
        except ValueError:
            raise ParseError(number, f"not a decimal number: {tok!r}") from None
    return out


def _old_parse_rows_text(text, want_pi):
    alphabet, pi, rows = None, None, []
    for number, fields in _old_lines(text):
        key, args = fields[0], fields[1:]
        if key == "alphabet":
            if alphabet is not None:
                raise ParseError(number, "duplicate alphabet line")
            try:
                alphabet = ss.Alphabet(args)
            except ValidationError as exc:
                raise ParseError(number, str(exc)) from None
        elif key == "pi":
            if want_pi is False:
                raise ParseError(number, "pi line not allowed in a matrix file")
            if pi is not None:
                raise ParseError(number, "duplicate pi line")
            pi = _old_floats(number, args)
        elif key == "row":
            rows.append((number, _old_floats(number, args)))
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


def _old_measure(alphabet, pi, matrix):
    return ss.MarkovMeasure(ss.Distribution(alphabet, np.array(pi)), ss.StochasticMatrix(alphabet, matrix))


def _old_transition_text(text):
    alphabet, pi, matrix = _old_parse_rows_text(text, want_pi=None)
    if pi is None:
        return ss.StochasticMatrix(alphabet, matrix)
    return _old_measure(alphabet, pi, matrix).P


#: (old parser, new parser) per file kind.
PARSERS = {
    "selector": (lambda t: _old_parse_machine_text(t, "selector"), parse_selector_text),
    "automaton": (lambda t: _old_parse_machine_text(t, "automaton"), parse_automaton_text),
    "measure": (lambda t: _old_measure(*_old_parse_rows_text(t, True)), parse_measure_text),
    "matrix": (lambda t: ss.SftSpec(*_old_parse_rows_text(t, False)[::2]), parse_matrix_text),
    "stationary": (_old_transition_text, _transition_text),
}

#: Messages of the machine's own checks, which replaced the parser's copies,
#: and the automaton's field count, now with its article.
REWORDED = {
    "duplicate transition from": "duplicate transition from",
    "action must be keep or drop, got": "invalid action",
    "trans takes 3 fields for a automaton": "trans takes 3 fields for an automaton",
}

#: Refusals of a whole file: no line before, none now.
FILE_LEVEL = ("missing ", "expected ")


def _random_machine(rng, kind):
    selector = random_selector(rng, max_states=4, partial=rng.random() < 0.5)
    selector.declare_labels(
        last_read={q: rng.choice("01") for q in selector.states if rng.random() < 0.5},
        last_selected={q: rng.choice("01") for q in selector.states if rng.random() < 0.5},
    )
    return selector if kind == "selector" else selector.underlying_automaton()


def _random_rows_text(rng, kind):
    size = rng.randint(1, 4)
    alphabet = ss.Alphabet(rng.sample(["a", "b", "c", "d", "xy", "7"], size))
    weights = np.array([[rng.choice([0.0, rng.random()]) for _ in range(size)] for _ in range(size)])
    weights[np.arange(size), rng.randrange(size)] += 1.0  # no zero row
    if kind == "matrix":
        return serialize_matrix(ss.SftSpec(alphabet, weights))
    if kind == "stationary" and rng.random() < 0.5:  # a stochastic matrix
        return serialize_matrix(ss.SftSpec(alphabet, weights / weights.sum(axis=1, keepdims=True)))
    weights += 0.25  # positive, so irreducible: a stationary pi exists
    P = ss.StochasticMatrix(alphabet, weights / weights.sum(axis=1, keepdims=True))
    return serialize_measure(ss.MarkovMeasure(ss.stationary_distribution(P), P))


def _valid_text(rng, kind) -> str:
    if kind in ("selector", "automaton"):
        return serialize_machine(_random_machine(rng, kind))
    return _random_rows_text(rng, kind)


def _dress(rng, lines) -> str:
    """``lines`` shuffled (``row`` lines keep their order) with comments,
    blank lines and extra whitespace between and after them."""
    rows = [line for line in lines if line.startswith("row")]
    others = [line for line in lines if not line.startswith("row")]
    rng.shuffle(others)
    slots = sorted(rng.sample(range(len(lines)), len(rows)))
    merged, r, o = [], iter(rows), iter(others)
    for i in range(len(lines)):
        merged.append(next(r) if i in slots else next(o))
    out = []
    for line in merged:
        if rng.random() < 0.3:
            out.append(rng.choice(["", "   ", "# a comment", "  # trans q0 0 q0"]))
        spaced = "  ".join(line.split()) if rng.random() < 0.3 else line
        out.append(spaced + (rng.choice(["  # note", "\t", ""]) if rng.random() < 0.3 else ""))
    return "\n".join(out) + "\n"


def _corrupt(rng, lines) -> list:
    """``lines`` with one line corrupted, deleted or duplicated."""
    lines = list(lines)
    i = rng.randrange(len(lines))
    fields = lines[i].split()
    how = rng.choice(["keyword", "field", "drop", "extra", "delete", "duplicate", "pi"])
    if how == "keyword":
        fields[0] = rng.choice(["foo", "alphabet", "states", "initial", "pi", "row", "trans", "iota"])
    elif how == "field" and len(fields) > 1:
        j = rng.randrange(1, len(fields))
        fields[j] = rng.choice(["zz", "eps", "q9", "s0", "s1", "0", "1", "a", "-1", "x", "nan", "keep", "copy"])
    elif how == "drop" and len(fields) > 1:
        fields.pop()
    elif how == "extra":
        fields.append(rng.choice(["s0", "0", "0.5", "keep"]))
    elif how == "delete":
        del lines[i]
        return lines
    elif how == "duplicate":
        lines.insert(rng.randrange(len(lines) + 1), lines[i])
        return lines
    elif how == "pi":
        lines.insert(i, lines[i].replace("row", "pi", 1) if lines[i].startswith("row") else "pi 1.0")
        return lines
    lines[i] = " ".join(fields)
    return lines


def _same_object(kind, a, b):
    if kind in ("selector", "automaton"):
        return a == b
    if kind == "measure":
        return (
            a.alphabet == b.alphabet
            and np.array_equal(a.pi.weights, b.pi.weights)
            and np.array_equal(a.P.entries, b.P.entries)
        )
    if kind == "matrix":
        return a.alphabet == b.alphabet and np.array_equal(a.M, b.M)
    return a.alphabet == b.alphabet and np.array_equal(a.entries, b.entries)


def _outcome(parse, text):
    try:
        return parse(text), None
    except ss.SftSelectError as exc:
        return None, exc


KINDS = sorted(PARSERS)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", range(12))
def test_valid_texts_parse_to_equal_objects(kind, seed):
    rng = random.Random(seed)
    old, new = PARSERS[kind]
    for _ in range(10):
        text = _dress(rng, _valid_text(rng, kind).splitlines())
        assert _same_object(kind, old(text), new(text))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", range(12))
def test_corrupted_texts_are_refused_at_the_same_line(kind, seed):
    rng = random.Random(1000 + seed)
    old, new = PARSERS[kind]
    for _ in range(25):
        text = _dress(rng, _corrupt(rng, _valid_text(rng, kind).splitlines()))
        was, old_error = _outcome(old, text)
        now, new_error = _outcome(new, text)
        assert (old_error is None) == (new_error is None), (text, old_error, new_error)
        if old_error is None:
            assert _same_object(kind, was, now)
            continue
        assert type(new_error) is type(old_error), text
        if not isinstance(old_error, ParseError):
            assert str(new_error) == str(old_error)
            continue
        old_message, new_message = old_error.message, new_error.message
        for before, after in REWORDED.items():
            if old_message.startswith(before):
                assert new_message.startswith(after), (text, new_message)
                old_message = new_message
        assert new_message == old_message, text
        if old_error.line != 0:
            assert new_error.line == old_error.line, text
        elif new_message.startswith(FILE_LEVEL):
            assert new_error.line is None and str(new_error) == new_message
        else:
            # the line the machine was reading, or the pi line of a measure
            read = text.splitlines()[new_error.line - 1].split()[0]
            assert read in ("initial", "trans", "iota", "eta", "pi"), (text, new_error)
