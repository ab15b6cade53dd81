"""Small machines and measures used throughout the tests, demos, and docs.

The same objects ship as text files under ``sftselect/data`` so the CLI can
be exercised on them; the builders here are the source of truth and the
files are checked against them in the test suite.
"""

from __future__ import annotations

import math
from importlib import resources
from pathlib import Path

import numpy as np

from .alphabet import Alphabet
from .machines import Selector
from .measures import (
    Distribution,
    MarkovMeasure,
    ParryResult,
    SftSpec,
    StochasticMatrix,
    parry_measure,
    uniform_measure,
)


def binary_alphabet() -> Alphabet:
    return Alphabet(["0", "1"])


def after_ones_selector() -> Selector:
    """Two-state oblivious selector keeping exactly the symbols that follow
    a 1; equivalently, prefix selection by the words ending in 1."""
    return Selector(
        binary_alphabet(),
        ["q0", "q1"],
        "q0",
        [
            ("q0", "0", "drop", "q0"),
            ("q0", "1", "drop", "q1"),
            ("q1", "0", "keep", "q0"),
            ("q1", "1", "keep", "q1"),
        ],
    )


def nonoblivious_selector() -> Selector:
    """Three-state selector with mixed actions out of q1 and q2: it copies
    its input until it reads 11, then drops up to the next 1."""
    return Selector(
        binary_alphabet(),
        ["q0", "q1", "q2"],
        "q0",
        [
            ("q0", "0", "keep", "q0"),
            ("q0", "1", "keep", "q1"),
            ("q1", "0", "keep", "q0"),
            ("q1", "1", "drop", "q2"),
            ("q2", "0", "drop", "q2"),
            ("q2", "1", "keep", "q0"),
        ],
    )


def even_positions_selector(include_forbidden_reads: bool = False) -> Selector:
    """Eight-state selector compatible with the golden-mean shift: it keeps
    the symbol at even read positions whenever the last read and the last
    selected symbol coincide.

    State ``prs`` records the parity of the read count, the last read
    symbol, and the last selected symbol.  With ``include_forbidden_reads``
    the four transitions that read 1 right after a 1 are added; they can
    never fire on an input from the golden-mean shift and they break
    compatibility with its measure.
    """
    transitions = [
        ("000", "0", "drop", "100"),
        ("000", "1", "drop", "110"),
        ("001", "0", "drop", "101"),
        ("001", "1", "drop", "111"),
        ("010", "0", "drop", "100"),
        ("011", "0", "drop", "101"),
        ("100", "0", "keep", "000"),
        ("100", "1", "keep", "011"),
        ("101", "0", "drop", "001"),
        ("101", "1", "drop", "011"),
        ("110", "0", "drop", "000"),
        ("111", "0", "keep", "000"),
    ]
    if include_forbidden_reads:
        transitions += [
            ("010", "1", "drop", "110"),
            ("011", "1", "drop", "111"),
            ("110", "1", "drop", "010"),
            ("111", "1", "keep", "011"),
        ]
    selector = Selector(
        binary_alphabet(),
        ["000", "001", "010", "011", "100", "101", "110", "111"],
        "000",
        transitions,
    )
    if include_forbidden_reads:
        selector.declare_labels(last_read={"000": "0"})
    else:
        # 010 has no incoming transition once the forbidden reads are gone
        selector.declare_labels(last_read={"000": "0", "010": "1"})
    return selector


def golden_mean_sft() -> SftSpec:
    """The shift of finite type over {0,1} forbidding the block 11."""
    return SftSpec(binary_alphabet(), [[1.0, 1.0], [1.0, 0.0]])


def golden_parry() -> ParryResult:
    """Parry measure of the golden-mean shift via the eigensolver."""
    return parry_measure(golden_mean_sft())


def golden_parry_measure() -> MarkovMeasure:
    """Closed form of the golden-mean Parry measure: with g the golden
    ratio, pi = (g^2, 1)/(1+g^2) and transition rows (1/g, 1/g^2), (1, 0).
    The eigensolved version agrees within 1e-9; this one keeps the exact
    zeros and ones."""
    g = (1 + math.sqrt(5)) / 2
    alpha = binary_alphabet()
    pi = Distribution(alpha, np.array([g**2 / (1 + g**2), 1 / (1 + g**2)]))
    P = StochasticMatrix(alpha, np.array([[1 / g, 1 / g**2], [1.0, 0.0]]))
    return MarkovMeasure(pi, P)


def uniform_binary_measure() -> MarkovMeasure:
    return uniform_measure(binary_alphabet())


def data_path(name: str) -> Path:
    """Path of a bundled data file (e.g. ``after_ones.sel``)."""
    return Path(resources.files("sftselect").joinpath("data", name))
