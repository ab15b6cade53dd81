"""Small machines and measures used throughout the tests, demos, and docs.

The text files under ``sftselect/data`` are the source of truth: each
fixture here parses its file afresh on every call, so the CLI, the
benchmark and the tests all read the same objects.  No object is shared
between calls (``declare_labels`` changes a machine in place).  To add an
example, ship a file there and a one-line loader here.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .alphabet import Alphabet
from .formats import parse_matrix, parse_measure, parse_selector
from .machines import Selector
from .measures import MarkovMeasure, ParryResult, SftSpec, parry_measure


def data_path(name: str) -> Path:
    """Path of a bundled data file (e.g. ``after_ones.sel``)."""
    return Path(resources.files("sftselect").joinpath("data", name))


def binary_alphabet() -> Alphabet:
    return Alphabet(["0", "1"])


def after_ones_selector() -> Selector:
    """Two-state oblivious selector keeping exactly the symbols that follow
    a 1; equivalently, prefix selection by the words ending in 1."""
    return parse_selector(data_path("after_ones.sel"))


def nonoblivious_selector() -> Selector:
    """Three-state selector with mixed actions out of q1 and q2: it copies
    its input until it reads 11, then drops up to the next 1."""
    return parse_selector(data_path("nonoblivious.sel"))


def even_positions_selector(include_forbidden_reads: bool = False) -> Selector:
    """Eight-state selector compatible with the golden-mean shift: it keeps
    the symbol at even read positions whenever the last read and the last
    selected symbol coincide.

    State ``prs`` records the parity of the read count, the last read
    symbol, and the last selected symbol.  With ``include_forbidden_reads``
    (``even_positions_full.sel``) the four transitions that read 1 right
    after a 1 are added; they can never fire on an input from the
    golden-mean shift and they break compatibility with its measure.
    Without them state 010 has no incoming transition, so its last read
    symbol is declared (``iota 010 1``).
    """
    name = "even_positions_full.sel" if include_forbidden_reads else "even_positions.sel"
    return parse_selector(data_path(name))


def golden_mean_sft() -> SftSpec:
    """The shift of finite type over {0,1} forbidding the block 11."""
    return parse_matrix(data_path("golden_mean.mat"))


def golden_parry() -> ParryResult:
    """Parry measure of the golden-mean shift via the eigensolver."""
    return parry_measure(golden_mean_sft())


def golden_parry_measure() -> MarkovMeasure:
    """The golden-mean Parry measure as shipped: with g the golden ratio,
    pi = (g^2, 1)/(1+g^2) and transition rows (1/g, 1/g^2), (1, 0), as
    that closed form evaluates in doubles.  The eigensolved version agrees
    within 1e-9; this one keeps the exact zeros and ones."""
    return parse_measure(data_path("golden_parry.msr"))


def uniform_binary_measure() -> MarkovMeasure:
    return parse_measure(data_path("uniform_binary.msr"))
