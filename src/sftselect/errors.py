"""Exception types shared across the package."""


class SftSelectError(Exception):
    """Base class for all library errors."""


class UnknownSymbol(SftSelectError):
    def __init__(self, symbol, alphabet):
        super().__init__(f"symbol {symbol!r} is not in alphabet {list(alphabet)}")
        self.symbol = symbol


class UndefinedTransition(SftSelectError):
    """Raised when a run falls off a partial transition map.

    ``position`` is the 1-based index of the offending input symbol when the
    error arises from a streamed input, else None.
    """

    def __init__(self, state, symbol, position=None):
        at = f" at input position {position}" if position is not None else ""
        super().__init__(f"no transition from state {state!r} on symbol {symbol!r}{at}")
        self.state = state
        self.symbol = symbol
        self.position = position


class NotOblivious(SftSelectError):
    def __init__(self, state):
        super().__init__(f"state {state!r} has outgoing transitions of both types")
        self.state = state


class NotStronglyConnected(SftSelectError):
    pass


class Incomplete(SftSelectError):
    def __init__(self, state, symbol):
        super().__init__(f"machine is not complete: state {state!r} lacks a transition on {symbol!r}")
        self.state = state
        self.symbol = symbol


class ValidationError(SftSelectError):
    """A constructed object violates one of its declared invariants."""


class WeightsNotNormalized(ValidationError):
    pass


class NotIrreducible(SftSelectError):
    """Nonzero pattern is not strongly connected (or has several closed classes).

    ``components`` carries a pair of state/symbol groups with no path from the
    first to the second, when known.
    """

    def __init__(self, message, components=None):
        super().__init__(message)
        self.components = components


class NonConvergence(SftSelectError):
    def __init__(self, iterations):
        super().__init__(f"eigen solver failed to meet tolerance within {iterations} iterations")
        self.iterations = iterations


class NotCompatible(SftSelectError):
    """Machine failed compatibility checking; ``violations`` lists the findings."""

    def __init__(self, violations):
        super().__init__("; ".join(str(v) for v in violations) or "machine is not compatible")
        self.violations = list(violations)


class NotShiftComplete(SftSelectError):
    def __init__(self, missing):
        pairs = ", ".join(f"({p!r}, {a!r})" for p, a in missing)
        super().__init__(f"machine is missing transitions required by the measure support: {pairs}")
        self.missing = list(missing)


class UnrealizableRun(SftSelectError):
    def __init__(self, state, word):
        super().__init__(f"no run from state {state!r} over input {''.join(word)!r}")
        self.state = state
        self.word = word


class CapExceeded(SftSelectError):
    def __init__(self, requested, cap):
        super().__init__(f"enumeration of {requested} runs exceeds the cap of {cap}")
        self.requested = requested
        self.cap = cap


class BlockLengthOutOfRange(SftSelectError):
    pass


class ParseError(SftSelectError):
    def __init__(self, line, message):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message
