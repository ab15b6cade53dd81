"""Exception types shared across the package, each with its CLI ``exit_code``."""


class SftSelectError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class DomainError(SftSelectError):
    """Well-formed input that the mathematics rejects (exit status 2)."""

    exit_code = 2


class UnknownSymbol(SftSelectError):
    """A symbol outside the alphabet; the message shows a symbol longer than
    32 characters by its first 32 and the number of its characters read."""

    def __init__(self, symbol, alphabet, position=None):
        at = f" at position {position}" if position is not None else ""
        shown = repr(symbol)
        if isinstance(symbol, str) and len(symbol) > 32:
            shown = f"{symbol[:32]!r}... ({len(symbol)} characters read)"
        super().__init__(f"symbol {shown} is not in alphabet {list(alphabet)}{at}")
        self.symbol = symbol
        self.position = position


class UndefinedTransition(DomainError):
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


class NotOblivious(DomainError):
    def __init__(self, state):
        super().__init__(f"state {state!r} has outgoing transitions of both types")
        self.state = state


class NotStronglyConnected(DomainError):
    pass


class Incomplete(DomainError):
    def __init__(self, state, symbol):
        super().__init__(f"machine is not complete: state {state!r} lacks a transition on {symbol!r}")
        self.state = state
        self.symbol = symbol


class ValidationError(SftSelectError):
    """A constructed object violates one of its declared invariants."""


class WeightsNotNormalized(ValidationError):
    pass


class NotIrreducible(DomainError):
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


class NotCompatible(DomainError):
    """Machine failed compatibility checking; ``violations`` lists the findings."""

    def __init__(self, violations):
        super().__init__("; ".join(str(v) for v in violations) or "machine is not compatible")
        self.violations = list(violations)


class NotShiftComplete(DomainError):
    def __init__(self, missing):
        pairs = ", ".join(f"({p!r}, {a!r})" for p, a in missing)
        super().__init__(f"machine is missing transitions required by the measure support: {pairs}")
        self.missing = list(missing)


class UnrealizableRun(DomainError):
    def __init__(self, state, word):
        super().__init__(f"no run from state {state!r} over input {''.join(word)!r}")
        self.state = state
        self.word = word


class CapExceeded(DomainError):
    def __init__(self, requested, cap):
        super().__init__(f"enumeration of {requested} runs exceeds the cap of {cap}")
        self.requested = requested
        self.cap = cap


class BlockLengthOutOfRange(SftSelectError):
    pass


class ParseError(SftSelectError):
    """A refused text; ``line`` is None for an error of the whole file."""

    def __init__(self, line, message):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
        self.message = message
