"""Exception types shared across the package."""


class ClaspLabError(Exception):
    """Base class for all domain errors raised by clasplab."""


class InvalidDiagram(ClaspLabError):
    """The event word violates a front-diagram invariant."""


class ParseError(ClaspLabError):
    """Malformed diagram or move-script text."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class InvalidBraidLetter(ClaspLabError):
    """A braid word letter lies outside 1..strands-1."""


class InvalidRuling(ClaspLabError):
    """A switch set is not a normal ruling of the given diagram."""


class NotApplicable(ClaspLabError):
    """The requested move does not match the local event pattern."""


class TransportFailure(ClaspLabError):
    """A transported switch set is not a normal ruling of the rewritten diagram."""


class ScriptError(ClaspLabError):
    """A move script failed at some step."""

    def __init__(self, message, index=None):
        self.index = index
        if index is not None:
            message = f"move {index}: {message}"
        super().__init__(message)


class EvennessViolation(ClaspLabError):
    """A filling certificate came out with an odd clasp total.

    This cannot happen for a correct move calculus; it signals an
    implementation bug, never a property of the input.
    """


class BudgetExceeded(ClaspLabError):
    """An enumeration hit its node budget before finishing."""

    def __init__(self, message, nodes=None):
        self.nodes = nodes
        super().__init__(message)
