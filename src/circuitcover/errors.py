"""Exception types shared across the package."""


class BadParam(ValueError):
    """A generator or operation was called with out-of-range parameters."""


class BadEdgeId(ValueError):
    """An edge id does not exist in the graph."""


class ParseError(ValueError):
    """Graph file could not be parsed; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DisconnectedInput(ValueError):
    """The operation requires a connected input graph."""


class EmptyPrescribed(ValueError):
    """The prescribed edge set must be nonempty."""


class NotEven(ValueError):
    """Edge set has a vertex of odd degree where an even subgraph is required."""


class NotConnected(ValueError):
    """Edge set or vertex set is not connected where connectivity is required."""


class CoherenceViolated(RuntimeError):
    """A coherent-trail invariant (C1/C2/C3 or a disjointness claim) failed."""


class TooLarge(ValueError):
    """Instance exceeds the guard for an exhaustive operation."""


class NotExtendable(ValueError):
    """No even edge set contains the prescribed edges."""


class Exhausted(RuntimeError):
    """Rejection sampling ran out of attempts."""
