"""Exception types shared across the package."""


class CoptransError(Exception):
    """Base class for all coptrans errors."""


class InvalidData(CoptransError):
    """Input data violates a structural precondition (shape, finiteness, length)."""


class DegenerateColumn(InvalidData):
    """A variable has fewer than two distinct values; ranks are undefined."""


class InvalidParameter(CoptransError):
    """A numeric or enumerated parameter is outside its documented range."""


class InfeasibleProjection(CoptransError):
    """Margin projection cannot succeed because a row or column carries no mass."""


class ConvergenceFailure(CoptransError):
    """An iterative solver did not reach its tolerance (it hit its iteration
    cap, or its residual was NaN), or a transport closure LP failed.

    `residual` is the last marginal residual, the worst of a transport
    call's problems, None when only closure LPs failed. A transport call's
    `pair` names every failed problem, in order: by position from
    `sinkhorn_values_batch`, and in the caller's terms from
    `pairwise_distance_matrix`, `cluster_copulas` and `tfdc` (see each).
    `value` holds the call's values in the engine's problem order: NaN
    where a problem failed, +inf where one was screened out, elsewhere the
    bits of a call where nothing fails. `coptrans dist`, `cluster`, `tfdc`
    and `query` print the failing copulas' variable pairs.
    """

    def __init__(self, message, residual=None, value=None, pair=None):
        super().__init__(message)
        self.residual = residual
        self.value = value
        self.pair = pair


class OracleTooLarge(CoptransError):
    """Exact transport instance exceeds the desk-scale support limit."""


class AmbiguousSpec(CoptransError):
    """A copula sits at distance zero from both the target and the forget set."""


class ParseError(CoptransError):
    """A file could not be parsed; carries the offending path and line."""

    def __init__(self, message, path=None, line=None):
        super().__init__(message)
        self.path = path
        self.line = line


class IoError(CoptransError):
    """Filesystem read/write failure."""
