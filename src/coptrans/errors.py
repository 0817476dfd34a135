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
    """An iterative solver did not reach its tolerance: it hit its iteration
    cap, or its residual was NaN.

    Carries the last marginal residual and the last objective value where one
    is available; that value is not a distance, and a transport problem whose
    budget ran out before its last anneal stage has NaN there. From a batched transport solve, `pair` names the problems
    that failed: `sinkhorn_values_batch` gives their positions in the aligned
    lists, `pairwise_distance_matrix` remaps them to (i, j) histogram
    index pairs, `cluster_copulas` to (member, centroid index) pairs and
    `tfdc` to (copula index, reference index) pairs, with None on the
    missing side of a self-distance. `coptrans dist`, `cluster`, `tfdc` and
    `query` name the failing copulas' variable pairs on stderr.
    A batch runs every chunk, and every deficit-closure LP of a chunk,
    before it raises, so `pair` names every failing problem, and the value
    of a problem whose closure LP failed is NaN.
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
