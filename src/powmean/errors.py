"""Exception types shared across the package."""


class PowerMeanError(Exception):
    """Base class for every error raised by this package."""


class PreconditionError(PowerMeanError, ValueError):
    """An argument violates an operation's contract."""


class DomainError(PowerMeanError):
    """A spectral function was evaluated outside its domain, for example a
    logarithm or negative power of a matrix that is singular beyond
    tolerance, or a supposedly positive map produced a non-positive output."""


class NonConvergenceError(PowerMeanError):
    """An iterative routine (Jacobi sweeps, Richardson tableau) did not
    settle within its cap."""


class DimensionMismatchError(PowerMeanError):
    """Operands have incompatible dimensions."""


class IndexOutOfRangeError(PowerMeanError):
    """An index set refers to rows or columns outside the matrix."""


class NotUnitalError(PowerMeanError):
    """A map expected to be unital sends the identity too far from the
    identity."""


class DegenerateFrameError(PowerMeanError):
    """Expansion hypotheses are violated: a divided-difference denominator
    is too close to zero for the closed forms to apply."""


class SearchExhaustedError(PowerMeanError):
    """The counterexample parameter schedule ran out without certifying a
    witness: its walks ended or left the means' domain first.  The pair
    still lies outside the region; near the region's boundary bands the
    fixed schedules miss a few percent of pairs this way."""


class InRegionError(PowerMeanError):
    """No counterexample exists: the exponent pair lies inside the
    sufficiency region of the power-mean order inequality."""
