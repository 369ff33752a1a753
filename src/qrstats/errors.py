"""Exception types shared across the package.

Everything derives from QRStatsError so callers can catch one base class.
The ValueError mixins keep the usual idiom ``except ValueError`` working
for code that treats bad parameters generically.
"""


class QRStatsError(Exception):
    """Base class for all errors raised by this package."""


class InvalidModulusError(QRStatsError, ValueError):
    """Modulus outside the domain of the requested symbol (even or < 1)."""


class PerfectSquareModulusError(InvalidModulusError):
    """Perfect-square modulus: the symbol degenerates to the principal
    character and cancellation statistics are meaningless."""


class ParameterError(QRStatsError, ValueError):
    """A numeric parameter violates an operation's precondition."""


class RangeError(QRStatsError, ValueError):
    """An interval endpoint lies outside the supported integer range."""


class ResourceError(QRStatsError):
    """A table or scan would exceed the configured memory budget."""


class DegenerateSetError(QRStatsError, ValueError):
    """A constructed set is too small for the requested statistic."""


class ScanError(QRStatsError, RuntimeError):
    """An internal scan invariant failed; indicates a bug, not bad input."""
