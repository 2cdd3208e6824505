"""Exception and warning types shared across the library.

Every error raised by the numerical modules derives from ``SzegoError`` so
that callers (and the command line front end) can distinguish module
failures from input parsing problems.
"""


class SzegoError(Exception):
    """Base class for all library errors."""


# curve model --------------------------------------------------------------

class NonPositiveCapacity(SzegoError):
    """Logarithmic capacity must be strictly positive."""


class CurveSelfIntersects(SzegoError):
    """The sampled boundary curve is not simple (heuristic grid check)."""


class DerivativeVanishes(SzegoError):
    """phi' vanishes on the sampling grid, so the map cannot be univalent."""


class OutsideDomain(SzegoError):
    """Evaluation point lies inside the unit disk."""


class DilationNotGreaterThanOne(SzegoError):
    """Dilation parameter r must satisfy r > 1."""


# Grunsky machinery --------------------------------------------------------

class NotSymmetric(SzegoError):
    """Input matrix is not (numerically) complex symmetric."""


class SingularValueAtOne(SzegoError):
    """Largest singular value reaches 1: not resolved as a quasicircle."""


# symbol -------------------------------------------------------------------

class BadLength(SzegoError):
    """Sample vector length is not a power of two >= 8."""


# prediction / direct ------------------------------------------------------

class NotPositiveDefinite(SzegoError):
    """I + K is not positive definite (Grunsky norm at or above 1)."""


class NotConverged(SzegoError):
    """Grid doubling hit its cap without meeting the refinement tolerance."""


class ZeroDeterminant(SzegoError):
    """Determinant vanished; its logarithm has no meaningful branch."""


class GridTooCoarse(SzegoError):
    """Convexity check needs a uniform log-spaced grid with >= 5 points."""


# warnings -----------------------------------------------------------------

class HeavyTailWarning(UserWarning):
    """Monte Carlo weights are dominated by a few samples."""
