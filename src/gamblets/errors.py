"""Exception taxonomy shared across the package.

Every failure mode raised by library code derives from GambletError so
callers (and the CLI) can catch one base class and report cleanly.
"""


class GambletError(Exception):
    """Base class for all library errors."""


class NotSPD(GambletError):
    """Matrix expected to be symmetric positive definite is not."""


class DimensionMismatch(GambletError):
    """Operand shapes are incompatible, such as an operator whose size does not match the hierarchy."""


class NoConvergence(GambletError):
    """An iterative method exhausted its iteration budget."""


class InvalidProbability(GambletError):
    """Probability argument outside (0, 1)."""


class UnsupportedDim(GambletError):
    """Spatial dimension other than 1 or 2."""


class EmptyPointSet(GambletError):
    """Point hierarchy requested for zero points."""


class TooLarge(GambletError):
    """Problem size exceeds the dense desk-scale cap."""


class BadLevel(GambletError):
    """Level index outside 0..q."""


class TooFewLevels(GambletError):
    """Scale estimation needs at least three levels."""


class Disconnected(GambletError):
    """Graph is not connected; grounded Laplacian would be singular."""


class EmptyGrid(GambletError):
    """Empty tuning grid or zero-size synthetic grid."""


class BadConfig(GambletError):
    """Malformed configuration or manifest."""


class NoBracketWarning(UserWarning):
    """Regularization bracket search hit its overflow guard."""
