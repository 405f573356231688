"""Exception types shared across the library.

Everything raised on purpose derives from AssouadLabError so callers
(and the CLI) can distinguish usage problems from genuine bugs.
"""


class AssouadLabError(Exception):
    """Base class for all errors raised by this package."""


class EmptySetError(AssouadLabError):
    """An operation that needs at least one point received none."""


class LevelOutOfRangeError(AssouadLabError):
    """A dyadic level outside the stored range was queried."""


class ScaleBelowResolutionError(AssouadLabError):
    """A query asked for cells smaller than the declared resolution."""


class WindowTooNarrowError(AssouadLabError):
    """The scale window does not contain enough dyadic levels."""


class InvalidParameterError(AssouadLabError):
    """A parameter is outside its documented domain."""


class TruncationTooCoarseError(AssouadLabError):
    """A family truncation leaves an unsampled tail wider than the target resolution allows."""


class InvalidDilatationError(AssouadLabError):
    """A dilatation bound below 1 was supplied."""


class PoleProximityError(AssouadLabError):
    """Sample points come too close to a Mobius pole."""


class DimensionMismatchError(AssouadLabError):
    """A planar map was applied to a point set that is not planar."""


class ThetaOutOfRangeError(AssouadLabError):
    """A spectrum parameter theta is outside the range a formula supports."""


class SpectrumUndefinedError(AssouadLabError):
    """A spectrum value was requested where none is defined."""
