"""Exception types shared across the library.

Everything raised on purpose derives from AssouadLabError so callers
(and the CLI) can distinguish usage problems from genuine bugs.  A
subclass exists only where some caller tells it apart from the others.
"""


class AssouadLabError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(AssouadLabError):
    """A parameter or input is outside its documented domain."""


class WindowTooNarrowError(AssouadLabError):
    """The scale window does not contain enough dyadic levels."""


class PoleProximityError(AssouadLabError):
    """Sample points come too close to a Mobius pole."""


class SpectrumUndefinedError(AssouadLabError):
    """A spectrum value was requested where none is defined."""
