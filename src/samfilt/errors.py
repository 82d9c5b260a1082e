"""Exception hierarchy.

The CLI maps these onto exit codes: ParseError -> 2, PreconditionError and
subclasses -> 3, LimitError and its subclass HorizonExceededError -> 4.
"""


class SamfiltError(Exception):
    """Base class for all library errors."""


class ParseError(SamfiltError):
    """Malformed textual or JSON input."""


class PreconditionError(SamfiltError):
    """An operation was called outside its contract."""


class DimensionMismatchError(PreconditionError):
    """Ambient dimensions of the arguments disagree."""


class MixedRadicalError(PreconditionError):
    """Arithmetic or comparison between distinct quadratic extensions."""


class NotPrimaryError(PreconditionError):
    """The ideal has infinite colength (misses a pure power of some variable)."""


class ConstructionError(PreconditionError):
    """Explicit level data violates the filtration axioms."""


class LimitError(SamfiltError):
    """An answer exists but exceeds an internal limit."""


class HorizonExceededError(LimitError):
    """A table filtration was evaluated beyond its stored horizon."""


class RecoveryError(SamfiltError):
    """The sampled function is not of min-of-linear form within the bounds."""
