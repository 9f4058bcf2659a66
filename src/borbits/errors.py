"""Exception types raised by the library.

Everything derives from :class:`BorbitsError` so callers can catch the
whole family with one clause; the CLI maps them to exit code 2.
"""


class BorbitsError(ValueError):
    """Base class for all domain errors."""


class CycleSyntaxError(BorbitsError):
    """Malformed cycle-notation text."""


class IndexOutOfRangeError(BorbitsError):
    """An index lies outside 1..n."""


class OverlapError(BorbitsError):
    """An endpoint appears in more than one cycle."""


class SizeMismatchError(BorbitsError):
    """Operands live in symmetric groups of different sizes."""


class MoveError(BorbitsError):
    """Base class for errors of the covering-move constructions."""


class ArcNotInSupportError(MoveError):
    """The designated arc is not a 2-cycle of the involution."""


class MoveNotApplicableError(MoveError):
    """A move record does not apply to the given involution."""


class BoundExceededError(BorbitsError):
    """Requested size exceeds the documented bound of an exhaustive sweep."""


class NotInPosetError(BorbitsError):
    """Element missing from the poset it is queried against."""


class MissingArcError(BorbitsError):
    """A weight map's keys are not exactly the arcs of the support."""


class ZeroXiError(BorbitsError):
    """Arc weights must be nonzero."""


class NotAFieldError(BorbitsError):
    """An entry or modulus outside the exact fields: a float entry, or a
    modulus that is not prime."""


class NotInvertibleError(BorbitsError):
    """Matrix has a zero diagonal entry, hence no triangular inverse."""


class NotUpperTriangularError(BorbitsError):
    """Group element must be upper triangular."""


class NotStrictlyLowerError(BorbitsError):
    """Functional must be strictly lower triangular."""


class LimitUndefinedError(BorbitsError):
    """A reduced denominator vanishes at 0; signals an internal bug."""


class UnknownSuiteError(BorbitsError):
    """No verification suite with the requested name."""


class TooLargeError(BorbitsError):
    """An exhaustive check's size, or a field size, is past the range
    where it answers exactly: the essential-set check's bound on n, or
    the range of its deterministic primality test."""


class NotChainError(BorbitsError):
    """Operation requires the support to be totally ordered."""
