"""Exception types shared across the package.

Every library-specific failure derives from :class:`SieveclusterError` so
callers can catch one base class at API boundaries (one handler in the
CLI's ``main`` maps them to exit code 2). The library refuses a bad
argument, where it checks it, with :class:`InvalidArgument`, which is
also a ``ValueError``, so ``except ValueError`` still catches it. A
``ValueError`` of any other kind is a fault of the program, not of its
input, and no handler turns it into exit 2.
"""

from __future__ import annotations


class SieveclusterError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgument(SieveclusterError, ValueError):
    """An argument or an input document has a value the library refuses;
    the message names what is wrong."""


class DuplicateLabel(SieveclusterError):
    """A label list contains the same label more than once."""


class NegativeDistance(SieveclusterError):
    """A distance matrix contains an entry below zero (beyond tolerance)."""


class AsymmetricMatrix(SieveclusterError):
    """A distance matrix differs from its transpose beyond tolerance."""


class NonzeroDiagonal(SieveclusterError):
    """A distance matrix has a diagonal entry away from zero beyond tolerance."""


class TriangleViolation(SieveclusterError):
    """The triangle inequality fails for some triple of points.

    Attributes:
        triple: labels (a, b, c) such that d(a, c) > d(a, b) + d(b, c).
        excess: how far the sum is exceeded.
    """

    def __init__(self, triple: tuple[str, str, str], excess: float):
        self.triple = triple
        self.excess = excess
        a, b, c = triple
        super().__init__(
            f"triangle inequality violated: d({a}, {c}) > d({a}, {b}) + d({b}, {c}) "
            f"by {excess:.3g}"
        )


class NestedCover(SieveclusterError):
    """An operation requiring a non-nested cover received a nested one."""


class BaseMismatch(SieveclusterError):
    """Two covers (or a cover and a map) disagree about the underlying point set."""


class MonotonicityViolation(SieveclusterError):
    """Consecutive covers in a scale profile fail to refine.

    Attributes:
        index: position of the offending pair (covers[index] vs covers[index + 1]).
        scale: breakpoint at which the coarser cover starts.
    """

    def __init__(self, index: int, scale: float):
        self.index = index
        self.scale = scale
        super().__init__(
            f"cover at breakpoint index {index} does not refine its successor "
            f"(scale {scale!r})"
        )


class SearchBudgetExceeded(SieveclusterError):
    """A generated-method search was asked to exceed its size budget."""


class TrivialFunctor(SieveclusterError):
    """The two-point probe found no scale transition for the method."""


class TooLarge(SieveclusterError):
    """An exponential oracle was called above its size cap."""


class InputFormatError(SieveclusterError):
    """An input file could not be parsed; message carries location details."""
