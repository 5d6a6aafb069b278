"""Exception types shared across the package."""


class RichseedError(Exception):
    """Base class for all errors raised by this package."""


class IllegalType(RichseedError, ValueError):
    """Requested Dynkin type does not exist (e.g. D3, E9, rank 0) or is
    above the size limit ``rootsys.MAX_POSITIVE_ROOTS``."""


class NotReduced(RichseedError, ValueError):
    """A word is not reduced.

    ``prefix_len`` is the length of the shortest non-reduced prefix
    (letters are counted from the right, i.e. in application order).
    """

    def __init__(self, prefix_len: int, message: str | None = None):
        self.prefix_len = prefix_len
        super().__init__(message or f"word is not reduced (prefix of length {prefix_len})")


class NotLessOrEqual(RichseedError, ValueError):
    """v is not below w in the Bruhat order."""


class StructuralFailure(RichseedError, RuntimeError):
    """A property that the algorithm guarantees failed during a run.

    The input was accepted; the run, not the input, is at fault.
    """


class NegativeCoordinate(StructuralFailure):
    """A coefficient that must be a nonnegative integer came out negative."""


class FrozenVertex(StructuralFailure):
    """Attempted mutation at a frozen vertex."""


class AmbiguousBranch(StructuralFailure):
    """Both exchange computations gave nonnegative, distinct vectors."""


class NoValidBranch(StructuralFailure):
    """Neither exchange computation gave a nonnegative vector."""


class InvariantViolation(StructuralFailure):
    """A structural property that the algorithm guarantees failed to hold."""


class Unclassifiable(StructuralFailure):
    """Local arrow pattern matches none of the known configurations."""
