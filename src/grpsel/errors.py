"""Exception types shared across the package."""


class GrpselError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(GrpselError):
    """Array shapes are inconsistent with the grouped design."""


class EmptyGroup(GrpselError):
    """A group was declared but contains no columns."""


class SingularGroup(GrpselError):
    """A group Gram matrix is not (numerically) positive definite."""


class NotOrthonormalized(GrpselError):
    """The operation requires a design with orthonormalized group blocks."""


class GammaOutOfRange(GrpselError):
    """The concavity parameter is outside the valid range for the family."""


class UnsupportedFamily(GrpselError):
    """Unknown or unsupported penalty family tag."""


class DomainError(GrpselError):
    """Argument outside the mathematical domain of the function."""


class TooLarge(GrpselError):
    """Exhaustive subset enumeration would exceed the safety guard."""


class SingularSupport(GrpselError):
    """The support-restricted Gram matrix is singular."""


class FoldTooSmall(GrpselError):
    """Cross-validation folds cannot be formed from the data."""


class ParseError(GrpselError):
    """Malformed input file."""


class ConfigError(GrpselError, ValueError):
    """Invalid experiment, grid or solver setting (also a ``ValueError``)."""


class NonFiniteInput(GrpselError):
    """An input array holds NaN or infinite entries."""
