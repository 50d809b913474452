"""Exception and warning types shared across the package.

Every error subclasses :class:`PCGeomError`, which itself subclasses
``ValueError`` so that callers who do not care about the fine-grained
taxonomy can catch a single builtin type.
"""


class PCGeomError(ValueError):
    """Base class for all validation and domain errors raised here."""


class NonSquareError(PCGeomError):
    """Input matrix is not square."""


class TooSmallError(PCGeomError):
    """Too few alternatives for the requested operation."""


class NotSkewSymmetricError(PCGeomError):
    """Additive matrix violates a_ij + a_ji = 0 beyond tolerance."""


class NotReciprocalError(PCGeomError):
    """Multiplicative matrix violates m_ij * m_ji = 1 beyond tolerance."""


class NonFiniteEntryError(PCGeomError):
    """NaN or infinity where a finite value is required."""


class NonPositiveEntryError(PCGeomError):
    """Multiplicative entries must be strictly positive."""


class IndexOutOfRangeError(PCGeomError, IndexError):
    """Alternative index outside 1..n."""


class NonIncreasingTriadError(PCGeomError):
    """Triad indices must satisfy i < j < k."""


class DimensionMismatchError(PCGeomError):
    """Operands do not share the required dimension."""


class ZeroTwoVectorError(PCGeomError):
    """The zero 2-vector has no projective representative."""


class ZeroCoefficientError(PCGeomError):
    """Orthogonal embeddings require every coefficient to be nonzero."""


class NonPositiveLambdaError(PCGeomError):
    """Regularization weight outside its allowed range."""


class NonPositiveStepError(PCGeomError):
    """Descent step size must be strictly positive."""


class DivergentStepError(PCGeomError):
    """Descent step size too large for the residual to contract."""


class NonFiniteResultError(PCGeomError):
    """A computed result overflowed and cannot be reported."""


class UnsupportedSizeError(PCGeomError):
    """Operation only implemented for small sizes."""


class DegeneratePairWarning(UserWarning):
    """A pair of alternatives produced the zero wedge (parallel vectors)."""
