"""Exception types shared across the package, and the read-only base of
its value types.

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
    """Descent step size must be strictly positive, and its step count an
    integer of at least 1."""


class DivergentStepError(PCGeomError):
    """Descent step size too large for the residual to contract, or so
    small that the contraction factor rounds to 1."""


class NonFiniteResultError(PCGeomError):
    """A computed result overflowed and cannot be reported."""


class ReadOnly:
    """Base of the immutable value types.

    A subclass lists its fields in ``__slots__``. The constructor takes
    them positionally in that order or by name and sets each once;
    assigning or deleting one afterwards raises AttributeError. Records
    compare and hash by identity.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        fields = self._fields()
        kind = type(self).__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{kind}() takes {len(fields)} fields, got {len(args)}")
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields:
                raise TypeError(f"{kind}() got an unknown field {name!r}")
            if name in values:
                raise TypeError(f"{kind}() got field {name!r} twice")
            values[name] = value
        if len(values) < len(fields):
            missing = [name for name in fields if name not in values]
            raise TypeError(f"{kind}() missing field(s) {', '.join(missing)}")
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _fields(self) -> list[str]:
        return [name for name in self.__slots__ if name != "__dict__"]

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields()
        )
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle would otherwise restore each slot with setattr.
        return type(self), tuple(getattr(self, name) for name in self._fields())
