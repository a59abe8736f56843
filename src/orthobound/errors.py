"""Exception hierarchy for orthobound."""


class OrthoboundError(Exception):
    """Base class for all orthobound errors."""


class DimensionMismatch(OrthoboundError):
    """Vector length does not match the space dimension."""


class NonFiniteInput(OrthoboundError):
    """An input coordinate, weight, or node is NaN or infinite."""


class ZeroVector(OrthoboundError):
    """An operation required a nonzero vector and got the zero vector."""


class DependentVectors(OrthoboundError):
    """The two given vectors are (numerically) linearly dependent."""


class GramOverflow(OrthoboundError):
    """A squared norm, an inner product or a result built from them does not fit in float64."""


class InvalidDimension(OrthoboundError):
    """Requested dimension is outside the valid range."""


class InvalidInterval(OrthoboundError):
    """Quadrature interval endpoints are not strictly increasing."""


class NonPositiveWeight(OrthoboundError):
    """A weight is zero, negative, or non-finite."""

    def __init__(self, index: int, value: float):
        self.index = index
        self.value = value
        super().__init__(f"weight at index {index} must be positive and finite, got {value!r}")


class DegenerateSample(OrthoboundError):
    """Random sampling kept producing (near-)degenerate draws."""
