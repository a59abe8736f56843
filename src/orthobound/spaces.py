"""Inner-product space descriptors.

Three concrete settings are supported:

* dense Euclidean space (all weights 1),
* positive-weighted coordinate space,
* quadrature discretization of L^2 on a real interval (nodes + weights).

In every case the inner product is the weighted sum
``<u, v> = sum_i w_i * u_i * conj(v_i)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (
    InvalidDimension,
    InvalidInterval,
    NonFiniteInput,
    NonPositiveWeight,
)

DENSE = "dense"
WEIGHTED = "weighted"
QUADRATURE = "quadrature"

_KINDS = (DENSE, WEIGHTED, QUADRATURE)


@dataclass(frozen=True)
class SpaceDescriptor:
    """Immutable description of a finite-dimensional inner-product space.

    ``weights`` are strictly positive; ``nodes`` is present only for
    quadrature spaces and is strictly increasing.
    """

    kind: str
    weights: np.ndarray
    nodes: Optional[np.ndarray] = field(default=None)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown space kind {self.kind!r}")
        w = _private(self.weights)
        if w.ndim != 1 or w.size < 1:
            raise InvalidDimension("weights must be a nonempty 1-D array")
        bad = np.flatnonzero(~(np.isfinite(w) & (w > 0.0)))
        if bad.size:
            raise NonPositiveWeight(int(bad[0]), float(w[bad[0]]))
        object.__setattr__(self, "weights", w)
        if self.kind == QUADRATURE:
            if self.nodes is None:
                raise InvalidInterval("quadrature space requires nodes")
            x = _private(self.nodes)
            if x.shape != w.shape:
                raise InvalidDimension("nodes and weights must have equal length")
            if not np.isfinite(x).all():
                raise NonFiniteInput("quadrature nodes must be finite")
            if np.any(np.diff(x) <= 0.0):
                raise InvalidInterval("quadrature nodes must be strictly increasing")
            object.__setattr__(self, "nodes", x)
        elif self.nodes is not None:
            raise InvalidInterval(f"{self.kind} space must not carry nodes")

    @property
    def dim(self) -> int:
        return int(self.weights.size)


def _frozen(v: np.ndarray) -> np.ndarray:
    v.setflags(write=False)
    return v


def _private(v) -> np.ndarray:
    """v if it is a read-only float64 array that owns its data (the makers' arrays), else a frozen copy."""
    if type(v) is np.ndarray and v.dtype == np.float64 and v.flags.owndata and not v.flags.writeable:
        return v
    return _frozen(np.array(v, dtype=np.float64))


def make_dense(dim: int) -> SpaceDescriptor:
    """Euclidean space of the given dimension (unit weights)."""
    if dim < 1:
        raise InvalidDimension(f"dim must be >= 1, got {dim}")
    return SpaceDescriptor(DENSE, _frozen(np.ones(dim)))


def make_weighted(weights) -> SpaceDescriptor:
    """Coordinate space with the given strictly positive weights."""
    return SpaceDescriptor(WEIGHTED, _frozen(np.array(weights, dtype=np.float64, ndmin=1)))


def trapezoid_rule(n: int, lo: float, hi: float) -> SpaceDescriptor:
    """Quadrature space with n uniform nodes on [lo, hi] and trapezoid weights.

    The weights are ``h * (1/2, 1, ..., 1, 1/2)`` with ``h = (hi - lo)/(n - 1)``
    and sum to ``hi - lo`` up to rounding.  Finer rules (or non-uniform nodes)
    can be supplied directly through :class:`SpaceDescriptor`.
    """
    if n < 2:
        raise InvalidDimension(f"trapezoid rule needs n >= 2, got {n}")
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise NonFiniteInput("interval endpoints must be finite")
    if lo >= hi:
        raise InvalidInterval(f"need lo < hi, got [{lo}, {hi}]")
    h = (hi - lo) / (n - 1)
    weights = np.full(n, h)
    weights[0] = weights[-1] = h / 2.0
    return SpaceDescriptor(QUADRATURE, _frozen(weights), np.linspace(lo, hi, n))


def sample_function(space: SpaceDescriptor, f: Callable[[float], complex]) -> np.ndarray:
    """Evaluate f at every quadrature node, in node order."""
    if space.kind != QUADRATURE:
        raise InvalidInterval("sample_function requires a quadrature space")
    out = np.empty(space.dim, dtype=np.complex128)
    for i, x in enumerate(space.nodes):
        v = complex(f(float(x)))
        if not (np.isfinite(v.real) and np.isfinite(v.imag)):
            raise NonFiniteInput(f"function value non-finite at node {x}")
        out[i] = v
    return out
