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
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size < 1:
            raise InvalidDimension("weights must be a nonempty 1-D array")
        bad = np.flatnonzero(~(np.isfinite(w) & (w > 0.0)))
        if bad.size:
            raise NonPositiveWeight(int(bad[0]), float(w[bad[0]]))
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        if self.kind == QUADRATURE:
            if self.nodes is None:
                raise InvalidInterval("quadrature space requires nodes")
            x = np.asarray(self.nodes, dtype=np.float64)
            if x.shape != w.shape:
                raise InvalidDimension("nodes and weights must have equal length")
            if not np.isfinite(x).all():
                raise NonFiniteInput("quadrature nodes must be finite")
            if np.any(np.diff(x) <= 0.0):
                raise InvalidInterval("quadrature nodes must be strictly increasing")
            x.setflags(write=False)
            object.__setattr__(self, "nodes", x)
        elif self.nodes is not None:
            raise InvalidInterval(f"{self.kind} space must not carry nodes")

    @property
    def dim(self) -> int:
        return int(self.weights.size)


def make_dense(dim: int) -> SpaceDescriptor:
    """Euclidean space of the given dimension (unit weights)."""
    if dim < 1:
        raise InvalidDimension(f"dim must be >= 1, got {dim}")
    return SpaceDescriptor(DENSE, np.ones(dim))


def make_weighted(weights) -> SpaceDescriptor:
    """Coordinate space with the given strictly positive weights."""
    return SpaceDescriptor(WEIGHTED, np.atleast_1d(np.asarray(weights, dtype=np.float64)))


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
    nodes = np.linspace(lo, hi, n)
    h = (hi - lo) / (n - 1)
    weights = np.full(n, h)
    weights[0] = weights[-1] = h / 2.0
    return SpaceDescriptor(QUADRATURE, weights, nodes)


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
