"""Extremal bounds for inner products under orthogonality constraints.

Given two independent vectors a, b in a finite weighted inner-product
space, this package computes the exact supremum of |<x,b>|^2 over unit x
orthogonal to a, the vector attaining it, and the dual minimum-norm
solution of <x,a> = 0, <x,b> = 1 — plus a seeded randomized harness that
checks every claim against brute-force sampling.
"""

from .core import (
    DEFAULT_TOL,
    GramSummary,
    Tolerances,
    deflated_schwarz,
    extremizer,
    gram2,
    inner,
    min_norm_solution,
    norm_sq,
    ostrowski_bound,
    project_out,
    schwarz_gap,
)
from .errors import (
    DegenerateSample,
    DependentVectors,
    DimensionMismatch,
    GramOverflow,
    InvalidDimension,
    InvalidInterval,
    NonFiniteInput,
    NonPositiveWeight,
    OrthoboundError,
    ZeroVector,
)
from .spaces import (
    SpaceDescriptor,
    make_dense,
    make_weighted,
    sample_function,
    trapezoid_rule,
)
from .verify import (
    CHECK_ORDER,
    VerificationReport,
    sample_feasible,
    verify_all,
    verify_bound,
    verify_deflated,
    verify_min_norm,
)

__version__ = "0.1.0"

__all__ = [
    "CHECK_ORDER",
    "DEFAULT_TOL",
    "DegenerateSample",
    "DependentVectors",
    "DimensionMismatch",
    "GramOverflow",
    "GramSummary",
    "InvalidDimension",
    "InvalidInterval",
    "NonFiniteInput",
    "NonPositiveWeight",
    "OrthoboundError",
    "SpaceDescriptor",
    "Tolerances",
    "VerificationReport",
    "ZeroVector",
    "deflated_schwarz",
    "extremizer",
    "gram2",
    "inner",
    "make_dense",
    "make_weighted",
    "min_norm_solution",
    "norm_sq",
    "ostrowski_bound",
    "project_out",
    "sample_feasible",
    "sample_function",
    "schwarz_gap",
    "trapezoid_rule",
    "verify_all",
    "verify_bound",
    "verify_deflated",
    "verify_min_norm",
]
