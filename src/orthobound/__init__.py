"""Extremal bounds for inner products under orthogonality constraints.

Given two independent vectors a, b in a finite weighted inner-product
space, this package computes the exact supremum of |<x,b>|^2 over unit x
orthogonal to a, the vector attaining it, and the dual minimum-norm
solution of <x,a> = 0, <x,b> = 1 — plus a seeded randomized harness that
checks every claim against brute-force sampling.
"""

import importlib

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

# served by __getattr__, which loads orthobound.verify on first use and then
# binds them here, so that later lookups do not reach it
_VERIFY_NAMES = ("CHECK_ORDER", "VerificationReport", "sample_feasible", "verify_all", "verify_bound",
                 "verify_deflated", "verify_min_norm")


def __getattr__(name):
    if name not in _VERIFY_NAMES and name != "verify":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    verify = importlib.import_module(".verify", __name__)  # binds orthobound.verify
    globals().update((n, getattr(verify, n)) for n in _VERIFY_NAMES)
    return globals()[name]
