"""Closed-form operations on weighted inner-product spaces.

The inner product is linear in the first slot and conjugate-linear in the
second.  Everything here is a pure function of its inputs; vectors come in
as array-likes and are handled internally as complex128 arrays.

The central quantity is the 2x2 Gram determinant
``det = ||a||^2 ||b||^2 - |<a,b>|^2``, which is nonnegative by the Schwarz
inequality and zero exactly when a and b are proportional.  From it come:

* ``ostrowski_bound``: the exact supremum of ``|<x,b>|^2`` over unit x
  orthogonal to a, equal to ``det / ||a||^2``;
* ``extremizer``: the feasible vector attaining that supremum;
* ``min_norm_solution``: the smallest-norm x with ``<x,a> = 0, <x,b> = 1``,
  with optimal squared norm ``||a||^2 / det``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import DependentVectors, DimensionMismatch, NonFiniteInput, ZeroVector
from .spaces import SpaceDescriptor


@dataclass(frozen=True)
class Tolerances:
    """Numerical slack knobs.

    ``rel_eps`` scales rounding slack in inequality and residual checks;
    ``dependence_eps`` is the relative Gram-determinant threshold below
    which a pair of vectors is treated as linearly dependent.
    """

    rel_eps: float = 1e-9
    dependence_eps: float = 1e-12

    def __post_init__(self):
        for name in ("rel_eps", "dependence_eps"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise ValueError(f"{name} must lie in (0, 1), got {v!r}")


DEFAULT_TOL = Tolerances()


@dataclass(frozen=True)
class GramSummary:
    """The triple (||a||^2, ||b||^2, <a,b>) and the derived Gram determinant.

    ``det`` is clamped to 0 when rounding drives it slightly negative;
    a genuinely negative value is impossible by Schwarz.
    """

    norm_a_sq: float
    norm_b_sq: float
    inner_ab: complex
    det: float


def as_vector(space: SpaceDescriptor, u, name: str = "vector") -> np.ndarray:
    """Validate an array-like against the space and return it as complex128."""
    v = np.asarray(u, dtype=np.complex128)
    if v.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-D, got shape {v.shape}")
    if v.size != space.dim:
        raise DimensionMismatch(
            f"{name} has length {v.size}, space has dimension {space.dim}"
        )
    if not np.all(np.isfinite(v)):
        raise NonFiniteInput(f"{name} contains NaN or Inf")
    return v


def _inner_rows(w: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise <u_i, v_i> over the last axis; a 1-D operand broadcasts."""
    return np.sum(w * u * np.conj(v), axis=-1)


def _norm_sq_rows(w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Row-wise squared norms over the last axis."""
    return np.sum(w * np.abs(u) ** 2, axis=-1)


def _project_rows(w: np.ndarray, z: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Rows of z minus their components along c (one vector, or one per row)."""
    coef = _inner_rows(w, z, c) / _norm_sq_rows(w, c)
    return z - coef[..., None] * c


def _deflated_schwarz_rows(w, z, c, d) -> Tuple[np.ndarray, np.ndarray]:
    """Row-wise (lhs, rhs) of the deflated Schwarz inequality; see deflated_schwarz."""
    nc = _norm_sq_rows(w, c)
    izc = _inner_rows(w, z, c)
    idc = _inner_rows(w, d, c)
    lhs = (_norm_sq_rows(w, z) * nc - np.abs(izc) ** 2) * (_norm_sq_rows(w, d) * nc - np.abs(idc) ** 2)
    rhs = np.abs(_inner_rows(w, z, d) * nc - izc * np.conj(idc)) ** 2
    return lhs, rhs


def inner(space: SpaceDescriptor, u, v) -> complex:
    """Weighted inner product, linear in u and conjugate-linear in v."""
    uu = as_vector(space, u, "u")
    vv = as_vector(space, v, "v")
    return complex(_inner_rows(space.weights, uu, vv))


def norm_sq(space: SpaceDescriptor, u) -> float:
    """Squared norm; always a nonnegative real."""
    return float(_norm_sq_rows(space.weights, as_vector(space, u, "u")))


def gram2(space: SpaceDescriptor, a, b) -> GramSummary:
    """Gram data of the pair (a, b)."""
    na = norm_sq(space, a)
    nb = norm_sq(space, b)
    iab = inner(space, a, b)
    det = na * nb - abs(iab) ** 2
    if det < 0.0:
        det = 0.0
    return GramSummary(na, nb, iab, det)


def schwarz_gap(space: SpaceDescriptor, u, v) -> float:
    """||u||^2 ||v||^2 - |<u,v>|^2, the Gram determinant of gram2 (so clamped
    at 0 when rounding or underflow drives it negative); zero iff u and v are
    proportional."""
    return gram2(space, u, v).det


def ostrowski_bound(space: SpaceDescriptor, a, b) -> float:
    """Supremum of |<x,b>|^2 over unit x with <x,a> = 0."""
    g = gram2(space, a, b)
    if g.norm_a_sq == 0.0:
        raise ZeroVector("zero vector a")
    return g.det / g.norm_a_sq

def _require_independent(g: GramSummary, tol: Tolerances) -> None:
    if g.norm_a_sq == 0.0:
        raise ZeroVector("zero vector a")
    if g.det <= tol.dependence_eps * g.norm_a_sq * g.norm_b_sq:
        raise DependentVectors(
            "a and b are numerically linearly dependent "
            f"(det={g.det:.3e}, threshold={tol.dependence_eps:.1e} * ||a||^2 ||b||^2)"
        )


def extremizer(space: SpaceDescriptor, a, b, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Unit vector orthogonal to a that attains the Ostrowski bound.

    Returns ``x = nu * (b - (conj(<a,b>) / ||a||^2) * a)`` with the scale
    ``nu = ||a|| / sqrt(det)`` taken real and positive, which makes the
    output deterministic (any unit-modulus rotation is equally extremal).
    """
    aa = as_vector(space, a, "a")
    bb = as_vector(space, b, "b")
    g = gram2(space, aa, bb)
    _require_independent(g, tol)
    resid = bb - (np.conj(g.inner_ab) / g.norm_a_sq) * aa
    nu = np.sqrt(g.norm_a_sq / g.det)
    return nu * resid


def min_norm_solution(
    space: SpaceDescriptor, a, b, tol: Tolerances = DEFAULT_TOL
) -> Tuple[np.ndarray, float]:
    """Smallest-norm x with <x,a> = 0 and <x,b> = 1, plus its squared norm.

    The closed form is ``x = (||a||^2 * b - <b,a> * a) / det`` with optimal
    value ``||a||^2 / det``; both constraints hold by direct expansion of
    the Gram data, over the reals and the complexes alike.
    """
    aa = as_vector(space, a, "a")
    bb = as_vector(space, b, "b")
    g = gram2(space, aa, bb)
    _require_independent(g, tol)
    x = (g.norm_a_sq * bb - np.conj(g.inner_ab) * aa) / g.det
    return x, g.norm_a_sq / g.det


def project_out(space: SpaceDescriptor, z, c) -> np.ndarray:
    """Component of z orthogonal to c: ``z - (<z,c> / ||c||^2) * c``."""
    zz = as_vector(space, z, "z")
    cc = as_vector(space, c, "c")
    if norm_sq(space, cc) == 0.0:
        raise ZeroVector("zero vector c")
    return _project_rows(space.weights, zz, cc)


def deflated_schwarz(space: SpaceDescriptor, z, c, d) -> Tuple[float, float]:
    """Both sides of the Schwarz inequality applied after deflating by c.

    Returns ``(lhs, rhs)`` with
    ``lhs = (||z||^2 ||c||^2 - |<z,c>|^2) * (||d||^2 ||c||^2 - |<d,c>|^2)``
    and ``rhs = |<z,d> ||c||^2 - <z,c> <c,d>|^2``.  The contract is
    ``lhs >= rhs`` up to rounding; equality holds when z is a combination
    of c and the component of d orthogonal to c.
    """
    zz = as_vector(space, z, "z")
    cc = as_vector(space, c, "c")
    dd = as_vector(space, d, "d")
    if norm_sq(space, cc) == 0.0:
        raise ZeroVector("zero vector c")
    lhs, rhs = _deflated_schwarz_rows(space.weights, zz, cc, dd)
    return float(lhs), float(rhs)
