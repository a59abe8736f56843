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


def _project_rows(w: np.ndarray, z: np.ndarray, c: np.ndarray, nc=None) -> np.ndarray:
    """Rows of z minus their components along c (one vector, or one per row);
    nc, when given, holds the squared norm(s) of c."""
    if nc is None:
        nc = _norm_sq_rows(w, c)
    coef = _inner_rows(w, z, c) / nc
    return z - coef[..., None] * c


def _deflated_schwarz_rows(w, z, c, d) -> Tuple[np.ndarray, np.ndarray]:
    """Row-wise (lhs, rhs) of the deflated Schwarz inequality; see deflated_schwarz."""
    nc = _norm_sq_rows(w, c)
    return _deflated_sides(w, _project_rows(w, z, c, nc), _project_rows(w, d, c, nc), nc)


def _deflated_sides(w, zp, dp, nc) -> Tuple[np.ndarray, np.ndarray]:
    """(lhs, rhs) from the components zp, dp of z and d orthogonal to c and
    the squared norm(s) nc of c."""
    nc2 = nc * nc
    return nc2 * _norm_sq_rows(w, zp) * _norm_sq_rows(w, dp), nc2 * np.abs(_inner_rows(w, zp, dp)) ** 2


def _gram(w: np.ndarray, a: np.ndarray, b: np.ndarray) -> GramSummary:
    """Gram data of validated vectors, with det clamped at 0."""
    na = float(_norm_sq_rows(w, a))
    nb = float(_norm_sq_rows(w, b))
    iab = complex(_inner_rows(w, a, b))
    return GramSummary(na, nb, iab, max(na * nb - abs(iab) ** 2, 0.0))


def _pair(space: SpaceDescriptor, a, b) -> Tuple[np.ndarray, np.ndarray, GramSummary]:
    """Validate a and b once each and build their Gram data."""
    aa = as_vector(space, a, "a")
    bb = as_vector(space, b, "b")
    return aa, bb, _gram(space.weights, aa, bb)


def _require_nonzero(nsq, name: str) -> None:
    if nsq == 0.0:
        raise ZeroVector(f"zero vector {name}")


def _dependent(g: GramSummary, tol: Tolerances) -> bool:
    """The dependence rule: det at or below dependence_eps * ||a||^2 ||b||^2."""
    return g.det <= tol.dependence_eps * g.norm_a_sq * g.norm_b_sq


def _require_independent(g: GramSummary, tol: Tolerances) -> None:
    _require_nonzero(g.norm_a_sq, "a")
    if _dependent(g, tol):
        raise DependentVectors(
            "a and b are numerically linearly dependent "
            f"(det={g.det:.3e}, threshold={tol.dependence_eps:.1e} * ||a||^2 ||b||^2)"
        )


def _bound(g: GramSummary) -> float:
    _require_nonzero(g.norm_a_sq, "a")
    return g.det / g.norm_a_sq


def _extremizer(a: np.ndarray, b: np.ndarray, g: GramSummary, tol: Tolerances) -> np.ndarray:
    _require_independent(g, tol)
    resid = b - (np.conj(g.inner_ab) / g.norm_a_sq) * a
    nu = np.sqrt(g.norm_a_sq / g.det)
    return nu * resid


def _min_norm(a: np.ndarray, b: np.ndarray, g: GramSummary, tol: Tolerances) -> Tuple[np.ndarray, float]:
    _require_independent(g, tol)
    x = (g.norm_a_sq * b - np.conj(g.inner_ab) * a) / g.det
    return x, g.norm_a_sq / g.det


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
    return _pair(space, a, b)[2]


def schwarz_gap(space: SpaceDescriptor, u, v) -> float:
    """||u||^2 ||v||^2 - |<u,v>|^2, the Gram determinant of gram2 (so clamped
    at 0 when rounding or underflow drives it negative); zero iff u and v are
    proportional."""
    return _gram(space.weights, as_vector(space, u, "u"), as_vector(space, v, "v")).det


def ostrowski_bound(space: SpaceDescriptor, a, b) -> float:
    """Supremum of |<x,b>|^2 over unit x with <x,a> = 0."""
    return _bound(_pair(space, a, b)[2])


def extremizer(space: SpaceDescriptor, a, b, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Unit vector orthogonal to a that attains the Ostrowski bound.

    Returns ``x = nu * (b - (conj(<a,b>) / ||a||^2) * a)`` with the scale
    ``nu = ||a|| / sqrt(det)`` taken real and positive, which makes the
    output deterministic (any unit-modulus rotation is equally extremal).
    """
    return _extremizer(*_pair(space, a, b), tol)


def min_norm_solution(
    space: SpaceDescriptor, a, b, tol: Tolerances = DEFAULT_TOL
) -> Tuple[np.ndarray, float]:
    """Smallest-norm x with <x,a> = 0 and <x,b> = 1, plus its squared norm.

    The closed form is ``x = (||a||^2 * b - <b,a> * a) / det`` with optimal
    value ``||a||^2 / det``; both constraints hold by direct expansion of
    the Gram data, over the reals and the complexes alike.
    """
    return _min_norm(*_pair(space, a, b), tol)


def project_out(space: SpaceDescriptor, z, c) -> np.ndarray:
    """Component of z orthogonal to c: ``z - (<z,c> / ||c||^2) * c``."""
    zz = as_vector(space, z, "z")
    cc = as_vector(space, c, "c")
    nc = _norm_sq_rows(space.weights, cc)
    _require_nonzero(nc, "c")
    return _project_rows(space.weights, zz, cc, nc)


def deflated_schwarz(space: SpaceDescriptor, z, c, d) -> Tuple[float, float]:
    """Both sides of the Schwarz inequality applied after deflating by c.

    Returns ``(lhs, rhs)`` with
    ``lhs = (||z||^2 ||c||^2 - |<z,c>|^2) * (||d||^2 ||c||^2 - |<d,c>|^2)``
    and ``rhs = |<z,d> ||c||^2 - <z,c> <c,d>|^2``.  The contract is
    ``lhs >= rhs`` up to rounding; equality holds when z is a combination
    of c and the component of d orthogonal to c.  Both sides are computed
    as ``||c||^4 ||z'||^2 ||d'||^2`` and ``||c||^4 |<z',d'>|^2`` on the
    components z', d' of z and d orthogonal to c, which avoids cancellation.
    """
    zz = as_vector(space, z, "z")
    cc = as_vector(space, c, "c")
    dd = as_vector(space, d, "d")
    _require_nonzero(_norm_sq_rows(space.weights, cc), "c")
    lhs, rhs = _deflated_schwarz_rows(space.weights, zz, cc, dd)
    return float(lhs), float(rhs)
