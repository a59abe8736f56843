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

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import DependentVectors, DimensionMismatch, GramOverflow, NonFiniteInput, ZeroVector
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
# Defaults of verify_all, which the `verify` subcommand shares.
DEFAULT_TRIALS = 1000
DEFAULT_SEED = 1


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


def as_vector(space: SpaceDescriptor, u, name: str) -> np.ndarray:
    """Validate an array-like against the space and return it as complex128."""
    v = _shaped(space, u, name)
    if not np.isfinite(v).all():
        raise NonFiniteInput(f"{name} contains NaN or Inf")
    return v


def _shaped(space: SpaceDescriptor, u, name: str) -> np.ndarray:
    """u as a complex128 vector of the space's dimension, its entries unchecked."""
    v = np.asarray(u, dtype=np.complex128)
    if v.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-D, got shape {v.shape}")
    if v.size != space.dim:
        raise DimensionMismatch(f"{name} has length {v.size}, space has dimension {space.dim}")
    return v


# pair kernels handle vectors longer than this in pieces of at most this many
# elements (256 KiB complex), so that no call allocates a full-length temporary
_PIECE = 1 << 14


def _piecewise(kernel, w: np.ndarray, *vs: np.ndarray):
    """kernel(w, *vs), a sum over the elements, taken in pieces of at most _PIECE elements."""
    if w.size <= _PIECE:
        return kernel(w, *vs)
    pieces = (slice(i, i + _PIECE) for i in range(0, w.size, _PIECE))
    return np.add.reduce([kernel(w[p], *(v[p] for v in vs)) for p in pieces])  # sum() lost an ulp more at 2^18


def _inner_rows(w: np.ndarray, u: np.ndarray, v: np.ndarray, t=None, cv=None) -> np.ndarray:
    """Row-wise <u_i, v_i> over the last axis; v may be one vector for all rows.
    t and cv, buffers shaped like u, take the products and conj(v) when given."""
    t = np.multiply(w, u, out=t)
    # np.add.reduce is np.sum without its Python wrapper, which costs more
    # than the arithmetic on short rows
    return np.add.reduce(np.multiply(t, np.conj(v, out=cv), out=t), axis=-1)


def _norm_sq_rows(w: np.ndarray, u: np.ndarray, r=None) -> np.ndarray:
    """Row-wise squared norms over the last axis; r, a float buffer shaped
    like u, takes the squared moduli when given."""
    r = np.abs(u, out=r)
    np.square(r, out=r)
    return np.add.reduce(np.multiply(w, r, out=r), axis=-1)


def _project_rows(w: np.ndarray, z: np.ndarray, c: np.ndarray, nc, out=None, t=None, cv=None) -> np.ndarray:
    """Rows of z minus their components along c (one vector, or one per row),
    nc holding the squared norm(s) of c.  out, t and cv are buffers shaped
    like z, as in _inner_rows; out may be z or t, t not z."""
    coef = _inner_rows(w, z, c, t=t, cv=cv) / nc
    return np.subtract(z, np.multiply(coef[..., None], c, out=t), out=out)


def _deflated_sides(w, zp, dp, nc, ndp, r=None, t=None, cv=None) -> Tuple[np.ndarray, np.ndarray]:
    """(lhs, rhs) from the components zp, dp of z and d orthogonal to c and
    the squared norms nc of c and ndp of dp.  The buffers are as in
    _inner_rows and _norm_sq_rows; t may be zp, which is then overwritten."""
    nc2 = nc * nc
    lhs = nc2 * _norm_sq_rows(w, zp, r=r) * ndp
    return lhs, nc2 * np.abs(_inner_rows(w, zp, dp, t=t, cv=cv)) ** 2


def _gram(w: np.ndarray, a: np.ndarray, b: np.ndarray) -> GramSummary:
    """Gram data of vectors of the space's dimension, with det clamped at 0.  Raises
    GramOverflow when ||a||^2, ||b||^2, their product or |<a,b>|^2 is not finite."""
    if w.size <= _PIECE:  # both norms in one reduction, with the bits of two
        na, nb = _norm_sq_rows(w, np.concatenate((a, b)).reshape(2, -1)).tolist()
    else:
        na, nb = (float(_piecewise(_norm_sq_rows, w, v)) for v in (a, b))
    # a NaN or Inf entry gives a non-finite norm; <a,b> is skipped then (inf * 0 warns)
    iab = complex(_piecewise(_inner_rows, w, a, b)) if math.isfinite(na + nb) else math.nan
    iab2 = abs(iab) * abs(iab)
    if not math.isfinite(na * nb + iab2):  # both terms are nonnegative
        raise GramOverflow(
            f"the Gram data of the pair overflows float64 (||a||^2={na:.3e}, ||b||^2={nb:.3e})"
        )
    return GramSummary(na, nb, iab, max(na * nb - iab2, 0.0))


# the Gram data of the last pair of at most _PIECE elements (a longer key would be a
# full-length copy), keyed on the bytes of (weights, a, b): -0.0 is not taken for 0.0 and
# a change made in place is seen; read once and replaced whole, so threads stay apart
_last_pair = ((), None)


def _pair(space: SpaceDescriptor, a, b, names: str = "ab") -> Tuple[np.ndarray, np.ndarray, GramSummary]:
    """Check a and b and build their Gram data, or reuse the last call's on the same bytes.
    A NaN or Inf entry shows as a non-finite norm, so the entries are checked (as_vector
    on a, then b) only after a fault; names are the names of a and b in error messages."""
    global _last_pair
    try:
        aa, bb = _shaped(space, a, names[0]), _shaped(space, b, names[1])
        key = (space.weights.tobytes(), aa.tobytes(), bb.tobytes()) if aa.size <= _PIECE else None
        last_key, g = _last_pair
        if key != last_key:
            g = _gram(space.weights, aa, bb)
            if key:
                _last_pair = key, g
        return aa, bb, g
    except (DimensionMismatch, GramOverflow) as exc:
        fault = exc  # raised after the checks, so that their error does not chain to it
    as_vector(space, a, names[0])
    as_vector(space, b, names[1])
    raise fault


def _require_nonzero(nsq, name: str):
    """nsq, a divisor's squared norm, refused when it is zero or does not fit in float64."""
    if nsq == 0.0:
        raise ZeroVector(f"zero vector {name}")
    if not math.isfinite(nsq):
        raise GramOverflow(f"||{name}||^2 overflows float64")
    return nsq


def _require_finite(result, what: str):
    """result, refused when it holds NaN or Inf: its inputs were finite, so it overflowed."""
    if not np.isfinite(result).all():
        raise GramOverflow(f"{what} overflows float64")
    return result


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
    coef = np.conj(g.inner_ab) / g.norm_a_sq
    nu = np.sqrt(g.norm_a_sq / g.det)
    if b.size <= _PIECE:  # the same bits as the loop, about 3 us a call faster
        return nu * (b - coef * a)
    x, s = np.empty_like(b), np.empty(_PIECE, b.dtype)
    for i in range(0, b.size, _PIECE):
        p, t = slice(i, i + _PIECE), s[: b.size - i]
        np.multiply(nu, np.subtract(b[p], np.multiply(coef, a[p], out=t), out=t), out=x[p])
    return x


def _min_norm(a: np.ndarray, b: np.ndarray, g: GramSummary, tol: Tolerances) -> Tuple[np.ndarray, float]:
    _require_independent(g, tol)
    coef = np.conj(g.inner_ab)
    if b.size <= _PIECE:  # as in _extremizer
        return (g.norm_a_sq * b - coef * a) / g.det, g.norm_a_sq / g.det
    x, s, scale = np.empty_like(b), np.empty(_PIECE, b.dtype), 1.0 / g.det
    for i in range(0, b.size, _PIECE):
        p, t = slice(i, i + _PIECE), s[: b.size - i]
        np.subtract(np.multiply(g.norm_a_sq, b[p], out=x[p]), np.multiply(coef, a[p], out=t), out=t)
        np.multiply(t.view(np.float64), scale, out=x[p].view(np.float64))
    return x, g.norm_a_sq / g.det


def inner(space: SpaceDescriptor, u, v) -> complex:
    """Weighted inner product, linear in u and conjugate-linear in v."""
    uu = as_vector(space, u, "u")
    vv = as_vector(space, v, "v")
    return complex(_require_finite(_piecewise(_inner_rows, space.weights, uu, vv), "<u,v>"))


def norm_sq(space: SpaceDescriptor, u) -> float:
    """Squared norm; always a nonnegative real."""
    n = float(_piecewise(_norm_sq_rows, space.weights, _shaped(space, u, "u")))
    if not math.isfinite(n):  # a NaN or Inf entry, or a square that overflows
        as_vector(space, u, "u")
    return n


def gram2(space: SpaceDescriptor, a, b) -> GramSummary:
    """Gram data of the pair (a, b)."""
    return _pair(space, a, b)[2]


def schwarz_gap(space: SpaceDescriptor, u, v) -> float:
    """||u||^2 ||v||^2 - |<u,v>|^2, the Gram determinant of gram2 (so clamped
    at 0 when rounding or underflow drives it negative); zero iff u and v are
    proportional."""
    return _pair(space, u, v, "uv")[2].det


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
    nc = _require_nonzero(_norm_sq_rows(space.weights, cc), "c")
    return _require_finite(_project_rows(space.weights, zz, cc, nc), "the component of z orthogonal to c")


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
    w = space.weights
    nc = _require_nonzero(_norm_sq_rows(w, cc), "c")
    dp = _project_rows(w, dd, cc, nc)
    sides = _deflated_sides(w, _project_rows(w, zz, cc, nc), dp, nc, _norm_sq_rows(w, dp))
    lhs, rhs = _require_finite(sides, "the deflated Schwarz sides")
    return float(lhs), float(rhs)
