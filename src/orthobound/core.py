"""Closed-form operations on weighted inner-product spaces.

The inner product is linear in the first slot and conjugate-linear in the
second.  Everything here is a pure function of its inputs; vectors come in
as array-likes and are handled internally as complex128 arrays.

The central quantity is the residual ``r = b - (<b,a> / ||a||^2) a`` of b
against a: it is orthogonal to a, and zero exactly when a and b are
proportional.  Its squared norm is the 2x2 Gram determinant
``det = ||a||^2 ||b||^2 - |<a,b>|^2`` over ``||a||^2``, and from it come:

* ``ostrowski_bound``: the exact supremum of ``|<x,b>|^2`` over unit x
  orthogonal to a, equal to ``||r||^2``;
* ``extremizer``: the feasible vector attaining that supremum, ``r / ||r||``;
* ``min_norm_solution``: the smallest-norm x with ``<x,a> = 0, <x,b> = 1``,
  which is ``r / ||r||^2``, with optimal squared norm ``1 / ||r||^2``.
"""

from __future__ import annotations

import cmath
import contextvars
import itertools
import math
import os
import queue
import sys
import threading
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import DependentVectors, DimensionMismatch, GramOverflow, NonFiniteInput, ZeroVector
from .spaces import SpaceDescriptor


@dataclass(frozen=True)
class Tolerances:
    """Numerical slack knobs.

    ``rel_eps`` scales rounding slack in inequality and residual checks;
    a pair is treated as linearly dependent when ``||r||^2``, the squared
    residual of b against a, is at most ``dependence_eps * ||b||^2``.
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

    ``det = ||a||^2 ||b||^2 - |<a,b>|^2`` is taken as ``||a||^2 ||r||^2``,
    with r the residual of b against a, so it never goes negative and does
    not cancel.
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
    if v.shape == space.weights.shape:  # the whole check, unless there is a fault to name
        return v
    if v.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-D, got shape {v.shape}")
    raise DimensionMismatch(f"{name} has length {v.size}, space has dimension {space.dim}")


# pair kernels handle vectors longer than this in pieces of at most this many
# elements (256 KiB complex), so that no call allocates a full-length temporary
_PIECE = 1 << 14
# Lanes of every two-lane pass (_share): the caller and core's one worker thread, or the caller alone when _LANES is 1.
# Its two users gain on 2 vCPUs: verify_all's blocks, where perfbench's harness workload ran 117-121 ops/s on one lane
# and 160-164 on two, though in-process timings put one lane ahead, and a long vector's pieces, where pairs-large
# (dim 2^18) ran 87.7-88.7 ops/s on one lane and 133.5-140.3 on two.
_LANES = 2
# the jobs queue of the one worker thread that runs the second lane of every two-lane pass: started by the first
# pass, not at import, and started afresh in a forked child, which has no copy of the thread
_worker = None
_starting = threading.Lock()


def _forget_worker():
    global _worker, _starting
    _worker, _starting = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # not on Windows, which has no fork
    os.register_at_fork(after_in_child=_forget_worker)


def _work(jobs: queue.SimpleQueue):
    while True:  # each job catches its errors, so the thread runs until the process ends
        jobs.get()()


def _jobs() -> queue.SimpleQueue:
    global _worker
    with _starting:
        if _worker is None:
            _worker = queue.SimpleQueue()
            threading.Thread(target=_work, args=(_worker,), daemon=True).start()
        return _worker


def _share(lane, size: int, start: int = 0) -> list:
    """[item(i) for i in range(start, size)], each lane making its own item = lane(): the caller's lane and, unless
    _LANES is 1 or one item is left, the worker's at once, in a copy of the caller's context (np.errstate too), each
    taking the next item in turn until none is left or one has failed.  A lane runs each item it takes and records
    its error, Ctrl-C's too, so every item below a failed one runs; the lowest item's error is raised once the
    worker's item in flight is done.  A job never waits on another, so callers share the worker; the caller waits
    for it, unless the worker has not started by then, and then never will."""
    claims, errors, results = itertools.count(start), [], [None] * size

    def run():
        i = -1
        try:  # nothing may escape into the worker's loop, which would end the thread
            item = lane()
            while not errors:
                i = next(claims)  # one C call, atomic under the GIL: no two lanes take the same item
                if i >= size:
                    return
                results[i] = item(i)
        except BaseException as exc:
            errors.append((i, exc))

    if _LANES < 2 or size - start < 2:  # the caller would take the one item before the worker woke
        run()
    else:
        context, gate = contextvars.copy_context(), threading.Lock()

        def job():
            if gate.acquire(blocking=False):  # else the caller has shut it out
                try:
                    context.run(run)
                finally:
                    gate.release()

        _jobs().put(job)
        run()
        gate.acquire()  # waits while the worker runs, or shuts it out; no item is left, so a Ctrl-C here ends it
    if errors:
        raise min(errors, key=lambda error: error[0])[1]
    return results[start:]


def _pieces(fn, size: int, start: int = 0) -> list:
    """[fn(p) for the slices p of range(start, size) of _PIECE elements], in order: the caller runs the first piece
    alone (a fault there is raised before the worker is asked), and _share runs the rest."""
    pieces = [slice(i, i + _PIECE) for i in range(start, size, _PIECE)]
    return [fn(pieces[0])] + _share(lambda: lambda i: fn(pieces[i]), len(pieces), 1)


def _piecewise(kernel, w: np.ndarray, *vs: np.ndarray):
    """kernel(w, *vs), a sum over the elements, taken in pieces of at most _PIECE elements."""
    if w.size <= _PIECE:
        return kernel(w, *vs)
    sums = _pieces(lambda p: kernel(w[p], *(v[p] for v in vs)), w.size)
    return np.add.reduce(sums)  # sum() lost an ulp more at 2^18


def _inner_rows(w: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise <u_i, v_i> over the last axis, summed as (w*u)*conj(v); v may be one vector for all rows."""
    t = np.multiply(w, u)
    # np.add.reduce is np.sum without its Python wrapper, which costs more than the arithmetic on short rows
    return np.add.reduce(np.multiply(t, np.conj(v), out=t), axis=-1)


# The harness's row kernels: np.einsum, one pass and no temporary, and no BLAS, whose bits follow its CPU kernel.
def _weigh(w: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The float form of a direction c (one vector, or one per row) for _dot_rows: (w*c, i*w*c) as floats."""
    wc = np.multiply(w, c)
    return np.stack((wc, 1j * wc), axis=-2).view(np.float64)


def _dot_rows(u: np.ndarray, wc: np.ndarray) -> np.ndarray:
    """Row-wise <u_i, c_i> over the last axis, given wc = _weigh(w, c)."""
    f = np.ascontiguousarray(u).view(np.float64)
    return np.einsum("...j,...kj->...k", f, wc, order="C").view(np.complex128)[..., 0]


def _sq_norm_rows(w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Row-wise squared norms over the last axis, as the harness takes them: w-weighted re^2 + im^2."""
    f = np.ascontiguousarray(u).view(np.float64)
    return np.einsum("...j,...j,j->...", f, f, np.repeat(w, 2))


def _norm_sq_rows(w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Row-wise squared norms over the last axis, as the pair functions take them: w-weighted |u|^2."""
    r = np.abs(u)
    np.square(r, out=r)
    return np.add.reduce(np.multiply(w, r, out=r), axis=-1)


def _project_rows(z: np.ndarray, c: np.ndarray, wc: np.ndarray, nc) -> np.ndarray:
    """Rows of z minus their components along c (one vector, or one per row),
    given wc = _weigh(w, c) and the squared norm(s) nc of c."""
    return z - (_dot_rows(z, wc) / nc)[..., None] * c


def _deflated_sides(nzp, zdp, nc, ndp) -> Tuple[np.ndarray, np.ndarray]:
    """(lhs, rhs) from ||zp||^2 and <zp,dp>, zp and dp the components of z and d orthogonal to c,
    nc = ||c||^2 and ndp = ||dp||^2: lhs = nc^2 ||zp||^2 ndp, rhs = nc^2 |<zp,dp>|^2."""
    nc2 = nc * nc
    return nc2 * nzp * ndp, nc2 * np.abs(zdp) ** 2


# A pair's Gram data and b's residual r = b - coef*a against a, coef = conj(<a,b>)/||a||^2 (0 for a zero a),
# so that <r,a> = 0
_Pair = namedtuple("_Pair", "norm_a_sq norm_b_sq inner_ab norm_r_sq r")


def _overflow(na: float, nb: float) -> GramOverflow:
    return GramOverflow(f"the Gram data of the pair overflows float64 (||a||^2={na:.3e}, ||b||^2={nb:.3e})")


def _gram(w: np.ndarray, a: np.ndarray, b: np.ndarray) -> _Pair:
    """Gram data and residual of vectors of the space's dimension.  Raises GramOverflow
    when ||a||^2, ||b||^2 or coef is not finite."""
    if w.size <= _PIECE:  # both norms in one reduction, with the bits of two
        na, nb = _norm_sq_rows(w, np.array((a, b))).tolist()
    else:
        na, nb = (float(_piecewise(_norm_sq_rows, w, v)) for v in (a, b))
    iab = coef = math.nan  # <a,b> is skipped when a NaN or Inf entry gives a non-finite norm (inf * 0 warns)
    if math.isfinite(na + nb):
        # a short pair skips _piecewise's call: through it, pairs-small ran 2-5% fewer ops/s
        iab = complex(_inner_rows(w, a, b) if w.size <= _PIECE else _piecewise(_inner_rows, w, a, b))
        coef = iab.conjugate() / na if na else 0j
    if not cmath.isfinite(coef):
        raise _overflow(na, nb)
    if w.size <= _PIECE:
        r = b - coef * a
    else:  # piece by piece into r, with no other temporary
        r = np.empty_like(b)
        _pieces(lambda p: np.subtract(b[p], np.multiply(coef, a[p], out=r[p]), out=r[p]), b.size)
    # Pythagoras, ||b||^2 - |<a,b>|^2/||a||^2, while it keeps half of ||b||^2 (<a,b> is not squared: its
    # square may underflow where the answer fits); below that it cancels, and r's own squares are summed
    nr = nb - abs(iab) * abs(coef)
    if nr < 0.5 * nb:
        nr = float(_piecewise(_norm_sq_rows, w, r))
    return _Pair(na, nb, iab, nr, r)


# the Gram data of the last pair of at most _PIECE elements, keyed on the bytes of (weights, a, b),
# and of the last longer pair, held as (the space's weights array, read-only copies of a and b, _Pair):
# its weights are matched by identity (a space's own read-only array, held, so its id is not reused)
# and a and b byte for byte.  So -0.0 is not taken for 0.0 and a change made in place is seen; each
# entry is read once and replaced whole, so threads stay apart
_last_pair = ((), None)
_last_long = None


def _same_bytes(vs, helds) -> bool:
    """Each long u of vs has the bytes of its held contiguous copy, compared a _PIECE at a time: the first piece
    of each on the caller, so a miss mostly stops there, then the rest on both lanes (uint64 views, as == takes
    -0.0 for 0.0; a strided piece is made contiguous first)."""
    def same(p):
        return all(np.array_equal(np.ascontiguousarray(u[p]).view(np.uint64), held[p].view(np.uint64))
                   for u, held in zip(vs, helds))

    return same(slice(0, _PIECE)) and all(_pieces(same, vs[0].size, _PIECE))


def _held_copies(*vs) -> list:
    """Read-only contiguous copies of long vectors, written a piece at a time on both lanes."""
    copies = [np.empty_like(v, order="C") for v in vs]
    _pieces(lambda p: [np.copyto(c[p], v[p]) for c, v in zip(copies, vs)], vs[0].size)
    for c in copies:
        c.flags.writeable = False
    return copies


def _pair(space: SpaceDescriptor, a, b, names: str = "ab") -> Tuple[np.ndarray, np.ndarray, _Pair]:
    """Check a and b and build their Gram data, or reuse the last call's on the same bytes.
    A NaN or Inf entry shows as a non-finite norm, so the entries are checked (as_vector
    on a, then b) only after a fault; names are the names of a and b in error messages."""
    global _last_pair, _last_long
    try:
        aa, bb, w = _shaped(space, a, names[0]), _shaped(space, b, names[1]), space.weights
        if aa.size <= _PIECE:
            key = (w.tobytes(), aa.tobytes(), bb.tobytes())
            last_key, g = _last_pair
            if key != last_key:
                g = _gram(w, aa, bb)
                _last_pair = key, g
            return aa, bb, g
        held = _last_long
        if not (held and held[0] is w and _same_bytes((aa, bb), held[1:3])):
            held = _last_long = None  # the old copies are freed before the new ones are made
            aa, bb = _held_copies(aa, bb)
            held = _last_long = w, aa, bb, _gram(w, aa, bb)
        return held[1:]
    except (DimensionMismatch, GramOverflow) as exc:
        fault = exc  # raised after the checks, so that their error does not chain to it
    as_vector(space, a, names[0])
    as_vector(space, b, names[1])
    raise fault


def _summary(g: _Pair) -> GramSummary:
    """The pair's GramSummary, det taken as ||a||^2 ||r||^2; GramOverflow when det does not fit."""
    det = g.norm_a_sq * g.norm_r_sq
    if not math.isfinite(det):
        raise _overflow(g.norm_a_sq, g.norm_b_sq)
    return GramSummary(g.norm_a_sq, g.norm_b_sq, g.inner_ab, det)


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


def _dependent(g: _Pair, tol: Tolerances) -> bool:
    """The dependence rule: ||r||^2 at or below dependence_eps * ||b||^2."""
    return g.norm_r_sq <= tol.dependence_eps * g.norm_b_sq


def _norm_r_sq(g: _Pair, tol: Optional[Tolerances] = None) -> float:
    """||r||^2 as an answer: refused for a zero a, for a dependent pair when tol is given (the vector
    answers divide by it), and when it is subnormal on an independent pair, where 1/||r||^2 overflows.
    A dependent pair's bound lies within rounding of 0, subnormal or not, and is kept."""
    _require_nonzero(g.norm_a_sq, "a")
    dependent = _dependent(g, tol or DEFAULT_TOL)
    if dependent and tol is not None:
        raise DependentVectors(f"a and b are numerically linearly dependent (||r||^2={g.norm_r_sq:.3e}, "
                               f"threshold={tol.dependence_eps:.1e} * ||b||^2)")
    if g.norm_r_sq < sys.float_info.min and not dependent:
        raise GramOverflow(f"||r||^2={g.norm_r_sq:.3e}, the squared residual of b against a, underflows float64")
    return g.norm_r_sq


def _residual(g: _Pair, scale: float) -> np.ndarray:
    """scale * r for a real scale; beyond _PIECE elements written a piece at a time into one array."""
    s, r = complex(scale), g.r  # numpy casts a real scalar to complex anyway, at more cost
    if r.size <= _PIECE:
        return r * s
    x = np.empty_like(r)
    _pieces(lambda p: np.multiply(r[p], s, out=x[p]), r.size)
    return x


def _extremizer(g: _Pair, tol: Tolerances) -> np.ndarray:
    return _residual(g, 1.0 / math.sqrt(_norm_r_sq(g, tol)))


def _min_norm(g: _Pair, tol: Tolerances) -> Tuple[np.ndarray, float]:
    value = 1.0 / _norm_r_sq(g, tol)
    return _residual(g, value), value


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
        raise GramOverflow("||u||^2 overflows float64")
    return n


def gram2(space: SpaceDescriptor, a, b) -> GramSummary:
    """Gram data of the pair (a, b)."""
    return _summary(_pair(space, a, b)[2])


def schwarz_gap(space: SpaceDescriptor, u, v) -> float:
    """||u||^2 ||v||^2 - |<u,v>|^2, the Gram determinant of gram2 (taken as
    ||u||^2 ||r||^2, so never negative); zero iff u and v are proportional."""
    return _summary(_pair(space, u, v, "uv")[2]).det


def ostrowski_bound(space: SpaceDescriptor, a, b) -> float:
    """Supremum of |<x,b>|^2 over unit x with <x,a> = 0: ||r||^2."""
    return _norm_r_sq(_pair(space, a, b)[2])


def extremizer(space: SpaceDescriptor, a, b, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Unit vector orthogonal to a that attains the Ostrowski bound.

    Returns ``x = r / ||r||``, the residual ``r = b - (conj(<a,b>) / ||a||^2) * a``
    scaled by the real positive ``1 / ||r||``, which makes the output
    deterministic (any unit-modulus rotation is equally extremal).
    """
    return _extremizer(_pair(space, a, b)[2], tol)


def min_norm_solution(space: SpaceDescriptor, a, b, tol: Tolerances = DEFAULT_TOL) -> Tuple[np.ndarray, float]:
    """Smallest-norm x with <x,a> = 0 and <x,b> = 1, plus its squared norm.

    The closed form is ``x = r / ||r||^2`` with optimal value ``1 / ||r||^2``:
    r is orthogonal to a, and ``<r,b> = <r,r>``, over the reals and the
    complexes alike.  Any other feasible x adds a part orthogonal to r.
    """
    return _min_norm(_pair(space, a, b)[2], tol)


def project_out(space: SpaceDescriptor, z, c) -> np.ndarray:
    """Component of z orthogonal to c: ``z - (<z,c> / ||c||^2) * c``."""
    zz = as_vector(space, z, "z")
    cc = as_vector(space, c, "c")
    nc = _require_nonzero(_norm_sq_rows(space.weights, cc), "c")
    wc = _weigh(space.weights, cc)
    return _require_finite(_project_rows(zz, cc, wc, nc), "the component of z orthogonal to c")


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
    wc = _weigh(w, cc)
    dp, zp = _project_rows(dd, cc, wc, nc), _project_rows(zz, cc, wc, nc)
    sides = _deflated_sides(_sq_norm_rows(w, zp), _dot_rows(zp, _weigh(w, dp)), nc, _norm_sq_rows(w, dp))
    lhs, rhs = _require_finite(sides, "the deflated Schwarz sides")
    return float(lhs), float(rhs)
