"""Randomized verification of the closed-form results.

Each check samples random vectors from a seeded generator, measures how
badly (if at all) the claimed inequality or optimality is violated, and
returns a :class:`VerificationReport`.  Violations are recorded in the
scaled form ``residual / (1 + magnitude)`` so one tolerance works across
input scales.  Identical inputs and seed produce bitwise-identical reports.
"""

from __future__ import annotations

import contextvars
import itertools
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import core
from .core import DEFAULT_SEED, DEFAULT_TOL, DEFAULT_TRIALS, Tolerances
from .errors import DegenerateSample, GramOverflow
from .spaces import SpaceDescriptor

# Squared-norm floor below which a projected draw counts as degenerate.
_DEGENERATE_NORM_SQ = 1e-20
_MAX_RETRIES = 100
# The sampling checks draw their trials in consecutive row blocks of at most
# _BLOCK_ELEMS complex elements (1 MiB per array), so memory stays flat in
# trials, and score each block in buffers they allocate once per call: freed
# temporaries of block size go back to the OS and fault in again on the next call.
_BLOCK_ELEMS = 1 << 16
# Written into every `verify` report line.  The draw order fixes the per-seed
# output, so changing it bumps this and older replay files are refused.
HARNESS_FORMAT = 2

# verify_all emits reports in exactly this order.
CHECK_ORDER = (
    "bound_dominance",
    "min_norm_optimality",
    "deflated_schwarz",
    "scale_covariance",
    "real_consistency",
)


@dataclass
class VerificationReport:
    check_name: str
    trials: int
    worst_violation: float
    tolerance: float
    passed: bool
    witness: Optional[np.ndarray] = None
    skipped: bool = False
    note: str = ""
    bound: Optional[float] = None
    value: Optional[float] = None

    def to_dict(self) -> dict:
        d = {
            "check": self.check_name,
            "trials": self.trials,
            "worst_violation": self.worst_violation,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "skipped": self.skipped,
        }
        if self.witness is not None:
            d["witness"] = np.column_stack((self.witness.real, self.witness.imag)).tolist()
        if self.note:
            d["note"] = self.note
        if self.bound is not None:
            d["bound"] = self.bound
        if self.value is not None:
            d["value"] = self.value
        return d


def _report(check: str, trials: int, worst, tolerance: float, **fields) -> VerificationReport:
    """Report of a check that passes when its worst scaled violation is within tolerance."""
    return VerificationReport(check, trials, float(worst), tolerance, bool(worst <= tolerance), **fields)


def _skipped(check: str, tol: Tolerances, note: str) -> VerificationReport:
    return VerificationReport(check, 0, 0.0, tol.rel_eps, True, skipped=True, note=note)


def _draw(rng: np.random.Generator, shape, real: bool, out=None, f=None) -> np.ndarray:
    """Standard-normal real parts, then (complex mode) imaginary parts; drawn
    into out through the float buffer f when these are given."""
    z = np.empty(shape, dtype=np.complex128) if out is None else out
    z.real = rng.standard_normal(shape, out=f)
    z.imag = 0.0 if real else rng.standard_normal(shape, out=f)
    return z


def _block_rows(trials: int, dim: int):
    """Row counts of the consecutive blocks that cover `trials` trials."""
    rows = max(1, _BLOCK_ELEMS // dim)
    return [min(rows, trials - start) for start in range(0, trials, rows)]


def _buffers(trials: int, dim: int, blocks: int):
    """A check's per-call buffers: `blocks` complex blocks, then the float
    block that draws go through and that squared moduli reuse."""
    rows = _block_rows(max(trials, 1), dim)[0]
    return [np.empty((rows, dim), complex) for _ in range(blocks)] + [np.empty((rows, dim))]


def _usable_draws(space: SpaceDescriptor, rng, u, nsq, real: bool, t, f, against=None) -> None:
    """Fill the block u with draws (through f), projected against a when against
    = (a, ||a||^2) is given, and nsq with their squared norms, on the buffers t
    and f.  Rows under the degenerate floor are redrawn, up to the retry cap."""
    v, vsq, bad = u, nsq, None
    for _ in range(_MAX_RETRIES):
        _draw(rng, v.shape, real, v, f if bad is None else None)
        if against is not None:
            core._project_rows(space.weights, v, *against, out=v, t=t[: len(v)])
        vsq[:] = core._norm_sq_rows(space.weights, v, r=f[: len(v)])
        if bad is not None:
            u[bad], nsq[bad] = v, vsq
        bad = nsq < _DEGENERATE_NORM_SQ
        if not np.any(bad):
            return
        v, vsq = np.empty((int(bad.sum()), space.dim), dtype=np.complex128), np.empty(int(bad.sum()))
    raise DegenerateSample(f"no usable draw in {_MAX_RETRIES} attempts (dim too small or pathological a)")


def _feasible_batch(space: SpaceDescriptor, against, rng, real: bool, u, t, f) -> np.ndarray:
    """Fill the block u with unit rows orthogonal to a, against = (a, ||a||^2)."""
    nsq = np.empty(len(u))
    _usable_draws(space, rng, u, nsq, real, t, f, against)
    return np.divide(u, np.sqrt(nsq)[:, None], out=u)


def sample_feasible(
    space: SpaceDescriptor,
    a,
    seed: int,
    real: bool = False,
) -> np.ndarray:
    """One random unit vector orthogonal to a.

    Draws standard-normal coordinates (real and imaginary parts; imaginary
    parts zero in real mode), projects out a, renormalizes.  Redraws when
    the projection lands too close to zero, up to a fixed retry cap.
    """
    aa = core.as_vector(space, a, "a")
    na = core._require_nonzero(core._norm_sq_rows(space.weights, aa), "a")
    return _feasible_batch(space, (aa, na), np.random.default_rng(seed), real, *_buffers(1, space.dim, 2))[0]


def verify_bound(
    space: SpaceDescriptor,
    a,
    b,
    trials: int,
    tol: Tolerances = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
    real: bool = False,
) -> VerificationReport:
    """Check |<x,b>|^2 <= bound over random feasible x.

    The extremizer, when it exists, is evaluated as trial 0 so attainment
    is witnessed alongside dominance.
    """
    return _verify_bound(space, core._pair(space, a, b), trials, tol, seed, real)


def _verify_bound(space, pair, trials, tol, seed, real) -> VerificationReport:
    aa, bb, g = pair
    bound = core._bound(g)
    if space.dim == 1 and trials > 0:
        return _skipped("bound_dominance", tol, "no unit vector is orthogonal to a in dimension 1")
    tolerance = tol.rel_eps * (1.0 + bound)
    blocks = []
    if not core._dependent(g, tol):
        blocks.append(core._extremizer(aa, bb, g, tol)[None, :])
    rng = np.random.default_rng(seed)
    block, t, f = _buffers(trials, space.dim, 2)
    samples = (
        _feasible_batch(space, (aa, g.norm_a_sq), rng, real, block[:n], t[:n], f[:n])
        for n in _block_rows(trials, space.dim)
    )
    count, worst, witness = 0, 0.0, None
    for xs in itertools.chain(blocks, samples):
        attained = np.abs(core._inner_rows(space.weights, xs, bb, t=t[: len(xs)])) ** 2
        violations = np.maximum(attained - bound, 0.0)
        k = int(np.argmax(violations))
        if witness is None or violations[k] > worst:
            worst, witness = violations[k], xs[k].copy()
        count += len(xs)
    return _report("bound_dominance", count, worst, tolerance, witness=witness, bound=bound)


def verify_min_norm(
    space: SpaceDescriptor,
    a,
    b,
    trials: int,
    tol: Tolerances = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
    real: bool = False,
) -> VerificationReport:
    """Check the min-norm solution's constraints and its optimality.

    Competitors are built as x* + w with w projected against a, then
    against the a-deflated copy of b, then against a once more to scrub
    rounding; x* + w stays feasible, so no competitor may have smaller
    squared norm beyond rounding slack.
    """
    return _verify_min_norm(space, core._pair(space, a, b), trials, tol, seed, real)


def _verify_min_norm(space, pair, trials, tol, seed, real) -> VerificationReport:
    aa, bb, g = pair
    x, value = core._min_norm(aa, bb, g, tol)
    w = space.weights
    na, nb = g.norm_a_sq, g.norm_b_sq
    nx = float(core._norm_sq_rows(w, x))

    res_orth = abs(complex(core._inner_rows(w, x, aa))) / (1.0 + np.sqrt(nx * na))
    res_one = abs(complex(core._inner_rows(w, x, bb)) - 1.0) / (1.0 + np.sqrt(nx * nb))
    res_value = abs(nx - value) / (1.0 + value)
    worst = max(res_orth, res_one, res_value)
    witness = x.copy()

    rng = np.random.default_rng(seed)
    # deflating b against a first keeps the two projections independent;
    # projecting against raw b would undo part of the a projection
    b_perp = core._project_rows(w, bb, aa, na)
    directions = [(aa, na), (b_perp, core._norm_sq_rows(w, b_perp)), (aa, na)]
    block, t, f = _buffers(trials, space.dim, 2)
    for n in _block_rows(trials, space.dim):
        ws = _draw(rng, (n, space.dim), real, block[:n], f[:n])
        for c, nc in directions:
            core._project_rows(w, ws, c, nc, out=ws, t=t[:n])
        # t holds the competitors x + ws
        n_comp = core._norm_sq_rows(w, np.add(x, ws, out=t[:n]), r=f[:n])
        undercut = (nx - n_comp) / (1.0 + nx + core._norm_sq_rows(w, ws, r=f[:n]))
        k = int(np.argmax(undercut))
        if undercut[k] > worst:
            worst, witness = undercut[k], x + ws[k]
    return _report("min_norm_optimality", trials + 1, worst, tol.rel_eps, witness=witness, value=value)


def verify_deflated(
    space: SpaceDescriptor,
    trials: int,
    tol: Tolerances = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
    real: bool = False,
) -> VerificationReport:
    """Check the deflated Schwarz inequality and its equality case.

    Per trial: random (z, c, d) must satisfy lhs >= rhs, and a z built as
    (multiple of c) + (multiple of d's component orthogonal to c) must give
    lhs = rhs.  The equality construction carries more cancellation, so its
    slack is 10x rel_eps; its scaled violation is folded into the single
    report figure at 1/10 weight to keep one tolerance.
    """
    if trials <= 0:
        return _report("deflated_schwarz", 0, 0.0, tol.rel_eps, note="no trials requested")
    w = space.weights
    rng = np.random.default_rng(seed)
    z_buf, c_buf, d_buf, t1_buf, t2_buf, t3_buf, f = _buffers(trials, space.dim, 6)
    worst = 0.0
    witness = None
    for n in _block_rows(trials, space.dim):
        t1, t2, t3, r = t1_buf[:n], t2_buf[:n], t3_buf[:n], f[:n]
        z = _draw(rng, (n, space.dim), real, z_buf[:n], r)
        c, nc = c_buf[:n], np.empty(n)
        _usable_draws(space, rng, c, nc, real, t1, r)
        d = _draw(rng, (n, space.dim), real, d_buf[:n], r)
        mu_beta = _draw(rng, (n, 2), real)
        # d becomes its component d_perp orthogonal to c
        dp = core._project_rows(w, d, c, nc, out=d, t=t1, cv=t2)
        ndp = core._norm_sq_rows(w, dp, r=r)
        # Equality case: z in span{c, component of d orthogonal to c}.
        z_eq = np.multiply(mu_beta[:, :1], c, out=t1)
        z_eq += np.multiply(mu_beta[:, 1:], dp, out=t2)
        zp_eq = core._project_rows(w, z_eq, c, nc, out=t1, t=t2, cv=t3)
        lhs_e, rhs_e = core._deflated_sides(w, zp_eq, dp, nc, ndp, r=r, t=t1, cv=t2)
        zp = core._project_rows(w, z, c, nc, out=t1, t=t1, cv=t2)
        lhs, rhs = core._deflated_sides(w, zp, dp, nc, ndp, r=r, t=t1, cv=t2)
        # v[i] holds trial i's two scaled violations, so that argmax over the
        # raveled v meets the trials in the order they ran
        v = np.column_stack(
            (np.maximum(rhs - lhs, 0.0) / (1.0 + lhs), np.abs(lhs_e - rhs_e) / (10.0 * (1.0 + lhs_e)))
        )
        i, eq = divmod(int(np.argmax(v)), 2)
        if v[i, eq] > worst:
            worst, witness = v[i, eq], mu_beta[i, :1] * c[i] + mu_beta[i, 1:] * d[i] if eq else z[i].copy()
    return _report(
        "deflated_schwarz", trials, worst, tol.rel_eps, witness=witness,
        note="equality-case slack is 10x rel_eps, folded in at 1/10 weight",
    )


def _verify_scale_covariance(space, pair, tol: Tolerances, real: bool) -> VerificationReport:
    """bound(s*a, b) = bound(a, b) and bound(a, t*b) = |t|^2 bound(a, b)."""
    aa, bb, g = pair
    bound = core._bound(g)
    scalars = [2.0, -3.0, 0.5]
    if not real:
        scalars += [1j, 1.0 + 2.0j]
    worst = 0.0
    witness = aa
    # determinant rounding scales with ||a||^2 ||b||^2, so the bound's
    # rounding scales with ||b||^2 even when the bound itself is tiny
    scale = 1.0 + bound + g.norm_b_sq
    for s in scalars:
        sa = s * aa
        try:
            va = abs(core._bound(core._gram(space.weights, sa, bb)) - bound)
            vb = abs(core._bound(core._gram(space.weights, aa, s * bb)) - abs(s) ** 2 * bound)
        except GramOverflow as exc:
            raise GramOverflow(f"scale covariance check, scale {s}: {exc}") from exc
        v = max(va, vb / (abs(s) ** 2)) / scale
        if v > worst:
            worst = v
            witness = sa
    return _report("scale_covariance", len(scalars), worst, tol.rel_eps, witness=witness)


def _verify_real_consistency(space, pair, tol: Tolerances) -> VerificationReport:
    """On real inputs the extremizer must equal the explicit real formula
    (b_k ||a||^2 - a_k <a,b>) / (||a|| sqrt(det)) with the + sign."""
    aa, bb, g = pair
    if aa.imag.any() or bb.imag.any():
        return _skipped("real_consistency", tol, "complex inputs")
    if core._dependent(g, tol):
        return _skipped("real_consistency", tol, "dependent vectors")
    x = core._extremizer(aa, bb, g, tol)
    explicit = (bb.real * g.norm_a_sq - aa.real * g.inner_ab.real) / (
        np.sqrt(g.norm_a_sq) * np.sqrt(g.det)
    )
    worst = np.max(np.abs(x - explicit)) / (1.0 + np.max(np.abs(explicit)))
    return _report("real_consistency", 1, worst, tol.rel_eps, witness=x)


def verify_all(
    space: SpaceDescriptor,
    a,
    b,
    trials: int = DEFAULT_TRIALS,
    tol: Tolerances = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
    real: bool = False,
) -> List[VerificationReport]:
    """Run every check, in the fixed order given by CHECK_ORDER.

    Checks whose preconditions fail (dimension 1 for the bound check,
    dependent vectors for the min-norm problem, complex inputs for the
    real-consistency check) come back as skipped entries, not errors.
    """
    # imported here: concurrent.futures loads logging, which `import orthobound.cli` need not
    from concurrent.futures import ThreadPoolExecutor

    pair = core._pair(space, a, b)
    # The deflated check shares nothing with the other two, and numpy releases
    # the GIL while it draws and computes, so it runs on a second thread, in a
    # copy of the caller's context, which holds its np.errstate.  Its error, if
    # any, is raised after the other checks; leaving the block joins it.
    with ThreadPoolExecutor(max_workers=1) as pool:
        run = contextvars.copy_context().run
        deflated = pool.submit(run, verify_deflated, space, trials, tol, seed + 2, real)
        reports = [_verify_bound(space, pair, trials, tol, seed, real)]
        if core._dependent(pair[2], tol):
            reports.append(_skipped("min_norm_optimality", tol, "dependent vectors"))
        else:
            reports.append(_verify_min_norm(space, pair, trials, tol, seed + 1, real))
        reports.append(deflated.result())
    reports.append(_verify_scale_covariance(space, pair, tol, real))
    reports.append(_verify_real_consistency(space, pair, tol))
    return reports
