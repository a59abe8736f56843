"""Randomized verification of the closed-form results.

Each check samples random vectors from a seeded generator, measures how
badly (if at all) the claimed inequality or optimality is violated, and
returns a :class:`VerificationReport`.  Violations are recorded in the
scaled form ``residual / (1 + magnitude)`` so one tolerance works across
input scales.  Identical inputs and seed produce bitwise-identical reports.
The bound, min-norm and deflated checks score one stream of feasible draws, which
``verify_all`` splits by block over two threads; ``verify_deflated`` checks the lemma.
"""

from __future__ import annotations

import contextvars
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import core
from .core import DEFAULT_SEED, DEFAULT_TOL, DEFAULT_TRIALS, Tolerances
from .errors import DegenerateSample, GramOverflow
from .spaces import SpaceDescriptor

# A projected draw is degenerate under this times the least weight (a lone coordinate of 1e-10 on
# it), a floor that scales with w, while scaling a leaves the projected draws as they are.
_DEGENERATE = 1e-20
_MAX_RETRIES = 100
# The sampling checks draw their trials in consecutive row blocks of at most _BLOCK_ELEMS complex
# elements (1 MiB per array), so memory stays flat in trials.  Each lane of verify_all's stream holds two,
# its draws and a scratch block (four in all; format 6 held five): with none held, ops/s fell 53.7 to 42.4.
_BLOCK_ELEMS = 1 << 16
# Lanes of verify_all's stream, the caller and _LANES - 1 workers: dim 1024 took 71 ms on one, 40 on two (2 vCPUs).
_LANES = 2
# Written into every `verify` report line: the draws and the arithmetic that scores them fix its bytes.
HARNESS_FORMAT = 9
_SQRT3 = np.sqrt(3.0)

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
        extras = {"note": self.note or None, "bound": self.bound, "value": self.value}
        d.update((key, v) for key, v in extras.items() if v is not None)
        return d


def _report(check: str, trials: int, worst, tolerance: float, **fields) -> VerificationReport:
    """Report of a check that passes when its worst scaled violation is within tolerance."""
    return VerificationReport(check, trials, float(worst), tolerance, bool(worst <= tolerance), **fields)


def _require_trials(trials: int) -> int:
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials!r}")
    return trials


def _skipped(check: str, tol: Tolerances, note: str) -> VerificationReport:
    return VerificationReport(check, 0, 0.0, tol.rel_eps, True, skipped=True, note=note)


def _draw(rng: np.random.Generator, shape, real: bool, out=None) -> np.ndarray:
    """Unit-variance uniform coordinates on [-sqrt 3, sqrt 3), into out when given: complex
    parts interleaved; real mode imaginary 0."""
    z = np.empty(shape, dtype=np.complex128) if out is None else out
    u = rng.random(shape) if real else rng.random(out=z.view(np.float64))
    np.subtract(np.multiply(u, 2.0 * _SQRT3, out=u), _SQRT3, out=u)
    if real:
        z.real, z.imag = u, 0.0
    return z


def _block_rows(trials: int, dim: int):
    """Row counts of the consecutive blocks that cover `trials` trials."""
    rows = max(1, _BLOCK_ELEMS // dim)
    return [min(rows, trials - start) for start in range(0, trials, rows)]


def _block_rng(seed: int, k: int) -> np.random.Generator:
    """Block k's generator, that of SeedSequence(seed).spawn(n)[k] for any n > k."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))


def _usable_draws(space: SpaceDescriptor, rng, u, real: bool, t, against=None) -> np.ndarray:
    """Fill the block u with draws, projected against a when against = (a, _weigh(w, a),
    ||a||^2) is given, on the buffer t (unread otherwise), and return their squared norms.
    Rows left with under half their drawn squared norm are projected again: "twice is enough"
    (Parlett 1980).  Rows left under the degenerate floor are redrawn, up to the retry cap."""
    w, v, bad, lost = space.weights, u, None, 0.0
    nsq = vsq = np.empty(len(u))
    for _ in range(_MAX_RETRIES):
        _draw(rng, v.shape, real, v)
        if against is not None:  # lost = |<v,a>|^2/||a||^2 <= ||v||^2 fits where ||v||^2 does
            a, wa, na = against
            coef = core._dot_rows(v, wa) / na
            np.subtract(v, np.multiply(coef[:, None], a, out=t[: len(v)]), out=v)
            lost = np.square(np.abs(coef) * np.sqrt(na))
        vsq[:] = core._sq_norm_rows(w, v)
        if np.any(again := vsq < lost / 3.0):  # by Pythagoras, the drawn ||v||^2 is vsq + lost
            v[again] = core._project_rows(v[again], *against)
            vsq[again] = core._sq_norm_rows(w, v[again])
        if bad is not None:
            u[bad], nsq[bad] = v, vsq
        bad = nsq < _DEGENERATE * w.min()
        if not np.any(bad):
            return nsq
        v, vsq = np.empty((int(bad.sum()), space.dim), dtype=np.complex128), np.empty(int(bad.sum()))
    raise DegenerateSample(f"no usable draw in {_MAX_RETRIES} attempts (dim too small or pathological a)")


def sample_feasible(space: SpaceDescriptor, a, seed: int, real: bool = False) -> np.ndarray:
    """One random unit vector orthogonal to a.

    Draws unit-variance uniform coordinates (imaginary parts zero in real mode), projects
    out a, renormalizes, and redraws when the projection lands too close to zero, up to a fixed retry cap.
    """
    w, aa = space.weights, core.as_vector(space, a, "a")
    na = core._require_nonzero(core._norm_sq_rows(w, aa), "a")  # first: w*conj(a) overflows only if this does
    u, t = np.empty((2, 1, space.dim), complex)
    nsq = _usable_draws(space, np.random.default_rng(seed), u, real, t, (aa, core._weigh(w, aa), na))
    return u[0] / np.sqrt(nsq[0])


def verify_bound(space: SpaceDescriptor, a, b, trials: int, tol: Tolerances = DEFAULT_TOL, seed: int = DEFAULT_SEED,
                 real: bool = False) -> VerificationReport:
    """Check |<x,b>|^2 <= bound over random feasible x.

    The extremizer, when it exists, is evaluated as trial 0 so attainment
    is witnessed alongside dominance.  A feasible draw u is scored as
    |<u,b>|^2/||u||^2, without normalising it; only the witness is.
    """
    return _verify_feasible(space, core._pair(space, a, b), trials, tol, seed, real, [_bound_check])[0]


def verify_min_norm(space: SpaceDescriptor, a, b, trials: int, tol: Tolerances = DEFAULT_TOL, seed: int = DEFAULT_SEED,
                    real: bool = False) -> VerificationReport:
    """Check the min-norm solution's constraints and its optimality.

    Competitors are x* + w, w a feasible draw of the bound check's stream for the same seed less its
    component along x*'s direction: x* + w stays feasible, so none may have smaller squared norm beyond
    rounding slack.  A block is scored from two row products, and its worst competitor is formed.
    """
    return _verify_feasible(space, core._pair(space, a, b), trials, tol, seed, real, [_min_norm_check])[0]


def _rank(state):
    """A (violation, witness, block) state's rank: the first worst trial's is highest, nan above any number."""
    v, witness, k = state
    return witness is not None, v != v, v if v == v else 0.0, -k


def _verify_feasible(space, pair, trials, tol, seed, real, checks) -> List[VerificationReport]:
    """The reports of checks on one stream of feasible draws, the same whichever checks read it.  A check
    gives (score, start, report): score(u, ||u||^2, rng), None if skipped, returns the first worst
    (violation, witness) of the block u, which it leaves as it is; report(*worst) takes the worst of start
    and the blocks.  Block k draws from _block_rng(seed, k) on lane k % _LANES, the caller or a worker in
    a copy of its context (with its np.errstate): the first worst over the lanes is one lane's, and the
    error raised the lowest block's, once every lane has stopped."""
    (aa, bb, g), trials = pair, _require_trials(trials)
    a_dir = (aa, core._weigh(space.weights, aa), g.norm_a_sq)
    made = [check(space, pair, trials, tol, real, a_dir) for check in checks]
    scored = [(score, (*start, -1)) for score, start, _ in made if score]
    rows = _block_rows(trials, space.dim) if scored else []

    def lane(first):  # its first worst state per scoring check, and its error as (block, error)
        (u, t), states = np.empty((2, max(rows, default=0), space.dim), complex), [start for _, start in scored]
        for k in range(first, len(rows), _LANES):
            try:
                rng, n = _block_rng(seed, k), rows[k]
                nsq = _usable_draws(space, rng, u[:n], real, t[:n], a_dir)
                scores = [score(u[:n], nsq, rng) for score, _ in scored]
                states = [max(state, (*new, k), key=_rank) for state, new in zip(states, scores)]
            except Exception as exc:
                return states, (k, exc)
        return states, None

    if len(rows) > 1 and _LANES > 1:
        with ThreadPoolExecutor(max_workers=_LANES - 1) as pool:
            workers = [pool.submit(contextvars.copy_context().run, lane, i) for i in range(1, _LANES)]
            outcomes = [lane(0)] + [worker.result() for worker in workers]
    else:
        outcomes = [lane(0)]
    if errors := [error for _, error in outcomes if error]:
        raise min(errors, key=lambda error: error[0])[1]
    worst = iter(max(states, key=_rank)[:2] for states in zip(*(states for states, _ in outcomes)))
    return [report(*next(worst)) if score else report() for score, _, report in made]


def _bound_check(space, pair, trials, tol, real, a_dir):
    aa, bb, g = pair
    bound = core._bound(g)
    if space.dim == 1 and trials > 0:
        return None, None, lambda: _skipped("bound_dominance", tol, "no unit vector is orthogonal to a in dimension 1")
    tolerance = tol.rel_eps * (1.0 + bound)
    wb, extremal = core._weigh(space.weights, bb), not core._dependent(g, tol)

    def score(xs, norms, *_):
        # |<x,b>|^2 at x = u/||u||, squared last: it fits where ||b||^2 does, |<u,b>|^2 may not
        attained = np.square(np.abs(core._dot_rows(xs, wb)) / np.sqrt(norms))
        violations = np.maximum(attained - bound, 0.0)
        k = int(np.argmax(violations))
        return violations[k], xs[k] / np.sqrt(norms[k])

    # the extremizer, unit by construction, is scored as it is
    start = score(core._extremizer(aa, bb, g, tol)[None, :], np.ones(1)) if extremal else (0.0, None)
    return score, start, lambda v, x: _report(
        "bound_dominance", trials + extremal, v, tolerance, witness=x, bound=bound
    )


def _min_norm_check(space, pair, trials, tol, real, a_dir):
    aa, bb, g = pair
    x, value = core._min_norm(aa, bb, g, tol)
    w, na, nb = space.weights, g.norm_a_sq, g.norm_b_sq
    nx = float(core._norm_sq_rows(w, x))
    res_orth = abs(complex(core._inner_rows(w, x, aa))) / (1.0 + np.sqrt(nx * na))
    res_one = abs(complex(core._inner_rows(w, x, bb)) - 1.0) / (1.0 + np.sqrt(nx * nb))
    res_value = abs(nx - value) / (1.0 + value)
    # the steps ws are the draws, orthogonal to a, less their components along x*'s direction r_hat: orthogonal
    # to a and to r, so to b.  r_hat comes from the slot's residual, so that a planted x* cannot steer its own
    # competitors
    r_hat = core._residual(aa, bb, g, 1.0 / np.sqrt(g.norm_r_sq))
    r_dir = (r_hat, core._weigh(w, r_hat), core._sq_norm_rows(w, r_hat))
    undercuts = _competitor_undercuts(w, x, nx, r_dir)

    def competitors(u):  # (undercuts, competitors x + ws), ws being u projected against r_hat, then a
        ws = core._project_rows(core._project_rows(u, *r_dir), *a_dir)
        comps = np.add(x, ws)
        return (nx - core._sq_norm_rows(w, comps)) / (1.0 + nx + core._sq_norm_rows(w, ws)), comps

    def score(u, nsq, _):
        undercut, direct = undercuts(u, nsq)
        if direct.any():
            undercut[direct] = competitors(u[direct])[0]
        k = int(np.argmax(undercut))
        v, comps = competitors(u[k : k + 1])  # the worst row, re-scored as its competitor
        return v[0], comps[0]

    return score, (max(res_orth, res_one, res_value), x.copy()), lambda v, y: _report(
        "min_norm_optimality", trials + 1, v, tol.rel_eps, witness=y, value=value
    )


def _competitor_undercuts(w, x, nx, r_dir):
    """A function of a block u orthogonal to a and its squared norms, to the scaled undercuts of the competitors
    x + ws, ws = u - c1 r_hat with c1 = <u,r_hat>/||r_hat||^2, and the rows to score directly instead.  A block
    costs two row products: ||ws||^2 = ||u||^2 - |c1|^2 ||r_hat||^2 (Pythagoras) and <ws,x> = <u,x> - c1 <r_hat,x>
    give ||x||^2 - ||x + ws||^2 = -(2 Re<ws,x> + ||ws||^2).  Rows are scored directly where Pythagoras cancels,
    leaving under half of ||u||^2, and where 4 (1 + ||x||^2 + ||ws||^2) overflows: there the direct form's
    ||x + ws||^2 <= 2 (||x||^2 + ||ws||^2) may, while below it no figure here can, as |<ws,x>| <= ||ws|| ||x||."""
    r_hat, wr, nr = r_dir
    wx = core._weigh(w, x)
    r_x = core._dot_rows(r_hat, wx)

    def undercuts(u, nsq):
        c1 = core._dot_rows(u, wr) / nr
        nws = nsq - np.square(np.abs(c1) * np.sqrt(nr))
        wsx = core._dot_rows(u, wx) - c1 * r_x
        scale = 1.0 + nx + nws
        undercut = -(2.0 * wsx.real + nws) / scale
        return undercut, ~((nws >= 0.5 * nsq) & np.isfinite(4.0 * scale))

    return undercuts


def _first_worst(lhs, rhs, lhs_e, rhs_e):
    """The first worst scaled violation of a block, with its row and whether it is the equality case's,
    from the sides of the inequality and of its equality case."""
    # v[i] holds trial i's two scaled violations, so that argmax over the
    # raveled v meets the trials in the order they ran
    v = np.column_stack((np.maximum(rhs - lhs, 0.0) / (1.0 + lhs), np.abs(lhs_e - rhs_e) / (10.0 * (1.0 + lhs_e))))
    i, eq = divmod(int(np.argmax(v)), 2)
    return v[i, eq], i, eq


def _deflated_scores(w, z, mu_beta, c, wc, nc, dp, wdp, ndp, t):
    """The first worst scaled violation, with its witness, of the deflated inequality on the rows of z
    and of its equality case on mu*c + beta*dp, (mu, beta) the rows of mu_beta.  Each row has its own c,
    d's component dp orthogonal to c, their _weigh forms and squared norms; t is a scratch block."""
    zp = core._project_rows(z, c, wc, nc, out=t, t=t)
    sides = core._deflated_sides(core._sq_norm_rows(w, zp), core._dot_rows(zp, wdp), nc, ndp)
    # Equality case: mu*c + beta*dp projected against c as mu*c' + beta*dp', c' and dp' projected
    cdp = np.stack((c, dp), axis=-2)
    basis = core._project_rows(cdp, c[:, None], wc[:, None], nc[:, None])
    y = np.einsum("...k,...kj->...j", mu_beta, basis, out=t)
    v, i, eq = _first_worst(*sides, *core._deflated_sides(core._sq_norm_rows(w, y), core._dot_rows(y, wdp), nc, ndp))
    return v, np.einsum("k,kj->j", mu_beta[i], cdp[i]) if eq else z[i].copy()


def _instance_sides(w, cdp):
    """The sides at the instance, c = cdp[0] and dp = cdp[1] orthogonal to it, as a function that takes
    a block z orthogonal to c, its squared norms and its equality-case coefficients mu_beta to
    (lhs, rhs, lhs_e, rhs_e).  A block costs two row products, <z,c> and <z,dp>: z' = z - (<z,c>/||c||^2) c
    has ||z'||^2 = ||z||^2 - |<z,c>|^2/||c||^2 (Pythagoras, which cannot cancel while z is orthogonal to c)
    and <z',dp> = <z,dp> - (<z,c>/||c||^2) <c,dp>.  The equality case's y = mu*c' + beta*dp', c' and dp'
    projected against c once per call, is not formed: ||y||^2 comes from the 2x2 Gram of (c', dp') and
    <y,dp> from their products with dp."""
    c, dp = cdp
    wc, wdp = core._weigh(w, c), core._weigh(w, dp)
    # each direction goes in with its computed squared norm, which is 1 only to rounding
    nc, ndp = core._sq_norm_rows(w, cdp)
    c_dp = core._dot_rows(c, wdp)
    basis = core._project_rows(cdp, c, wc, nc)
    (g11, g22), g12 = core._sq_norm_rows(w, basis), core._dot_rows(basis[0], core._weigh(w, basis[1]))
    basis_dp = core._dot_rows(basis, wdp)

    def sides(z, nz, mu_beta):
        coef = core._dot_rows(z, wc) / nc
        nzp = nz - np.abs(coef) ** 2 * nc
        zdp = core._dot_rows(z, wdp) - coef * c_dp
        mu, beta = mu_beta.T
        ny = np.abs(mu) ** 2 * g11 + 2.0 * (mu * np.conj(beta) * g12).real + np.abs(beta) ** 2 * g22
        ydp = mu * basis_dp[0] + beta * basis_dp[1]
        return (*core._deflated_sides(nzp, zdp, nc, ndp), *core._deflated_sides(ny, ydp, nc, ndp))

    return sides


def _deflated_report(trials: int, tol: Tolerances, worst, witness) -> VerificationReport:
    note = "equality-case slack is 10x rel_eps, folded in at 1/10 weight" if trials else "no trials requested"
    return _report("deflated_schwarz", trials, worst, tol.rel_eps, witness=witness, note=note)


def _deflated_check(space, pair, trials, tol, real, a_dir):
    """The deflated check at the pair, c = a and d = b, on the unit directions of a and of b's component
    orthogonal to a, the extremizer (none for a dependent pair): no figure depends on their scale.
    z is a feasible draw, scored from its two row products (_instance_sides)."""
    aa, bb, g = pair
    if core._dependent(g, tol):
        return None, None, lambda: _skipped("deflated_schwarz", tol, "dependent vectors")
    cdp = np.stack((aa / np.sqrt(g.norm_a_sq), core._extremizer(aa, bb, g, tol)))
    sides = _instance_sides(space.weights, cdp)

    def score(u, nsq, rng):
        # the equality case's coefficients are the block's next draws
        mu_beta = _draw(rng, (len(u), 2), real)
        v, i, eq = _first_worst(*sides(u, nsq, mu_beta))
        return v, np.einsum("k,kj->j", mu_beta[i], cdp) if eq else u[i].copy()

    return score, (0.0, None), lambda v, z: _deflated_report(trials, tol, v, z)


def verify_deflated(space: SpaceDescriptor, trials: int, tol: Tolerances = DEFAULT_TOL, seed: int = DEFAULT_SEED,
                    real: bool = False) -> VerificationReport:
    """Check the deflated Schwarz inequality and its equality case.

    Per trial: random (z, c, d) must satisfy lhs >= rhs, and a z built as
    (multiple of c) + (multiple of d's component orthogonal to c) must give
    lhs = rhs.  The equality construction carries more cancellation, so its
    slack is 10x rel_eps; its scaled violation is folded into the single
    report figure at 1/10 weight to keep one tolerance.
    """
    w, rng, worst = space.weights, np.random.default_rng(seed), (0.0, None, -1)
    for k, n in enumerate(_block_rows(_require_trials(trials), space.dim)):
        z, c = _draw(rng, (n, space.dim), real), np.empty((n, space.dim), complex)
        nc = _usable_draws(space, rng, c, real, None)
        d, mu_beta = _draw(rng, (n, space.dim), real), _draw(rng, (n, 2), real)
        wc = core._weigh(w, c)
        dp = core._project_rows(d, c, wc, nc, out=d)  # d becomes its component orthogonal to c
        fixed = (c, wc, nc, dp, core._weigh(w, dp), core._sq_norm_rows(w, dp))
        worst = max(worst, (*_deflated_scores(w, z, mu_beta, *fixed, np.empty_like(z)), k), key=_rank)
    return _deflated_report(trials, tol, *worst[:2])


def _verify_scale_covariance(space, pair, tol: Tolerances, real: bool) -> VerificationReport:
    """bound(s*a, b) = bound(a, b) and bound(a, t*b) = |t|^2 bound(a, b)."""
    aa, bb, g = pair
    bound = core._bound(g)
    scalars = [2.0, -3.0, 0.5] + ([] if real else [1j, 1.0 + 2.0j])
    worst, witness = 0.0, aa
    # the bound ||b||^2 - |<a,b>|^2/||a||^2 rounds on the scale of ||b||^2,
    # even when the bound itself is tiny
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
            worst, witness = v, sa
    return _report("scale_covariance", len(scalars), worst, tol.rel_eps, witness=witness)


def _verify_real_consistency(space, pair, tol: Tolerances) -> VerificationReport:
    """On real inputs the extremizer must equal the explicit real formula
    (b_k ||a||^2 - a_k <a,b>) / (||a|| sqrt(det)) with the + sign, sqrt(det) taken
    as ||a|| ||r||, which does not cancel as sqrt(||a||^2 ||b||^2 - <a,b>^2) does."""
    aa, bb, g = pair
    if aa.imag.any() or bb.imag.any():
        return _skipped("real_consistency", tol, "complex inputs")
    if core._dependent(g, tol):
        return _skipped("real_consistency", tol, "dependent vectors")
    x = core._extremizer(aa, bb, g, tol)
    explicit = (bb.real * g.norm_a_sq - aa.real * g.inner_ab.real) / (g.norm_a_sq * np.sqrt(g.norm_r_sq))
    worst = np.max(np.abs(x - explicit)) / (1.0 + np.max(np.abs(explicit)))
    return _report("real_consistency", 1, worst, tol.rel_eps, witness=x)


def verify_all(space: SpaceDescriptor, a, b, trials: int = DEFAULT_TRIALS, tol: Tolerances = DEFAULT_TOL,
               seed: int = DEFAULT_SEED, real: bool = False) -> List[VerificationReport]:
    """Run every check, in the fixed order given by CHECK_ORDER.

    The deflated check runs on a and b, not on random triples.  Checks whose
    preconditions fail (dimension 1 for the bound check, dependent vectors for
    the min-norm and deflated checks, complex inputs for the real-consistency
    check) come back as skipped entries, not errors.
    """
    pair = core._pair(space, a, b)
    checks = [_bound_check, _min_norm_check, _deflated_check]
    if core._dependent(pair[2], tol):
        checks[1] = lambda *_: (None, None, lambda: _skipped("min_norm_optimality", tol, "dependent vectors"))
    reports = _verify_feasible(space, pair, trials, tol, seed, real, checks)
    return reports + [_verify_scale_covariance(space, pair, tol, real), _verify_real_consistency(space, pair, tol)]
