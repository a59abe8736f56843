"""Randomized verification of the closed-form results.

Each check samples random vectors from a seeded generator, measures how
badly (if at all) the claimed inequality or optimality is violated, and
returns a :class:`VerificationReport`.  Violations are recorded in the
scaled form ``residual / (1 + magnitude)`` so one tolerance works across
input scales.  Identical inputs and seed produce bitwise-identical reports.
Every check reads the answers ``_answers`` forms once per call.  The bound, min-norm and deflated checks
score one stream of feasible draws, which ``verify_all`` shares by block with core's worker thread; ``verify_deflated``
checks the lemma.
"""

from __future__ import annotations

from collections import namedtuple
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
# elements (1 MiB per array), so memory stays flat in trials.  Each lane of verify_all's stream holds one,
# its draws, which it scores without forming another: with no block held, ops/s fell 53.7 to 42.4.
_BLOCK_ELEMS = 1 << 16
# Written into every `verify` report line: the draws and the arithmetic that scores them fix its bytes.
HARNESS_FORMAT = 10
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


_Answers = namedtuple("_Answers", "bound_of bound extremizer x_star value")


def _answers(pair, tol: Tolerances) -> _Answers:
    """What the checks check, formed once per call as the pair functions form it: the bound function, and the
    pair's bound ||r||^2, extremizer, and x* with its squared norm value, the vectors None on a dependent pair."""
    g = pair[2]
    bound, dependent = core._norm_r_sq(g), core._dependent(g, tol)
    vectors = (None,) * 3 if dependent else (core._extremizer(g, tol), *core._min_norm(g, tol))
    return _Answers(core._norm_r_sq, bound, *vectors)


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


def _directions(w: np.ndarray, a: np.ndarray, na, cs) -> tuple:
    """What a block is projected and scored with: (a, the _weigh forms of a and of the directions cs
    stacked in that order, ||a||^2, and the products <a,c> with the stack)."""
    wcs = core._weigh(w, np.stack((a, *cs)))
    return a, wcs, na, core._dot_rows(a[None], wcs)


# A block of draws z and their components u = z - coef*a orthogonal to a, which are not formed: a row in
# formed holds its u in place of its z.  nsq holds ||u||^2, and uc the products <u,c> with the stack.
_Table = namedtuple("_Table", "z coef formed nsq uc")


def _usable_draws(space: SpaceDescriptor, rng, z, real: bool, dirs=None) -> _Table:
    """Fill the block z with draws and return their table, projected against a when dirs = _directions(...)
    is given.  A block takes one product with the stack and one squared norm: with coef = <z,a>/||a||^2,
    ||u||^2 = ||z||^2 - |coef|^2 ||a||^2 (Pythagoras) and <u,c> = <z,c> - coef <a,c>.  Rows that keep under
    a quarter of ||z||^2 are formed, projected again and their figures summed directly: "twice is enough"
    (Parlett 1980); so are rows whose ||z||^2 overflows, as their ||u||^2 may fit.  Rows left under the
    degenerate floor are redrawn, up to the retry cap."""
    w, v, table, bad = space.weights, z, None, None
    for _ in range(_MAX_RETRIES):
        _draw(rng, v.shape, real, v)
        n, nsq = len(v), core._sq_norm_rows(w, v)
        coef, formed, uc = np.zeros(n, complex), np.zeros(n, bool), np.empty((n, 0), complex)
        if dirs is not None:
            a, wcs, na, ac = dirs
            zc = core._dot_rows(v[:, None], wcs)
            coef = zc[:, 0] / na
            lost = np.square(np.abs(coef) * np.sqrt(na))  # |<z,a>|^2/||a||^2 <= ||z||^2 fits where ||z||^2 does
            nsq, uc = nsq - lost, zc - coef[:, None] * ac
            if np.any(formed := (nsq < lost / 3.0) | ~np.isfinite(nsq)):  # ||z||^2 is nsq + lost
                v[formed] = u = core._project_rows(v[formed] - coef[formed, None] * a, a, wcs[0], na)
                nsq[formed], uc[formed] = core._sq_norm_rows(w, u), core._dot_rows(u[:, None], wcs)
        if table is None:
            table = _Table(v, coef, formed, nsq, uc)
        else:  # the redrawn rows
            for held, new in zip(table, (v, coef, formed, nsq, uc)):
                held[bad] = new
        bad = table.nsq < _DEGENERATE * w.min()
        if not np.any(bad):
            return table
        v = np.empty((int(bad.sum()), space.dim), dtype=np.complex128)
    raise DegenerateSample(f"no usable draw in {_MAX_RETRIES} attempts (dim too small or pathological a)")


def _rows(t: _Table, a: np.ndarray, rows) -> np.ndarray:
    """The draws u orthogonal to a of the given rows of a table, formed: the only rows of a block that are."""
    z = t.z[rows]
    return np.where(t.formed[rows, None], z, z - t.coef[rows, None] * a)


def _unit_row(w: np.ndarray, t: _Table, a: np.ndarray, i: int) -> np.ndarray:
    u = _rows(t, a, [i])
    return u[0] / np.sqrt(core._sq_norm_rows(w, u)[0])


def sample_feasible(space: SpaceDescriptor, a, seed: int, real: bool = False) -> np.ndarray:
    """One random unit vector orthogonal to a.

    Draws unit-variance uniform coordinates (imaginary parts zero in real mode), projects
    out a, renormalizes, and redraws when the projection lands too close to zero, up to a fixed retry cap.
    """
    w, aa = space.weights, core.as_vector(space, a, "a")
    na = core._require_nonzero(core._norm_sq_rows(w, aa), "a")  # first: w*conj(a) overflows only if this does
    z = np.empty((1, space.dim), complex)
    return _unit_row(w, _usable_draws(space, np.random.default_rng(seed), z, real, _directions(w, aa, na, ())), aa, 0)


def verify_bound(space: SpaceDescriptor, a, b, trials: int, tol: Tolerances = DEFAULT_TOL, seed: int = DEFAULT_SEED,
                 real: bool = False) -> VerificationReport:
    """Check |<x,b>|^2 <= bound over random feasible x.

    The extremizer, when it exists, is evaluated as trial 0 so attainment
    is witnessed alongside dominance.  A feasible draw u is scored as
    |<u,b>|^2/||u||^2, without normalising it; only the witness is.
    """
    pair, trials = core._pair(space, a, b), _require_trials(trials)
    return _verify_feasible(space, pair, _answers(pair, tol), trials, tol, seed, real, [_bound_check])[0]


def verify_min_norm(space: SpaceDescriptor, a, b, trials: int, tol: Tolerances = DEFAULT_TOL, seed: int = DEFAULT_SEED,
                    real: bool = False) -> VerificationReport:
    """Check the min-norm solution's constraints and its optimality.

    Competitors are x* + w, w a feasible draw of the bound check's stream for the same seed less its
    component along x*'s direction: x* + w stays feasible, so none may have smaller squared norm beyond
    rounding slack.  Each competitor is scored from its block's product table; only the worst is formed.
    """
    pair, trials = core._pair(space, a, b), _require_trials(trials)
    core._norm_r_sq(pair[2], tol)  # DependentVectors on a dependent pair, which has no x*, as from min_norm_solution
    return _verify_feasible(space, pair, _answers(pair, tol), trials, tol, seed, real, [_min_norm_check])[0]


def _rank(state):
    """A (violation, witness, block) state's rank: the first worst trial's is highest, nan above any number."""
    v, witness, k = state
    return witness is not None, v != v, v if v == v else 0.0, -k


def _verify_feasible(space, pair, answers, trials, tol, seed, real, checks) -> List[VerificationReport]:
    """The reports of checks of the answers on one stream of feasible draws, the same whichever checks read it.  A
    check gives (score, start, report, cs): score(t, uc, rng), None if skipped, takes a block's table t and the
    columns uc of t.uc for its directions cs to the block's scaled violations, met in raveled order, and a function
    of the first worst's index to its witness; report(*worst) takes the worst of start and the blocks.  Block k draws
    from _block_rng(seed, k) on whichever lane of core._share takes it: the first worst over the lanes is one
    lane's, and the error raised the lowest block's."""
    aa, _, g = pair
    made = [check(space, pair, answers, trials, tol, real) for check in checks]
    # each distinct direction is stacked once, keyed on its bytes (the extremizer's are r_hat's unless planted):
    # a column of the product table has the same bits whatever the stack's width and its position in it
    stack = {c.tobytes(): c for c in (aa, *(c for *_, cs in made for c in cs))}
    scored = [(m[0], (*m[1], -1), [list(stack).index(c.tobytes()) for c in m[3]]) for m in made if m[0]]
    stack = list(stack.values())  # its keys are full-length copies: not held while the blocks run
    rows = _block_rows(trials, space.dim) if scored else []
    dirs = _directions(space.weights, aa, g.norm_a_sq, stack[1:]) if rows else None

    lanes = []  # each lane's first worst state per scoring check

    def lane():
        z, states = np.empty((max(rows, default=0), space.dim), complex), [start for _, start, _ in scored]
        lanes.append(states)

        def block(k):
            rng, n = _block_rng(seed, k), rows[k]
            t = _usable_draws(space, rng, z[:n], real, dirs)
            for j, (score, _, cols) in enumerate(scored):
                v, witness = score(t, t.uc[:, cols], rng)
                i = int(np.argmax(v))
                if _rank((v.flat[i], True, k)) > _rank(states[j]):  # a witness only for the lane's new worst
                    states[j] = (v.flat[i], witness(i), k)

        return block

    core._share(lane, len(rows))
    worst = iter(max(states, key=_rank)[:2] for states in zip(*lanes))
    return [report(*next(worst)) if score else report() for score, _, report, _ in made]


def _bound_check(space, pair, answers, trials, tol, real):
    (aa, bb, _), bound, x = pair, answers.bound, answers.extremizer
    if space.dim == 1 and trials > 0:
        skip = "no unit vector is orthogonal to a in dimension 1"
        return None, None, lambda: _skipped("bound_dominance", tol, skip), ()
    tolerance = tol.rel_eps * (1.0 + bound)

    def score(t, ub, _):
        # |<x,b>|^2 at x = u/||u||, squared last: it fits where ||b||^2 does, |<u,b>|^2 may not
        attained = np.square(np.abs(ub[:, 0]) / np.sqrt(t.nsq))
        return np.maximum(attained - bound, 0.0), lambda i: _unit_row(space.weights, t, aa, i)

    start = (0.0, None)
    if x is not None:  # the extremizer, unit by construction, is scored as it is
        start = (np.maximum(np.square(np.abs(core._dot_rows(x, core._weigh(space.weights, bb)))) - bound, 0.0), x)
    return score, start, lambda v, y: _report(
        "bound_dominance", trials + (x is not None), v, tolerance, witness=y, bound=bound
    ), (bb,)


def _min_norm_check(space, pair, answers, trials, tol, real):
    (aa, bb, g), x, value = pair, answers.x_star, answers.value
    if x is None:
        return None, None, lambda: _skipped("min_norm_optimality", tol, "dependent vectors"), ()
    w, na, nb = space.weights, g.norm_a_sq, g.norm_b_sq
    nx = float(core._norm_sq_rows(w, x))
    res_orth = abs(complex(core._inner_rows(w, x, aa))) / (1.0 + np.sqrt(nx * na))
    res_one = abs(complex(core._inner_rows(w, x, bb)) - 1.0) / (1.0 + np.sqrt(nx * nb))
    res_value = abs(nx - value) / (1.0 + value)
    # the steps ws are the draws, orthogonal to a, less their components along x*'s direction r_hat: orthogonal
    # to a and to r, so to b.  r_hat comes from the pair's residual, not from the answers, so that a planted
    # x* or extremizer cannot steer its own competitors
    r_hat = core._residual(g, 1.0 / np.sqrt(g.norm_r_sq))
    wr, wx = core._weigh(w, r_hat), core._weigh(w, x)
    nr, r_x = core._sq_norm_rows(w, r_hat), core._dot_rows(r_hat, wx)

    def score(t, uc, _):
        # ws = u - c1 r_hat with c1 = <u,r_hat>/||r_hat||^2: ||ws||^2 = ||u||^2 - |c1|^2 ||r_hat||^2
        # (Pythagoras) and <ws,x> = <u,x> - c1 <r_hat,x>.  Where that keeps under half of ||u||^2, or does not
        # fit, ws is formed, projected against r_hat once more and its figures summed directly
        c1 = uc[:, 0] / nr
        nws, wsx = t.nsq - np.square(np.abs(c1) * np.sqrt(nr)), uc[:, 1] - c1 * r_x
        again = ~((nws >= 0.5 * t.nsq) & np.isfinite(nws))

        def steps(rows):
            ws, redo = _rows(t, aa, rows) - c1[rows, None] * r_hat, again[rows]
            ws[redo] = core._project_rows(ws[redo], r_hat, wr, nr)
            return ws

        if np.any(again):
            ws = steps(np.flatnonzero(again))
            nws[again], wsx[again] = core._sq_norm_rows(w, ws), core._dot_rows(ws, wx)
        # ||x||^2 - ||x + ws||^2 = -(2 Re<ws,x> + ||ws||^2), over 1 + ||x||^2 + ||ws||^2; each term is quartered,
        # so that none overflows where ||ws||^2 fits (|<ws,x>| <= ||ws|| ||x||)
        undercut = -(0.5 * wsx.real + 0.25 * nws) / (0.25 + 0.25 * nx + 0.25 * nws)
        return undercut, lambda i: x + steps([i])[0]

    return score, (max(res_orth, res_one, res_value), x.copy()), lambda v, y: _report(
        "min_norm_optimality", trials + 1, v, tol.rel_eps, witness=y, value=value
    ), (r_hat, x)


def _violations(lhs, rhs, lhs_e, rhs_e):
    """Each trial's two scaled violations, of the deflated inequality and of its equality case, in a row,
    so that argmax over the raveled rows meets the trials in the order they ran."""
    return np.column_stack((np.maximum(rhs - lhs, 0.0) / (1.0 + lhs), np.abs(lhs_e - rhs_e) / (10.0 * (1.0 + lhs_e))))


def _deflated_scores(w, z, mu_beta, c, wc, nc, dp, wdp, ndp):
    """The first worst scaled violation, with its witness, of the deflated inequality on the rows of z
    and of its equality case on mu*c + beta*dp, (mu, beta) the rows of mu_beta.  Each row has its own c,
    d's component dp orthogonal to c, their _weigh forms and squared norms."""
    zp = core._project_rows(z, c, wc, nc)
    sides = core._deflated_sides(core._sq_norm_rows(w, zp), core._dot_rows(zp, wdp), nc, ndp)
    # Equality case: mu*c + beta*dp projected against c as mu*c' + beta*dp', c' and dp' projected
    cdp = np.stack((c, dp), axis=-2)
    basis = core._project_rows(cdp, c[:, None], wc[:, None], nc[:, None])
    y = np.einsum("...k,...kj->...j", mu_beta, basis)
    v = _violations(*sides, *core._deflated_sides(core._sq_norm_rows(w, y), core._dot_rows(y, wdp), nc, ndp))
    i, eq = divmod(int(np.argmax(v)), 2)
    return v[i, eq], np.einsum("k,kj->j", mu_beta[i], cdp[i]) if eq else z[i].copy()


def _deflated_report(trials: int, tol: Tolerances, worst, witness) -> VerificationReport:
    note = "equality-case slack is 10x rel_eps, folded in at 1/10 weight" if trials else "no trials requested"
    return _report("deflated_schwarz", trials, worst, tol.rel_eps, witness=witness, note=note)


def _deflated_check(space, pair, answers, trials, tol, real):
    """The deflated check at the pair, c = a and d = b, on the unit directions of a and of b's component
    orthogonal to a, the extremizer dp (none for a dependent pair): no figure depends on their scale.  z is
    a feasible draw, orthogonal to c, so its sides come from ||z||^2 and <z,dp> in the table.  The equality
    case's y = mu*c' + beta*dp', c' and dp' projected against c once per call, is not formed: ||y||^2 comes
    from the 2x2 Gram of (c', dp') and <y,dp> from their products with dp."""
    (aa, _, g), w = pair, space.weights
    if answers.extremizer is None:
        return None, None, lambda: _skipped("deflated_schwarz", tol, "dependent vectors"), ()
    cdp = np.stack((aa / np.sqrt(g.norm_a_sq), answers.extremizer))
    c, dp = cdp
    wc, wdp = core._weigh(w, c), core._weigh(w, dp)
    # each direction goes in with its computed squared norm, which is 1 only to rounding
    nc, ndp = core._sq_norm_rows(w, cdp)
    basis = core._project_rows(cdp, c, wc, nc)
    (g11, g22), g12 = core._sq_norm_rows(w, basis), core._dot_rows(basis[0], core._weigh(w, basis[1]))
    basis_dp = core._dot_rows(basis, wdp)

    def score(t, udp, rng):
        # the equality case's coefficients are the block's next draws
        mu, beta = (mu_beta := _draw(rng, (len(udp), 2), real)).T
        ny = np.abs(mu) ** 2 * g11 + 2.0 * (mu * np.conj(beta) * g12).real + np.abs(beta) ** 2 * g22
        ydp = mu * basis_dp[0] + beta * basis_dp[1]
        v = _violations(*core._deflated_sides(t.nsq, udp[:, 0], nc, ndp), *core._deflated_sides(ny, ydp, nc, ndp))
        return v, lambda i: np.einsum("k,kj->j", mu_beta[i // 2], cdp) if i % 2 else _rows(t, aa, [i // 2])[0]

    return score, (0.0, None), lambda v, z: _deflated_report(trials, tol, v, z), (dp,)


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
        nc = _usable_draws(space, rng, c, real).nsq
        d, mu_beta = _draw(rng, (n, space.dim), real), _draw(rng, (n, 2), real)
        wc = core._weigh(w, c)
        dp = core._project_rows(d, c, wc, nc)  # d's component orthogonal to c
        fixed = (c, wc, nc, dp, core._weigh(w, dp), core._sq_norm_rows(w, dp))
        worst = max(worst, (*_deflated_scores(w, z, mu_beta, *fixed), k), key=_rank)
    return _deflated_report(trials, tol, *worst[:2])


def _verify_scale_covariance(space, pair, answers, tol: Tolerances, real: bool) -> VerificationReport:
    """bound(s*a, b) = bound(a, b) and bound(a, t*b) = |t|^2 bound(a, b), the answers' bound function at the pairs."""
    (aa, bb, g), bound_of, bound = pair, answers.bound_of, answers.bound
    scalars = [2.0, -3.0, 0.5] + ([] if real else [1j, 1.0 + 2.0j])
    worst, witness = 0.0, aa.copy()  # a copy: aa may be the caller's own array
    # the bound ||b||^2 - |<a,b>|^2/||a||^2 rounds on the scale of ||b||^2, even when the bound itself is tiny
    scale = 1.0 + bound + g.norm_b_sq
    for s in scalars:
        sa = s * aa
        try:
            va = abs(bound_of(core._gram(space.weights, sa, bb)) - bound)
            vb = abs(bound_of(core._gram(space.weights, aa, s * bb)) - abs(s) ** 2 * bound)
        except GramOverflow as exc:
            raise GramOverflow(f"scale covariance check, scale {s}: {exc}") from exc
        v = max(va, vb / (abs(s) ** 2)) / scale
        if v > worst:
            worst, witness = v, sa
    return _report("scale_covariance", len(scalars), worst, tol.rel_eps, witness=witness)


def _verify_real_consistency(space, pair, answers, tol: Tolerances) -> VerificationReport:
    """On real inputs the extremizer must equal the explicit real formula
    (b_k ||a||^2 - a_k <a,b>) / (||a|| sqrt(det)) with the + sign, sqrt(det) taken
    as ||a|| ||r||, which does not cancel as sqrt(||a||^2 ||b||^2 - <a,b>^2) does."""
    (aa, bb, g), x = pair, answers.extremizer
    complex_inputs = aa.imag.any() or bb.imag.any()
    if complex_inputs or x is None:
        return _skipped("real_consistency", tol, "complex inputs" if complex_inputs else "dependent vectors")
    explicit = (bb.real * g.norm_a_sq - aa.real * g.inner_ab.real) / (g.norm_a_sq * np.sqrt(g.norm_r_sq))
    worst = np.max(np.abs(x - explicit)) / (1.0 + np.max(np.abs(explicit)))
    return _report("real_consistency", 1, worst, tol.rel_eps, witness=x.copy())  # x may be bound_dominance's witness


def verify_all(space: SpaceDescriptor, a, b, trials: int = DEFAULT_TRIALS, tol: Tolerances = DEFAULT_TOL,
               seed: int = DEFAULT_SEED, real: bool = False) -> List[VerificationReport]:
    """Run every check, in the fixed order given by CHECK_ORDER.

    The deflated check runs on a and b, not on random triples.  Checks whose
    preconditions fail (dimension 1 for the bound check, dependent vectors for
    the min-norm and deflated checks, complex inputs for the real-consistency
    check) come back as skipped entries, not errors.
    """
    pair, trials = core._pair(space, a, b), _require_trials(trials)
    answers, checks = _answers(pair, tol), [_bound_check, _min_norm_check, _deflated_check]
    reports = _verify_feasible(space, pair, answers, trials, tol, seed, real, checks)
    return reports + [_verify_scale_covariance(space, pair, answers, tol, real),
                      _verify_real_consistency(space, pair, answers, tol)]
