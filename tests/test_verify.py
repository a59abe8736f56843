import itertools

import numpy as np
import pytest

from orthobound import (
    CHECK_ORDER,
    DegenerateSample,
    Tolerances,
    ZeroVector,
    inner,
    make_dense,
    make_weighted,
    min_norm_solution,
    norm_sq,
    ostrowski_bound,
    sample_feasible,
    verify_all,
    verify_bound,
    verify_deflated,
    verify_min_norm,
)
from orthobound import core, verify

TOL = Tolerances()


def test_sample_feasible_dim2_spans_orthocomplement():
    s = make_dense(2)
    x = sample_feasible(s, [1, 0], seed=0, real=True)
    # a-perp is one-dimensional, so the sample is forced up to sign
    assert abs(abs(x[1]) - 1.0) < 1e-12
    assert abs(x[0]) < 1e-12


def test_sample_feasible_constraints():
    s = make_dense(3)
    a = [1, 1, 1]
    for seed in range(20):
        x = sample_feasible(s, a, seed)
        assert abs(inner(s, x, a)) <= 1e-12 * np.sqrt(norm_sq(s, a))
        assert norm_sq(s, x) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sample_feasible_orthogonal_under_weights_spread_over_1e300(seed):
    # one projection pass leaves rounding in the 1e300-weighted coordinate
    # that dominates the norm (seeds 0 and 2 came out parallel to a); the
    # rows that lost most of their norm are projected a second time
    s = make_weighted([1e300, 1, 2])
    a = [1e-150] * 3
    x = sample_feasible(s, a, seed=seed, real=True)
    assert norm_sq(s, x) == pytest.approx(1.0, abs=1e-12)
    assert abs(inner(s, x, a)) <= 1e-9 * np.sqrt(norm_sq(s, a))


@pytest.mark.parametrize("real", [True, False])
def test_verify_all_passes_under_weights_spread_over_1e300(real):
    # with one projection pass the bound check's draws came out parallel to a
    # here, and bound_dominance read a worst violation of 1e20
    b = np.array([1e-140, 2e-140, -1e-140]) * (1 if real else 1 - 2j)
    reports = verify_all(make_weighted([1e300, 1, 2]), [1e-150] * 3, b, trials=200, real=real)
    assert all(r.passed for r in reports)


@pytest.mark.parametrize("real", [True, False])
def test_bound_check_scores_unnormalised_draws_without_overflow(real):
    # a draw u orthogonal to a keeps its 1e300-weighted coordinate: ||u||^2 ~ 1e300 and
    # |<u,b>|^2 ~ 1e320 overflow, though |<u,b>|^2/||u||^2 <= ||b||^2 ~ 1e20 fits
    b = [1e-140, 0.0, 1.0] if real else [1e-140 * (1 - 2j), 0.0, 1j]
    reports = verify_all(make_weighted([1e300, 1.0, 1.0]), [0.0, 1.0, 0.0], b, trials=200, real=real)
    assert all(r.passed for r in reports)
    assert np.isfinite(reports[0].worst_violation)


def test_sample_feasible_deterministic():
    s = make_dense(4)
    a = [1, 2, 3, 4]
    x1 = sample_feasible(s, a, seed=42)
    x2 = sample_feasible(s, a, seed=42)
    np.testing.assert_array_equal(x1, x2)


def test_sample_feasible_real_mode_stays_real():
    s = make_dense(3)
    x = sample_feasible(s, [1, 1, 1], seed=5, real=True)
    assert np.max(np.abs(x.imag)) == 0.0


@pytest.mark.parametrize("real", [True, False])
def test_draw_is_unit_variance_uniform(real):
    z = verify._draw(np.random.default_rng(7), (1 << 16,), real)
    parts = [z.real] if real else [z.real, z.imag]
    for part in parts:
        assert part.min() >= -np.sqrt(3.0) and part.max() < np.sqrt(3.0)
        assert abs(part.mean()) < 0.02 and abs(part.var() - 1.0) < 0.02
    if real:  # +0.0, not -0.0: the bytes of a real-mode witness show the sign
        assert not np.any(z.imag) and not np.any(np.signbit(z.imag))


def test_draw_stream_is_pinned():
    # the interleaved real and imaginary parts of two rows of three; a change
    # to what or in what order _draw draws must bump HARNESS_FORMAT
    z = verify._draw(np.random.default_rng(0), (2, 3), False)
    assert z.view(np.float64).ravel().tolist() == [
        0.47444920226224196, -0.797482216676747, -1.5901143571236198, -1.6747973986400915,
        1.0851999415882543, 1.429827261904872, 0.3693971630665551, 0.7949994075732292,
        0.1511214033957422, 1.5071350859451056, 1.0941488069793999, -1.7225643647064122,
    ]
    assert verify.HARNESS_FORMAT == 9


def test_sample_feasible_zero_vector():
    with pytest.raises(ZeroVector):
        sample_feasible(make_dense(2), [0, 0], seed=1)


def test_verify_bound_passes():
    s = make_dense(2)
    rep = verify_bound(s, [1, 0], [1, 1], trials=1000, seed=3)
    assert rep.passed
    assert rep.trials == 1001  # extremizer is trial 0
    assert rep.worst_violation <= 1e-9 * 2
    assert rep.witness is not None


def test_verify_bound_proportional_pair():
    s = make_dense(3)
    rep = verify_bound(s, [1, 2, 3], [2, 4, 6], trials=200, seed=1)
    assert rep.passed
    assert rep.trials == 200  # no extremizer trial for a dependent pair
    assert rep.worst_violation <= 1e-12
    # the draws are scored unnormalised; the witness, a draw here, is normalised
    assert norm_sq(s, rep.witness) == pytest.approx(1.0, abs=1e-12)


def test_verify_bound_zero_trials_covers_extremizer_only():
    s = make_dense(3)
    rep = verify_bound(s, [1, 1, 1], [1, 2, 3], trials=0, seed=1)
    assert rep.passed
    assert rep.trials == 1


def test_verify_bound_deterministic():
    s = make_dense(5)
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal(5), rng.standard_normal(5)
    r1 = verify_bound(s, a, b, trials=100, seed=9)
    r2 = verify_bound(s, a, b, trials=100, seed=9)
    assert r1.worst_violation == r2.worst_violation
    np.testing.assert_array_equal(r1.witness, r2.witness)


def test_verify_min_norm_passes():
    s = make_dense(3)
    rep = verify_min_norm(s, [1, 1, 1], [1, 2, 3], trials=500, seed=2)
    assert rep.passed
    x, value = min_norm_solution(s, [1, 1, 1], [1, 2, 3])
    assert value == pytest.approx(0.5)


def test_verify_min_norm_dim2_unique_point():
    s = make_dense(2)
    rep = verify_min_norm(s, [1, 0], [1, 1], trials=50, seed=4)
    assert rep.passed


def test_min_norm_competitor_pythagorean():
    # explicit competitor with a unit perturbation exceeds the optimum by ~1
    s = make_dense(4)
    a = np.array([1.0, 1.0, 1.0, 1.0])
    b = np.array([1.0, 2.0, 3.0, 4.0])
    x, value = min_norm_solution(s, a, b)
    w = np.array([1.0, -1.0, -1.0, 1.0]) / 2.0  # orthogonal to a and b, unit norm
    assert abs(inner(s, w, a)) < 1e-12 and abs(inner(s, w, b)) < 1e-12
    assert norm_sq(s, x + w) == pytest.approx(value + 1.0, rel=1e-12)


def test_verify_deflated_passes_real_and_complex():
    s = make_dense(8)
    for real in (True, False):
        rep = verify_deflated(s, trials=1000, seed=6, real=real)
        assert rep.passed, rep.worst_violation


# sha256 of verify_deflated's to_dict bytes at trials 130, seed 5 (dim 1024 runs as blocks of
# 64 + 64 + 2 rows), captured at harness format 8; the lemma check on random triples kept its
# projection form when verify_all's deflated check moved to row products (format 9)
VERIFY_DEFLATED_LINES = {
    ("weighted-16", False): "7ec3b665c3825d3c2d4f516c9dc307242b5f34f4e67a0bd7df76f45d2aca5998",
    ("weighted-16", True): "86a89737abd52d9cbc7ee76c518ec597113e5df2ea3e61d871639afec2ab707f",
    ("trapezoid-1024", False): "29ede77c17d5ada265957816971b20dce6010241f397b81a69bd1a550d0ceebc",
    ("trapezoid-1024", True): "bae352ee1360829d40152ae80702a0c0f9d95f569c867a9bd41636d7a1fe3a4f",
}


@pytest.mark.parametrize("name, real", sorted(VERIFY_DEFLATED_LINES))
def test_verify_deflated_bytes_are_pinned(name, real):
    import hashlib

    from orthobound.cli import dumps_stable

    s = {"weighted-16": _weighted_pair_16, "trapezoid-1024": _pair_1024}[name]()[0]
    line = dumps_stable(verify_deflated(s, trials=130, seed=5, real=real).to_dict())
    assert hashlib.sha256(line.encode()).hexdigest() == VERIFY_DEFLATED_LINES[name, real]


def test_verify_deflated_zero_trials():
    rep = verify_deflated(make_dense(3), trials=0, seed=1)
    assert rep.passed and rep.trials == 0


@pytest.mark.parametrize(
    "check",
    [
        lambda trials: verify_bound(make_dense(3), [1, 0, 0], [0, 1, 0], trials=trials),
        lambda trials: verify_min_norm(make_dense(3), [1, 0, 0], [0, 1, 0], trials=trials),
        lambda trials: verify_deflated(make_dense(3), trials=trials),
        lambda trials: verify_all(make_dense(3), [1, 0, 0], [0, 1, 0], trials=trials),
    ],
    ids=["bound", "min_norm", "deflated", "all"],
)
def test_negative_trials_are_refused(monkeypatch, check):
    # refused before verify_all starts its worker, as Tolerances refuses its fields
    monkeypatch.setattr(verify, "ThreadPoolExecutor", None)
    with pytest.raises(ValueError, match="trials must be nonnegative, got -5"):
        check(-5)


def test_verify_all_order_and_pass():
    s = make_dense(16)
    rng = np.random.default_rng(12)
    a = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    b = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    reports = verify_all(s, a, b, trials=200, seed=1)
    assert tuple(r.check_name for r in reports) == CHECK_ORDER
    assert all(r.passed for r in reports)
    # complex inputs skip the real-consistency comparison
    assert reports[-1].skipped


def test_verify_all_dependent_pair_skips_min_norm():
    s = make_dense(3)
    reports = verify_all(s, [1.0, 2.0, 3.0], [2.0, 4.0, 6.0], trials=100, seed=1)
    by_name = {r.check_name: r for r in reports}
    assert by_name["bound_dominance"].passed
    assert by_name["min_norm_optimality"].skipped
    assert by_name["min_norm_optimality"].passed


def test_verify_all_real_consistency_runs_on_real_inputs():
    s = make_weighted([1.0, 2.0, 0.5, 1.5])
    rng = np.random.default_rng(13)
    a, b = rng.standard_normal(4), rng.standard_normal(4)
    reports = verify_all(s, a, b, trials=100, seed=2, real=True)
    by_name = {r.check_name: r for r in reports}
    assert not by_name["real_consistency"].skipped
    assert by_name["real_consistency"].passed


def test_verify_quadrature_bound_near_analytic():
    """f=1, g=x on [0,1]: Gram data (1, 1/3, 1/2) gives bound det/1 = 1/12."""
    from orthobound import sample_function, trapezoid_rule

    s = trapezoid_rule(201, 0.0, 1.0)
    f = sample_function(s, lambda x: 1.0)
    g = sample_function(s, lambda x: x)
    bound = ostrowski_bound(s, f, g)
    assert bound == pytest.approx(1.0 / 12.0, abs=2e-4)
    reports = verify_all(s, f, g, trials=100, seed=3, real=True)
    assert all(r.passed for r in reports)


# --- blocked sampling ----------------------------------------------------------


def _pair_1024():
    from orthobound import trapezoid_rule

    rng = np.random.default_rng(21)
    a, b = (rng.standard_normal(1024) + 1j * rng.standard_normal(1024) for _ in range(2))
    return trapezoid_rule(1024, 0.0, 1.0), a, b


@pytest.mark.parametrize("trials", [130, 1])
def test_blocked_checks_cover_every_trial(trials):
    # at dim 1024 a block holds 64 rows: 130 trials run as 64 + 64 + 2
    s, a, b = _pair_1024()
    assert sum(verify._block_rows(trials, s.dim)) == trials
    assert verify._block_rows(130, s.dim) == [64, 64, 2]
    rep = verify_bound(s, a, b, trials=trials, seed=2)
    assert rep.passed and rep.trials == trials + 1
    rep = verify_min_norm(s, a, b, trials=trials, seed=3)
    assert rep.passed and rep.trials == trials + 1
    rep = verify_deflated(s, trials=trials, seed=4)
    assert rep.passed and rep.trials == trials


def test_blocked_checks_deterministic():
    s, a, b = _pair_1024()
    for run in (
        lambda: verify_min_norm(s, a, b, trials=130, seed=8),
        lambda: verify_deflated(s, trials=130, seed=8),
    ):
        r1, r2 = run(), run()
        assert r1.worst_violation == r2.worst_violation
        np.testing.assert_array_equal(r1.witness, r2.witness)


def test_verify_all_memory_stays_flat_in_trials():
    # the feasible stream of the three sampling checks is traced on one lane, the
    # calling thread's.  Inside verify_all the worker lane's block buffers add to
    # the caller's only while the two overlap, which varies from run to run, so
    # there only the cap is asserted
    import tracemalloc

    s, a, b = _pair_1024()
    pair = core._pair(s, a, b)

    def peak(run, trials):
        tracemalloc.start()
        try:
            run(trials)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def one_lane(n):
        checks = [verify._bound_check, verify._min_norm_check, verify._deflated_check]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(verify, "_LANES", 1)
            verify._verify_feasible(s, pair, n, TOL, 6, False, checks)

    mib = 1 << 20
    peaks = [peak(one_lane, trials) for trials in (130, 4000)]
    assert abs(peaks[1] - peaks[0]) < mib
    assert max(peak(lambda n: verify_all(s, a, b, trials=n, seed=6), trials) for trials in (130, 4000)) < 12 * mib


def test_min_norm_check_finds_planted_undercut(monkeypatch):
    """A 'solution' shifted by w0 orthogonal to a and b is feasible but not
    optimal; the batched competitors must find an undercut, with the same
    worst trial as a per-trial loop over the same draws built on the
    summation oracle: the bound check's feasible draws, one block from the
    block's own generator (projected against a, and again when that left
    under half their drawn squared norm), then projected against b's
    component orthogonal to a and against a."""
    from oracles import inner_by_summation, norm_sq_by_summation

    s = make_dense(4)
    a = np.array([1.0, 1.0, 1.0, 1.0], dtype=np.complex128)
    b = np.array([1.0, 2.0, 3.0, 4.0], dtype=np.complex128)
    w0 = 3.0 * np.array([1.0, -1.0, -1.0, 1.0])  # orthogonal to a and b
    x_star, _ = min_norm_solution(s, a, b)
    shifted = x_star + w0
    value = norm_sq(s, shifted)
    monkeypatch.setattr(core, "_min_norm", lambda *args, **kw: (shifted.copy(), value))

    rep = verify_min_norm(s, a, b, trials=200, seed=5)
    assert not rep.passed
    assert norm_sq(s, rep.witness) < value

    def norm_sq_(z):
        return norm_sq_by_summation(s.weights, z)

    def project(z, c):
        return z - inner_by_summation(s.weights, z, c) / norm_sq_(c) * c

    b_perp = project(b, a)
    undercuts, competitors = [], []
    for w in verify._draw(verify._block_rng(5, 0), (200, 4), False):
        u = project(w, a)
        if norm_sq_(u) < abs(inner_by_summation(s.weights, w, a)) ** 2 / norm_sq_(a) / 3.0:
            u = project(u, a)  # the second pass
        assert norm_sq_(u) > verify._DEGENERATE * s.weights.min()  # no row is redrawn
        w = project(project(u, b_perp), a)
        competitors.append(shifted + w)
        undercuts.append(
            (value - norm_sq_(shifted + w)) / (1.0 + value + norm_sq_(w))
        )
    k = int(np.argmax(undercuts))
    assert rep.worst_violation == pytest.approx(undercuts[k], rel=1e-9)
    np.testing.assert_allclose(rep.witness, competitors[k], rtol=1e-12, atol=1e-12)


def test_row_kernels_match_summation_oracle():
    from oracles import inner_by_summation, norm_sq_by_summation

    rng = np.random.default_rng(31)
    s = make_weighted(rng.uniform(0.5, 2.0, 6))
    z, c, d = (rng.standard_normal((5, 6)) + 1j * rng.standard_normal((5, 6)) for _ in range(3))
    w = s.weights
    nc, wc = core._norm_sq_rows(w, c), core._weigh(w, c)
    dp = core._project_rows(d, c, wc, nc)
    projected = core._project_rows(z, c, wc, nc)
    lhs, rhs = core._deflated_sides(
        core._sq_norm_rows(w, projected), core._dot_rows(projected, core._weigh(w, dp)), nc, core._norm_sq_rows(w, dp)
    )

    def ip(u, v):
        return inner_by_summation(s.weights, u, v)

    for i in range(5):
        nz, nc, nd = (norm_sq_by_summation(s.weights, u) for u in (z[i], c[i], d[i]))
        ref_lhs = (nz * nc - abs(ip(z[i], c[i])) ** 2) * (nd * nc - abs(ip(d[i], c[i])) ** 2)
        ref_rhs = abs(ip(z[i], d[i]) * nc - ip(z[i], c[i]) * ip(c[i], d[i])) ** 2
        assert lhs[i] == pytest.approx(ref_lhs, rel=1e-12)
        assert rhs[i] == pytest.approx(ref_rhs, rel=1e-12)
        ref_proj = z[i] - ip(z[i], c[i]) / nc * c[i]
        np.testing.assert_allclose(projected[i], ref_proj, rtol=1e-12, atol=1e-12)


def test_sample_feasible_degenerate_space_raises():
    # a-perp is {0} in dimension 1, so every draw projects to zero
    with pytest.raises(DegenerateSample):
        sample_feasible(make_dense(1), [1.0], seed=0)


def test_report_writes_a_strided_witness():
    # a sliced complex input reaches the scale-covariance report as its own
    # strided view, since every real-mode scaled bound here is exact
    a = np.array([3 + 4j, 7, 0, 7])[::2]
    reports = verify_all(make_dense(2), a, [0, 5 - 12j], trials=5, real=True)
    scale_covariance = reports[CHECK_ORDER.index("scale_covariance")]
    assert scale_covariance.worst_violation == 0.0 and not scale_covariance.witness.flags.c_contiguous
    assert scale_covariance.to_dict()["witness"] == [[3.0, 4.0], [0.0, 0.0]]
    for rep in reports:
        if rep.witness is not None:
            assert rep.to_dict()["witness"] == [[float(z.real), float(z.imag)] for z in rep.witness]


def test_verify_all_validates_few_times(as_vector_calls):
    s = make_weighted([1.0, 2.0, 0.5, 3.0])
    verify_all(s, [1, 2, 3, 4], [1, -1, 2, 0.5j], trials=50)
    assert len(as_vector_calls) <= 14


# --- the feasible stream's two lanes -------------------------------------------

_BLOCK_RNG = verify._block_rng


def _failing_blocks(monkeypatch, failing):
    """Plant an error in the generators of the blocks in failing; return the blocks run,
    each mapped to whether the calling thread ran it."""
    import threading

    ran = {}

    def planted(seed, k):
        ran[k] = threading.current_thread() is threading.main_thread()
        if k in failing:
            raise RuntimeError(f"planted failure in block {k}")
        return _BLOCK_RNG(seed, k)

    monkeypatch.setattr(verify, "_block_rng", planted)
    return ran


@pytest.mark.parametrize("trials", [130, 1000])
def test_verify_all_bytes_equal_a_one_lane_run(monkeypatch, trials):
    # at dim 1024 the stream runs as 3 or 16 blocks, on two lanes
    from orthobound.cli import dumps_stable

    s, a, b = _pair_1024()

    def lines():
        return [dumps_stable(r.to_dict()) for r in verify_all(s, a, b, trials=trials, seed=5)]

    ran = _failing_blocks(monkeypatch, set())
    two = lines()
    assert set(ran.values()) == {True, False}
    monkeypatch.setattr(verify, "_LANES", 1)
    assert lines() == two


def test_verify_all_golden_dim_1024():
    """verify_all at dim 1024, trials 130 (blocks of 64 + 64 + 2 rows), pinned
    by a digest of its exact report bytes.  Recaptured when the deflated check
    moved to the instance (harness format 3), when the draws became uniform
    (format 4) and when the row products became one multiply by a held
    w*conj(c) (format 5: the deflated line's figure and witness moved).  Format 6,
    which made the min-norm competitors from the bound check's draws, kept it:
    the min-norm line's worst figure is x*'s own residual.  Recaptured at format 7,
    when the three sampling checks came to share one stream drawn block by block
    from per-block generators, and the harness's row products became einsum, and
    at format 8, when the answers became scaled copies of the residual r, and at
    format 9, when the deflated check came to score its blocks from two row products
    (the deflated line's worst figure went from 3.05e-16 to 1.58e-16)."""
    import hashlib

    from orthobound.cli import dumps_stable

    s, a, b = _pair_1024()
    reports = verify_all(s, a, b, trials=130, seed=5)
    text = "\n".join(dumps_stable(r.to_dict()) for r in reports)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "109e986938f495173df4ee2310f62261bbaa892f41ab04e7a28b5117141763d4"
    )


def test_verify_all_leaves_no_thread_behind():
    import threading

    before = threading.active_count()
    verify_all(make_dense(16), np.arange(16.0), np.ones(16), trials=200, seed=3)
    assert threading.active_count() == before
    # the bound check raises on the main thread while the worker runs
    with pytest.raises(ZeroVector):
        verify_all(make_dense(4), np.zeros(4), np.ones(4), trials=5)
    assert threading.active_count() == before


def test_verify_all_joins_the_worker_when_the_main_checks_raise(monkeypatch):
    import threading

    # at dim 1024, 1000 trials run as blocks 0-15, the odd ones on the worker
    ran = _failing_blocks(monkeypatch, {0})
    before = threading.active_count()
    s, a, b = _pair_1024()
    with pytest.raises(RuntimeError, match="planted failure in block 0$"):
        verify_all(s, a, b, trials=1000)
    assert threading.active_count() == before
    # the caller's lane stopped at its error; the worker ran its blocks and was joined
    assert ran == {k: k == 0 for k in [0] + list(range(1, 16, 2))}


def test_import_of_the_cli_leaves_concurrent_futures_unloaded():
    # orthobound.verify imports its executor, and concurrent.futures loads logging;
    # orthobound.verify itself loads only when a verify name is first used
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, orthobound.cli; print([m in sys.modules for m in ('concurrent.futures', 'orthobound.verify')])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[False, False]\n"


def test_verify_all_reraises_a_worker_error(monkeypatch):
    # at dim 1024, 260 trials run as blocks 0-4: 0, 2 and 4 on the calling thread, 1 and 3 on the worker
    s, a, b = _pair_1024()
    ran = _failing_blocks(monkeypatch, {1})
    with pytest.raises(RuntimeError, match="planted failure in block 1$"):
        verify_all(s, a, b, trials=260)
    # raised after the caller's lane ran all its blocks; the worker stopped at its error
    assert ran == {0: True, 1: False, 2: True, 4: True}
    # when both lanes raise, the lowest block's error is raised, as one lane would raise it
    for failing, first in (({3, 4}, 3), ({0, 1}, 0), ({1, 2}, 1)):
        _failing_blocks(monkeypatch, failing)
        with pytest.raises(RuntimeError, match=f"planted failure in block {first}$"):
            verify_all(s, a, b, trials=260)


def test_verify_all_dim1_skips_the_bound_check():
    # a-perp is {0} in dimension 1: the bound check has nothing to draw and
    # is skipped, while the other checks run
    reports = verify_all(make_dense(1), [1.0], [2.0], trials=10)
    assert [r.check_name for r in reports] == list(CHECK_ORDER)
    bound = reports[0]
    assert bound.skipped and bound.passed and bound.trials == 0
    assert bound.note == "no unit vector is orthogonal to a in dimension 1"
    assert all(r.passed for r in reports)
    # in dimension 1 every pair is dependent, so b has no component
    # orthogonal to a and the deflated check is skipped too
    assert reports[2].skipped and reports[2].note == "dependent vectors"
    # without trials the bound check runs as before, and a zero a is refused
    assert not verify_all(make_dense(1), [1.0], [2.0], trials=0)[0].skipped
    with pytest.raises(ZeroVector):
        verify_all(make_dense(1), [0.0], [2.0], trials=10)


def test_verify_all_validates_only_at_the_boundary(as_vector_calls):
    # the scale-covariance copies go straight to the Gram kernel, whose
    # overflow guard catches what validating them caught, and the min-norm
    # check solves from the Gram data built at the boundary
    verify_all(make_weighted([1.0, 2.0, 0.5, 3.0]), [1, 2, 3, 4], [1, -1, 2, 0.5j], trials=50)
    assert as_vector_calls == ["a", "b"]


def test_usable_draws_redraws_only_the_degenerate_rows(monkeypatch):
    # rows planted parallel to a project to rounding and are redrawn, and only
    # they.  With weights 1e-20 a feasible draw's squared norm is near 1e-20: the
    # absolute floor of harness format 5 and earlier (1e-20) redrew about half of
    # them, while the floor relative to the least weight redraws none
    s = make_weighted([1e-20] * 3)
    a = np.array([1.0, 2.0, 1j])
    against = (a, core._weigh(s.weights, a), core._norm_sq_rows(s.weights, a))
    planted = [3, 50, 151]
    draws = []
    draw = verify._draw

    def planting(rng, shape, *args, **kwargs):
        z = draw(rng, shape, *args, **kwargs)
        if not draws:
            z[planted] = np.arange(1.0, 4.0)[:, None] * (1 - 2j) * a
        draws.append(shape)
        return z

    def usable():
        u, t = np.empty((2, 200, s.dim), complex)
        return u, verify._usable_draws(s, np.random.default_rng(4), u, False, t, against)

    clean, clean_nsq = usable()
    monkeypatch.setattr(verify, "_draw", planting)
    u, nsq = usable()
    assert draws == [(200, 3), (3, 3)]
    kept = np.setdiff1d(np.arange(200), planted)
    np.testing.assert_array_equal(u[kept], clean[kept])
    np.testing.assert_array_equal(nsq[kept], clean_nsq[kept])
    # the redrawn rows are usable feasible draws, as the kept ones are
    assert np.all(nsq[planted] > verify._DEGENERATE * 1e-20)
    assert np.all(np.abs(core._dot_rows(u[planted], against[1])) <= 1e-12 * np.sqrt(nsq[planted] * against[2]))


def test_verify_all_runs_under_weights_1e_22():
    # the absolute floor of harness format 5 and earlier (1e-20 on the squared
    # norm) called every feasible draw degenerate here, and verify_all raised
    # DegenerateSample; the floor is now relative to the least weight
    s = make_weighted([1e-22] * 4)
    a, b = [1, 2, 0, 1], [0, 1, 3, 1j]
    reports = verify_all(s, a, b, trials=200)
    assert [r.check_name for r in reports] == list(CHECK_ORDER)
    assert all(r.passed for r in reports)
    assert verify_min_norm(s, a, b, trials=200).passed


# --- the three sampling checks on one stream of feasible draws ----------------

# sha256 of the bound and deflated lines' to_dict bytes at harness format 9, from
# verify_all at trials 130, seed 5 (on weighted-16-complex the bound line is the
# extremizer's, as at format 5, and the dependent pair's deflated line a skip).  At
# format 8 the trapezoid pair's bound line kept its bytes; the dependent pair's
# bound line moved with its bound, ||r||^2 in place of det/||a||^2.  At format 9,
# when the deflated check came to score its blocks from two row products, only the
# three deflated lines that are not skipped moved
FORMAT_9_LINES = {
    "weighted-16-complex": (
        "3a9a567884bf06e1856f4019ad3b56efff288b6acf80e4945d55a2ddcc0603e7",
        "c86118aa04755fae8c9e3276ad9242efb6800db5cc64de5d1c43d51e3d9e412e",
    ),
    "weighted-16-real": (
        "8bb412577c6d7f0f08583371cb948dd46eeecef02665780a6f6b3e9c18189b85",
        "36855ef10d1887c1f9065a74790e8daeda53b27797b235587055e2dd4faa7148",
    ),
    "trapezoid-1024-complex": (
        "36f59b08c394032646de3a38531828c5a152b921a0b805ed97120a8ff45c17bc",
        "f1c6330007c075354e56adfa5c138c6b03fd1f3881191cd692a2b696e8402dbd",
    ),
    "dependent-3-complex": (
        "d4447680b8e5556c79594201e3d7ed2041026ffb66bf20f2424f70cda5841a2c",
        "9413a6800e19d1583d9bd10c2fe9a3ab5ae19cacc7ace2f29308e1a01cc020cc",
    ),
}


def _deflated_at(s, a, b, trials, seed, real=False):
    """The deflated check at the pair, alone on the feasible stream."""
    return verify._verify_feasible(s, core._pair(s, a, b), trials, TOL, seed, real, [verify._deflated_check])[0]


@pytest.mark.parametrize("name", sorted(FORMAT_9_LINES))
def test_verify_all_scores_bound_and_min_norm_on_one_stream(monkeypatch, name):
    import hashlib

    from orthobound.cli import dumps_stable

    make, real = STREAM_PAIRS[name]
    s, a, b = make()

    def lines():
        return [dumps_stable(r.to_dict()) for r in verify_all(s, a, b, trials=130, seed=5, real=real)]

    def line(check):
        return dumps_stable(check(s, a, b, trials=130, seed=5, real=real).to_dict())

    found = lines()
    assert found[0] == line(verify_bound)
    assert found[2] == dumps_stable(_deflated_at(s, a, b, 130, 5, real).to_dict())
    digests = tuple(hashlib.sha256(found[i].encode()).hexdigest() for i in (0, 2))
    assert digests == FORMAT_9_LINES[name]
    if name.startswith("dependent"):
        assert '"note": "dependent vectors"' in found[1]
        return
    # the line of a correct answer reports x*'s residuals, whatever the draws; with
    # x* shifted 100 ||x*|| off the optimum a competitor sets it, so the draws show
    assert found[1] == line(verify_min_norm)
    monkeypatch.setattr(core, "_min_norm", _feasible_not_minimal(100.0)(core._min_norm, s))
    found = lines()
    assert found[1] == line(verify_min_norm) and '"passed": false' in found[1]


# sha256 of verify_all's min_norm_optimality line at trials 300, with x* shifted shift ||x*|| off the
# optimum by _feasible_not_minimal(shift), by (shift, seed).  The 11 lines of shift 100, and of shift 10 on
# the real pair at seed 5, fail: a competitor sets them, so they pin the competitors' figures and witness.
# Captured at harness format 9 while the min-norm check still formed each competitor block, and held
# when it came to score its blocks from two row products
PLANTED_UNDERCUT_LINES = {
    "weighted-16-complex": {
        (100.0, 5): "e544580ec6fc43248aed2f066e596b2102d6cb31ade112fa72970395525372a5",
        (100.0, 6): "6e11f9fde3887c5134e72a652ed0b9555c641d9762e3351bc714a31cf68e3974",
        (100.0, 7): "32ac0e369cb1691b2348493e3cf6b8fb16089c126aa309efa6675b2f0b51171b",
        (10.0, 5): "35ac3970d4ce310c1be2597d661e2d2d239c47f89c01f51f77e1cdfac2c60ad7",
        (10.0, 6): "35ac3970d4ce310c1be2597d661e2d2d239c47f89c01f51f77e1cdfac2c60ad7",
        (10.0, 7): "35ac3970d4ce310c1be2597d661e2d2d239c47f89c01f51f77e1cdfac2c60ad7",
        (3.0, 5): "22d801f209605f7d703d0a010921aea9f1e812cf6f49041fb1796edca0724b0c",
        (3.0, 6): "22d801f209605f7d703d0a010921aea9f1e812cf6f49041fb1796edca0724b0c",
        (3.0, 7): "22d801f209605f7d703d0a010921aea9f1e812cf6f49041fb1796edca0724b0c",
    },
    "weighted-16-real": {
        (100.0, 5): "c613ad811acce1dc270c2e054579a475db8390835a5f5772134167b887fbbc3a",
        (100.0, 6): "62f78c87a37058a765454e82ebdf7e3e936fa0e0027c2a19942ece635077ee38",
        (100.0, 7): "9d36468a3088391876354f401ea8195c059bb79b9ac64e79ca5510780ff5231c",
        (10.0, 5): "35d81c267b7eca1b9e7a5c268a484b3105f02d2dc1f8d92456ed96cbf91a7126",
        (10.0, 6): "0738ea997ee51be2ba34d3a0079bd3de518b4a13c24efc76b25befc0fe4f94b6",
        (10.0, 7): "5e09205374742ce038f47a7cbb468e101805ca081a36b14b7ffe31c86baa3cc1",
        (3.0, 5): "e90b9b2deb9fc778039664a0739a4feb278477fcc8b08a864793e914798f5804",
        (3.0, 6): "e90b9b2deb9fc778039664a0739a4feb278477fcc8b08a864793e914798f5804",
        (3.0, 7): "e90b9b2deb9fc778039664a0739a4feb278477fcc8b08a864793e914798f5804",
    },
    "trapezoid-1024-complex": {
        (100.0, 5): "43fde6f63f4a63b787e8fa0ce025ac44194e760b9c565097c6c30642c9214ec2",
        (100.0, 6): "f16126edcd91510b06fce5e2bdf4b623510b6c628bf8cfbd415c4ae83f9a325f",
        (100.0, 7): "557bead491dcbea8020acd17ef9b69842cbb67ee0bc07f602f34aa89ee924e38",
        (10.0, 5): "47743cd04be0aba42c053054e57e4ce62d634989a3a3a6245e538a2662c6924f",
        (10.0, 6): "47743cd04be0aba42c053054e57e4ce62d634989a3a3a6245e538a2662c6924f",
        (10.0, 7): "47743cd04be0aba42c053054e57e4ce62d634989a3a3a6245e538a2662c6924f",
        (3.0, 5): "10999b7465c88d73b1c3548b95ab8b7bd99c2b14ccee1f7d30ba5c1b22787c47",
        (3.0, 6): "10999b7465c88d73b1c3548b95ab8b7bd99c2b14ccee1f7d30ba5c1b22787c47",
        (3.0, 7): "10999b7465c88d73b1c3548b95ab8b7bd99c2b14ccee1f7d30ba5c1b22787c47",
    },
}


@pytest.mark.parametrize("name", sorted(PLANTED_UNDERCUT_LINES))
def test_min_norm_lines_with_a_planted_undercut_are_pinned(monkeypatch, name):
    import hashlib

    from orthobound.cli import dumps_stable

    make, real = POWER_PAIRS[name]
    s, a, b = make()
    digests, failing = {}, set()
    for shift, seed in itertools.product((100.0, 10.0, 3.0), (5, 6, 7)):
        with monkeypatch.context() as patch:
            patch.setattr(core, "_min_norm", _feasible_not_minimal(shift)(core._min_norm, s))
            line = dumps_stable(verify_all(s, a, b, trials=300, seed=seed, real=real)[1].to_dict())
        assert '"check": "min_norm_optimality"' in line
        digests[shift, seed] = hashlib.sha256(line.encode()).hexdigest()
        if '"passed": false' in line:
            failing.add((shift, seed))
    assert digests == PLANTED_UNDERCUT_LINES[name]
    assert {(100.0, seed) for seed in (5, 6, 7)} <= failing


# --- the deflated check at the instance ----------------------------------------


def _weighted_pair_16():
    rng = np.random.default_rng(16)
    s = make_weighted(rng.uniform(0.5, 2.0, 16))
    a, b = (rng.standard_normal(16) + 1j * rng.standard_normal(16) for _ in range(2))
    return s, a, b


def _scaled_coefficient(project):
    # dividing ||c||^2 by 1 + 1e-3 scales the projection coefficient by it
    return lambda z, c, wc, nc, **kw: project(z, c, wc, nc / (1.0 + 1e-3), **kw)


def _scaled_rhs(factor):
    def plant(sides):
        def planted(*args, **kw):
            lhs, rhs = sides(*args, **kw)
            return lhs, rhs * factor

        return planted

    return plant


PLANTED_DEFECTS = {
    "coefficient-x(1+1e-3)": ("_project_rows", _scaled_coefficient),
    "rhs-x1.01": ("_deflated_sides", _scaled_rhs(1.01)),
    "rhs-x0.99": ("_deflated_sides", _scaled_rhs(0.99)),
}


@pytest.mark.parametrize("pair", [_weighted_pair_16, _pair_1024], ids=["weighted-16", "trapezoid-1024"])
@pytest.mark.parametrize("defect", sorted(PLANTED_DEFECTS))
def test_deflated_check_at_the_instance_finds_planted_defects(monkeypatch, pair, defect):
    s, a, b = pair()
    clean = _deflated_at(s, a, b, 130, 7)
    assert clean.passed and clean.trials == 130
    name, plant = PLANTED_DEFECTS[defect]
    monkeypatch.setattr(core, name, plant(getattr(core, name)))
    rep = _deflated_at(s, a, b, 130, 7)
    assert not rep.passed


# verify_all passes on (2^k a, 2^m b) at every point of the grid: up to harness
# format 7 the Gram data overflowed at (270, 270), and at (-270, -270) the dim-16
# pair's det was subnormal and the dim-1024 pair's det underflowed to 0, so that
# pair counted as dependent.  The residual form has none of these.
SCALE_GRID = {"weighted-16": _weighted_pair_16, "trapezoid-1024": _pair_1024}


@pytest.mark.parametrize("name", sorted(SCALE_GRID))
def test_deflated_line_does_not_depend_on_the_scale_of_a_and_b(name):
    from orthobound.cli import dumps_stable

    s, a, b = SCALE_GRID[name]()
    exponents = (0, 60, -60, 270, -270)
    lines = {}
    for k, m in itertools.product(exponents, exponents):
        reports = verify_all(s, 2.0**k * a, 2.0**m * b, trials=130, seed=5)
        assert all(r.passed for r in reports), (k, m)
        lines[k, m] = dumps_stable(reports[CHECK_ORDER.index("deflated_schwarz")].to_dict())
    assert len(set(lines.values())) == 1
    assert '"skipped": false' in lines[0, 0]


def test_deflated_check_at_the_instance_skips_a_dependent_pair(monkeypatch):
    draws = []
    monkeypatch.setattr(verify, "_draw", lambda *args, **kw: draws.append(args))
    s = make_weighted([1.0, 2.0, 0.5])
    a = np.array([1.0, 2j, -1.0])
    rep = _deflated_at(s, a, (2 - 1j) * a, 200, 3)
    assert (rep.skipped, rep.passed, rep.trials, rep.note) == (True, True, 0, "dependent vectors")
    assert draws == []


# --- the harness's power: a planted-defect matrix ------------------------------
# Each row plants a defect in one or two core kernels; verify_all runs on three
# pairs at the default 1000 trials, and the test pins which checks fail.


def _weighted_pair_16_real():
    s, a, b = _weighted_pair_16()
    return s, a.real, b.real


# name: (pair, real mode)
POWER_PAIRS = {
    "weighted-16-complex": (_weighted_pair_16, False),
    "weighted-16-real": (_weighted_pair_16_real, True),
    "trapezoid-1024-complex": (_pair_1024, False),
}


def _dependent_pair_3():
    s = make_weighted([1.0, 2.0, 0.5])
    a = np.array([1.0, 2j, -1.0])
    return s, a, (2 - 1j) * a


STREAM_PAIRS = dict(POWER_PAIRS, **{"dependent-3-complex": (_dependent_pair_3, False)})


def _times(factor):
    return lambda kernel, space: lambda *args, **kw: kernel(*args, **kw) * factor


def _norm_r_sq_times(factor):
    # ||r||^2 is det/||a||^2: the bound, and the divisor of both vector answers
    def plant(gram, space):
        def planted(*args):
            g = gram(*args)
            return g._replace(norm_r_sq=g.norm_r_sq * factor)

        return planted

    return plant


def _min_norm_times(x_factor, value_factor):
    def plant(min_norm, space):
        def planted(*args):
            x, value = min_norm(*args)
            return x * x_factor, value * value_factor

        return planted

    return plant


def _without_conj(extremizer, space):
    # r formed with <a,b>/||a||^2 in place of its conjugate: the slot's r is dropped, so that the
    # extremizer forms r from the conjugated coefficient piece by piece
    return lambda a, b, g, tol: extremizer(a, b, g._replace(coef=g.coef.conjugate(), r=None), tol)


def _plus_norm_b_sq(bound, space):
    return lambda g: bound(g) + 1e-6 * g.norm_b_sq


def _unit_orthogonal_to(space, a, b, g):
    """A unit vector orthogonal to a and b, made with the unplanted kernels' arithmetic."""
    w = space.weights
    a_dir = (a, core._weigh(w, a), g.norm_a_sq)
    y = core._project_rows(np.cos(np.arange(space.dim)) + 0j, *a_dir)
    b_perp = core._project_rows(b, *a_dir)
    y = core._project_rows(y, b_perp, core._weigh(w, b_perp), core._norm_sq_rows(w, b_perp))
    return y / np.sqrt(core._norm_sq_rows(w, y))


def _attaining_nine_tenths(extremizer, space):
    # cos x* + sin y with y a unit vector orthogonal to a and b and cos^2 = 0.9:
    # a unit extremizer, orthogonal to a, that attains the 10%-low bound exactly
    def planted(a, b, g, tol):
        y = _unit_orthogonal_to(space, a, b, g)
        return np.sqrt(0.9) * extremizer(a, b, g, tol) + np.sqrt(0.1) * y

    return planted


def _feasible_not_minimal(shift):
    # x* + shift ||x*|| v with v a unit vector orthogonal to a and b: <x,a> = 0 and
    # <x,b> = 1 still hold, and the value is ||x||^2, (1 + shift^2) times the optimum
    def plant(min_norm, space):
        def planted(a, b, g, tol):
            x, value = min_norm(a, b, g, tol)
            x = x + shift * np.sqrt(value) * _unit_orthogonal_to(space, a, b, g)
            return x, float(core._norm_sq_rows(space.weights, x))

        return planted

    return plant


def _inner_without_conj(inner_rows, space):
    return lambda w, u, v: inner_rows(w, u, np.conj(v))


def _dot_without_conj(dot_rows, space):
    # the float form of w*c: that of w*conj(c) with its imaginary parts negated
    conj = np.tile([[1.0, -1.0], [-1.0, 1.0]], space.dim)
    return lambda u, wc: dot_rows(u, wc * conj)


def _non_homogeneous_bound(bound, space):
    # det/||a||^1.98 = ||r||^2 ||a||^0.02: right at ||a|| = 1, and off by a factor 2^(0.02 k) when a
    # is scaled by 2^k
    return lambda g: g.norm_r_sq * g.norm_a_sq**0.01


B, M, D, S, R = "bound_dominance", "min_norm_optimality", "deflated_schwarz", "scale_covariance", "real_consistency"
# ESCAPE: no check fails; a strict xfail until ROADMAP item 2 scores the answers
# directly and draws trials near them.  NOT_RUN: the defect changes nothing on a real pair.
ESCAPE, NOT_RUN = "escape", None

# row: (planted kernels, failing checks on each pair in POWER_PAIRS order)
POWER_ROWS = {
    "bound-x0.99": ([("_bound", _times(0.99))], ({B}, {B}, {B})),
    # det = ||a||^2 ||r||^2 moves with ||r||^2
    "det-x0.99": ([("_gram", _norm_r_sq_times(0.99))], ({B, M}, {B, M}, {B, M})),
    "det-x1.01": ([("_gram", _norm_r_sq_times(1.01))], ({M}, {M}, {M})),
    "min-norm-value-x1.01": ([("_min_norm", _min_norm_times(1.0, 1.01))], ({M}, {M}, {M})),
    "min-norm-x-x1.001": ([("_min_norm", _min_norm_times(1.001, 1.0))], ({M}, {M}, {M})),
    "extremizer-x1.001": ([("_extremizer", _times(1.001))], ({B}, {B, R}, {B})),
    # the deflated check takes its r_hat from the extremizer, which here is not orthogonal to a
    "extremizer-without-conj": ([("_extremizer", _without_conj)], ({B, D}, NOT_RUN, {B, D})),
    "bound-x1.01": ([("_bound", _times(1.01))], (ESCAPE, ESCAPE, ESCAPE)),
    "bound-x1.5": ([("_bound", _times(1.5))], (ESCAPE, ESCAPE, ESCAPE)),
    "bound-plus-1e-6-norm-b-sq": ([("_bound", _plus_norm_b_sq)], (ESCAPE, ESCAPE, ESCAPE)),
    # on a real pair, real_consistency compares x* with the explicit real formula
    "extremizer-x(1-1e-3)": ([("_extremizer", _times(1.0 - 1e-3))], (ESCAPE, {R}, ESCAPE)),
    "consistent-10%-low": (
        [("_bound", _times(0.9)), ("_extremizer", _attaining_nine_tenths)],
        (ESCAPE, {R}, ESCAPE),
    ),
    # feasible, not minimal: only competitors x + u with u orthogonal to a and b can
    # see it, and the feasible draws u are too long to undercut x by ||x*||^2
    "min-norm-x-feasible-not-minimal": ([("_min_norm", _feasible_not_minimal(1.0))], (ESCAPE, ESCAPE, ESCAPE)),
    # benign: any unit-modulus multiple of x* is as extremal, but the real formula fixes its sign
    "extremizer-x1j": ([("_extremizer", _times(1j))], (set(), {R}, set())),
    # shared kernels: the bound check scores its draws with the same planted
    # kernels, so a consistent defect escapes it; the min-norm and deflated checks catch it.
    # Each defect goes into both kernels of its kind: the pair functions' (_inner_rows,
    # _norm_sq_rows), which the Gram data and x*'s residuals use, and the harness's (_dot_rows,
    # _sq_norm_rows), which every sampling check uses
    "inner-rows-without-conj": (
        [("_inner_rows", _inner_without_conj), ("_dot_rows", _dot_without_conj)],
        ({M, D}, NOT_RUN, {M, D}),
    ),
    "norm-sq-rows-x(1+1e-3)": (
        [("_norm_sq_rows", _times(1.0 + 1e-3)), ("_sq_norm_rows", _times(1.0 + 1e-3))],
        ({M, D}, {M, D}, {M, D}),
    ),
    # unique catches: the one check that fails is the only one that sees the defect
    "project-rows-coefficient-x(1+1e-3)": (
        [("_project_rows", lambda project, space: _scaled_coefficient(project))],
        ({D}, {D}, {D}),
    ),
    "bound-det-over-norm-a-1.98": ([("_bound", _non_homogeneous_bound)], ({S}, {S}, {S})),
}


def _power_cells():
    escape = pytest.mark.xfail(
        strict=True, reason="ROADMAP item 2: no check scores the answers directly or draws trials near them"
    )
    for row, (_, cells) in POWER_ROWS.items():
        for pair, caught_by in zip(POWER_PAIRS, cells):
            if caught_by is not NOT_RUN:
                marks = [escape] if caught_by is ESCAPE else []
                yield pytest.param(row, pair, caught_by, id=f"{row}-{pair}", marks=marks)


@pytest.fixture(scope="module")
def kill_count():
    """The failing checks of each cell run; one summary line, shown under -s, once they have run: the
    cells caught, and each check's unique kills, the cells where it is the only check that fails."""
    failing = []
    yield failing
    if failing:
        unique = ", ".join(f"{check} {sum(f == {check} for f in failing)}" for check in CHECK_ORDER)
        caught = sum(map(bool, failing))
        print(f"\nplanted-defect matrix: {caught} of {len(failing)} cells caught; unique kills: {unique}")


@pytest.mark.parametrize("row, pair, caught_by", _power_cells())
def test_planted_defect_matrix(monkeypatch, kill_count, row, pair, caught_by):
    make, real = POWER_PAIRS[pair]
    s, a, b = make()
    # an empty slot, so that no Gram data built before the defect was planted is reused
    monkeypatch.setattr(core, "_last_pair", ((), None))
    for name, plant in POWER_ROWS[row][0]:
        monkeypatch.setattr(core, name, plant(getattr(core, name), s))
    failing = {r.check_name for r in verify_all(s, a, b, real=real) if not r.passed}
    kill_count.append(failing)
    if caught_by is ESCAPE:
        assert failing
    else:
        assert failing == caught_by


# --- the deflated check's instance form against its projection form ------------


def _dense_pair_3_real():
    return make_dense(3), np.array([1.0, 1.0, 1.0]), np.array([1.0, 2.0, 3.0])


def _near_overflow_pair_4_real():
    return make_weighted([4e307, 4e307, 1.0, 4e307]), np.array([1.0, 1.0, 0.0, 0.0]), np.array([0.0, 0.0, 2e-154, 0.0])


# pairs for the min-norm check's row form, beside the power pairs.  On the dense dim-3 real pair the steps u,
# orthogonal to a, lie in a plane, and about half of them keep under half their squared norm once projected
# against r_hat; on the near-overflow pair ||x*||^2 = 1/||b||^2 = 2.5e307 and ||u||^2 runs up to 3.6e308
ROW_FORM_PAIRS = {
    "dense-3-real": (_dense_pair_3_real, True),
    "near-overflow-4-real": (_near_overflow_pair_4_real, True),
}


def _feasible_blocks(name, trials=1000, seed=7):
    """The pair of POWER_PAIRS[name] or ROW_FORM_PAIRS[name], and the blocks of its feasible stream:
    (u, ||u||^2, rng), with rng ready to draw the block's equality-case coefficients."""
    make, real = {**POWER_PAIRS, **ROW_FORM_PAIRS}[name]
    s, a, b = make()
    pair = core._pair(s, a, b)
    a_dir = (pair[0], core._weigh(s.weights, pair[0]), pair[2].norm_a_sq)
    blocks = []
    for k, n in enumerate(verify._block_rows(trials, s.dim)):
        u, t = np.empty((2, n, s.dim), complex)
        rng = verify._block_rng(seed, k)
        blocks.append((u, verify._usable_draws(s, rng, u, real, t, a_dir), rng))
    return s, pair, real, a_dir, blocks


@pytest.mark.parametrize("name", sorted(POWER_PAIRS))
def test_deflated_instance_form_agrees_with_the_projection_form(name):
    # the projection form projects each row against a_hat and forms mu*c' + beta*r_hat' row by row
    s, (aa, bb, g), real, _, blocks = _feasible_blocks(name)
    w, u_ = s.weights, np.finfo(float).eps / 2
    cdp = np.stack((aa / np.sqrt(g.norm_a_sq), core._extremizer(aa, bb, g, TOL)))
    c, dp = cdp
    wc, wdp, (nc, ndp) = core._weigh(w, c), core._weigh(w, dp), core._sq_norm_rows(w, cdp)
    basis = core._project_rows(cdp, c, wc, nc)
    sides = verify._instance_sides(w, cdp)
    for u, nsq, rng in blocks:
        mu_beta = verify._draw(rng, (len(u), 2), real)
        lhs, rhs, lhs_e, rhs_e = sides(u, nsq, mu_beta)
        zp, y = core._project_rows(u, c, wc, nc), np.einsum("ik,kj->ij", mu_beta, basis)
        ref_lhs, ref_rhs = core._deflated_sides(core._sq_norm_rows(w, zp), core._dot_rows(zp, wdp), nc, ndp)
        ref_lhs_e, ref_rhs_e = core._deflated_sides(core._sq_norm_rows(w, y), core._dot_rows(y, wdp), nc, ndp)
        assert np.all(np.abs(lhs - ref_lhs) <= 8 * u_ * ref_lhs)
        assert np.all(np.abs(rhs - ref_rhs) <= 8 * u_ * ref_lhs)
        # each equality-case figure is a row sum of 2*dim products in either form (the rows of y, or
        # the Gram entries of c' and r_hat'), which may round by up to 2*dim*u (Higham, Accuracy and
        # Stability of Numerical Algorithms, 2nd ed., sec. 4.2); at dim 1024 the two forms differed
        # by up to 47u, against 11u from the instance form to an extended-precision reference
        slack = 8 * u_ * (1 + s.dim) * ref_lhs_e
        assert np.all(np.abs(lhs_e - ref_lhs_e) <= slack)
        assert np.all(np.abs(rhs_e - ref_rhs_e) <= slack)


@pytest.mark.parametrize("name", sorted(POWER_PAIRS))
def test_deflated_check_takes_two_row_products_per_block(monkeypatch, name):
    s, pair, real, a_dir, blocks = _feasible_blocks(name, trials=130)
    score, _, _ = verify._deflated_check(s, pair, 130, TOL, real, a_dir)
    u, nsq, rng = blocks[0]
    calls, einsum_shapes = [], []

    def counting(kernel, run):
        def counted(*args, **kw):
            calls.append((kernel, [np.shape(x) for x in args]))
            return run(*args, **kw)

        return counted

    for kernel in ("_dot_rows", "_project_rows", "_sq_norm_rows", "_norm_sq_rows"):
        monkeypatch.setattr(core, kernel, counting(kernel, getattr(core, kernel)))
    einsum = np.einsum

    def counted_einsum(*args, **kw):
        out = einsum(*args, **kw)
        einsum_shapes.append(out.shape)
        return out

    monkeypatch.setattr(np, "einsum", counted_einsum)
    score(u, nsq, rng)
    # the two row products <z,a_hat> and <z,r_hat>, and no other kernel: the rest is once per call
    assert calls == [("_dot_rows", [u.shape, (2, 2 * s.dim)])] * 2
    assert einsum_shapes and u.shape not in einsum_shapes


# --- the min-norm check's row form against its projection form ----------------


def _competitors_by_projection(w, x, nx, r_dir, a_dir, u):
    """The projection form on every row of u, which the min-norm check keeps for a block's worst row and the
    rows its row form leaves out: the undercuts of the competitors x + ws, ws the rows of u projected against
    r_hat and then against a, the competitors and ||ws||^2."""
    ws = core._project_rows(core._project_rows(u, *r_dir), *a_dir)
    comps = x + ws
    nws = core._sq_norm_rows(w, ws)
    return (nx - core._sq_norm_rows(w, comps)) / (1.0 + nx + nws), comps, nws


def _min_norm_forms(s, pair, real, a_dir, trials):
    """The min-norm check's score on the pair, its row form, and the projection form as a function of u."""
    (aa, bb, g), w = pair, s.weights
    x, _ = core._min_norm(aa, bb, g, TOL)
    nx = float(core._norm_sq_rows(w, x))
    r_hat = core._residual(aa, bb, g, 1.0 / np.sqrt(g.norm_r_sq))
    r_dir = (r_hat, core._weigh(w, r_hat), core._sq_norm_rows(w, r_hat))
    score, _, _ = verify._min_norm_check(s, pair, trials, TOL, real, a_dir)
    undercuts = verify._competitor_undercuts(w, x, nx, r_dir)
    return score, undercuts, lambda u: _competitors_by_projection(w, x, nx, r_dir, a_dir, u)


@pytest.fixture(scope="module")
def worst_row_form_gap():
    """Each pair's largest gap between the row form's undercut and the projection form's, in units of
    u (1 + dim); one line, shown under -s, once the agreement tests have run."""
    worst = {}
    yield worst
    if worst:
        print("\nmin-norm row form, worst gap / (u (1 + dim)): " + ", ".join(f"{k} {v:.3g}" for k, v in worst.items()))


@pytest.mark.parametrize("name", sorted(POWER_PAIRS) + ["dense-3-real"])
def test_min_norm_row_form_agrees_with_the_projection_form(worst_row_form_gap, name):
    s, pair, real, a_dir, blocks = _feasible_blocks(name)
    score, undercuts, by_projection = _min_norm_forms(s, pair, real, a_dir, 1000)
    gap, fallback, u_ = 0.0, 0, np.finfo(float).eps / 2
    for u, nsq, rng in blocks:
        undercut, direct = undercuts(u, nsq)
        ref, comps, nws = by_projection(u)
        # the rows scored directly are exactly those the projection leaves with under half of ||u||^2
        np.testing.assert_array_equal(direct, nws < 0.5 * nsq)
        fallback += int(direct.sum())
        # each form's numerator is a row sum of about 2*dim products, none larger than the denominator,
        # which may round by up to 2*dim*u (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
        # ed., sec. 4.2); the projection against a that the row form leaves out moves them by O(u^2)
        kept = ~direct
        gap = max(gap, float(np.max(np.abs(undercut - ref)[kept], initial=0.0)) / (u_ * (1 + s.dim)))
        # the block's first worst figure and witness are the projection form's, to the bit
        k = int(np.argmax(ref))
        v, witness = score(u, nsq, rng)
        assert v == ref[k]
        np.testing.assert_array_equal(witness, comps[k])
    worst_row_form_gap[name] = gap
    assert gap <= 4.0
    if name == "dense-3-real":
        assert 300 < fallback < 700
    elif s.dim > 16:
        assert fallback == 0


def test_min_norm_rows_near_overflow_are_scored_directly():
    # ||u||^2 overflows in some rows; in others ||x* + ws||^2 does while ||ws||^2 fits, where the
    # projection form's figure is nan and the row form's would be -0.0, as -(finite)/inf
    with np.errstate(over="ignore", invalid="ignore"):
        s, pair, real, a_dir, blocks = _feasible_blocks("near-overflow-4-real", trials=2000, seed=1)
        score, undercuts, by_projection = _min_norm_forms(s, pair, real, a_dir, 2000)
        (u, nsq, rng), = blocks
        undercut, direct = undercuts(u, nsq)
        ref, comps, nws = by_projection(u)
        v, witness = score(u, nsq, rng)
    assert np.any(np.isinf(nsq)) and np.any(np.isnan(ref) & np.isfinite(nsq) & (nws >= 0.5 * nsq))
    # every row the row form keeps has finite figures in both forms, and the worst row is the same
    assert np.all(np.isfinite(undercut[~direct])) and np.all(np.isfinite(ref[~direct]))
    k = int(np.argmax(ref))
    assert np.isnan(ref[k]) and np.isnan(v)
    np.testing.assert_array_equal(witness, comps[k])


def test_min_norm_check_takes_two_row_products_per_block(monkeypatch):
    s, pair, real, a_dir, blocks = _feasible_blocks("trapezoid-1024-complex", trials=130)
    score, _, _ = verify._min_norm_check(s, pair, 130, TOL, real, a_dir)
    u, nsq, rng = blocks[0]
    calls, add_shapes = [], []

    def counting(kernel, run):
        def counted(*args, **kw):
            calls.append((kernel, [np.shape(x) for x in args]))
            return run(*args, **kw)

        return counted

    for kernel in ("_dot_rows", "_project_rows", "_sq_norm_rows", "_norm_sq_rows"):
        monkeypatch.setattr(core, kernel, counting(kernel, getattr(core, kernel)))

    class CountedAdd:
        def __call__(self, *args, **kw):
            out = add(*args, **kw)
            add_shapes.append(np.shape(out))
            return out

        def __getattr__(self, name):
            return getattr(add, name)

    add = np.add
    monkeypatch.setattr(np, "add", CountedAdd())
    score(u, nsq, rng)
    # the two row products <u,r_hat> and <u,x*>; only the worst row is projected and formed
    assert [call for call in calls if u.shape in call[1]] == [("_dot_rows", [u.shape, (2, 2 * s.dim)])] * 2
    assert u.shape not in add_shapes
    assert ("_project_rows", [(1, s.dim), (s.dim,), (2, 2 * s.dim), ()]) in calls
