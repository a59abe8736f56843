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


@pytest.mark.xfail(strict=True, reason="one projection pass; ROADMAP item 2")
def test_sample_feasible_orthogonal_under_weights_spread_over_1e300():
    # the rounding that one projection pass leaves in the 1e300-weighted
    # coordinate dominates the norm: the draw comes out parallel to a
    s = make_weighted([1e300, 1, 2])
    a = [1e-150] * 3
    x = sample_feasible(s, a, seed=0, real=True)
    assert norm_sq(s, x) == pytest.approx(1.0, abs=1e-12)
    assert abs(inner(s, x, a)) <= 1e-9 * np.sqrt(norm_sq(s, a))


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


def test_verify_deflated_zero_trials():
    rep = verify_deflated(make_dense(3), trials=0, seed=1)
    assert rep.passed and rep.trials == 0


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
    import tracemalloc

    s, a, b = _pair_1024()
    peaks = []
    for trials in (130, 4000):
        tracemalloc.start()
        try:
            verify_all(s, a, b, trials=trials, seed=6)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    mib = 1 << 20
    assert abs(peaks[1] - peaks[0]) < mib
    assert max(peaks) < 12 * mib


def test_min_norm_check_finds_planted_undercut(monkeypatch):
    """A 'solution' shifted by w0 orthogonal to a and b is feasible but not
    optimal; the batched competitors must find an undercut, with the same
    worst trial as a per-trial loop over the same draws built on the
    summation oracle."""
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

    def project(z, c):
        return z - inner_by_summation(s.weights, z, c) / norm_sq_by_summation(s.weights, c) * c

    b_perp = project(b, a)
    undercuts, competitors = [], []
    for w in verify._draw(np.random.default_rng(5), (200, 4), False):
        w = project(project(project(w, a), b_perp), a)
        competitors.append(shifted + w)
        undercuts.append(
            (value - norm_sq_by_summation(s.weights, shifted + w))
            / (1.0 + value + norm_sq_by_summation(s.weights, w))
        )
    k = int(np.argmax(undercuts))
    assert rep.worst_violation == pytest.approx(undercuts[k], rel=1e-9)
    np.testing.assert_allclose(rep.witness, competitors[k], rtol=1e-12, atol=1e-12)


def test_row_kernels_match_summation_oracle():
    from oracles import inner_by_summation, norm_sq_by_summation

    rng = np.random.default_rng(31)
    s = make_weighted(rng.uniform(0.5, 2.0, 6))
    z, c, d = (rng.standard_normal((5, 6)) + 1j * rng.standard_normal((5, 6)) for _ in range(3))
    nc = core._norm_sq_rows(s.weights, c)
    dp = core._project_rows(s.weights, d, c, nc)
    projected = core._project_rows(s.weights, z, c, nc)
    lhs, rhs = core._deflated_sides(s.weights, projected, dp, nc, core._norm_sq_rows(s.weights, dp))

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


# --- the deflated check on a second thread ------------------------------------


def test_verify_all_golden_dim_1024():
    """verify_all at dim 1024, trials 130 (blocks of 64 + 64 + 2 rows), pinned
    by a digest of its exact report bytes, captured before the deflated check
    moved to a second thread and the arithmetic to row chunks."""
    import hashlib

    from orthobound.cli import dumps_stable

    s, a, b = _pair_1024()
    reports = verify_all(s, a, b, trials=130, seed=5)
    text = "\n".join(dumps_stable(r.to_dict()) for r in reports)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "4b98ba755822394e47e5ed9d6a2da5e2fa7a2802a0ecb76c488fbdcdca65aa34"
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

    def failing_bound(*args):
        raise ValueError("planted bound failure")

    monkeypatch.setattr(verify, "_verify_bound", failing_bound)
    before = threading.active_count()
    s, a, b = _pair_1024()
    with pytest.raises(ValueError, match="planted bound failure"):
        verify_all(s, a, b, trials=1000)
    assert threading.active_count() == before


def test_import_of_the_cli_leaves_concurrent_futures_unloaded():
    # verify_all imports its executor when called: concurrent.futures loads logging;
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
    def failing_deflated(*args, **kwargs):
        raise RuntimeError("planted deflated failure")

    monkeypatch.setattr(verify, "verify_deflated", failing_deflated)
    with pytest.raises(RuntimeError, match="planted deflated failure"):
        verify_all(make_dense(4), [1, 2, 3, 4], [1, -1, 2, 0.5j], trials=50)
    # the sequential order would raise the bound check's error first
    monkeypatch.setattr(verify, "_verify_bound", lambda *args: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        verify_all(make_dense(4), [1, 2, 3, 4], [1, -1, 2, 0.5j], trials=50)


def test_verify_all_dim1_skips_the_bound_check():
    # a-perp is {0} in dimension 1: the bound check has nothing to draw and
    # is skipped, while the other checks run
    reports = verify_all(make_dense(1), [1.0], [2.0], trials=10)
    assert [r.check_name for r in reports] == list(CHECK_ORDER)
    bound = reports[0]
    assert bound.skipped and bound.passed and bound.trials == 0
    assert bound.note == "no unit vector is orthogonal to a in dimension 1"
    assert all(r.passed for r in reports)
    assert not reports[2].skipped and reports[2].trials == 10
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
    # with weights 1e-20 most squared norms fall under the degenerate floor:
    # seed 4 redraws 18, then 2, then 1 of the 200 rows of c, and the report
    # is pinned by a digest captured before this test was written
    import hashlib

    from orthobound.cli import dumps_stable

    draws = []
    draw = verify._draw

    def counting(rng, shape, *args, **kwargs):
        draws.append(shape)
        return draw(rng, shape, *args, **kwargs)

    monkeypatch.setattr(verify, "_draw", counting)
    rep = verify_deflated(make_weighted([1e-20, 1e-20]), trials=200, seed=4)
    # z, c, three redraws of c, d, then the equality-case coefficients
    assert draws == [(200, 2), (200, 2), (18, 2), (2, 2), (1, 2), (200, 2), (200, 2)]
    assert rep.passed
    assert hashlib.sha256(dumps_stable(rep.to_dict()).encode()).hexdigest() == (
        "5126785f57754c2894e8d3d74691ac667423bc81e2501b3de5ca4f74a51bb14c"
    )
