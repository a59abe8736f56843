import hashlib
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from orthobound import (
    DEFAULT_TOL,
    DependentVectors,
    DimensionMismatch,
    GramOverflow,
    NonFiniteInput,
    OrthoboundError,
    SpaceDescriptor,
    Tolerances,
    ZeroVector,
    core,
    deflated_schwarz,
    extremizer,
    gram2,
    inner,
    make_dense,
    make_weighted,
    min_norm_solution,
    norm_sq,
    ostrowski_bound,
    project_out,
    sample_feasible,
    schwarz_gap,
    verify_all,
)
from orthobound.cli import dumps_stable
from lanes import with_the_worker
from oracles import (
    extremizer_whole,
    gram_whole,
    inner_by_summation,
    min_norm_by_lagrange,
    min_norm_whole,
    norm_sq_by_summation,
    pair_answers_by_mpmath,
    residual_whole,
)

D2 = make_dense(2)
D3 = make_dense(3)


# --- inner / norm_sq -------------------------------------------------------

def test_inner_orthonormal_basis():
    assert inner(D2, [1, 0], [0, 1]) == 0


def test_inner_conjugates_second_slot():
    assert inner(D2, [1j, 0], [1, 0]) == 1j


def test_inner_weighted_matches_summation_oracle():
    s = make_weighted([2.0, 3.0])
    assert inner(s, [1, 1], [1, 1]) == inner_by_summation(s.weights, [1, 1], [1, 1]) == 5


def test_inner_conjugate_symmetry():
    rng = np.random.default_rng(0)
    u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    s = make_dense(4)
    assert inner(s, u, v) == pytest.approx(inner(s, v, u).conjugate(), rel=1e-14)


def test_inner_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        inner(D2, [1, 0, 0], [0, 1])


def test_inner_rejects_nan():
    with pytest.raises(NonFiniteInput):
        inner(D2, [float("nan"), 0], [0, 1])


def test_norm_sq_pythagorean():
    assert norm_sq(D2, [3, 4]) == 25


def test_norm_sq_complex():
    assert norm_sq(D2, [1j, 1]) == 2


def test_norm_sq_weighted_oracle():
    s = make_weighted([2.0, 3.0])
    assert norm_sq(s, [1, 2]) == norm_sq_by_summation(s.weights, [1, 2]) == 14


# --- gram2 / schwarz_gap ---------------------------------------------------

def test_gram2_orthonormal():
    g = gram2(D2, [1, 0], [0, 1])
    assert (g.norm_a_sq, g.norm_b_sq, g.inner_ab, g.det) == (1, 1, 0, 1)


def test_gram2_summation_oracle():
    g = gram2(D3, [1, 1, 1], [1, 2, 3])
    assert (g.norm_a_sq, g.norm_b_sq, g.inner_ab, g.det) == (3, 14, 6, 6)


def test_gram2_proportional_det_zero():
    assert gram2(D2, [1, 2], [2, 4]).det == 0


def test_gram2_det_never_negative():
    # near-dependent pair where rounding can push det below zero
    a = np.array([1.0, 1e-9])
    b = a * (1 + 1e-16)
    assert gram2(D2, a, b).det >= 0.0


def test_gram2_det_recomputable():
    rng = np.random.default_rng(5)
    a = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    g = gram2(make_dense(6), a, b)
    assert g.det == pytest.approx(g.norm_a_sq * g.norm_b_sq - abs(g.inner_ab) ** 2, rel=1e-15)


def test_schwarz_gap_values():
    assert schwarz_gap(D2, [1, 0], [0, 1]) == 1
    assert schwarz_gap(D2, [1, 2], [2, 4]) == 0
    assert schwarz_gap(D3, [1, 1, 1], [1, 2, 3]) == 6


# --- ostrowski_bound -------------------------------------------------------

def test_bound_simple():
    assert ostrowski_bound(D2, [1, 0], [1, 1]) == 1


def test_bound_derived_value():
    assert ostrowski_bound(D3, [1, 1, 1], [1, 2, 3]) == pytest.approx(2.0)


def test_bound_proportional_is_zero():
    assert ostrowski_bound(D2, [1, 2], [3, 6]) == 0


def test_bound_zero_vector_a():
    with pytest.raises(ZeroVector):
        ostrowski_bound(D2, [0, 0], [1, 1])


# --- extremizer ------------------------------------------------------------

def test_extremizer_simple():
    np.testing.assert_allclose(extremizer(D2, [1, 0], [1, 1]), [0, 1])


def test_extremizer_derived():
    x = extremizer(D3, [1, 1, 1], [1, 2, 3])
    np.testing.assert_allclose(x, [-1 / np.sqrt(2), 0, 1 / np.sqrt(2)], atol=1e-15)


def test_extremizer_complex():
    x = extremizer(D2, [1, 0], [1j, 1])
    np.testing.assert_allclose(x, [0, 1], atol=1e-15)


def test_extremizer_feasible_and_attains():
    rng = np.random.default_rng(11)
    s = make_dense(8)
    a = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    b = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    x = extremizer(s, a, b)
    bound = ostrowski_bound(s, a, b)
    assert abs(inner(s, x, a)) <= 1e-9 * np.sqrt(norm_sq(s, a))
    assert abs(norm_sq(s, x) - 1.0) <= 1e-9
    assert abs(inner(s, x, b)) ** 2 == pytest.approx(bound, abs=1e-9 * (1 + bound))


def test_extremizer_rejects_dependent():
    with pytest.raises(DependentVectors):
        extremizer(D2, [1, 2], [2, 4])


def test_extremizer_rejects_zero_b():
    with pytest.raises(DependentVectors):
        extremizer(D2, [1, 2], [0, 0])


def test_extremizer_dim1_always_errors():
    with pytest.raises(DependentVectors):
        extremizer(make_dense(1), [1], [2])


def test_extremizer_dependence_threshold_tunable():
    a = np.array([1.0, 0.0])
    b = np.array([1.0, 1e-5])
    strict = Tolerances(rel_eps=1e-9, dependence_eps=1e-8)
    with pytest.raises(DependentVectors):
        extremizer(D2, a, b, strict)
    extremizer(D2, a, b)  # default threshold accepts it


# --- min_norm_solution -----------------------------------------------------

def test_min_norm_forced():
    x, value = min_norm_solution(D2, [1, 0], [0, 1])
    np.testing.assert_allclose(x, [0, 1])
    assert value == 1


def test_min_norm_derived():
    x, value = min_norm_solution(D3, [1, 1, 1], [1, 2, 3])
    np.testing.assert_allclose(x, [-0.5, 0, 0.5], atol=1e-15)
    assert value == pytest.approx(0.5)


def test_min_norm_b_scaling():
    # doubling b halves x and quarters the value
    x, value = min_norm_solution(D3, [1, 1, 1], [2, 4, 6])
    np.testing.assert_allclose(x, [-0.25, 0, 0.25], atol=1e-15)
    assert value == pytest.approx(0.125)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("complex_mode", [False, True])
def test_min_norm_matches_lagrange_oracle(seed, complex_mode):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 9))
    s = make_dense(dim)
    a = rng.standard_normal(dim) + (1j * rng.standard_normal(dim) if complex_mode else 0)
    b = rng.standard_normal(dim) + (1j * rng.standard_normal(dim) if complex_mode else 0)
    x, value = min_norm_solution(s, a, b)
    x_ref, value_ref = min_norm_by_lagrange(s.weights, a, b)
    np.testing.assert_allclose(x, x_ref, rtol=1e-8, atol=1e-12)
    assert value == pytest.approx(value_ref, rel=1e-8)
    assert norm_sq(s, x) == pytest.approx(value, rel=1e-9)


def test_min_norm_constraints_hold():
    s = make_weighted([0.5, 1.5, 2.5, 3.0])
    rng = np.random.default_rng(2)
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    x, _ = min_norm_solution(s, a, b)
    assert abs(inner(s, x, a)) < 1e-12
    assert inner(s, x, b) == pytest.approx(1.0, abs=1e-12)


def test_min_norm_rejects_dependent():
    with pytest.raises(DependentVectors):
        min_norm_solution(D2, [1, 2], [2, 4])


# --- the paper's two applications, in closed form ---------------------------

@pytest.mark.parametrize("n", [8, 1000, core._PIECE + 1, 1 << 18])
def test_sequence_application_is_exact(n):
    # a = ones and b = (1, ..., n): det = n^2 (n^2 - 1) / 12; the three Gram
    # sums are integers below 2^53, held exactly, and both answers are exact
    space, a, b = make_dense(n), np.ones(n), np.arange(1.0, n + 1)
    assert ostrowski_bound(space, a, b) == n * (n * n - 1) / 12
    assert min_norm_solution(space, a, b)[1] == 12 / (n * (n * n - 1))


@pytest.mark.parametrize(
    "weight, bound, value",
    [(lambda t: 1.0, 1 / 12, 12.0), (lambda t: t, 1 / 36, 36.0)],
    ids=["p=1", "p=t"],
)
def test_integral_application_on_gauss_legendre_nodes(weight, bound, value):
    # a = 1 and b = t in L^2([0, 1], p(t) dt); 4 Gauss-Legendre nodes integrate
    # the degree-3 products exactly
    t, w = np.polynomial.legendre.leggauss(4)
    t, w = (t + 1) / 2, w / 2
    space = SpaceDescriptor("quadrature", w * weight(t), t)
    assert ostrowski_bound(space, np.ones(4), t) == pytest.approx(bound, rel=4e-15)
    assert min_norm_solution(space, np.ones(4), t)[1] == pytest.approx(value, rel=4e-15)


# --- project_out / deflated_schwarz ---------------------------------------

def test_project_out_basis():
    np.testing.assert_allclose(project_out(D2, [1, 1], [1, 0]), [0, 1])


def test_project_out_self_gives_zero():
    np.testing.assert_allclose(project_out(D3, [1, 2, 3], [1, 2, 3]), [0, 0, 0], atol=1e-15)


def test_project_out_derived():
    np.testing.assert_allclose(project_out(D3, [1, 2, 3], [1, 1, 1]), [-1, 0, 1], atol=1e-15)


def test_project_out_norm_identity():
    rng = np.random.default_rng(8)
    s = make_dense(5)
    z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    c = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    u = project_out(s, z, c)
    nc = norm_sq(s, c)
    expected = (norm_sq(s, z) * nc - abs(inner(s, z, c)) ** 2) / nc
    assert norm_sq(s, u) == pytest.approx(expected, rel=1e-12)
    assert abs(inner(s, u, c)) <= 1e-12 * np.sqrt(norm_sq(s, z) * nc)


def test_project_out_zero_vector():
    with pytest.raises(ZeroVector):
        project_out(D2, [1, 1], [0, 0])


def test_deflated_schwarz_orthogonal_triple():
    lhs, rhs = deflated_schwarz(D3, [1, 0, 0], [0, 0, 1], [0, 1, 0])
    assert (lhs, rhs) == (1.0, 0.0)


def test_deflated_schwarz_z_equals_d():
    rng = np.random.default_rng(4)
    d = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    lhs, rhs = deflated_schwarz(make_dense(4), d, c, d)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_deflated_schwarz_equality_construction():
    # z a combination of c and d's component orthogonal to c forces equality
    rng = np.random.default_rng(9)
    s = make_dense(5)
    c = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    d = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    z = (2 + 1j) * project_out(s, d, c)
    lhs, rhs = deflated_schwarz(s, z, c, d)
    assert abs(lhs - rhs) <= 1e-8 * (1 + lhs)


def test_deflated_schwarz_random_inequality():
    rng = np.random.default_rng(10)
    s = make_dense(6)
    for _ in range(200):
        z, c, d = (rng.standard_normal(6) + 1j * rng.standard_normal(6) for _ in range(3))
        lhs, rhs = deflated_schwarz(s, z, c, d)
        assert lhs >= rhs - 1e-9 * (1 + lhs)


def test_deflated_schwarz_equality_nearly_parallel_to_c():
    # z = mu*c + 2e-4*mu*d_perp: the expanded ||z||^2||c||^2 - |<z,c>|^2
    # cancels here, the deflated form does not
    rng = np.random.default_rng(2024)
    for _ in range(2000):
        s = make_weighted(rng.uniform(0.5, 2.0, 16))
        c, d = (rng.standard_normal(16) + 1j * rng.standard_normal(16) for _ in range(2))
        mu = complex(rng.standard_normal(), rng.standard_normal())
        z = mu * c + 2e-4 * mu * project_out(s, d, c)
        lhs, rhs = deflated_schwarz(s, z, c, d)
        assert abs(lhs - rhs) <= 1e-12 * lhs


@pytest.mark.parametrize("fn", [gram2, ostrowski_bound, extremizer, min_norm_solution])
def test_pair_entry_points_validate_each_argument_once(fn, as_vector_calls):
    s = make_weighted([1.0, 2.0, 0.5])
    fn(s, [1, 2, 3], [1, -1, 2j])
    assert as_vector_calls == ["a", "b"]


# Dense pairs whose ||a||^2 ||b||^2 (the first) or |<a,b>|^2 (the second) does not
# fit in float64, while the answers do: bounds 1e220 and about 1.  gram2's det,
# ||a||^2 ||r||^2, is 1e330 on the first and 1e200 on the second.  The second pair's
# sin^2 is 1e-200, so extremizer and min_norm_solution refuse it as dependent
ANSWERS_FIT = {
    ((1e100, 0), (0, 1e110)): {ostrowski_bound, extremizer, min_norm_solution},
    ((1e100, 1), (1e100, 2)): {gram2, ostrowski_bound, extremizer, min_norm_solution},
}


def _answers(fn, a, b) -> bool:
    """Whether fn answers the dense pair (a, b), or refuses it as dependent; when it
    answers, the answer is held to the mpmath oracle."""
    if fn not in ANSWERS_FIT.get((tuple(a), tuple(b)), ()):
        return False
    ref = pair_answers_by_mpmath(np.ones(2), a, b)
    if fn in (extremizer, min_norm_solution) and ref.kappa > 1 / DEFAULT_TOL.dependence_eps:
        with pytest.raises(DependentVectors):
            fn(D2, a, b)
        return True
    got = fn(D2, a, b)
    if fn is gram2:
        assert got.det == pytest.approx(ref.det, rel=1e-15)
    elif fn is ostrowski_bound:
        assert got == pytest.approx(ref.bound, rel=1e-15)
    elif fn is extremizer:
        assert np.max(np.abs(got - ref.extremizer)) <= 1e-15
    else:
        x, value = got
        assert value == pytest.approx(ref.value, rel=1e-15)
        assert np.max(np.abs(x - ref.min_norm)) <= 1e-15 * np.max(np.abs(ref.min_norm))
    return True


# numpy warns as the squared norms overflow; the typed error is what is tested
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("fn", [gram2, ostrowski_bound, extremizer, min_norm_solution])
@pytest.mark.parametrize("a, b", [([1e308, 1], [0.5, 1]), ([1e200, 0], [0, 1e200]), ([1e100, 0], [0, 1e110])])
def test_gram_overflow_raises_typed_error(fn, a, b):
    assert issubclass(GramOverflow, OrthoboundError)
    if _answers(fn, a, b):
        return
    with pytest.raises(GramOverflow, match="overflows float64"):
        fn(make_dense(2), a, b)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: prescaling")
def test_extremizer_finite_when_norm_b_sq_is_subnormal():
    # an independent pair (||r||^2 / ||b||^2 = 1/11) whose ||b||^2 is subnormal:
    # ||r||^2 is subnormal too, and the answers refuse it with GramOverflow
    a = [1j, 3 + 1j]
    with np.errstate(over="ignore", invalid="ignore"):
        x = extremizer(D2, a, [0, 6.494684341851422e-161j])
    assert np.isfinite(x).all()
    assert norm_sq(D2, x) == pytest.approx(1.0, rel=1e-9)
    assert abs(inner(D2, x, a)) <= 1e-9


# --- accuracy on near-dependent pairs -----------------------------------------

@pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6, 1e-8])
@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_answers_are_accurate_on_near_dependent_pairs(eps, real):
    # b = (2-i) a + eps q (2a + eps q when real), weighted dim 16: each answer lies within
    # 64 u sqrt(kappa) relative of 60-digit mpmath, kappa = ||b||^2 / ||r||^2 (2.5 at worst,
    # measured).  Answers taken from det = ||a||^2 ||b||^2 - |<a,b>|^2 lose u kappa instead:
    # 213 u sqrt(kappa) at eps = 1e-2, and a bound off by 4e1 relative at eps = 1e-8
    rng = np.random.default_rng(16)
    tol = Tolerances(dependence_eps=1e-30)  # kappa reaches 1e17 at eps = 1e-8
    for _ in range(5):
        s = make_weighted(rng.uniform(0.5, 2.0, 16))
        a, q = (rng.standard_normal(16) + (0 if real else 1j * rng.standard_normal(16)) for _ in range(2))
        b = (2.0 if real else 2.0 - 1j) * a + eps * q
        ref = pair_answers_by_mpmath(s.weights, a, b)
        bound = 64 * 2.0**-53 * math.sqrt(ref.kappa)
        assert abs(ostrowski_bound(s, a, b) - ref.bound) <= bound * ref.bound
        assert abs(min_norm_solution(s, a, b, tol)[1] - ref.value) <= bound * ref.value
        assert math.sqrt(norm_sq(s, extremizer(s, a, b, tol) - ref.extremizer)) <= bound


# --- long vectors, reduced in pieces ---------------------------------------

def _long_pair(dim, mode):
    """A weighted pair from a seed fixed by dim: real (mode False), complex
    (True), or "integer", with entries in -2..2 and zeros of either sign."""
    rng = np.random.default_rng(dim)
    s = make_weighted(rng.uniform(0.5, 2.0, dim))
    if mode == "integer":
        parts = np.copysign(rng.integers(-2, 3, (2, 2 * dim)), rng.choice([-1.0, 1.0], (2, 2 * dim)))
        a, b = parts.view(np.complex128)
        return s, a, b
    a, b = (
        rng.standard_normal(dim) + (1j * rng.standard_normal(dim) if mode else 0j)
        for _ in range(2)
    )
    return s, a, b


# other forms the pair functions take a vector in: the _long_pair mode each is made
# from, and how; each must give the bytes of the complex128 vector it converts to
INPUT_FORMS = {
    "list": (True, lambda v: v.tolist()),
    "float64": (False, lambda v: v.real.copy()),
    "int64": ("integer", lambda v: v.real.astype(np.int64)),
    "strided": (True, lambda v: np.repeat(v, 2)[::2]),
}


@pytest.mark.parametrize(
    "dim, mode",
    [(dim, mode) for dim in (2, 17, core._PIECE - 1, core._PIECE + 1, 2 * core._PIECE + 3, 1 << 18)
     for mode in (False, True)]
    + [(core._PIECE + 1, "integer")]
    + [(17, form) for form in INPUT_FORMS],
)
def test_pair_functions_match_whole_array_forms(dim, mode):
    base, form = INPUT_FORMS.get(mode, (mode, None))
    s, a, b = _long_pair(dim, base)
    if form:
        fa, fb = form(a), form(b)
        a, b = (np.asarray(v, dtype=np.complex128) for v in (fa, fb))
        for fn in (gram2, extremizer, min_norm_solution):
            assert _pair_bytes(fn, s, fa, fb) == _pair_bytes(fn, s, a, b)
    g, p = gram2(s, a, b), core._pair(s, a, b)[2]
    # longer vectors are summed in pieces, which test_long_reductions_are_near_exact_sums
    # judges; what follows from coef and ||r||^2 is elementwise
    coef = p.inner_ab.conjugate() / p.norm_a_sq
    if dim <= core._PIECE:
        assert (p.norm_a_sq, p.norm_b_sq, p.inner_ab, coef, p.norm_r_sq) == residual_whole(s.weights, a, b)
        assert (g.norm_a_sq, g.norm_b_sq, g.inner_ab, g.det) == gram_whole(s.weights, a, b)
    assert ostrowski_bound(s, a, b) == p.norm_r_sq
    # bytes, not assert_array_equal, which takes -0.0 for 0.0; the held residual is formed at every length
    assert p.r.tobytes() == (b - coef * a).tobytes()
    assert extremizer(s, a, b).tobytes() == extremizer_whole(a, b, coef, p.norm_r_sq).tobytes()
    x, value = min_norm_solution(s, a, b)
    x_ref, value_ref = min_norm_whole(a, b, coef, p.norm_r_sq)
    assert x.tobytes() == x_ref.tobytes()
    assert value == value_ref


@pytest.mark.parametrize("n", [core._PIECE - 1, core._PIECE, core._PIECE + 1, 2 * core._PIECE + 3, 1 << 18])
def test_long_reductions_are_near_exact_sums(n):
    # each sum lies within 64 u sum|terms| of the exact sum of the same rounded
    # terms; a piece left out or added twice would move it by whole terms
    s, a, b = _long_pair(n, True)
    w = s.weights
    terms_a, terms_b = (w * np.square(np.abs(v)) for v in (a, b))
    products = w * a * np.conj(b)
    g, uv = gram2(s, a, b), inner(s, a, b)
    for got, terms in [
        (norm_sq(s, a), terms_a),
        (g.norm_a_sq, terms_a),
        (g.norm_b_sq, terms_b),
        (uv.real, products.real),
        (uv.imag, products.imag),
    ]:
        assert abs(got - math.fsum(terms)) <= 64 * 2.0**-53 * math.fsum(np.abs(terms))


def _summary_bytes(g) -> bytes:
    return np.array([g.norm_a_sq, g.norm_b_sq, g.inner_ab.real, g.inner_ab.imag, g.det]).tobytes()


def _pair_bytes(fn, s, a, b) -> bytes:
    if fn is gram2:
        return _summary_bytes(gram2(s, a, b))
    if fn is extremizer:
        return extremizer(s, a, b).tobytes()
    x, value = min_norm_solution(s, a, b)
    return x.tobytes() + np.float64(value).tobytes()


# sha256 of _pair_bytes on _long_pair(dim, mode), captured when a long sum became one
# numpy sum of its piece sums and the long min-norm path one multiply by 1/det, and
# recaptured when the answers came to be taken from the residual r
LONG_PATH_DIGESTS = {
    (gram2, 16385, False): "8c3f0478a6040d249309a366202e7283f6d02332f8ed7ee6af9a1267fab4530d",
    (gram2, 16385, True): "fe13564666c5c16f1b5b8819d5b6cb1a48e1fcbfa5c43f27036468029712f23c",
    (gram2, 16385, "integer"): "2eb98c284e22240d7167b8a5add1b0b6f2b31c51d9b688d3b11fd553e786b02d",
    (gram2, 262144, False): "1612ad3ac907b29b732a6ab4bc1a34df991b2b7e3835a08c66d90afe67bfc9b5",
    (gram2, 262144, True): "0737f8513e7496a285083c873c7a6bb757563eaa7f326533f0624884d30473a0",
    (gram2, 262144, "integer"): "26a24bebd749b8d7a0a863e06ad8dbb91ca1b6ca17dc8779c4d12f172f5bded9",
    (extremizer, 16385, False): "df389e0e466c8ed35b8103b950acd273b45a912c3d96c50d9bb601a55551c4e6",
    (extremizer, 16385, True): "5ee4742a5b87c6abadbfa4cb6230b71c83d08ee487cbf235c76223ac0bf0e212",
    (extremizer, 16385, "integer"): "94d1841f0ab85c5935faf37fb58ef5b3cf1a70b8020cc9f4b5ec4c8d3a5c8325",
    (extremizer, 262144, False): "a27891ad2be83eae1683d0ff3d44c08110b02cc2951ebecfce216c6764f65ee6",
    (extremizer, 262144, True): "5fc07e685a663b1cf481ae04657df28b821cf0ef12732025e66a5e39bbf2bf2d",
    (extremizer, 262144, "integer"): "08b1b7c64f8a12e6d6fb1141e84288b1279cb687000f10f20f829b686cbce5d3",
    (min_norm_solution, 16385, False): "83ba4d2b42dc49d3d5936beb398d2710abda5f20cd392a02042d919fd8964107",
    (min_norm_solution, 16385, True): "46bebf340f85ba7c9dbe3a5d84385de62000a6e27996d387ddd11047b993a623",
    (min_norm_solution, 16385, "integer"): "3f0c25440537c901d1cd6f884e24b287ec2ef8230d4291b05a0fe085fb826545",
    (min_norm_solution, 262144, False): "fdd4c444b62523ff0dd582a9c4b32656100ff9b6a85a6d78be9d4f0cc4e5c790",
    (min_norm_solution, 262144, True): "b49164a11666ae45c17a9a9719f3e15644519263a49f05cb06ce823491b314d6",
    (min_norm_solution, 262144, "integer"): "3c43be353d07571976abe465d3820cd704d8be3cf9e74f18a432a6cad6d5beb4",
}


@pytest.mark.parametrize(
    "fn, dim, mode", list(LONG_PATH_DIGESTS), ids=lambda v: getattr(v, "__name__", str(v))
)
def test_long_path_digests(fn, dim, mode):
    assert core._PIECE + 1 == 16385  # the digests hold the piece boundary
    digest = hashlib.sha256(_pair_bytes(fn, *_long_pair(dim, mode))).hexdigest()
    assert digest == LONG_PATH_DIGESTS[fn, dim, mode]


@pytest.mark.parametrize(
    "fn, limit_mib", [(gram2, 1), (ostrowski_bound, 1), (extremizer, 5), (min_norm_solution, 5)]
)
def test_long_pair_calls_allocate_no_full_length_temporary(monkeypatch, fn, limit_mib):
    # one complex vector of dim 2^18 is 4 MiB; the last two return one.  The long entry's
    # copies of a and b and its residual r are held from one call to the next, not
    # temporaries: they are taken off the peak, once they are shown to be what the call
    # left in the entry
    monkeypatch.setattr(core, "_last_long", None)
    s, a, b = _long_pair(1 << 18, True)
    tracemalloc.start()
    try:
        fn(s, a, b)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    w, ca, cb, g = core._last_long
    assert g.r.nbytes == b.nbytes
    held = a.nbytes + b.nbytes + g.r.nbytes
    assert w is s.weights and ca.nbytes + cb.nbytes == a.nbytes + b.nbytes and current >= held
    assert peak - held < limit_mib * 2**20


# --- non-finite and overflowing input --------------------------------------

PAIR_FNS = [gram2, ostrowski_bound, extremizer, min_norm_solution]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("fn", PAIR_FNS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.inf, np.nan)], ids=["nan", "inf", "inf-nan"])
@pytest.mark.parametrize("where", ["a", "b", "ab"])
@pytest.mark.parametrize("dim", [17, core._PIECE + 1])
def test_non_finite_entry_is_named_without_a_warning(fn, bad, where, dim):
    s, a, b = _long_pair(dim, True)
    for name, v in (("a", a), ("b", b)):
        if name in where:
            v[dim // 2] = bad
    with pytest.raises(NonFiniteInput) as exc:
        fn(s, a, b)
    assert str(exc.value) == f"{where[0]} contains NaN or Inf"


@pytest.mark.parametrize("fn", PAIR_FNS)
@pytest.mark.parametrize(
    "a, b, error, message",
    [
        ([np.nan, 0, 1], [1, 2], NonFiniteInput, "a contains NaN or Inf"),
        ([1, 2], [np.nan, 0, 1], DimensionMismatch, "a has length 2, space has dimension 3"),
        ([[1, 0, 1]], [np.nan, 0, 1], DimensionMismatch, "a must be 1-D, got shape (1, 3)"),
        ([1, 0, 1], [np.inf, 0], DimensionMismatch, "b has length 2, space has dimension 3"),
        ([np.inf, 0, 1], [0, 1e-300, np.nan], NonFiniteInput, "a contains NaN or Inf"),
        ([1, 0, 1], [0, 1, complex(0, np.inf)], NonFiniteInput, "b contains NaN or Inf"),
        # numpy warns as ||a||^2 overflows, once the norms are computed before
        # the entries are checked; the error is the same
        pytest.param([1e200, 0, 1], [0, np.nan, 1], NonFiniteInput, "b contains NaN or Inf",
                     marks=pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")),
    ],
    ids=["nan-a-short-b", "short-a-nan-b", "2d-a-nan-b", "inf-b-short", "inf-a-nan-b", "inf-b", "overflow-a-nan-b"],
)
def test_first_fault_is_named_in_argument_order(fn, a, b, error, message):
    with pytest.raises(error) as exc:
        fn(D3, a, b)
    assert str(exc.value) == message


# numpy warns where a squared entry overflows; the other rows run with no warning
_SQUARE_OVERFLOWS = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")


@pytest.mark.parametrize("fn", PAIR_FNS)
@pytest.mark.parametrize(
    "a, b, norms",
    [
        pytest.param([1e308, 1], [0.5, 1], "||a||^2=inf, ||b||^2=1.250e+00", marks=_SQUARE_OVERFLOWS),
        pytest.param([1e200, 0], [0, 1e200], "||a||^2=inf, ||b||^2=inf", marks=_SQUARE_OVERFLOWS),
        ([1e100, 0], [0, 1e110], "||a||^2=1.000e+200, ||b||^2=1.000e+220"),
        pytest.param([1, 0], [0, 1e155], "||a||^2=1.000e+00, ||b||^2=inf", marks=_SQUARE_OVERFLOWS),
        # |<a,b>|^2 overflows; nothing squares <a,b> now, so every pair function answers
        ([1e100, 1], [1e100, 2], "||a||^2=1.000e+200, ||b||^2=1.000e+200"),
    ],
    ids=["inner-product", "norms", "norm-product", "norm-b", "inner-product-square"],
)
def test_gram_overflow_message(fn, a, b, norms):
    if _answers(fn, a, b):
        return
    with pytest.raises(GramOverflow) as exc:
        fn(D2, a, b)
    assert str(exc.value) == f"the Gram data of the pair overflows float64 ({norms})"


# _gram also serves the scaled copies of the scale-covariance check: it reports
# an Inf entry as overflow, leaves naming the input to the pair functions, and
# skips <a,b>, where inf * 0 would warn of an invalid value
def test_gram_reports_an_inf_entry_as_overflow():
    with pytest.raises(GramOverflow, match=r"\(\|\|a\|\|\^2=inf, \|\|b\|\|\^2=1.000e\+00\)"):
        core._gram(D2.weights, np.array([-np.inf, 1.5 + 0j]), np.array([0j, 1]))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "a, b, message",
    [
        # the pair's own ||a||^2 overflows, before any scaled copy is built
        ([7e307, 0.5], [0, 1], "the Gram data of the pair overflows float64 (||a||^2=inf, ||b||^2=1.000e+00)"),
        ([1, 0], [0, 1e154], "scale covariance check, scale 2.0: the Gram data of the pair overflows float64 "
         "(||a||^2=1.000e+00, ||b||^2=inf)"),
    ],
    ids=["own-norm", "scaled-copy"],
)
def test_verify_overflow_names_the_scale_not_the_input(a, b, message):
    with pytest.raises(GramOverflow) as exc:
        verify_all(D2, a, b, trials=10, real=True)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "u, v, error, message",
    [
        ([np.nan, 0, 1], [1, 2], NonFiniteInput, "u contains NaN or Inf"),
        ([1, 2], [np.nan, 0, 1], DimensionMismatch, "u has length 2, space has dimension 3"),
        ([1, 0, 1], [np.inf, 0], DimensionMismatch, "v has length 2, space has dimension 3"),
        ([np.inf, 0, 1], [0, 1e-300, np.nan], NonFiniteInput, "u contains NaN or Inf"),
        ([1, 0, 1], [0, 1, complex(np.inf, np.nan)], NonFiniteInput, "v contains NaN or Inf"),
        # v is not converted while u's length is wrong, so its ValueError never shows
        ([1, 2], ["x", 1], DimensionMismatch, "u has length 2, space has dimension 3"),
    ],
    ids=["nan-u-short-v", "short-u-nan-v", "inf-v-short", "inf-u-nan-v", "inf-nan-v", "short-u-bad-v"],
)
def test_schwarz_gap_names_the_first_fault(u, v, error, message):
    with pytest.raises(error) as exc:
        schwarz_gap(D3, u, v)
    assert str(exc.value) == message


@pytest.mark.parametrize("u", [[np.nan, 0, 1], [1, np.inf, 0], [0, 1, complex(np.inf, np.nan)]])
def test_norm_sq_names_a_non_finite_entry(u):
    with pytest.raises(NonFiniteInput, match="^u contains NaN or Inf$"):
        norm_sq(D3, u)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_norm_sq_refuses_overflow_of_finite_entries():
    with pytest.raises(GramOverflow, match=r"^\|\|u\|\|\^2 overflows float64$"):
        norm_sq(D3, [1e200, 0, 1])


# where two overflowed products meet, numpy also warns of an invalid value
_PRODUCT_OVERFLOWS = [_SQUARE_OVERFLOWS, pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")]


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: sample_feasible(D2, [1e200, 1], 0, real=True), "||a||^2 overflows float64",
                     marks=_SQUARE_OVERFLOWS),
        pytest.param(lambda: project_out(D2, [1, 2], [1e200, 1]), "||c||^2 overflows float64",
                     marks=_SQUARE_OVERFLOWS),
        pytest.param(lambda: project_out(D2, [1e200, 1e200], [1e150, 1]),
                     "the component of z orthogonal to c overflows float64", marks=_PRODUCT_OVERFLOWS),
        pytest.param(lambda: deflated_schwarz(D3, [1, 2, 3], [1e200, 1, 0], [0, 1, 1]), "||c||^2 overflows float64",
                     marks=_SQUARE_OVERFLOWS),
        pytest.param(lambda: inner(D2, [1e200, 1e200], [1e200, -1e200]), "<u,v> overflows float64",
                     marks=_PRODUCT_OVERFLOWS),
    ],
    ids=["sample-feasible-norm", "project-out-norm", "project-out-result", "deflated-norm", "inner-result"],
)
def test_non_pair_functions_refuse_overflow(call, message):
    with pytest.raises(GramOverflow) as exc:
        call()
    assert str(exc.value) == message


# --- the Gram data of the previous call, reused -----------------------------

@pytest.fixture
def gram_calls(monkeypatch):
    """The lengths of the pairs core._gram builds while the test runs, from empty entries."""
    monkeypatch.setattr(core, "_last_pair", ((), None))
    monkeypatch.setattr(core, "_last_long", None)
    calls = []
    build = core._gram

    def counting(w, a, b):
        calls.append(a.size)
        return build(w, a, b)

    monkeypatch.setattr(core, "_gram", counting)
    return calls


def _whole_bytes(s, a, b) -> bytes:
    na, nb, iab, det = gram_whole(s.weights, np.asarray(a, complex), np.asarray(b, complex))
    return np.array([na, nb, iab.real, iab.imag, det]).tobytes()


def _built_bytes(s, a, b) -> bytes:
    """The bytes of a fresh build's GramSummary, for pairs the whole-array oracle does not sum exactly."""
    return _summary_bytes(core._summary(core._gram(s.weights, np.asarray(a, complex), np.asarray(b, complex))))


# each slot test runs its short pair, then the same pair tiled past _PIECE, which the long entry
# holds; small integers and weights of 1/2 to 3 sum exactly, so the whole-array oracle still holds
SLOT_DIMS = (None, core._PIECE + 1)


def _tiled(n, *vs):
    """vs as arrays, tiled to n elements (as they are for n None)."""
    return [np.asarray(v) if n is None else np.resize(np.asarray(v), n) for v in vs]


@pytest.mark.parametrize("order, builds", [("PPP", 1), ("PQP", 3)])
def test_pair_calls_on_the_same_bytes_build_the_gram_data_once(gram_calls, order, builds):
    for n in SLOT_DIMS:
        s = make_weighted(*_tiled(n, [1.0, 2.0, 0.5]))
        pairs = {"P": _tiled(n, [1, 2, 3], [1, -1, 2j]), "Q": _tiled(n, [1, 2, 3], [1, -1, 2])}
        for name, fn in zip(order, (ostrowski_bound, extremizer, min_norm_solution)):
            fn(s, *pairs[name])
    assert gram_calls == [3] * builds + [core._PIECE + 1] * builds


def test_a_change_made_in_place_is_seen(gram_calls):
    # a strided long a is compared a piece at a time through a contiguous copy of the piece
    for n, strided in [(None, False), (core._PIECE + 1, False), (core._PIECE + 1, True)]:
        gram_calls.clear()
        s = make_weighted(*_tiled(n, [1.0, 2.0, 0.5, 3.0]))
        a, b = _tiled(n, np.array([1, 2, 3, 4j]), np.array([1, -1, 2j, 0]))
        if strided:
            a = np.repeat(a, 2)[::2]
        # a -0.0 in place of 0.0 changes the bytes, not the value; a long a's last entry is in a piece of its own
        for change in (None, (a, 1, 5.0), (b, 3, -0.0), (b, 2, -2j), (a, 0, -1.0), (a, -1, 7.0)):
            if change:
                v, i, value = change
                v[i] = value
            assert _pair_bytes(gram2, s, a, b) == _whole_bytes(s, a, b), (n, strided, change)
            assert _pair_bytes(gram2, s, a, b) == _whole_bytes(s, a, b), (n, strided, change)
        assert len(gram_calls) == 6, (n, strided)


def test_spaces_with_other_weights_get_their_own_gram_data(gram_calls):
    # a long pair's weights are matched by identity: a second dense space of the same bytes builds its own
    for n in SLOT_DIMS:
        a, b = _tiled(n, [1, 2, 3], [1, -1, 2j])
        dim = a.size
        spaces = [make_dense(dim), make_weighted(*_tiled(n, [1.0, 2.0, 0.5])), make_dense(dim)]
        for s in spaces:
            assert _pair_bytes(gram2, s, a, b) == _whole_bytes(s, a, b), n
    assert gram_calls == [3] * 3 + [core._PIECE + 1] * 3
    assert core._last_long[0] is spaces[-1].weights


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_errors_are_not_stored(gram_calls):
    for n in SLOT_DIMS:
        gram_calls.clear()
        s = make_dense(2 if n is None else n)
        for _ in range(3):
            with pytest.raises(GramOverflow):
                ostrowski_bound(s, *_tiled(n, [1e200, 0], [0, 1e200]))
        assert len(gram_calls) == 3, n
        s = make_dense(3 if n is None else n)
        a, b = _tiled(n, [1.0, 2.0, 3.0], [0.0, 1.0, 1.0])
        gram2(s, a, b)
        a[1] = np.nan
        for _ in range(2):
            with pytest.raises(NonFiniteInput, match="^a contains NaN or Inf$"):
                extremizer(s, a, b)
        assert len(gram_calls) == 6, n


def test_near_dependent_long_pair_sums_its_residuals_squares_once(gram_calls, monkeypatch):
    # ||r||^2 < ||b||^2 / 2, so _gram sums r's squares as well as a's and b's: the three pair
    # calls together make one pass of _norm_sq_rows over each of a, b and r, in pieces
    n = core._PIECE + 1
    rng = np.random.default_rng(29)
    s = make_weighted(rng.uniform(0.5, 2.0, n))
    a, q = (rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(2))
    b = (2 - 1j) * a + 0.01 * q
    pieces, squares = core._norm_sq_rows, []
    monkeypatch.setattr(core, "_norm_sq_rows", lambda w, u: squares.append(u.shape[-1]) or pieces(w, u))
    bound = ostrowski_bound(s, a, b)
    extremizer(s, a, b)
    min_norm_solution(s, a, b)
    assert bound < 0.5 * gram2(s, a, b).norm_b_sq
    assert gram_calls == [n]
    assert squares == [core._PIECE, 1] * 3


def test_concurrent_callers_each_get_their_own_pairs_gram_data():
    # more threads than a two-core machine has cores, switching often; each
    # alternates between the same two pairs, twice each, so that one thread's
    # hits interleave with another's builds; long pairs, which take the long
    # entry, make fewer calls
    for n, calls in [(8, 2000), (core._PIECE + 1, 100)]:
        rng = np.random.default_rng(13)
        s = make_weighted(rng.uniform(0.5, 2.0, n))
        pairs = [tuple(rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(2)) for _ in range(2)]
        expected = [(_whole_bytes if n <= core._PIECE else _built_bytes)(s, a, b) for a, b in pairs]
        wrong, done = [], []

        def caller(k):
            for i in range(calls):
                j = (i // 2 + k) % len(pairs)
                if _pair_bytes(gram2, s, *pairs[j]) != expected[j]:
                    wrong.append((k, i))
            done.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(done) == [0, 1, 2, 3]
        assert wrong == [], n


# --- the two lanes of a long vector's pieces --------------------------------

def test_long_pieces_raise_the_lowest_error_once_both_lanes_stop():
    # six pieces: the caller runs piece 0, then takes 1 while the worker takes 2; each lane runs every piece
    # it takes, stops at its first error, and the caller raises only once no piece of either lane is running
    size = 6 * core._PIECE
    assert core._pieces(lambda p: p.start, size) == list(range(0, size, core._PIECE))
    # (pieces that fail, seconds that pieces take, the piece whose error is raised); in the last row piece 2
    # fails on the worker before piece 3 does on the caller, and in the one before it after
    for failing, slow, raised in [({2}, {1: 0.1}, 2), ({1}, {2: 0.1}, 1), ({3, 4, 5}, {2: 0.1}, 3),
                                  ({2, 3}, {2: 0.2, 3: 0.1}, 2), ({2, 3}, {2: 0.1, 3: 0.2}, 2)]:
        ran, running = {}, set()

        def piece(p):
            k = p.start // core._PIECE
            running.add(k)
            try:
                time.sleep(slow.get(k, 0))
                ran[k] = threading.get_ident()
                if k in failing:
                    raise RuntimeError(f"planted failure in piece {k}")
                return k
            finally:
                running.discard(k)

        wrapped, threads = with_the_worker(piece, wait_at=2)
        with pytest.raises(RuntimeError, match=f"piece {raised}$"):
            core._pieces(wrapped, size)
        assert not running and set(range(raised + 1)) <= set(ran), failing
        assert ran[2] != ran[0] == ran[1] == threading.get_ident(), failing
    # a fault in the first piece is raised before the worker is asked
    wrapped, threads = with_the_worker(piece, wait_at=2)
    failing = {0, 2}
    with pytest.raises(RuntimeError, match="piece 0$"):
        core._pieces(wrapped, size)
    assert threads == [threading.get_ident()]


@pytest.mark.filterwarnings("error")
def test_errstate_holds_in_the_worker_half_of_a_long_pair(monkeypatch):
    # ||a||^2 overflows in the third piece, which the worker sums: under the caller's np.errstate that is
    # GramOverflow and no warning, as it is on one lane
    n = 4 * core._PIECE
    s, a, b = make_dense(n), np.ones(n, complex), np.ones(n, complex)
    a[2 * core._PIECE] = 1e200
    kernel, threads = with_the_worker(core._norm_sq_rows, wait_at=2)
    monkeypatch.setattr(core, "_norm_sq_rows", kernel)
    with np.errstate(over="ignore"):
        with pytest.raises(GramOverflow, match=r"\|\|a\|\|\^2=inf"):
            ostrowski_bound(s, a, b)
    assert threads[2] != threads[0]


@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_computes_a_long_bound():
    # the parent's worker thread is not copied into a forked child, which starts its own, for a long pair's
    # pieces and for verify_all's blocks alike
    s, a, b = _long_pair(4 * core._PIECE, True)
    ostrowski_bound(s, a, b)
    assert core._worker is not None
    context = multiprocessing.get_context("fork")
    sv, av, bv = _long_pair(1024, True)

    def report_digest():  # at dim 1024, 1000 trials run as 16 blocks
        lines = [dumps_stable(r.to_dict()) for r in verify_all(sv, av, bv, trials=1000)]
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()

    # (b, a) misses the held pair, so the child makes every pass; its own worker is the one other thread
    for run in (lambda: ostrowski_bound(s, b, a), report_digest):
        reader, writer = context.Pipe(duplex=False)
        child = context.Process(target=lambda: writer.send((run(), threading.active_count())))
        child.start()
        try:
            child.join(timeout=60)
            assert not child.is_alive() and child.exitcode == 0
            assert reader.poll(0) and reader.recv() == (run(), 2)
        finally:
            child.kill()
            child.join()


def _thread_counts(code: str) -> str:
    """What code prints, run in a fresh interpreter that imports orthobound from this tree."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


def test_the_worker_starts_with_the_first_long_call():
    code = (
        "import threading, numpy as np, orthobound as ob\n"
        "counts = [threading.active_count()]\n"
        "for n in (16, 1 << 14, (1 << 14) + 1, 3 << 14):\n"
        "    ob.ostrowski_bound(ob.make_dense(n), np.ones(n), np.arange(n))\n"
        "    counts.append(threading.active_count())\n"
        "print(counts)"
    )
    assert _thread_counts(code) == "[1, 1, 1, 1, 2]\n"  # two pieces run on the caller alone


def test_one_worker_thread_serves_verify_all_and_long_pairs():
    # the thread count after import, after a one-block verify_all (dim 16), after a 16-block one (dim 1024, 1000
    # trials), which starts the worker, and after 20 more and a long pair's three pieces, which reuse it
    code = (
        "import threading, numpy as np, orthobound as ob\n"
        "counts = [threading.active_count()]\n"
        "ob.verify_all(ob.make_dense(16), np.arange(16.0), np.ones(16))\n"
        "counts.append(threading.active_count())\n"
        "s, a, b = ob.make_dense(1024), np.arange(1024.0), np.ones(1024)\n"
        "ob.verify_all(s, a, b, trials=1000)\n"
        "counts.append(threading.active_count())\n"
        "for _ in range(20):\n"
        "    ob.verify_all(s, a, b, trials=1000)\n"
        "ob.ostrowski_bound(ob.make_dense(3 << 14), np.ones(3 << 14), np.arange(3 << 14))\n"
        "counts.append(threading.active_count())\n"
        "print(counts)"
    )
    assert _thread_counts(code) == "[1, 1, 2, 2]\n"
