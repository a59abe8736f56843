import hashlib
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from orthobound import (
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
from oracles import (
    extremizer_whole,
    gram_whole,
    inner_by_summation,
    min_norm_by_lagrange,
    min_norm_whole,
    norm_sq_by_summation,
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


# numpy warns as the squared norms overflow; the typed error is what is tested
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("fn", [gram2, ostrowski_bound, extremizer, min_norm_solution])
@pytest.mark.parametrize("a, b", [([1e308, 1], [0.5, 1]), ([1e200, 0], [0, 1e200]), ([1e100, 0], [0, 1e110])])
def test_gram_overflow_raises_typed_error(fn, a, b):
    assert issubclass(GramOverflow, OrthoboundError)
    with pytest.raises(GramOverflow, match="overflows float64"):
        fn(make_dense(2), a, b)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_extremizer_finite_when_norm_b_sq_is_subnormal():
    # an independent pair (||r||^2 / ||b||^2 = 1/11) whose ||b||^2 is
    # subnormal: det keeps a few bits and ||a||^2 / det overflows
    a = [1j, 3 + 1j]
    with np.errstate(over="ignore", invalid="ignore"):
        x = extremizer(D2, a, [0, 6.494684341851422e-161j])
    assert np.isfinite(x).all()
    assert norm_sq(D2, x) == pytest.approx(1.0, rel=1e-9)
    assert abs(inner(D2, x, a)) <= 1e-9


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


@pytest.mark.parametrize(
    "dim, mode",
    [(dim, mode) for dim in (2, 17, core._PIECE - 1, core._PIECE + 1, 2 * core._PIECE + 3, 1 << 18)
     for mode in (False, True)]
    + [(core._PIECE + 1, "integer")],
)
def test_pair_functions_match_whole_array_forms(dim, mode):
    s, a, b = _long_pair(dim, mode)
    g = gram2(s, a, b)
    gram = (g.norm_a_sq, g.norm_b_sq, g.inner_ab, g.det)
    # longer vectors are summed in pieces, which test_long_reductions_are_near_exact_sums
    # judges; what follows from their Gram data is elementwise
    if dim <= core._PIECE:
        assert gram == gram_whole(s.weights, a, b)
    assert ostrowski_bound(s, a, b) == g.det / g.norm_a_sq
    # bytes, not assert_array_equal, which takes -0.0 for 0.0
    assert extremizer(s, a, b).tobytes() == extremizer_whole(a, b, gram).tobytes()
    x, value = min_norm_solution(s, a, b)
    x_ref, value_ref = min_norm_whole(a, b, gram)
    if dim <= core._PIECE:
        assert x.tobytes() == x_ref.tobytes()
    else:  # x * (1/det) keeps the sign of a zero that numpy's x / det may turn to +0.0
        assert np.array_equal(x, x_ref)
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


def _pair_bytes(fn, s, a, b) -> bytes:
    if fn is gram2:
        g = gram2(s, a, b)
        return np.array([g.norm_a_sq, g.norm_b_sq, g.inner_ab.real, g.inner_ab.imag, g.det]).tobytes()
    if fn is extremizer:
        return extremizer(s, a, b).tobytes()
    x, value = min_norm_solution(s, a, b)
    return x.tobytes() + np.float64(value).tobytes()


# sha256 of _pair_bytes on _long_pair(dim, mode), captured when a long sum became one
# numpy sum of its piece sums and the long min-norm path one multiply by 1/det
LONG_PATH_DIGESTS = {
    (gram2, 16385, False): "6ef15acc13b35390013e6e0999bac197781a0370dcda86a09da60afdffda5a5d",
    (gram2, 16385, True): "fe13564666c5c16f1b5b8819d5b6cb1a48e1fcbfa5c43f27036468029712f23c",
    (gram2, 16385, "integer"): "2eb98c284e22240d7167b8a5add1b0b6f2b31c51d9b688d3b11fd553e786b02d",
    (gram2, 262144, False): "1612ad3ac907b29b732a6ab4bc1a34df991b2b7e3835a08c66d90afe67bfc9b5",
    (gram2, 262144, True): "0737f8513e7496a285083c873c7a6bb757563eaa7f326533f0624884d30473a0",
    (gram2, 262144, "integer"): "3f6ff8983b5aea122d56c4f350118ef82d92daab27b82829f6cce88cdfa7be08",
    (extremizer, 16385, False): "90eccc6b0f3bad7a288ddb871d62c229c5035d455ca2ff4baaa7914d4cee1668",
    (extremizer, 16385, True): "5ee4742a5b87c6abadbfa4cb6230b71c83d08ee487cbf235c76223ac0bf0e212",
    (extremizer, 16385, "integer"): "174febd5a9d9d50fafeaeda85c24df6a1df8386ae399af8088ae3605c1f24169",
    (extremizer, 262144, False): "91e60d43bd83e7e674c2f566f683af519e4748cbec05fa41f9dd9ca48d27a19f",
    (extremizer, 262144, True): "4d8bae119da2b3e6b8d5b7df7555a11dfbf32f32feb1ac5b28a9f65034851c38",
    (extremizer, 262144, "integer"): "08b1b7c64f8a12e6d6fb1141e84288b1279cb687000f10f20f829b686cbce5d3",
    (min_norm_solution, 16385, False): "40f3e6ccb88771d7dbdff59c52978eb7000ff650db19888d0be8fab8e59ba074",
    (min_norm_solution, 16385, True): "e8a0bc2b867e9bf887c877ff4250960647ec1f647837fd7bbf89fe19da287e1c",
    (min_norm_solution, 16385, "integer"): "26f5817c3e115ad24dbcb0e637878e435ae83122fa9f5ab9c68f73f19d63bcab",
    (min_norm_solution, 262144, False): "b483ff88dceedcda681dc8c933e2ed258f23ba6e94ebee4889755ca75a70ee70",
    (min_norm_solution, 262144, True): "dab8ac1f21277ee5953d91f947314694aa6eeb73261b458b238974c715d58162",
    (min_norm_solution, 262144, "integer"): "ea91fac5766a2a2951e70eec549a89c431fc0c3cf5e81ab1bbfcc42159f352c8",
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
def test_long_pair_calls_allocate_no_full_length_temporary(fn, limit_mib):
    # one complex vector of dim 2^18 is 4 MiB; the last two return one
    s, a, b = _long_pair(1 << 18, True)
    tracemalloc.start()
    try:
        fn(s, a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mib * 2**20


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
        # |<a,b>|^2 overflows in Python float arithmetic, which raises OverflowError
        ([1e100, 1], [1e100, 2], "||a||^2=1.000e+200, ||b||^2=1.000e+200"),
    ],
    ids=["inner-product", "norms", "norm-product", "norm-b", "inner-product-square"],
)
def test_gram_overflow_message(fn, a, b, norms):
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
         "(||a||^2=4.000e+00, ||b||^2=1.000e+308)"),
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
    ],
    ids=["nan-u-short-v", "short-u-nan-v", "inf-v-short", "inf-u-nan-v", "inf-nan-v"],
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
def test_norm_sq_of_finite_entries_may_overflow():
    assert norm_sq(D3, [1e200, 0, 1]) == np.inf


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
    """The lengths of the pairs core._gram builds while the test runs, from an empty slot."""
    monkeypatch.setattr(core, "_last_pair", ((), None))
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


@pytest.mark.parametrize("order, builds", [("PPP", 1), ("PQP", 3)])
def test_pair_calls_on_the_same_bytes_build_the_gram_data_once(gram_calls, order, builds):
    s = make_weighted([1.0, 2.0, 0.5])
    pairs = {"P": ([1, 2, 3], [1, -1, 2j]), "Q": ([1, 2, 3], [1, -1, 2])}
    for name, fn in zip(order, (ostrowski_bound, extremizer, min_norm_solution)):
        fn(s, *pairs[name])
    assert len(gram_calls) == builds


def test_a_change_made_in_place_is_seen(gram_calls):
    s = make_weighted([1.0, 2.0, 0.5, 3.0])
    a, b = np.array([1, 2, 3, 4j]), np.array([1, -1, 2j, 0])
    # a -0.0 in place of 0.0 changes the bytes, not the value
    for change in (None, (a, 1, 5.0), (b, 3, -0.0), (b, 2, -2j), (a, 0, -1.0)):
        if change:
            v, i, value = change
            v[i] = value
        assert _pair_bytes(gram2, s, a, b) == _whole_bytes(s, a, b)
        assert _pair_bytes(gram2, s, a, b) == _whole_bytes(s, a, b)
    assert len(gram_calls) == 5


def test_spaces_with_other_weights_get_their_own_gram_data(gram_calls):
    a, b = [1, 2, 3], [1, -1, 2j]
    spaces = [make_dense(3), make_weighted([1.0, 2.0, 0.5]), make_dense(3)]
    for s in spaces:
        assert _pair_bytes(gram2, s, a, b) == _whole_bytes(s, a, b)
    assert len(gram_calls) == 3


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_errors_are_not_stored(gram_calls):
    for _ in range(3):
        with pytest.raises(GramOverflow):
            ostrowski_bound(D2, [1e200, 0], [0, 1e200])
    assert len(gram_calls) == 3
    a, b = np.array([1.0, 2.0, 3.0]), np.array([0.0, 1.0, 1.0])
    gram2(D3, a, b)
    a[1] = np.nan
    for _ in range(2):
        with pytest.raises(NonFiniteInput, match="^a contains NaN or Inf$"):
            extremizer(D3, a, b)
    assert len(gram_calls) == 6


def test_concurrent_callers_each_get_their_own_pairs_gram_data():
    # more threads than a two-core machine has cores, switching often; each
    # alternates between the same two pairs, twice each, so that one thread's
    # hits interleave with another's builds
    rng = np.random.default_rng(13)
    s = make_weighted(rng.uniform(0.5, 2.0, 8))
    pairs = [tuple(rng.standard_normal(8) + 1j * rng.standard_normal(8) for _ in range(2)) for _ in range(2)]
    expected = [_whole_bytes(s, a, b) for a, b in pairs]
    wrong, done = [], []

    def caller(k):
        for i in range(2000):
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
    assert wrong == []
