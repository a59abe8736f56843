import tracemalloc

import numpy as np
import pytest

from orthobound import (
    DependentVectors,
    DimensionMismatch,
    GramOverflow,
    NonFiniteInput,
    OrthoboundError,
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
    schwarz_gap,
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

@pytest.mark.parametrize("piece", [128, 200])
def test_pairwise_splits_where_numpy_does(monkeypatch, piece):
    # numpy splits any sum of more than 128 doubles, so pieces of 128 or more
    # elements reach several split levels on these lengths
    monkeypatch.setattr(core, "_PIECE", piece)
    rng = np.random.default_rng(piece)
    w = rng.uniform(0.5, 2.0, 1200)
    u, v = (rng.standard_normal(1200) + 1j * rng.standard_normal(1200) for _ in range(2))
    for n in range(1, 1201):
        wn, un, vn = w[:n], u[:n], v[:n]
        assert core._pairwise(core._norm_sq_rows, 1, wn, un) == core._norm_sq_rows(wn, un), n
        assert core._pairwise(core._inner_rows, 2, wn, un, vn) == core._inner_rows(wn, un, vn), n


def _long_pair(dim, complex_mode):
    rng = np.random.default_rng(dim)
    s = make_weighted(rng.uniform(0.5, 2.0, dim))
    a, b = (
        rng.standard_normal(dim) + (1j * rng.standard_normal(dim) if complex_mode else 0j)
        for _ in range(2)
    )
    return s, a, b


@pytest.mark.parametrize("complex_mode", [False, True])
@pytest.mark.parametrize("dim", [2, 17, core._PIECE - 1, core._PIECE + 1, 2 * core._PIECE + 3, 1 << 18])
def test_pair_functions_match_whole_array_forms(dim, complex_mode):
    s, a, b = _long_pair(dim, complex_mode)
    g = gram2(s, a, b)
    na, nb, iab, det = gram_whole(s.weights, a, b)
    assert (g.norm_a_sq, g.norm_b_sq, g.inner_ab, g.det) == (na, nb, iab, det)
    assert ostrowski_bound(s, a, b) == det / na
    np.testing.assert_array_equal(extremizer(s, a, b), extremizer_whole(s.weights, a, b))
    x, value = min_norm_solution(s, a, b)
    x_ref, value_ref = min_norm_whole(s.weights, a, b)
    np.testing.assert_array_equal(x, x_ref)
    assert value == value_ref


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
