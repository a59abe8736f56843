"""Hypothesis property tests for the core inequalities."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orthobound import (
    DependentVectors,
    GramOverflow,
    ZeroVector,
    extremizer,
    gram2,
    inner,
    make_dense,
    make_weighted,
    norm_sq,
    ostrowski_bound,
    schwarz_gap,
)

REL_EPS = 1e-9

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


def vectors(dim_min=1, dim_max=8):
    return st.integers(dim_min, dim_max).flatmap(
        lambda n: st.tuples(
            st.lists(finite, min_size=n, max_size=n),
            st.lists(finite, min_size=n, max_size=n),
        )
    )


def complex_pairs(dim_min=1, dim_max=8):
    def build(n):
        coord = st.tuples(finite, finite).map(lambda p: complex(*p))
        vec = st.lists(coord, min_size=n, max_size=n)
        return st.tuples(vec, vec)

    return st.integers(dim_min, dim_max).flatmap(build)


@given(complex_pairs())
@settings(max_examples=300)
def test_schwarz_gap_nonnegative(pair):
    u, v = pair
    s = make_dense(len(u))
    assert schwarz_gap(s, u, v) >= -REL_EPS * norm_sq(s, u) * norm_sq(s, v)


@given(vectors())
@settings(max_examples=300)
def test_gram_det_symmetric(pair):
    a, b = pair
    s = make_dense(len(a))
    da = gram2(s, a, b).det
    db = gram2(s, b, a).det
    assert abs(da - db) <= REL_EPS * (1 + abs(da))


@given(complex_pairs())
@settings(max_examples=200)
def test_inner_conjugate_symmetry(pair):
    u, v = pair
    s = make_dense(len(u))
    lhs = inner(s, u, v)
    rhs = inner(s, v, u).conjugate()
    assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))


@given(
    complex_pairs(dim_min=2),
    st.floats(min_value=0.01, max_value=100.0),
    st.floats(min_value=0.01, max_value=100.0),
)
@settings(max_examples=200)
def test_bound_scale_covariance(pair, lam, mu):
    _assert_scale_covariant(*pair, lam, mu)


def _assert_scale_covariant(a, b, lam, mu):
    s = make_dense(len(a))
    if norm_sq(s, a) == 0.0:
        return
    bound = ostrowski_bound(s, a, b)
    scaled_a = ostrowski_bound(s, [lam * z for z in a], b)
    scaled_b = ostrowski_bound(s, a, [mu * z for z in b])
    # the determinant's rounding error scales with ||a||^2 ||b||^2, so the
    # bound's error scales with ||b||^2, not with the bound itself
    nb = norm_sq(s, b)
    assert abs(scaled_a - bound) <= REL_EPS * (1 + bound + nb)
    assert abs(scaled_b - mu**2 * bound) <= REL_EPS * mu**2 * (1 + bound + nb)


# Three inputs on which test_bound_scale_covariance failed, held here as fixed cases: its
# strategy draws them rarely (1 fresh run in 14 failed), and all need the pair's Gram
# data taken on power-of-two prescaled vectors (ROADMAP item 1's prescaling)
TINY = 1.0698530579499844e-158


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1's prescaling: ||a||^2 is subnormal, so it keeps only part of its bits")
def test_bound_exact_when_norm_a_sq_is_subnormal():
    # a = TINY*i*(1, 1), b = (0, i): the bound is 1 - 1/2 = 1/2, read as 0.5000000052198676
    assert ostrowski_bound(make_dense(2), [TINY * 1j] * 2, [0, 1j]) == pytest.approx(0.5, rel=1e-12)


@pytest.mark.xfail(strict=True, raises=GramOverflow,
                   reason="ROADMAP item 1's prescaling: a subnormal ||r||^2 is refused as underflowing")
def test_bound_kept_when_it_is_subnormal():
    # b is orthogonal to a, so the bound is ||b||^2 = TINY^2 = 1.145e-316, which float64 holds
    # with about 24 bits
    assert ostrowski_bound(make_dense(2), [0, 1j], [TINY * 1j, 0]) == pytest.approx(TINY**2, rel=1e-6)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1's prescaling: ||a||^2 is subnormal, so it keeps only part of its bits")
def test_bound_scale_covariance_when_norm_a_sq_is_subnormal():
    # found by test_bound_scale_covariance: b is parallel to a, so the bound is 0 to rounding, but ||a||^2 =
    # 3e-322 keeps about six bits, and the bound reads 1.04e-5 for a and 7.6e-7 for 2a
    _assert_scale_covariant([1.7388233028670826e-161j, 0j], [1j, 0j], 2.0, 1.0)


@given(complex_pairs(dim_min=2), st.sampled_from([1.0, -1.0, 1j, -1j, np.exp(0.7j)]))
@settings(max_examples=200)
def test_extremizer_phase_invariance(pair, phase):
    """Rotating the extremizer by a unit scalar changes none of the
    quantities the equality case is stated in."""
    a, b = pair
    s = make_dense(len(a))
    try:
        x = extremizer(s, a, b)
    except (DependentVectors, ZeroVector):
        return
    y = phase * x
    bound = ostrowski_bound(s, a, b)
    assert abs(norm_sq(s, y) - norm_sq(s, x)) <= 1e-12 * (1 + norm_sq(s, x))
    assert abs(abs(inner(s, y, b)) ** 2 - abs(inner(s, x, b)) ** 2) <= 1e-9 * (1 + bound)
    assert abs(abs(inner(s, y, a)) - abs(inner(s, x, a))) <= 1e-12 * (1 + norm_sq(s, a))


@given(
    st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=2, max_size=6),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=100)
def test_weighted_schwarz(weights, seed):
    s = make_weighted(weights)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(s.dim) + 1j * rng.standard_normal(s.dim)
    v = rng.standard_normal(s.dim) + 1j * rng.standard_normal(s.dim)
    assert schwarz_gap(s, u, v) >= -REL_EPS * norm_sq(s, u) * norm_sq(s, v)
