import hashlib
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
    na, nb, iab, det = gram_whole(s.weights, a, b)
    assert (g.norm_a_sq, g.norm_b_sq, g.inner_ab, g.det) == (na, nb, iab, det)
    assert ostrowski_bound(s, a, b) == det / na
    # bytes, not assert_array_equal, which takes -0.0 for 0.0
    assert extremizer(s, a, b).tobytes() == extremizer_whole(s.weights, a, b).tobytes()
    x, value = min_norm_solution(s, a, b)
    x_ref, value_ref = min_norm_whole(s.weights, a, b)
    assert x.tobytes() == x_ref.tobytes()
    assert value == value_ref


def _pair_bytes(fn, s, a, b) -> bytes:
    if fn is gram2:
        g = gram2(s, a, b)
        return np.array([g.norm_a_sq, g.norm_b_sq, g.inner_ab.real, g.inner_ab.imag, g.det]).tobytes()
    if fn is extremizer:
        return extremizer(s, a, b).tobytes()
    x, value = min_norm_solution(s, a, b)
    return x.tobytes() + np.float64(value).tobytes()


# sha256 of _pair_bytes on _long_pair(dim, mode), captured before the pair
# kernel stopped checking finiteness apart and stopped dividing by det
LONG_PATH_DIGESTS = {
    (gram2, 16385, False): "2f51c20c59d92fee521aa009c2a1b1470bfad66fa3bd87fad2258a1068adc9af",
    (gram2, 16385, True): "b10029ebcab2e4f25d89ea20463a66795bd4c2faf836c8825cc9ad863578a7e5",
    (gram2, 16385, "integer"): "99fe979e123d2e4cad47236ce600ee59e8ce2a2581fb67c3e85f411f25ccf50e",
    (gram2, 262144, False): "1612ad3ac907b29b732a6ab4bc1a34df991b2b7e3835a08c66d90afe67bfc9b5",
    (gram2, 262144, True): "0737f8513e7496a285083c873c7a6bb757563eaa7f326533f0624884d30473a0",
    (gram2, 262144, "integer"): "3bade6e0bc56e103c91ff6937dbcdbc5999fcd259dc23e243710fd0fb1c5a345",
    (extremizer, 16385, False): "1ccec07bdc40de4462d9d97d78d149c3c13d6a5dc2c1e2fe1a31461297d1ee61",
    (extremizer, 16385, True): "370468e55e77216b852eae17976c36a4fefed1b11c0198604235785e5ca28ab6",
    (extremizer, 16385, "integer"): "5178401d0c6c46dabb58c0b2e14c3b01591f93b60d0f7ad381868ca5b7462bc5",
    (extremizer, 262144, False): "91e60d43bd83e7e674c2f566f683af519e4748cbec05fa41f9dd9ca48d27a19f",
    (extremizer, 262144, True): "4d8bae119da2b3e6b8d5b7df7555a11dfbf32f32feb1ac5b28a9f65034851c38",
    (extremizer, 262144, "integer"): "9f6e72d3785a43ff14ca7706a010aa517aa4cc01b04a29603359cb1592fcf352",
    (min_norm_solution, 16385, False): "eea358769e4cedf1ef46536898e5f7cf41bd816661ef9ffd1b166c5f74b6cf7e",
    (min_norm_solution, 16385, True): "361eae12965ed7120d1449651102bc4d24d9700fd8c2503a30dcc6db59219759",
    (min_norm_solution, 16385, "integer"): "00c867d0551686ab8bc3590ad4a5a159b57a0ed85c172c93509debb6ff41b5b3",
    (min_norm_solution, 262144, False): "b483ff88dceedcda681dc8c933e2ed258f23ba6e94ebee4889755ca75a70ee70",
    (min_norm_solution, 262144, True): "dab8ac1f21277ee5953d91f947314694aa6eeb73261b458b238974c715d58162",
    (min_norm_solution, 262144, "integer"): "5978e84f95d466a52564c362c6c8756fba6a5621dead867a8abca582f85de0d8",
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
