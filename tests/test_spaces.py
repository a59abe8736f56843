import numpy as np
import pytest

from orthobound import (
    InvalidDimension,
    InvalidInterval,
    NonFiniteInput,
    NonPositiveWeight,
    SpaceDescriptor,
    inner,
    make_dense,
    make_weighted,
    norm_sq,
    sample_function,
    trapezoid_rule,
)


def test_make_dense_unit_weights():
    s = make_dense(3)
    assert s.kind == "dense"
    assert s.dim == 3
    np.testing.assert_array_equal(s.weights, [1.0, 1.0, 1.0])


def test_make_dense_dim_64():
    s = make_dense(64)
    assert s.dim == 64
    assert np.all(s.weights == 1.0)


def test_make_dense_dim_1_valid():
    assert make_dense(1).dim == 1


def test_make_dense_rejects_zero_dim():
    with pytest.raises(InvalidDimension):
        make_dense(0)


def test_make_weighted():
    s = make_weighted([2.0, 3.0])
    assert s.kind == "weighted"
    np.testing.assert_array_equal(s.weights, [2.0, 3.0])


def test_make_weighted_rejects_zero_weight_with_index():
    with pytest.raises(NonPositiveWeight) as exc:
        make_weighted([1.0, 0.0, 1.0])
    assert exc.value.index == 1


def test_make_weighted_rejects_nan():
    with pytest.raises(NonPositiveWeight):
        make_weighted([1.0, float("nan")])


def test_make_weighted_reports_first_bad_weight():
    # NaN fails the positivity test too, so it is reported before a later negative
    with pytest.raises(NonPositiveWeight) as exc:
        make_weighted([1.0, float("nan"), -1.0])
    assert exc.value.index == 1 and np.isnan(exc.value.value)


def test_make_weighted_tiny_weight_accepted():
    # valid but a conditioning hazard; see README
    s = make_weighted([1e-300, 1.0])
    assert s.weights[0] == 1e-300


def test_weights_immutable():
    s = make_dense(2)
    with pytest.raises(ValueError):
        s.weights[0] = 5.0


@pytest.mark.parametrize(
    "build, field",
    [
        (make_weighted, "weights"),
        (lambda v: SpaceDescriptor("quadrature", v, [0.0, 1.0, 2.0]), "weights"),
        (lambda v: SpaceDescriptor("quadrature", [1.0, 1.0, 1.0], v), "nodes"),
    ],
    ids=["make_weighted", "quadrature-weights", "quadrature-nodes"],
)
def test_space_leaves_the_callers_array_writeable(build, field):
    v = np.array([1.0, 2.0, 3.0])
    s = build(v)
    v[0] = 5.0  # raises "assignment destination is read-only" if the space froze v itself
    np.testing.assert_array_equal(getattr(s, field), [1.0, 2.0, 3.0])
    assert not getattr(s, field).flags.writeable


def _read_only(v):
    v.setflags(write=False)
    return v


@pytest.mark.parametrize("field", ["weights", "nodes"])
def test_space_copies_a_read_only_view_of_a_writeable_base(field):
    base = np.array([1.0, 2.0, 3.0])
    arrays = {"weights": [1.0, 1.0, 1.0], "nodes": [0.0, 1.0, 2.0], field: _read_only(base[:])}
    s = SpaceDescriptor("quadrature", **arrays)
    base[0] = 0.5  # the view's owner is still writeable, so the space must not hold the view
    np.testing.assert_array_equal(getattr(s, field), [1.0, 2.0, 3.0])


def test_space_keeps_an_array_handed_over():
    # read-only, float64 and owning its data, as make_dense, make_weighted and
    # trapezoid_rule build the weights: no copy is made
    w = _read_only(np.array([1.0, 2.0, 3.0]))
    assert SpaceDescriptor("weighted", w).weights is w
    assert make_weighted(np.array([1.0, 2.0])).weights.flags.owndata
    assert trapezoid_rule(3, 0.0, 1.0).weights.flags.owndata


def test_trapezoid_n2():
    s = trapezoid_rule(2, 0.0, 1.0)
    np.testing.assert_array_equal(s.nodes, [0.0, 1.0])
    np.testing.assert_array_equal(s.weights, [0.5, 0.5])


def test_trapezoid_n3():
    s = trapezoid_rule(3, 0.0, 1.0)
    np.testing.assert_allclose(s.nodes, [0.0, 0.5, 1.0])
    np.testing.assert_allclose(s.weights, [0.25, 0.5, 0.25])


def test_trapezoid_weights_sum_to_interval_length():
    s = trapezoid_rule(5, 0.0, 2.0)
    assert sum(float(w) for w in s.weights) == pytest.approx(2.0, rel=1e-15)


def test_trapezoid_invalid_interval():
    with pytest.raises(InvalidInterval):
        trapezoid_rule(5, 1.0, 1.0)
    with pytest.raises(InvalidInterval):
        trapezoid_rule(5, 2.0, 1.0)


def test_trapezoid_needs_two_nodes():
    with pytest.raises(InvalidDimension):
        trapezoid_rule(1, 0.0, 1.0)


def test_sample_constant_function():
    s = trapezoid_rule(3, 0.0, 1.0)
    v = sample_function(s, lambda x: 1.0)
    np.testing.assert_array_equal(v, [1.0, 1.0, 1.0])
    assert norm_sq(s, v) == pytest.approx(1.0)


def test_sample_identity_function():
    s = trapezoid_rule(3, 0.0, 1.0)
    v = sample_function(s, lambda x: x)
    np.testing.assert_allclose(v, [0.0, 0.5, 1.0])


def test_sample_function_nonfinite_names_node():
    s = trapezoid_rule(3, 0.0, 1.0)
    with pytest.raises(NonFiniteInput, match="0.5"):
        sample_function(s, lambda x: float("inf") if x == 0.5 else 1.0)


def test_sample_function_requires_quadrature():
    with pytest.raises(InvalidInterval):
        sample_function(make_dense(3), lambda x: x)


def test_quadrature_nodes_must_increase():
    with pytest.raises(InvalidInterval):
        SpaceDescriptor("quadrature", [0.5, 0.5], [1.0, 0.0])


# what the space constructors refuse, with the error and its message
SPACE_REFUSALS = {
    "unknown-kind": (lambda: SpaceDescriptor("banach", [1.0]), ValueError, "unknown space kind 'banach'"),
    "weights-2d": (
        lambda: SpaceDescriptor("weighted", [[1.0]]), InvalidDimension, "weights must be a nonempty 1-D array"
    ),
    "weights-empty": (lambda: make_weighted([]), InvalidDimension, "weights must be a nonempty 1-D array"),
    "quadrature-without-nodes": (
        lambda: SpaceDescriptor("quadrature", [1.0]), InvalidInterval, "quadrature space requires nodes"
    ),
    "nodes-against-weights": (
        lambda: SpaceDescriptor("quadrature", [1.0, 1.0], [0.0]),
        InvalidDimension,
        "nodes and weights must have equal length",
    ),
    "nodes-inf": (
        lambda: SpaceDescriptor("quadrature", [1.0, 1.0], [0.0, np.inf]),
        NonFiniteInput,
        "quadrature nodes must be finite",
    ),
    "weighted-with-nodes": (
        lambda: SpaceDescriptor("weighted", [1.0], [0.0]), InvalidInterval, "weighted space must not carry nodes"
    ),
    "trapezoid-inf": (lambda: trapezoid_rule(3, 0.0, np.inf), NonFiniteInput, "interval endpoints must be finite"),
}


@pytest.mark.parametrize("case", sorted(SPACE_REFUSALS))
def test_space_refusals(case):
    build, error, message = SPACE_REFUSALS[case]
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == message


def test_quadrature_converges_at_second_order():
    """norm_sq of x^2 on [0,1] approaches the analytic 1/5; halving h cuts
    the error by about 4x."""
    errors = []
    for n in (51, 101, 201):
        s = trapezoid_rule(n, 0.0, 1.0)
        v = sample_function(s, lambda x: x * x)
        errors.append(abs(norm_sq(s, v) - 0.2))
    assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.1)
    assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.1)


def test_all_ones_weighted_matches_dense():
    rng = np.random.default_rng(7)
    u = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    dense = make_dense(5)
    weighted = make_weighted(np.ones(5))
    assert inner(weighted, u, v) == inner(dense, u, v)
    assert norm_sq(weighted, u) == norm_sq(dense, u)


def test_node_permutation_leaves_scalars_unchanged():
    # permute nodes/weights/samples consistently; inner products are sums,
    # so every scalar output must agree (nodes must stay sorted, so permute
    # a plain weighted space instead)
    rng = np.random.default_rng(3)
    w = rng.uniform(0.5, 2.0, size=6)
    u = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    perm = rng.permutation(6)
    s1 = make_weighted(w)
    s2 = make_weighted(w[perm])
    assert inner(s2, u[perm], v[perm]) == pytest.approx(inner(s1, u, v), rel=1e-12)
    assert norm_sq(s2, u[perm]) == pytest.approx(norm_sq(s1, u), rel=1e-12)
