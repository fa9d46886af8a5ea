"""Feature classes: extraction, zero-padding, bounds, normalization constants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqregret import (
    BoundedSequence,
    FeatureSpec,
    feature_matrix,
    linear_lag,
    monomial_features,
    normalization_constant,
    univariate_poly,
)
from seqregret.sequences import ClassKind, features


def bounded_values(max_n=24):
    """Arrays of samples in [-1, 1] (dyadic grid keeps later sums exact)."""
    return st.lists(
        st.sampled_from([-1.0, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0]),
        min_size=1,
        max_size=max_n,
    ).map(np.array)


# --------------------------------------------------------------- sequences


def test_sequence_rejects_sample_above_bound():
    with pytest.raises(ValueError, match="exceeds"):
        BoundedSequence(np.array([0.1, 1.2]), 1.0)


def test_sequence_rejects_nonfinite_and_bad_bound():
    with pytest.raises(ValueError):
        BoundedSequence(np.array([np.nan]), 1.0)
    with pytest.raises(ValueError):
        BoundedSequence(np.array([0.0]), -1.0)
    with pytest.raises(ValueError):
        BoundedSequence(np.array([[1.0]]), 1.0)


def test_zero_bound_is_legal_only_for_the_zero_signal():
    seq = BoundedSequence(np.zeros(4), 0.0)
    assert len(seq) == 4
    with pytest.raises(ValueError):
        BoundedSequence(np.array([0.0, 1e-300]), 0.0)


def test_sequence_values_are_frozen():
    seq = BoundedSequence(np.array([0.5, -0.5]), 1.0)
    with pytest.raises(ValueError):
        seq.values[0] = 2.0


def test_prefix_keeps_bound():
    seq = BoundedSequence(np.array([1.0, -1.0, 0.0]), 2.0)
    pre = seq.prefix(2)
    assert pre.bound_A == 2.0
    np.testing.assert_array_equal(pre.values, [1.0, -1.0])


# ------------------------------------------------------------ feature specs


def test_memory_reach_per_class():
    assert univariate_poly(4).memory_a == 1
    assert linear_lag(2, 3).memory_a == 4  # k + m - 1
    assert monomial_features([{1: 1}, {3: 2}]).memory_a == 3


def test_spec_validation_errors():
    with pytest.raises(ValueError):
        univariate_poly(0)
    with pytest.raises(ValueError):
        linear_lag(0, 1)
    with pytest.raises(ValueError):
        FeatureSpec(ClassKind.UNIVARIATE_POLY, order_m=2, lookahead_k=2)
    with pytest.raises(ValueError):
        monomial_features([{1: 0}])
    with pytest.raises(ValueError):
        monomial_features([()])
    with pytest.raises(ValueError):
        FeatureSpec(ClassKind.MONOMIALS, order_m=2, monomials=(((1, 1),),))


def test_class_labels_match_cli_names():
    assert univariate_poly(1).label == "univar"
    assert linear_lag(1, 1).label == "linear"
    assert monomial_features([{1: 1}]).label == "monomial"


# ------------------------------------------------------- feature extraction


def test_univariate_powers_of_previous_sample():
    seq = BoundedSequence(np.array([0.5, 0.25]), 1.0)
    np.testing.assert_allclose(
        features(univariate_poly(3), seq, 2), [0.5, 0.25, 0.125]
    )


def test_linear_lag_window_indexing():
    seq = BoundedSequence(np.array([1.0, -1.0, 1.0]), 1.0)
    # k=2, m=2 at t=4 sees [x[2], x[1]]
    np.testing.assert_array_equal(features(linear_lag(2, 2), seq, 4), [-1.0, 1.0])


def test_zero_padding_before_sequence_start():
    seq = BoundedSequence(np.array([1.0, -1.0, 1.0]), 1.0)
    np.testing.assert_array_equal(features(linear_lag(1, 2), seq, 1), [0.0, 0.0])
    # at t=2 only the just-seen sample is real; the older slot pads to 0
    np.testing.assert_array_equal(features(linear_lag(1, 2), seq, 2), [1.0, 0.0])


def test_zero_padding_exact_coordinates():
    seq = BoundedSequence(np.array([0.5, 0.5, 0.5, 0.5]), 1.0)
    spec = linear_lag(2, 3)  # memory 4
    for t in range(1, spec.memory_a + 1):
        vec = features(spec, seq, t)
        for j in range(spec.order_m):
            source_index = t - spec.lookahead_k - j  # 1-based sample index
            if source_index < 1:
                assert vec[j] == 0.0
            else:
                assert vec[j] == 0.5


def test_monomial_feature_values():
    seq = BoundedSequence(np.array([0.5, -1.0, 0.25]), 1.0)
    spec = monomial_features([{1: 1, 2: 2}])  # x[t-1] * x[t-2]^2
    assert features(spec, seq, 3)[0] == pytest.approx(-1.0 * 0.25)
    assert features(spec, seq, 4)[0] == pytest.approx(0.25 * 1.0)
    # any referenced index < 1 zeroes the product
    assert features(spec, seq, 2)[0] == 0.0


def test_feature_range_errors():
    seq = BoundedSequence(np.array([0.5]), 1.0)
    spec = univariate_poly(1)
    features(spec, seq, 2)  # t = n+1 is the next-step prediction, legal
    with pytest.raises(ValueError):
        features(spec, seq, 0)
    with pytest.raises(ValueError):
        features(spec, seq, 3)


@settings(max_examples=60, deadline=None)
@given(bounded_values())
def test_feature_matrix_rows_equal_per_step_features(values):
    seq = BoundedSequence(values, 1.0)
    for spec in (univariate_poly(3), linear_lag(2, 3), monomial_features([{1: 1}, {1: 1, 2: 1}])):
        F = feature_matrix(spec, seq)
        assert F.shape == (len(seq), spec.order_m)
        for t in range(1, len(seq) + 1):
            np.testing.assert_array_equal(F[t - 1], features(spec, seq, t))


def test_features_do_not_mutate_the_sequence():
    values = np.array([0.5, -0.5, 0.25])
    seq = BoundedSequence(values.copy(), 1.0)
    before = seq.values.copy()
    feature_matrix(linear_lag(1, 2), seq)
    features(univariate_poly(2), seq, 3)
    np.testing.assert_array_equal(seq.values, before)


# ------------------------------------------------------------ normalization


def test_normalization_constant_examples():
    assert normalization_constant(univariate_poly(3), 2.0) == 8.0  # A^3 dominates
    assert normalization_constant(univariate_poly(4), 0.5) == 0.5  # A^1 dominates below 1
    assert normalization_constant(monomial_features([{1: 1, 2: 2}]), 1.0) == 1.0
    assert normalization_constant(linear_lag(3, 5), 1.7) == 1.7


def test_normalization_requires_positive_bound():
    with pytest.raises(ValueError):
        normalization_constant(univariate_poly(1), 0.0)


@pytest.mark.parametrize(
    "spec,A",
    [
        (univariate_poly(3), 2.0),
        (univariate_poly(4), 0.5),
        (linear_lag(2, 3), 1.3),
        (monomial_features([{1: 1, 2: 2}, {1: 3}]), 0.8),
    ],
)
def test_normalization_constant_matches_grid_evaluation(spec, A):
    # numeric validation of the analytic constant: evaluate every feature on
    # sequences drawn from a 1000-point amplitude grid and confirm the
    # analytic M is both an upper bound and attained (the extremes sit at
    # |x| = A, which the grid includes exactly).
    grid = np.linspace(-A, A, 1000)
    M = normalization_constant(spec, A)
    observed = 0.0
    for v in grid:
        seq = BoundedSequence(np.full(spec.memory_a + 1, v), A)
        vec = features(spec, seq, spec.memory_a + 1)
        observed = max(observed, float(np.max(np.abs(vec))))
    assert observed <= M + 1e-12
    assert observed == pytest.approx(M, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(bounded_values())
def test_features_bounded_by_normalization_constant(values):
    seq = BoundedSequence(values, 1.0)
    for spec in (univariate_poly(4), linear_lag(1, 3), monomial_features([{1: 2, 2: 1}])):
        M = normalization_constant(spec, seq.bound_A)
        F = feature_matrix(spec, seq)
        assert np.max(np.abs(F)) <= M + 1e-12
