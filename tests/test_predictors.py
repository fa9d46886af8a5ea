"""Online ridge engine, its baselines, and the batched-versus-stepwise contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqregret import (
    BoundedSequence,
    init,
    linear_lag,
    predict,
    run_lms,
    run_online,
    run_rls,
    univariate_poly,
    update,
)
from seqregret.predictors import BLOCK_STEPS, OnlineRunResult
from seqregret.sequences import feature_matrix

DYADIC = [-1.0, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0]


def dyadic_sequences(min_size=1, max_size=20):
    return st.lists(st.sampled_from(DYADIC), min_size=min_size, max_size=max_size).map(np.array)


def rank1_rls(spec, seq, delta, forgetting=1.0):
    """Independent oracle: exponentially weighted RLS as a per-step Sherman-Morrison recursion."""
    if len(seq) == 0:
        raise ValueError("sequence must be nonempty")
    if not delta > 0:
        raise ValueError("delta must be positive")
    if not 0.0 < forgetting <= 1.0:
        raise ValueError("forgetting factor must be in (0, 1]")
    F = feature_matrix(spec, seq)
    x = seq.values
    n = len(seq)
    m = spec.order_m
    P = np.eye(m) / float(delta)
    r = np.zeros(m)
    preds = np.empty(n)
    losses = np.empty(n)
    for t in range(n):
        f = F[t]
        pred = float(r @ P @ f)
        preds[t] = pred
        losses[t] = (x[t] - pred) ** 2
        P = P / forgetting
        Pf = P @ f
        P = P - np.outer(Pf, Pf) / (1.0 + float(f @ Pf))
        P = (P + P.T) / 2.0
        r = forgetting * r + x[t] * f
    return OnlineRunResult(predictions=preds, cumulative_loss=float(np.sum(losses)), per_step_losses=losses)


def dense_prediction(gram, cross, delta, f):
    """Direct-solve oracle: a = (R + dI)^{-1} r, prediction a.f."""
    m = len(f)
    a = np.linalg.solve(gram + delta * np.eye(m), cross)
    return float(a @ f)


# ------------------------------------------------------------------- init


def test_init_state():
    state = init(1, 1.0)
    assert state.inv_cache == pytest.approx(np.array([[1.0]]))
    assert state.steps_n == 0
    np.testing.assert_array_equal(state.gram_R, np.zeros((1, 1)))
    np.testing.assert_array_equal(state.cross_r, np.zeros(1))


def test_init_scales_identity_by_delta():
    np.testing.assert_allclose(init(3, 0.5).inv_cache, 2.0 * np.eye(3))


def test_init_rejects_bad_parameters():
    with pytest.raises(ValueError):
        init(2, 0.0)
    with pytest.raises(ValueError):
        init(0, 1.0)


# ---------------------------------------------------------- predict/update


def test_fresh_state_predicts_zero():
    state = init(2, 0.7)
    assert predict(state, np.array([0.3, -0.9])) == 0.0


def test_predict_after_one_update():
    # oracle: scalar ridge solution r / (R + delta) = 1 / (1 + 1)
    oracle = 1.0 / (1.0 + 1.0)
    state = update(init(1, 1.0), np.array([1.0]), 1.0)
    assert predict(state, np.array([1.0])) == pytest.approx(oracle)


def test_predict_after_two_updates():
    # oracle: r = 2, R = 2, prediction 2 / (2 + 1)
    oracle = 2.0 / 3.0
    state = init(1, 1.0)
    state = update(state, np.array([1.0]), 1.0)
    state = update(state, np.array([1.0]), 1.0)
    assert predict(state, np.array([1.0])) == pytest.approx(oracle)
    assert state.inv_cache[0, 0] == pytest.approx(1.0 / 3.0)


def test_predict_shape_error():
    with pytest.raises(ValueError):
        predict(init(2, 1.0), np.array([1.0]))
    with pytest.raises(ValueError):
        update(init(2, 1.0), np.array([1.0, 2.0, 3.0]), 0.5)


def test_zero_feature_update_is_statistics_noop():
    state = update(init(1, 1.0), np.array([0.0]), 5.0)
    assert state.gram_R[0, 0] == 0.0
    assert state.cross_r[0] == 0.0
    assert state.steps_n == 1
    assert state.inv_cache[0, 0] == 1.0


def test_update_scalar_arithmetic():
    # oracle: R = 4, r = 2, (R + 1)^{-1} = 1/5
    state = update(init(1, 1.0), np.array([2.0]), 1.0)
    assert state.gram_R[0, 0] == 4.0
    assert state.cross_r[0] == 2.0
    assert state.inv_cache[0, 0] == pytest.approx(1.0 / 5.0)


def test_statistics_are_order_invariant_exactly():
    # dyadic data keeps every partial sum exactly representable
    rng = np.random.default_rng(5)
    steps = [(rng.choice(DYADIC, size=3), rng.choice(DYADIC)) for _ in range(12)]
    forward = init(3, 1.0)
    for f, x in steps:
        forward = update(forward, f, float(x))
    backward = init(3, 1.0)
    for f, x in reversed(steps):
        backward = update(backward, f, float(x))
    np.testing.assert_array_equal(forward.gram_R, backward.gram_R)
    np.testing.assert_array_equal(forward.cross_r, backward.cross_r)


@settings(max_examples=50, deadline=None)
@given(dyadic_sequences(min_size=2, max_size=16))
def test_inverse_cache_tracks_direct_inverse(values):
    seq = BoundedSequence(values, 1.0)
    spec = linear_lag(1, 2)
    F = feature_matrix(spec, seq)
    state = init(2, 0.5)
    for t in range(len(seq)):
        state = update(state, F[t], values[t])
        product = state.inv_cache @ (state.gram_R + state.delta * np.eye(2))
        np.testing.assert_allclose(product, np.eye(2), atol=1e-8)


# -------------------------------------------------------------- run_online


def test_run_online_zero_sequence_has_zero_loss():
    seq = BoundedSequence(np.zeros(7), 1.0)
    for spec in (univariate_poly(2), linear_lag(1, 3)):
        assert run_online(spec, seq, 1.0).cumulative_loss == 0.0


def test_run_online_three_ones_matches_dense_oracle():
    # oracle: hand-rolled per-step dense solve on the lag-1 scalar class
    seq = BoundedSequence(np.array([1.0, 1.0, 1.0]), 1.0)
    spec = linear_lag(1, 1)
    F = feature_matrix(spec, seq)
    gram = np.zeros((1, 1))
    cross = np.zeros(1)
    oracle_preds = []
    for t in range(3):
        oracle_preds.append(dense_prediction(gram, cross, 1.0, F[t]))
        gram += np.outer(F[t], F[t])
        cross += seq.values[t] * F[t]
    assert oracle_preds == pytest.approx([0.0, 0.0, 0.5])

    run = run_online(spec, seq, 1.0)
    np.testing.assert_allclose(run.predictions, oracle_preds)
    assert run.cumulative_loss == pytest.approx(2.25)
    assert run.cumulative_loss == pytest.approx(float(np.sum(run.per_step_losses)))


@settings(max_examples=40, deadline=None)
@given(dyadic_sequences(min_size=1, max_size=18))
def test_clipping_never_increases_loss(values):
    seq = BoundedSequence(values, 1.0)
    spec = linear_lag(1, 2)
    clipped = run_online(spec, seq, 0.5, clip=True)
    plain = run_online(spec, seq, 0.5, clip=False)
    assert clipped.cumulative_loss <= plain.cumulative_loss + 1e-12


@settings(max_examples=40, deadline=None)
@given(dyadic_sequences(min_size=1, max_size=15))
def test_run_online_equals_stepwise_composition(values):
    seq = BoundedSequence(values, 1.0)
    spec = univariate_poly(2)
    F = feature_matrix(spec, seq)
    state = init(2, 1.0)
    preds = []
    for t in range(len(seq)):
        preds.append(predict(state, F[t]))
        state = update(state, F[t], values[t])
    run = run_online(spec, seq, 1.0)
    np.testing.assert_array_equal(run.predictions, np.array(preds))


def test_run_online_dense_audit_small_gap_across_blocks():
    rng = np.random.default_rng(11)
    values = np.clip(np.cumsum(rng.normal(0, 0.1, 2 * BLOCK_STEPS + 200)), -1, 1)
    seq = BoundedSequence(values, 1.0)
    run = run_online(linear_lag(1, 4), seq, 1.0, verify_dense=True)
    assert run.max_dense_gap < 1e-10


def walk_sequence(seed, n):
    rng = np.random.default_rng(seed)
    return BoundedSequence(np.clip(np.cumsum(rng.normal(0, 0.1, n)), -1, 1), 1.0)


@pytest.mark.parametrize("m", [1, 3, 8])
def test_run_online_equals_stepwise_composition_across_blocks(m):
    n = 4 * BLOCK_STEPS + 76
    seq = walk_sequence(m, n)
    spec = linear_lag(1, m)
    F = feature_matrix(spec, seq)
    state = init(m, 0.7)
    preds = []
    for t in range(n):
        preds.append(predict(state, F[t]))
        state = update(state, F[t], seq.values[t])
    run = run_online(spec, seq, 0.7)
    np.testing.assert_array_equal(run.predictions, np.array(preds))


@pytest.mark.parametrize("spec", [linear_lag(1, 4), univariate_poly(3)], ids=["linear4", "univar3"])
def test_run_online_matches_rank1_rls_across_blocks(spec):
    seq = walk_sequence(17, 2 * BLOCK_STEPS + 100)
    online = run_online(spec, seq, 0.5)
    rls = rank1_rls(spec, seq, 0.5, forgetting=1.0)
    np.testing.assert_allclose(online.predictions, rls.predictions, rtol=0, atol=1e-10)


def test_prefix_runs_reproduce_the_leading_steps_bitwise():
    seq = walk_sequence(5, 3 * BLOCK_STEPS)
    spec = linear_lag(1, 3)
    full = run_online(spec, seq, 1.0)
    for nc in (1, BLOCK_STEPS - 1, BLOCK_STEPS, BLOCK_STEPS + 1, 2 * BLOCK_STEPS + 37):
        prefix = run_online(spec, seq.prefix(nc), 1.0)
        np.testing.assert_array_equal(prefix.per_step_losses, full.per_step_losses[:nc])
        assert prefix.cumulative_loss == float(np.sum(full.per_step_losses[:nc]))


def test_run_online_damped_trace_shrinks_predictions():
    rng = np.random.default_rng(3)
    values = rng.uniform(-1, 1, 30)
    seq = BoundedSequence(values, 1.0)
    run = run_online(linear_lag(1, 2), seq, 1.0)
    # damped = plain / (1 + leverage) with leverage >= 0
    assert np.all(np.abs(run.damped_predictions) <= np.abs(run.predictions) + 1e-15)
    assert run.damped_loss == pytest.approx(float(np.sum((values - run.damped_predictions) ** 2)))


def test_run_online_rejects_empty_sequence():
    with pytest.raises(ValueError):
        run_online(linear_lag(1, 1), BoundedSequence(np.array([]), 1.0), 1.0)


# ------------------------------------------------------------------- LMS


def test_lms_zero_sequence():
    assert run_lms(linear_lag(1, 2), BoundedSequence(np.zeros(5), 1.0), 0.5).cumulative_loss == 0.0


def test_lms_zero_step_size_is_constant_zero_predictor():
    values = np.array([0.5, -1.0, 0.25])
    run = run_lms(linear_lag(1, 1), BoundedSequence(values, 1.0), 0.0)
    np.testing.assert_array_equal(run.predictions, np.zeros(3))
    assert run.cumulative_loss == pytest.approx(float(values @ values))


def test_lms_three_ones_matches_hand_recursion():
    # oracle: w0 = 0; f1 = 0 -> pred 0, w stays 0; f2 = 1 -> pred 0, w = 0.5;
    # f3 = 1 -> pred 0.5, err 0.5, losses 1 + 1 + 0.25
    seq = BoundedSequence(np.array([1.0, 1.0, 1.0]), 1.0)
    run = run_lms(linear_lag(1, 1), seq, 0.5)
    np.testing.assert_allclose(run.predictions, [0.0, 0.0, 0.5])
    assert run.cumulative_loss == pytest.approx(2.25)


def test_lms_rejects_negative_step():
    with pytest.raises(ValueError):
        run_lms(linear_lag(1, 1), BoundedSequence(np.zeros(2), 1.0), -0.1)


# ------------------------------------------------------------------- RLS


@settings(max_examples=30, deadline=None)
@given(dyadic_sequences(min_size=1, max_size=16))
def test_rls_at_unit_forgetting_equals_run_online(values):
    seq = BoundedSequence(values, 1.0)
    spec = linear_lag(1, 2)
    rls = run_rls(spec, seq, 0.5, forgetting=1.0)
    online = run_online(spec, seq, 0.5)
    np.testing.assert_allclose(rls.predictions, online.predictions, atol=1e-12)
    assert rls.cumulative_loss == pytest.approx(online.cumulative_loss, abs=1e-12)


def test_rls_forgetting_zero_sequence():
    assert run_rls(linear_lag(1, 1), BoundedSequence(np.zeros(2), 1.0), 1.0, forgetting=0.99).cumulative_loss == 0.0


def test_rls_with_forgetting_matches_scalar_hand_recursion():
    # independent scalar re-derivation of the discounted recursion:
    # predict with current (r, P); then P <- P/lam, Sherman-Morrison with f,
    # r <- lam*r + x*f.
    values = np.array([1.0, 0.5, -0.75])
    lam, delta = 0.9, 1.0
    feats = np.array([0.0, 1.0, 0.5])  # lag-1 features of the sequence
    P, r = 1.0 / delta, 0.0
    oracle = []
    for f, x in zip(feats, values):
        oracle.append(r * P * f)
        P = P / lam
        P = P - (P * f) ** 2 / (1.0 + f * f * P)
        r = lam * r + x * f
    run = run_rls(linear_lag(1, 1), BoundedSequence(values, 1.0), delta, forgetting=lam)
    np.testing.assert_allclose(run.predictions, oracle, atol=1e-14)


def test_rls_rejects_bad_forgetting():
    seq = BoundedSequence(np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        run_rls(linear_lag(1, 1), seq, 1.0, forgetting=0.0)
    with pytest.raises(ValueError):
        run_rls(linear_lag(1, 1), seq, 1.0, forgetting=1.1)


def uniform_sequence(seed, n):
    return BoundedSequence(np.random.default_rng(seed).uniform(-1, 1, n), 1.0)


# at forgetting 0.05 the weight 0.05^-256 of a full BLOCK_STEPS block would overflow
@pytest.mark.parametrize(
    "forgetting, m", [(lam, m) for lam in (1.0, 0.999, 0.99, 0.9, 0.5) for m in (1, 2, 4, 8)] + [(0.05, 1)]
)
def test_rls_engine_matches_rank1_oracle_across_blocks(forgetting, m):
    seq = uniform_sequence(0, 3 * BLOCK_STEPS + 1)
    spec = linear_lag(1, m)
    engine = run_rls(spec, seq, 1.0, forgetting=forgetting)
    oracle = rank1_rls(spec, seq, 1.0, forgetting=forgetting)
    np.testing.assert_allclose(engine.predictions, oracle.predictions, rtol=1e-10, atol=1e-10)


def test_rls_at_unit_forgetting_is_run_online_plain_trace_bitwise():
    seq = walk_sequence(8, 2 * BLOCK_STEPS + 9)
    for spec in (linear_lag(1, 3), univariate_poly(2)):
        np.testing.assert_array_equal(run_rls(spec, seq, 0.7).predictions, run_online(spec, seq, 0.7).predictions)


@pytest.mark.parametrize("forgetting", [0.9, 0.05])
def test_rls_prefix_runs_under_forgetting_reproduce_the_leading_steps_bitwise(forgetting):
    seq = uniform_sequence(2, 3 * BLOCK_STEPS)
    spec = linear_lag(1, 2)
    full = run_rls(spec, seq, 1.0, forgetting=forgetting)
    # blocks span 256 steps at 0.9 and 101 at 0.05
    for nc in (1, 100, 101, 102, BLOCK_STEPS - 1, BLOCK_STEPS, BLOCK_STEPS + 1, 2 * BLOCK_STEPS + 37):
        prefix = run_rls(spec, seq.prefix(nc), 1.0, forgetting=forgetting)
        np.testing.assert_array_equal(prefix.per_step_losses, full.per_step_losses[:nc])
