"""Online ridge engine, its baselines, and the batched-versus-stepwise contracts."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seqregret import (
    BoundedSequence,
    gram_log_det_ratio,
    init,
    linear_lag,
    monomial_features,
    predict,
    run_lms,
    run_online,
    run_rls,
    univariate_poly,
    update,
)
from seqregret import predictors
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


def test_dense_audit_catches_a_faulty_engine(monkeypatch):
    # the audit re-solves by LAPACK LU, so an engine whose plain output is off by a
    # relative 1e-6 reads a gap far above criterion 3's 1e-8
    seq, spec = walk_sequence(3, BLOCK_STEPS + 100), linear_lag(1, 4)
    assert run_online(spec, seq, 1.0, verify_dense=True).max_dense_gap < 1e-10
    solve = predictors._vaw_solve

    def faulty(stats, features):
        plain, leverage = solve(stats, features)
        return plain * (1.0 + 1e-6), leverage

    monkeypatch.setattr(predictors, "_vaw_solve", faulty)
    assert run_online(spec, seq, 1.0, verify_dense=True).max_dense_gap > 1e-8


def test_engine_calls_no_lapack_and_the_audit_does(monkeypatch):
    calls = []
    solve = np.linalg.solve

    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called")

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return solve(*args, **kwargs)

    for name in ("cholesky", "inv", "lstsq"):
        monkeypatch.setattr(np.linalg, name, refuse)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    seq, spec = walk_sequence(4, BLOCK_STEPS + 10), linear_lag(1, 3)
    plain = run_online(spec, seq, 1.0)
    monkeypatch.setattr(np.linalg, "solve", counted)
    audited = run_online(spec, seq, 1.0, verify_dense=True)
    np.testing.assert_array_equal(audited.predictions, plain.predictions)
    assert sum(shape[0] for shape in calls) == len(seq)  # every step re-solved once
    assert max(shape[0] for shape in calls) <= 256


def pack(shifted, crosses):
    """(b, m, m) matrices R + dI and (b, m) crosses r as the engine packs them: per column j,
    (R + dI)[j:, j] then r_j, one system per column of the result."""
    m = crosses.shape[1]
    return np.concatenate([np.concatenate([shifted[:, j:, j], crosses[:, j:j + 1]], axis=1) for j in range(m)],
                          axis=1).T.copy()


def engine_solve(shifted, crosses, F):
    """(plain, leverage) of the engine's solve on copies of its inputs."""
    return predictors._vaw_solve(pack(shifted, crosses), F.T.copy())


@st.composite
def spd_stacks(draw):
    """A stack of R + dI with R = G G^T of rank <= m (zero rank too), crosses r and
    features f; d ranges from far above the scale of R down to its resolution."""
    m = draw(st.integers(1, 8))
    b = draw(st.integers(1, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rank = draw(st.integers(0, m))
    scale = 10.0 ** draw(st.integers(-3, 3))
    G = rng.normal(size=(b, m, rank)) * scale
    R = G @ G.transpose(0, 2, 1)
    top = max(float(np.max(np.abs(R))), 1.0)
    delta = top * 10.0 ** draw(st.floats(-15.0, 2.0))
    shifted = R + delta * np.eye(m)
    crosses = rng.normal(size=(b, m)) * scale * np.sqrt(b)
    F = rng.normal(size=(b, m)) * scale
    return shifted, crosses, F


@settings(max_examples=100, deadline=None)
@given(spd_stacks())
def test_engine_solve_matches_lapack_and_is_batch_independent(stack):
    shifted, crosses, F = stack
    b = F.shape[0]
    singles = []
    for i in range(b):
        try:
            singles.append(engine_solve(shifted[i:i + 1], crosses[i:i + 1], F[i:i + 1]))
        except ValueError:
            singles.append(None)
    try:
        plain, leverage = engine_solve(shifted, crosses, F)
    except ValueError as exc:
        # the batch refuses exactly when one of its systems does
        assert "singular in floating point" in str(exc)
        assert any(single is None for single in singles)
        return
    assert all(single is not None for single in singles)
    for i, (one_plain, one_leverage) in enumerate(singles):
        assert one_plain.tobytes() == plain[i:i + 1].tobytes()
        assert one_leverage.tobytes() == leverage[i:i + 1].tobytes()
    assert np.all(leverage >= 0)
    # oracle: LU solves; any backward-stable solve is off by a multiple of eps * cond
    g = np.linalg.solve(shifted, F[..., None])[..., 0]
    a = np.linalg.solve(shifted, crosses[..., None])[..., 0]
    cond = np.linalg.cond(shifted)
    assume(np.all(np.isfinite(cond)))
    lev_oracle, plain_oracle = np.sum(F * g, axis=1), np.sum(crosses * g, axis=1)
    # |r^T A^-1 f| <= sqrt(r^T A^-1 r) sqrt(f^T A^-1 f): the natural size of the plain prediction
    size = np.sqrt(np.abs(np.sum(crosses * a, axis=1) * lev_oracle))
    assert np.all(np.abs(leverage - lev_oracle) <= 1e-12 * cond * np.maximum(lev_oracle, 1e-300))
    assert np.all(np.abs(plain - plain_oracle) <= 1e-12 * cond * np.maximum(size, 1e-300))


def test_engine_refuses_a_singular_system_without_warnings():
    # R = f f^T of rank 1 at d far below its resolution: a pivot rounds to zero or below
    f = np.array([1.0, 1.0, 1.0])
    shifted = (np.outer(f, f) + 1e-30 * np.eye(3))[None]
    with pytest.raises(ValueError, match="singular in floating point"):
        engine_solve(shifted, np.ones((1, 3)), np.ones((1, 3)))
    with pytest.raises(ValueError, match="singular in floating point"):
        engine_solve(np.array([[[np.inf]]]), np.ones((1, 1)), np.ones((1, 1)))


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


@pytest.mark.parametrize("n", [1, 7, 600])
@pytest.mark.parametrize(
    "spec", [linear_lag(1, 3), univariate_poly(2), monomial_features([{1: 1}, {1: 1, 2: 1}])],
    ids=["linear", "univar", "monomial"],
)
def test_leverage_sums_to_the_log_det_ratio(spec, n):
    # matrix determinant lemma: det(R_t + f f^T + dI) = det(R_t + dI) (1 + leverage_t)
    rng = np.random.default_rng(n)
    seq = BoundedSequence(rng.uniform(-1, 1, n), 1.0)
    run = run_online(spec, seq, 0.5)
    F = feature_matrix(spec, seq)
    assert np.all(run.leverage >= 0)
    assert float(np.sum(np.log1p(run.leverage))) == pytest.approx(gram_log_det_ratio(F.T @ F, 0.5), rel=1e-12)


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


@pytest.mark.parametrize("step", [float("inf"), float("nan"), 2.5])
def test_lms_rejects_non_finite_and_unstable_steps(step):
    # features 0, 1, 1: a step above 2 / |f|^2 = 2 amplifies the error at steps 2 and 3
    with pytest.raises(ValueError, match="step"):
        run_lms(linear_lag(1, 1), BoundedSequence(np.ones(3), 1.0), step)


def numpy_lms(spec, seq, step_size):
    """Oracle: the LMS recursion as a numpy loop, one BLAS dot product per prediction,
    with every overflow raised by the error state."""
    if len(seq) == 0:
        raise ValueError("sequence must be nonempty")
    if not 0.0 <= step_size < np.inf:
        raise ValueError("step_size must be nonnegative and finite")
    F = feature_matrix(spec, seq)
    x = seq.values
    n = len(seq)
    w = np.zeros(spec.order_m)
    preds = np.empty(n)
    losses = np.empty(n)
    with np.errstate(over="raise", invalid="raise"):
        energy = np.einsum("ij,ij->i", F, F)
        if step_size * energy.max() > 2.0:
            t = int(np.argmax(energy))
            raise ValueError(f"LMS step size mu={step_size!r} is unstable on this sequence: mu |f_t|^2 > 2 at "
                             f"step {t + 1}, where the update amplifies the error (stable for mu <= {2.0 / energy[t]})")
        for t in range(n):
            f = F[t]
            pred = float(w @ f)
            err = x[t] - pred
            preds[t] = pred
            losses[t] = err ** 2
            w = w + step_size * err * f
    return OnlineRunResult(predictions=preds, cumulative_loss=float(np.sum(losses)), per_step_losses=losses)


def stable_step(spec, seq, fraction):
    """A step size `fraction` of the way to the stability limit 2 / max |f_t|^2 (capped at 1e300)."""
    top = float(np.max(np.sum(feature_matrix(spec, seq) ** 2, axis=1)))
    return min(fraction * 2.0 / top, 1e300) if top > 0 else fraction


def assert_lms_matches_bitwise(spec, seq, mu):
    """Predictions equal the numpy loop's bitwise.  Losses are the correctly rounded squares
    (x - p)^2 of those predictions; the loop squared each error by a scalar power, which
    libm may round one unit in the last place away."""
    run, oracle = run_lms(spec, seq, mu), numpy_lms(spec, seq, mu)
    np.testing.assert_array_equal(run.predictions, oracle.predictions)
    err = seq.values - oracle.predictions
    np.testing.assert_array_equal(run.per_step_losses, err * err)
    np.testing.assert_array_max_ulp(run.per_step_losses, oracle.per_step_losses, maxulp=1)


# stable step sizes well away from 0, so the weights stay clear of the subnormal range
STEP_FRACTION = st.one_of(st.just(0.0), st.floats(2.0 ** -20, 0.99))


LMS_CLASSES = st.sampled_from(["linear", "univar", "monomial"])


def lms_spec(klass, m):
    if klass == "linear":
        return linear_lag(1, m)
    if klass == "univar":
        return univariate_poly(m)
    return monomial_features([{lag: 1 for lag in range(1, i + 1)} for i in range(1, m + 1)])


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=200).map(np.array),
    klass=LMS_CLASSES,
    fraction=STEP_FRACTION,
)
def test_lms_is_the_numpy_loop_bitwise_at_one_feature(values, klass, fraction):
    spec, seq = lms_spec(klass, 1), BoundedSequence(values, 3.0)
    assert_lms_matches_bitwise(spec, seq, stable_step(spec, seq, fraction))


@settings(max_examples=60, deadline=None)
@given(
    signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=1, max_size=300).map(np.array),
    amplitude=st.sampled_from([0.25, 0.5, 1.0, 2.0]),
    m=st.integers(1, 8),
    fraction=STEP_FRACTION,
)
def test_lms_is_the_numpy_loop_bitwise_on_two_valued_lag_windows(signs, amplitude, m, fraction):
    # with f_i = +-A, A a power of two, every product w_i f_i is exact, so a fused
    # multiply-add rounds each partial sum exactly as a multiply and an add do
    spec, seq = linear_lag(1, m), BoundedSequence(amplitude * signs, amplitude)
    assert_lms_matches_bitwise(spec, seq, stable_step(spec, seq, fraction))


@settings(max_examples=80, deadline=None)
@given(
    values=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=200).map(np.array),
    klass=LMS_CLASSES,
    m=st.integers(1, 8),
    fraction=STEP_FRACTION,
)
def test_lms_matches_the_numpy_loop_to_the_last_bits(values, klass, m, fraction):
    spec, seq = lms_spec(klass, m), BoundedSequence(values, 2.0)
    mu = stable_step(spec, seq, fraction)
    got, want = run_lms(spec, seq, mu).predictions, numpy_lms(spec, seq, mu).predictions
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


def test_lms_overflow_is_refused_like_the_numpy_loop():
    # mu |f|^2 = 1.9 is stable, but the third error, -2.9 a, squares past the float range
    a = 1e154
    seq = BoundedSequence(np.array([a, -a, -a]), a)
    mu = 1.9 / a ** 2
    with pytest.raises(FloatingPointError):
        numpy_lms(linear_lag(1, 1), seq, mu)
    with pytest.raises(ValueError, match="not finite"):
        run_lms(linear_lag(1, 1), seq, mu)


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


# at forgetting 0.05 the weight 0.05^-BLOCK_STEPS of a full block would overflow
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
    # blocks span BLOCK_STEPS steps at 0.9 and 101 at 0.05
    for nc in (1, 100, 101, 102, BLOCK_STEPS - 1, BLOCK_STEPS, BLOCK_STEPS + 1, 2 * BLOCK_STEPS + 37):
        prefix = run_rls(spec, seq.prefix(nc), 1.0, forgetting=forgetting)
        np.testing.assert_array_equal(prefix.per_step_losses, full.per_step_losses[:nc])
