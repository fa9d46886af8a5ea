"""Mixture predictors: Monte Carlo vs. analytic account, and derandomization."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqregret import (
    BoundedSequence,
    RandomizedPredictor,
    batch_solve,
    derandomize,
    extended_csv_row,
    linear_lag,
    mc_trial_totals,
    monomial_features,
    mixture_tables,
    regret_report,
    ridge_predictor_fn,
    run_online,
    run_predictor_fn,
    run_randomized,
    simple_envelope,
    static_rule,
    uniform_rule,
    univariate_poly,
    variance_decomposition,
)
from seqregret.cli import identity_mixture
from seqregret.randomized import EXTENDED_CSV_COLUMNS, mixture_account


def constant(c):
    return lambda history: c


def last_value(history):
    return float(history[-1]) if len(history) else 0.0


def pm1_sequence(seed, n, scale=1.0):
    rng = np.random.default_rng(seed)
    return BoundedSequence(np.where(rng.random(n) < 0.5, 1.0, -1.0) * scale, scale)


# ------------------------------------------------------------- construction


def test_needs_at_least_one_constituent():
    with pytest.raises(ValueError):
        RandomizedPredictor(constituents=(), prob_rule=uniform_rule(1))
    with pytest.raises(ValueError):
        RandomizedPredictor(constituents=(constant(0.0),), prob_rule=uniform_rule(1), seed=-3)


def test_probability_rule_validation():
    seq = pm1_sequence(0, 4)
    bad_shape = RandomizedPredictor((constant(0.0), constant(1.0)), static_rule([1.0]))
    with pytest.raises(ValueError, match="shape"):
        mixture_tables(bad_shape, seq)
    negative = RandomizedPredictor((constant(0.0), constant(1.0)), static_rule([1.5, -0.5]))
    with pytest.raises(ValueError, match="negative"):
        mixture_tables(negative, seq)
    off_sum = RandomizedPredictor((constant(0.0), constant(1.0)), static_rule([0.6, 0.6]))
    with pytest.raises(ValueError, match="sum to 1"):
        mixture_tables(off_sum, seq)


def test_probability_rule_checked_at_every_step():
    # the rule is valid on short histories but breaks at length 3
    def rule(history):
        return np.array([0.6, 0.6]) if len(history) == 3 else np.array([0.5, 0.5])

    rp = RandomizedPredictor((constant(0.0), constant(1.0)), rule)
    with pytest.raises(ValueError, match="sum to 1"):
        run_randomized(rp, pm1_sequence(1, 6), trials=4)


# ------------------------------------------------------- degenerate mixture


def test_single_constituent_is_deterministic():
    seq = pm1_sequence(2, 10)
    rp = RandomizedPredictor((last_value,), static_rule([1.0]), seed=5)
    mc, per_step = run_randomized(rp, seq, trials=7)
    direct = run_predictor_fn(last_value, seq)
    assert mc == pytest.approx(direct, rel=1e-12)  # no randomness left
    assert math.fsum(per_step) == pytest.approx(direct, rel=1e-12)
    bias_sq, variance = variance_decomposition(rp, seq)
    assert variance == 0.0
    assert bias_sq == pytest.approx(direct, rel=1e-12)


def test_symmetric_pair_on_zero_sequence():
    # +-c around the zero sequence: each step expects c^2, all of it variance
    c, n = 0.4, 12
    seq = BoundedSequence(np.zeros(n), 1.0)
    rp = RandomizedPredictor((constant(c), constant(-c)), uniform_rule(2))
    _, per_step = run_randomized(rp, seq, trials=3)
    assert per_step == pytest.approx([c * c] * n, abs=1e-15)
    bias_sq, variance = variance_decomposition(rp, seq)
    assert bias_sq == pytest.approx(0.0, abs=1e-15)
    assert variance == pytest.approx(n * c * c, rel=1e-12)
    derand = derandomize(rp)
    assert run_predictor_fn(derand, seq) == pytest.approx(0.0, abs=1e-15)


# ------------------------------------------------- Monte Carlo vs. analytic


def test_monte_carlo_matches_analytic_within_three_standard_errors():
    seq = pm1_sequence(3, 20)
    rp = RandomizedPredictor(
        (constant(0.3), constant(-0.5), last_value), static_rule([0.5, 0.3, 0.2]), seed=11
    )
    trials = 10_000
    totals = mc_trial_totals(rp, seq, trials)
    mc_mean = float(np.mean(totals))
    se = float(np.std(totals, ddof=1)) / math.sqrt(trials)
    _, per_step = run_randomized(rp, seq, trials=2)
    analytic = math.fsum(per_step)
    assert se > 0
    assert abs(mc_mean - analytic) <= 3 * se


def test_trials_are_seed_reproducible():
    seq = pm1_sequence(4, 15)
    mk = lambda seed: RandomizedPredictor((constant(0.2), last_value), uniform_rule(2), seed=seed)
    np.testing.assert_array_equal(mc_trial_totals(mk(9), seq, 64), mc_trial_totals(mk(9), seq, 64))
    assert not np.array_equal(mc_trial_totals(mk(9), seq, 64), mc_trial_totals(mk(10), seq, 64))


def test_trials_validation():
    rp = RandomizedPredictor((constant(0.0),), uniform_rule(1))
    with pytest.raises(ValueError):
        mc_trial_totals(rp, pm1_sequence(0, 3), trials=0)


# -------------------------------------------- decomposition and dominance


@pytest.mark.parametrize("seed", range(5))
def test_bias_variance_identity(seed):
    # history-dependent weights: the identity must hold step by step regardless
    rng = np.random.default_rng(seed)
    seq = BoundedSequence(rng.uniform(-1, 1, 25), 1.0)

    def rule(history):
        a = 0.5 + 0.4 * math.sin(len(history))
        return np.array([a, 1.0 - a])

    rp = RandomizedPredictor((last_value, constant(0.1)), rule)
    _, per_step = run_randomized(rp, seq, trials=2)
    analytic = math.fsum(per_step)
    bias_sq, variance = variance_decomposition(rp, seq)
    scale = max(1.0, abs(analytic))
    assert abs((bias_sq + variance) - analytic) <= 1e-10 * scale

    derand_loss = run_predictor_fn(derandomize(rp), seq)
    assert abs(derand_loss - bias_sq) <= 1e-10 * scale
    # removing the variance can never lose
    assert derand_loss <= analytic + 1e-10 * scale


def test_dominance_is_strict_exactly_when_variance_is_positive():
    seq = pm1_sequence(6, 10)
    spread = RandomizedPredictor((constant(0.5), constant(-0.5)), uniform_rule(2))
    _, per_step = run_randomized(spread, seq, trials=2)
    bias_sq, variance = variance_decomposition(spread, seq)
    assert variance > 0
    assert run_predictor_fn(derandomize(spread), seq) < math.fsum(per_step)

    # identical constituents: zero variance, derandomizing changes nothing
    collapsed = RandomizedPredictor((constant(0.25), constant(0.25)), uniform_rule(2))
    _, per_step_c = run_randomized(collapsed, seq, trials=2)
    bias_c, var_c = variance_decomposition(collapsed, seq)
    assert var_c == 0.0
    assert run_predictor_fn(derandomize(collapsed), seq) == pytest.approx(
        math.fsum(per_step_c), rel=1e-12
    )


# ------------------------------------------------- ridge constituent wrapper


def test_ridge_wrapper_replays_the_online_run():
    seq = pm1_sequence(7, 30, scale=0.8)
    spec = linear_lag(1, 2)
    run = run_online(spec, seq, delta=1.0)
    plain = run_predictor_fn(ridge_predictor_fn(spec, 1.0), seq)
    assert plain == pytest.approx(run.cumulative_loss, rel=1e-12)
    damped = run_predictor_fn(ridge_predictor_fn(spec, 1.0, damped=True), seq)
    assert damped == pytest.approx(run.damped_loss, rel=1e-12)
    clipped_run = run_online(spec, seq, delta=1.0, clip=True)
    clipped = run_predictor_fn(ridge_predictor_fn(spec, 1.0, clip_to=seq.bound_A), seq)
    assert clipped == pytest.approx(clipped_run.cumulative_loss, rel=1e-12)


def test_clipped_wrapper_never_exceeds_the_clamp():
    spec = linear_lag(1, 1)
    fn = ridge_predictor_fn(spec, 0.25, clip_to=0.3)
    rng = np.random.default_rng(8)
    history = rng.uniform(-2, 2, 40)
    for t in (0, 5, 40):
        assert abs(fn(history[:t])) <= 0.3


def test_mixture_of_certified_predictors_inherits_the_envelope():
    """Derandomizing a mixture of certificate-carrying predictors keeps the bound.

    Each constituent's loss obeys: loss <= (best raw hindsight loss)
    + delta ||w0||^2 + closed-form envelope.  The mixture's expected loss is a
    convex combination, and derandomizing only subtracts variance.
    """
    delta = 1.0
    spec = linear_lag(1, 2)
    for seed in range(4):
        seq = pm1_sequence(20 + seed, 64)
        rp = RandomizedPredictor(
            (
                ridge_predictor_fn(spec, delta, damped=True),
                ridge_predictor_fn(spec, delta, damped=True, clip_to=seq.bound_A),
            ),
            uniform_rule(2),
            seed=seed,
        )
        derand_loss = run_predictor_fn(derandomize(rp), seq)
        w0, raw0 = batch_solve(spec, seq, 0.0)
        envelope = simple_envelope(seq.bound_A, spec.order_m, len(seq), delta)
        assert derand_loss <= raw0 + delta * float(w0 @ w0) + envelope + 1e-9


# ------------------------------------------------ tables from engine runs

TABLE_N = 600  # two engine block boundaries


def walk_sequence(seed, n=TABLE_N):
    rng = np.random.default_rng(seed)
    return BoundedSequence(np.clip(np.cumsum(rng.normal(0.0, 0.25, n)), -1.0, 1.0), 1.0)


def on_every_prefix(fn, seq):
    return np.array([fn(seq.values[:t]) for t in range(len(seq))])


@pytest.mark.parametrize(
    "spec",
    [linear_lag(1, 1), linear_lag(1, 3), univariate_poly(2), monomial_features([{1: 1}, {1: 1, 2: 1}])],
    ids=["linear-m1", "linear-m3", "univar-m2", "monomial"],
)
def test_engine_rows_equal_the_history_functions_on_every_prefix(spec):
    seq = walk_sequence(31)
    delta, clip = 0.5, 0.2
    run = run_online(spec, seq, delta)
    clipped = np.clip(run.damped_predictions, -clip, clip)
    assert np.any(clipped != run.damped_predictions)  # the clamp is active
    np.testing.assert_array_equal(run.predictions, on_every_prefix(ridge_predictor_fn(spec, delta), seq))
    np.testing.assert_array_equal(
        run.damped_predictions, on_every_prefix(ridge_predictor_fn(spec, delta, damped=True), seq)
    )
    np.testing.assert_array_equal(
        clipped, on_every_prefix(ridge_predictor_fn(spec, delta, damped=True, clip_to=clip), seq)
    )


def test_identity_tables_equal_the_per_prefix_tables():
    seq, spec = walk_sequence(32), linear_lag(1, 3)
    rp, preds, probs = identity_mixture(spec, seq, 0.5, 9, run_online(spec, seq, 0.5))
    ref_preds, ref_probs = mixture_tables(rp, seq)
    np.testing.assert_array_equal(preds, ref_preds)
    np.testing.assert_array_equal(probs, ref_probs)


def test_table_account_equals_the_history_function_route():
    seq, spec = walk_sequence(33), univariate_poly(2)
    rp, preds, probs = identity_mixture(spec, seq, 1.0, 4, run_online(spec, seq, 1.0))
    account = mixture_account(seq.values, preds, probs, trials=60, seed=rp.seed)
    mc, per_step = run_randomized(rp, seq, trials=60)
    assert account.mc_mean == mc
    np.testing.assert_array_equal(account.per_step, per_step)
    assert (account.bias_sq, account.variance) == variance_decomposition(rp, seq)
    derand_loss = run_predictor_fn(derandomize(rp), seq)
    assert abs(account.derandomized_loss - derand_loss) <= 1e-12 * max(1.0, derand_loss)


def choice_loop_totals(values, preds, probs, trials, seed):
    """Oracle: the Monte-Carlo pass as one `rng.choice` per step; returns the totals and the generator."""
    k, n = preds.shape
    rng = np.random.default_rng(seed)
    totals = np.zeros(trials)
    for t in range(n):
        idx = rng.choice(k, size=trials, p=probs[:, t])
        totals += (values[t] - preds[idx, t]) ** 2
    return totals, rng


def account_and_generator(values, preds, probs, trials, seed):
    """mixture_account's trial totals and the generator it drew from."""
    made = []
    real = np.random.default_rng

    def capture(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    with mock.patch.object(np.random, "default_rng", capture):
        totals = mixture_account(values, preds, probs, trials, seed).trial_totals
    (rng,) = made
    return totals, rng


@st.composite
def mixture_weights(draw, k, n):
    """(k, n) weights summing to 1 per step, static or per step, some of them zero."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    static = draw(st.booleans())
    w = rng.random((k, 1 if static else n)) * (rng.random((k, 1 if static else n)) < 0.7)
    w[rng.integers(k)] += 0.05
    w = w / w.sum(axis=0)
    return np.broadcast_to(w, (k, n)) if static else w


@settings(max_examples=120, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 4), st.integers(0, 150)).flatmap(
        lambda kn: st.tuples(st.just(kn[0]), st.just(kn[1]), mixture_weights(*kn))
    ),
    trials=st.one_of(st.integers(1, 40), st.integers(400, 2500)),  # the second spans several draw chunks
    seed=st.integers(0, 2 ** 64 - 1),
)
def test_monte_carlo_pass_is_the_choice_loop_bitwise(shape, trials, seed):
    k, n, probs = shape
    rng = np.random.default_rng(seed % 1000)
    values, preds = rng.normal(size=n), rng.normal(size=(k, n))
    want, want_rng = choice_loop_totals(values, preds, probs, trials, seed)
    got, got_rng = account_and_generator(values, preds, probs, trials, seed)
    assert got.tobytes() == want.tobytes()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize(
    "column, named",
    [([0.5, np.nan], "contain NaN"), ([np.inf, -np.inf], "contain NaN"), ([1.5, -0.5], "not non-negative"),
     ([0.5, 0.4], "do not sum to 1"),
     ([np.inf, 0.0], "do not sum to 1"), ([1.0 + 2e-8, 0.0], "do not sum to 1")],
)
def test_monte_carlo_pass_refuses_what_choice_refuses(column, named):
    probs = np.array([[0.25, column[0]], [0.75, column[1]]])
    values, preds = np.zeros(2), np.zeros((2, 2))
    with pytest.raises(ValueError, match=named):
        choice_loop_totals(values, preds, probs, 3, 0)
    with pytest.raises(ValueError, match=named):
        mixture_account(values, preds, probs, 3, 0)
    mixture_account(values, preds, np.array([[0.25, 1.0 + 1e-9], [0.75, 0.0]]), 3, 0)  # within sqrt(eps)


def test_account_without_trials_skips_the_monte_carlo_pass():
    seq = pm1_sequence(10, 6)
    rp = RandomizedPredictor((constant(0.3), last_value), uniform_rule(2))
    preds, probs = mixture_tables(rp, seq)
    assert mixture_account(seq.values, preds, probs).trial_totals is None
    with pytest.raises(ValueError):
        mixture_account(seq.values, preds, probs, trials=0)


# ----------------------------------------------------------- extended rows


def test_extended_csv_row_appends_randomized_columns():
    seq = pm1_sequence(9, 8)
    spec = linear_lag(1, 1)
    report = regret_report(spec, seq, 1.0, run_online(spec, seq, 1.0))
    row = extended_csv_row(report, p_rand_mc=1.25, p_rand_analytic=1.2, variance_total=0.05)
    assert len(row) == len(EXTENDED_CSV_COLUMNS) == 13
    assert row[-3:] == [repr(1.25), repr(1.2), repr(0.05)]
