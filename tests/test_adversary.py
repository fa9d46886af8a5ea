"""Sign-flip sequence law, the conditional-mean predictor, and the regret floor."""

import math
import time
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betaln

from seqregret import (
    AdversaryKind,
    AdversarySpec,
    BoundedSequence,
    batch_solve,
    bayes_predict,
    bayes_prediction_trace,
    estimate_lower_bound,
    generate,
    linear_lag,
    sample_theta,
    transition_posterior_check,
    univariate_poly,
)


def lag_spec(**kw):
    base = dict(kind=AdversaryKind.SIGN_FLIP_LAG, beta_C=1.0, bound_A=1.0, horizon_n=8, seed=0)
    base.update(kw)
    return AdversarySpec(**base)


def posterior_mean_by_integral(stays, flips, C):
    """E[theta | counts] as a ratio of beta integrals, via log-gamma.

    Independent of the closed-form (stays + C) / (stays + flips + 2C) the
    library uses: the moment is B(stays+C+1, flips+C) / B(stays+C, flips+C).
    """
    return math.exp(betaln(stays + C + 1, flips + C) - betaln(stays + C, flips + C))


def exact_law_gap(n, beta_C=1.0):
    """Exact expected (Bayes loss - hindsight loss) for the lag-1 chain, A = 1.

    Enumerates all 2^(n-1) sequences starting at +1, weighting each by its
    beta-mixed likelihood B(S+C, F+C) / B(C, C), with the Bayes prediction at
    every step rebuilt from the integral-ratio posterior mean.
    """
    spec = linear_lag(1, 1)
    total = 0.0
    total_weight = 0.0
    for tail in product((1.0, -1.0), repeat=n - 1):
        x = np.array((1.0,) + tail)
        stays = int(np.sum(x[1:] == x[:-1]))
        flips = (n - 1) - stays
        weight = math.exp(betaln(stays + beta_C, flips + beta_C) - betaln(beta_C, beta_C))
        total_weight += weight
        bayes_loss = 0.0
        s = f = 0
        for t in range(n):
            pred = 0.0
            if t >= 1:
                pred = (2.0 * posterior_mean_by_integral(s, f, beta_C) - 1.0) * x[t - 1]
            bayes_loss += (x[t] - pred) ** 2
            if t >= 1:
                s, f = (s + 1, f) if x[t] == x[t - 1] else (s, f + 1)
        _, hindsight = batch_solve(spec, BoundedSequence(x, 1.0), 0.0)
        total += weight * (bayes_loss - hindsight)
    assert total_weight == pytest.approx(1.0, abs=1e-12)
    return total


# ----------------------------------------------------------- spec validation


def test_spec_validation():
    with pytest.raises(ValueError, match="beta_C"):
        lag_spec(beta_C=0.0)
    with pytest.raises(ValueError, match="bound_A"):
        lag_spec(bound_A=0.0)
    with pytest.raises(ValueError, match="bound_A"):
        lag_spec(bound_A=math.inf)
    with pytest.raises(ValueError, match="horizon"):
        lag_spec(horizon_n=0)
    with pytest.raises(ValueError, match="seed"):
        lag_spec(seed=-1)
    with pytest.raises(ValueError, match="lag_k"):
        lag_spec(lag_k=0)
    with pytest.raises(ValueError, match="monomial"):
        lag_spec(monomial=((1, 1),))
    with pytest.raises(ValueError, match="monomial"):
        lag_spec(kind=AdversaryKind.SIGN_FLIP_MONOMIAL)
    with pytest.raises(ValueError, match="lag >= 1"):
        lag_spec(kind=AdversaryKind.SIGN_FLIP_MONOMIAL, monomial=((0, 1),))
    with pytest.raises(ValueError, match="duplicate lag inside one monomial"):
        lag_spec(kind=AdversaryKind.SIGN_FLIP_MONOMIAL, monomial=((1, 1), (1, 1)))


def test_spec_memory_and_matching_class():
    assert lag_spec(lag_k=3).memory == 3
    spec = lag_spec(lag_k=2).matching_feature_spec(order_m=3)
    # consecutive samples ending k back: memory reaches k + m - 1
    assert (spec.lookahead_k, spec.order_m, spec.memory_a) == (2, 3, 4)
    mono = lag_spec(kind=AdversaryKind.SIGN_FLIP_MONOMIAL, lag_k=1, monomial=((1, 1), (3, 2)))
    assert mono.memory == 3
    assert mono.matching_feature_spec().monomials == (((1, 1), (3, 2)),)


# -------------------------------------------------------------- prior draws


def test_theta_prior_statistics():
    rng = np.random.default_rng(0)
    draws = np.array([sample_theta(1.0, rng) for _ in range(40_000)])
    assert np.all((draws > 0) & (draws < 1))
    # beta(1,1) is uniform: mean 1/2, and P(theta < 1/2) = 1/2
    assert abs(draws.mean() - 0.5) < 3 * math.sqrt(1 / 12 / draws.size)
    assert abs(np.mean(draws < 0.5) - 0.5) < 3 * math.sqrt(0.25 / draws.size)
    # beta(5,5): variance C^2 / ((2C)^2 (2C+1)) = 1/44
    sharp = np.array([sample_theta(5.0, rng) for _ in range(40_000)])
    assert np.var(sharp) == pytest.approx(1 / 44, rel=0.1)


def test_theta_prior_rejects_bad_concentration():
    with pytest.raises(ValueError):
        sample_theta(0.0, np.random.default_rng(0))


def test_theta_prior_gives_up_when_every_draw_underflows():
    # at C = 1e-300 every gamma draw is 0; the rejection loop must end
    start = time.perf_counter()
    with pytest.raises(ValueError, match="too small"):
        sample_theta(1e-300, np.random.default_rng(0))
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------- generate


def test_generate_deterministic_endpoints():
    rng = np.random.default_rng(0)
    always_stay = generate(lag_spec(horizon_n=5), 1.0, rng)
    np.testing.assert_array_equal(always_stay.values, np.ones(5))
    always_flip = generate(lag_spec(horizon_n=5, lag_k=2), 0.0, rng)
    np.testing.assert_array_equal(always_flip.values, [1.0, 1.0, -1.0, -1.0, 1.0])
    alternating = generate(lag_spec(horizon_n=4), 0.0, rng)
    np.testing.assert_array_equal(alternating.values, [1.0, -1.0, 1.0, -1.0])


def test_generate_theta_out_of_range():
    with pytest.raises(ValueError):
        generate(lag_spec(), 1.5, np.random.default_rng(0))


def test_generate_short_horizon_is_all_plus_A():
    seq = generate(lag_spec(horizon_n=2, lag_k=3, bound_A=0.25), 0.3, np.random.default_rng(1))
    np.testing.assert_array_equal(seq.values, [0.25, 0.25])


@pytest.mark.parametrize("seed", range(4))
def test_generate_values_are_exactly_two_valued(seed):
    rng = np.random.default_rng(seed)
    theta = sample_theta(1.0, rng)
    seq = generate(lag_spec(horizon_n=200, bound_A=0.7, lag_k=int(1 + seed % 3)), theta, rng)
    assert np.all((seq.values == 0.7) | (seq.values == -0.7))
    assert seq.bound_A == 0.7


def test_generate_fair_coin_has_no_lag_correlation():
    seq = generate(lag_spec(horizon_n=100_001), 0.5, np.random.default_rng(3))
    products = seq.values[1:] * seq.values[:-1]
    assert abs(products.mean()) < 3 / math.sqrt(products.size)


def test_generate_monomial_flip_pattern():
    # reference is x[t-1]*x[t-2]; always-flip emits minus the reference sign
    spec = lag_spec(kind=AdversaryKind.SIGN_FLIP_MONOMIAL, lag_k=1,
                    monomial=((1, 1), (2, 1)), horizon_n=8, bound_A=0.5)
    seq = generate(spec, 0.0, np.random.default_rng(0))
    expected = 0.5 * np.array([1, 1, -1, 1, 1, -1, 1, 1])
    np.testing.assert_array_equal(seq.values, expected)
    stay = generate(spec, 1.0, np.random.default_rng(0))
    np.testing.assert_array_equal(stay.values, np.full(8, 0.5))


def test_generate_monomial_even_exponent_reference_is_constant():
    # x[t-1]^2 has constant positive sign, so always-stay emits +A forever
    spec = lag_spec(kind=AdversaryKind.SIGN_FLIP_MONOMIAL, lag_k=1, monomial=((1, 2),), horizon_n=6)
    seq = generate(spec, 1.0, np.random.default_rng(0))
    np.testing.assert_array_equal(seq.values, np.ones(6))


def oracle_generate(spec, theta, rng):
    """The two-branch generator the GF(2) prefix scan replaced, verbatim: a
    cumprod per lag subchain, and a per-step loop over the monomial's sign."""
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must be in [0, 1]")
    n = spec.horizon_n
    A = spec.bound_A
    mem = spec.memory
    x = np.empty(n)
    x[: min(mem, n)] = A
    if n <= mem:
        return BoundedSequence(x, A)

    signs = np.where(rng.random(n - mem) < theta, 1.0, -1.0)
    if spec.kind is AdversaryKind.SIGN_FLIP_LAG:
        k = spec.lag_k
        for j in range(k):
            chain = signs[j::k]
            if chain.size:
                x[j + k::k] = A * np.cumprod(chain)
    else:
        for i, t in enumerate(range(mem, n)):
            ref = 1.0
            for lag, exp in spec.monomial:
                ref *= x[t - lag] ** exp
            x[t] = signs[i] * math.copysign(A, ref)
    return BoundedSequence(x, A)


def assert_generate_matches_oracle(spec, theta, seed):
    new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got, want = generate(spec, theta, new_rng), oracle_generate(spec, theta, old_rng)
    assert got.values.tobytes() == want.values.tobytes()
    assert got.bound_A == want.bound_A
    assert new_rng.random() == old_rng.random()  # both consumed the same draws


NEAR_POWERS_OF_TWO = sorted({2 ** j + d for j in range(1, 9) for d in (-1, 0, 1)})


@st.composite
def sign_flip_laws(draw):
    """Lag k <= 5, or a reference monomial with memory <= 6 and exponents 1-3 (sometimes even only)."""
    if draw(st.booleans()):
        return dict(kind=AdversaryKind.SIGN_FLIP_LAG, lag_k=draw(st.integers(1, 5)))
    lags = sorted(draw(st.sets(st.integers(1, 6), min_size=1)))
    exps = st.just(2) if draw(st.integers(0, 3)) == 0 else st.integers(1, 3)
    return dict(kind=AdversaryKind.SIGN_FLIP_MONOMIAL, monomial=tuple((lag, draw(exps)) for lag in lags))


@settings(max_examples=400, deadline=None)
@given(
    law=sign_flip_laws(),
    theta=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
    A=st.sampled_from([0.5, 1.0, 3.0, 1e-200]),
    n_pick=st.one_of(
        st.integers(1, 300),
        st.sampled_from(NEAR_POWERS_OF_TWO),
        st.integers(-5, 0).map(lambda d: ("memory", d)),  # n <= memory
        st.sampled_from(NEAR_POWERS_OF_TWO).map(lambda p: ("memory", p)),  # n - memory near 2^j
    ),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_generate_is_bitwise_the_two_branch_oracle(law, theta, A, n_pick, seed):
    spec = lag_spec(bound_A=A, **law)
    if isinstance(n_pick, tuple):
        n_pick = max(1, spec.memory + n_pick[1])
    assert_generate_matches_oracle(replace(spec, horizon_n=n_pick), theta, seed)


@pytest.mark.parametrize("theta", [0.0, 0.3, 0.9, 1.0])
def test_generate_memory_20_reference_matches_the_oracle(theta):
    # at A = 1e-200 the oracle's reference product underflows to +-0 and copysign keeps its sign
    reference = tuple((lag, 1 + lag % 3) for lag in range(1, 21))
    for A in (1.0, 1e-200):
        spec = lag_spec(kind=AdversaryKind.SIGN_FLIP_MONOMIAL, monomial=reference, horizon_n=4096, bound_A=A)
        assert spec.memory == 20
        assert_generate_matches_oracle(spec, theta, 20)


class FixedDraws:
    """Stands in for a Generator whose one `random(size)` call returns chosen uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, size):
        assert size == self.u.size
        return self.u.copy()


@pytest.mark.parametrize("theta", [0.0, 0.25, 0.5, 1.0])
def test_generate_draw_equal_to_theta_flips_as_in_the_oracle(theta):
    u = [0.0, 0.25, 0.5, 0.75, 0.5, 0.25, 0.0, 0.5]
    for law in (dict(lag_k=2), dict(kind=AdversaryKind.SIGN_FLIP_MONOMIAL, monomial=((1, 1), (2, 1)))):
        spec = lag_spec(horizon_n=len(u) + 2, **law)
        got = generate(spec, theta, FixedDraws(u)).values
        np.testing.assert_array_equal(got, oracle_generate(spec, theta, FixedDraws(u)).values)


# ------------------------------------------------------ conditional mean


def test_bayes_prediction_examples():
    A = 0.8
    assert bayes_predict(BoundedSequence(np.array([]), A), 1.0, 1) == 0.0
    assert bayes_predict(BoundedSequence(np.array([A]), A), 1.0, 2) == 0.0
    # one observed stay: theta_hat = 2/3, prediction (1/3) * last
    two_stay = BoundedSequence(np.array([A, A]), A)
    assert bayes_predict(two_stay, 1.0, 1) == pytest.approx(A / 3)
    # one observed flip: theta_hat = 1/3, prediction (-1/3) * (-A) = A/3
    two_flip = BoundedSequence(np.array([A, -A]), A)
    assert bayes_predict(two_flip, 1.0, 1) == pytest.approx(A / 3)
    # lag 2: one theta drives both subchains, so every transition counts;
    # one stay (q = 2) and one flip (q = 3) give theta_hat = 1/2
    four = BoundedSequence(np.array([A, A, A, -A]), A)
    assert bayes_predict(four, 1.0, 2) == 0.0
    # the stay at q = 2 informs the other subchain: (1/3) * x[1]
    three = BoundedSequence(np.array([A, -A, A]), A)
    assert bayes_predict(three, 1.0, 2) == pytest.approx(-A / 3)


def test_bayes_prediction_rejects_bad_input():
    seq = BoundedSequence(np.array([1.0, 0.5]), 1.0)
    with pytest.raises(ValueError, match="two-valued|\\{\\+A, -A\\}"):
        bayes_predict(seq, 1.0, 1)
    ok = BoundedSequence(np.array([1.0, -1.0]), 1.0)
    with pytest.raises(ValueError):
        bayes_predict(ok, 0.0, 1)
    with pytest.raises(ValueError):
        bayes_predict(ok, 1.0, 0)


@pytest.mark.parametrize("k,C,seed", [(1, 1.0, 0), (2, 0.5, 1), (3, 2.5, 2), (1, 4.0, 3)])
def test_bayes_prediction_matches_integral_ratio_oracle(k, C, seed):
    rng = np.random.default_rng(seed)
    values = np.where(rng.random(60) < 0.5, 1.0, -1.0) * 0.6
    for t in range(k, 61):
        hist = BoundedSequence(values[:t], 0.6)
        positions = np.arange(k, t)
        stays = int(np.sum(values[positions] == values[positions - k]))
        flips = positions.size - stays
        oracle = (2.0 * posterior_mean_by_integral(stays, flips, C) - 1.0) * values[t - k]
        assert bayes_predict(hist, C, k) == pytest.approx(oracle, abs=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_bayes_prediction_magnitude_below_bound(seed):
    rng = np.random.default_rng(seed)
    values = np.where(rng.random(40) < 0.5, 1.0, -1.0) * 1.3
    hist = BoundedSequence(values, 1.3)
    assert abs(bayes_predict(hist, 0.25, 1)) < 1.3


@pytest.mark.parametrize("k", [1, 2, 3])
def test_trace_matches_per_step_predictions(k):
    rng = np.random.default_rng(10 + k)
    values = np.where(rng.random(50) < 0.4, 1.0, -1.0)
    trace = bayes_prediction_trace(BoundedSequence(values, 1.0), 1.5, ((k, 1),))
    for t in range(50):
        step = bayes_predict(BoundedSequence(values[:t], 1.0), 1.5, k)
        assert trace[t] == step  # identical arithmetic, bit-exact


def test_monomial_trace_matches_counting_oracle():
    rng = np.random.default_rng(5)
    A = 0.5
    mono = ((1, 1), (2, 1))
    values = np.where(rng.random(30) < 0.5, 1.0, -1.0) * A
    trace = bayes_prediction_trace(BoundedSequence(values, A), 1.0, mono)
    assert trace[0] == 0.0 and trace[1] == 0.0
    agrees = total = 0
    for t in range(2, 30):
        ref = math.copysign(A, values[t - 1] * values[t - 2])
        theta_hat = (agrees + 1.0) / (total + 2.0)
        assert trace[t] == pytest.approx((2 * theta_hat - 1) * ref, abs=1e-14)
        agrees += int(values[t] == ref)
        total += 1


def law_weight(x, reference, C):
    """Beta-mixed likelihood B(S + C, F + C) / B(C, C) of a +-A sequence under the
    sign-flip law: S and F count, over every q >= the reference's memory, the
    samples that agree / disagree in sign with the reference monomial at q."""
    mem = max(lag for lag, _ in reference)
    agree = [
        (x[q] > 0) == (math.prod(x[q - lag] ** exp for lag, exp in reference) > 0) for q in range(mem, len(x))
    ]
    S = sum(agree)
    return math.exp(betaln(S + C, len(agree) - S + C) - betaln(C, C))


@pytest.mark.parametrize("C", [0.5, 2.5])
@pytest.mark.parametrize(
    "reference", [((1, 1),), ((2, 1),), ((3, 1),), ((1, 1), (2, 1))], ids=["lag1", "lag2", "lag3", "x1x2"]
)
def test_trace_is_the_conditional_mean_of_the_law(reference, C):
    # every sequence of length <= 10 whose first `memory` samples are +A; entry t
    # must be E[x_t | x_<t] = A (w(x_<t, +A) - w(x_<t, -A)) / (w(x_<t, +A) + w(x_<t, -A))
    A = 0.6
    mem = max(lag for lag, _ in reference)
    checked = 0
    for n in range(mem + 1, 11):
        for tail in product((A, -A), repeat=n - mem):
            x = (A,) * mem + tail
            trace = bayes_prediction_trace(BoundedSequence(np.array(x), A), C, reference)
            for t in range(mem, n):
                w_plus = law_weight(x[:t] + (A,), reference, C)
                w_minus = law_weight(x[:t] + (-A,), reference, C)
                assert trace[t] == pytest.approx(A * (w_plus - w_minus) / (w_plus + w_minus), abs=1e-12)
                checked += 1
    assert checked == sum((n - mem) * 2 ** (n - mem) for n in range(mem + 1, 11))


def test_trace_refuses_values_off_the_two_levels():
    with pytest.raises(ValueError, match="\\{\\+A, -A\\}"):
        bayes_prediction_trace(BoundedSequence(np.array([1.0, 0.5, -1.0]), 1.0), 1.0, ((1, 1),))


def test_spec_reference_is_the_monomial_the_law_flips():
    assert lag_spec(lag_k=3).reference == ((3, 1),)
    mono = lag_spec(kind=AdversaryKind.SIGN_FLIP_MONOMIAL, monomial=((1, 1), (3, 2)))
    assert mono.reference == ((1, 1), (3, 2))


@pytest.mark.parametrize("k", [2, 3])
def test_lag_k_floor_matches_the_lag_1_floor(k):
    # one theta drives every transition at any lag, so the Bayes floor does not
    # depend on k beyond its k startup steps (a per-subchain posterior read ~2x)
    lag1 = estimate_lower_bound(lag_spec(seed=7), [64, 256], trials=300)
    lagk = estimate_lower_bound(lag_spec(seed=7, lag_k=k), [64, 256], trials=300)
    for a, b in zip(lag1.rows, lagk.rows):
        assert abs(a.mean_regret - b.mean_regret) <= 3 * math.hypot(a.std_error, b.std_error)


# ----------------------------------------------------------- the exact law


def test_exact_law_frozen_values():
    # n = 2 by hand: Bayes predicts 0 twice (loss 2), hindsight always fits
    # the second sample exactly (loss 1), so the gap is 1 on every sequence
    assert exact_law_gap(2) == pytest.approx(1.0, abs=1e-12)
    # n = 3 by hand: gap 13/9 on (stay,stay) and (flip,flip) [weight 1/3 each],
    # 7/9 on the mixed patterns [weight 1/6 each] -> 11/9
    assert exact_law_gap(3) == pytest.approx(11.0 / 9.0, abs=1e-12)
    # the floor keeps growing with the horizon
    assert exact_law_gap(4) > exact_law_gap(3) > exact_law_gap(2) > 0


def test_monte_carlo_floor_matches_exact_law():
    table = estimate_lower_bound(lag_spec(seed=2024), [2, 3], trials=2000)
    first, second = table.rows
    # n = 2: the gap is 1 deterministically, so the mean is exact and the
    # spread is zero
    assert first.mean_regret == 1.0
    assert first.std_error == 0.0
    # n = 3: within 3 standard errors of the enumerated value
    assert second.std_error > 0
    assert abs(second.mean_regret - 11.0 / 9.0) <= 3 * second.std_error


def test_floor_estimate_is_reproducible_bit_for_bit():
    spec = lag_spec(seed=7)
    a = estimate_lower_bound(spec, [2, 4, 8], trials=50)
    b = estimate_lower_bound(spec, [2, 4, 8], trials=50)
    assert a == b
    assert a.csv_text() == b.csv_text()
    different = estimate_lower_bound(lag_spec(seed=8), [2, 4, 8], trials=50)
    assert different.rows[2].mean_regret != a.rows[2].mean_regret


def test_floor_table_structure_and_csv():
    table = estimate_lower_bound(lag_spec(seed=1), [2, 4], trials=25)
    assert [r.n for r in table.rows] == [2, 4]
    assert all(r.trials == 25 for r in table.rows)
    text = table.csv_text()
    lines = text.splitlines()
    assert lines[0] == "n,mean_regret,std_error,trials"
    assert len(lines) == 4 and lines[-1].startswith("slope_fit,")
    assert text.endswith("\n")
    assert table.fitted_slope_vs_ln_n == pytest.approx(
        np.polyfit(np.log([2, 4]), [r.mean_regret for r in table.rows], 1)[0]
    )


def test_floor_estimate_validation():
    with pytest.raises(ValueError):
        estimate_lower_bound(lag_spec(), [2, 4], trials=0)
    with pytest.raises(ValueError):
        estimate_lower_bound(lag_spec(), [4, 2], trials=5)


def test_floor_estimate_needs_two_trials_for_a_standard_error():
    # one trial would report std_error = 0 and make the -3 SE check vacuous
    with pytest.raises(ValueError, match=">= 2"):
        estimate_lower_bound(lag_spec(), [2, 4], trials=1)
    assert estimate_lower_bound(lag_spec(seed=3), [4, 8], trials=2).rows[1].trials == 2


def test_floor_positive_for_monomial_adversary():
    spec = lag_spec(kind=AdversaryKind.SIGN_FLIP_MONOMIAL, lag_k=1,
                    monomial=((1, 1), (2, 1)), seed=11)
    table = estimate_lower_bound(spec, [8, 16], trials=200)
    assert all(row.mean_regret > 0 for row in table.rows)


# ----------------------------------------------------- law self-diagnostics


def test_transition_check_fixed_theta():
    check = transition_posterior_check(50, 1.0, trials=4000, seed=3, theta=0.7)
    assert check.theta == 0.7
    assert check.expected_flip_fraction == pytest.approx(0.3)
    # all trials*(n-1) transitions are iid Bernoulli(0.3)
    se = math.sqrt(0.3 * 0.7 / (4000 * 49))
    assert abs(check.flip_fraction - 0.3) < 3 * se
    assert check.flip_var_ratio == pytest.approx(1.0, rel=0.1)
    # at fixed theta the lag product concentrates on 2*theta - 1, not zero
    assert check.lag_product_mean == pytest.approx(2 * 0.7 - 1, abs=0.01)
    assert check.chi_square_dof >= 10
    assert 0.3 < check.chi_square / check.chi_square_dof < 2.0


def test_transition_check_prior_mixed():
    check = transition_posterior_check(50, 1.0, trials=4000, seed=4)
    assert check.theta is None and check.flip_var_ratio is None
    # symmetric prior: flips and stays exchangeable
    assert check.expected_flip_fraction == 0.5
    assert abs(check.flip_fraction - 0.5) < 0.02
    assert abs(check.lag_product_z) < 3.5
    # beta(1,1) mixing makes the flip count uniform on 0..49: many fat bins
    assert check.chi_square_dof >= 40
    assert 0.4 < check.chi_square / check.chi_square_dof < 1.8


def test_transition_check_validation():
    with pytest.raises(ValueError):
        transition_posterior_check(1, 1.0, trials=100)
    with pytest.raises(ValueError):
        transition_posterior_check(10, 1.0, trials=1)


# ------------------------------------------- hindsight weight concentration


def test_hindsight_weights_concentrate_lag_pair():
    # population least squares for the lag-1 chain puts everything on the
    # first coordinate: w -> (2*theta - 1, 0)
    seq = generate(lag_spec(horizon_n=8192), 0.75, np.random.default_rng(77))
    w, _ = batch_solve(linear_lag(1, 2), seq, 0.0)
    assert abs(w[0] - 0.5) <= 0.05
    assert abs(w[1]) <= 0.05


def test_hindsight_weights_concentrate_polynomial_split():
    # on two-valued +-A data the cubic column equals A^2 times the linear one,
    # so the minimum-norm solve splits rho = 2*theta - 1 along (1, A^2)/(1+A^4)
    A, theta = 0.5, 0.58
    rho = 2 * theta - 1
    seq = generate(lag_spec(horizon_n=8192, bound_A=A), theta, np.random.default_rng(101))
    w, _ = batch_solve(univariate_poly(3), seq, 0.0)
    assert abs(w[0] - rho / (1 + A ** 4)) <= 0.05
    assert abs(w[1]) <= 0.05
    assert abs(w[2] - rho * A ** 2 / (1 + A ** 4)) <= 0.05
