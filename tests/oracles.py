"""Reference implementations that only the tests read.

Each is a second, simpler route to something the package computes in one
pass (a per-step Bayes prediction, a history-function mixture mean, the
inverse of the ridge system) or a diagnostic of the package's own laws (the
transition statistics of generated chains, the exhaustive bound-convention
search).  The package keeps one path per job; these stay here to check it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from seqregret.adversary import AdversaryKind, AdversarySpec, _check_two_valued, generate, sample_theta
from seqregret.predictors import PredictorState
from seqregret.randomized import PredictorFn, ProbRule, RandomizedPredictor, _probs_at, static_rule
from seqregret.sequences import BoundedSequence


# ------------------------------------------------------------- predictors

def inv_cache(state: PredictorState) -> np.ndarray:
    """(R + delta I)^{-1}, derived from the statistics on each read."""
    return np.linalg.inv(state.gram_R + state.delta * np.eye(state.order_m))


# -------------------------------------------------------------- adversary

def bayes_predict(history: BoundedSequence, beta_C: float, k: int) -> float:
    """Conditional-mean prediction of the next sample of a lag-k sign-flip chain.

    One theta governs every transition, so the stays/flips of x[q] against
    x[q-k] are counted over every q from k up to the next index t, in all k
    subchains, and the result is (2*theta_hat - 1) * x[t-k] with the conjugate
    posterior mean theta_hat = (stays + C) / (stays + flips + 2C).  With no
    usable history (next index < k) the prior mean theta = 1/2 gives 0.
    """
    if not beta_C > 0:
        raise ValueError("beta_C must be positive")
    if k < 1:
        raise ValueError("k must be >= 1")
    vals = history.values
    t = vals.size  # 0-based index of the sample being predicted
    if t < k:
        return 0.0
    _check_two_valued(vals, history.bound_A)
    positions = np.arange(k, t)  # every q with both x[q] and x[q-k] observed
    stays = int(np.sum(vals[positions] == vals[positions - k]))
    theta_hat = (stays + beta_C) / (positions.size + 2.0 * beta_C)
    return float((2.0 * theta_hat - 1.0) * vals[t - k])


@dataclass(frozen=True)
class TransitionCheck:
    """Monte-Carlo summary of the flip-count law of a lag-1 chain.

    flip_fraction aggregates all transitions; lag_product_* summarize
    x[t]*x[t-1]/A^2 (zero-mean unconditionally by prior symmetry);
    chi_square compares the per-trial flip-count histogram against the
    binomial (theta fixed) or prior-mixed binomial (theta drawn) law, with
    low-expectation bins merged into the tails.
    """

    trials: int
    horizon_n: int
    theta: float | None
    flip_fraction: float
    expected_flip_fraction: float
    flip_var_ratio: float | None
    lag_product_mean: float
    lag_product_z: float
    chi_square: float
    chi_square_dof: int


def _flip_count_pmf(n_transitions: int, beta_C: float, theta: float | None) -> np.ndarray:
    pmf = np.empty(n_transitions + 1)
    for flips in range(n_transitions + 1):
        comb = math.comb(n_transitions, flips)
        if theta is not None:
            pmf[flips] = comb * (1 - theta) ** flips * theta ** (n_transitions - flips)
        else:
            # prior-mixed: integrate the binomial against beta(C, C)
            log_b = (
                math.lgamma(flips + beta_C)
                + math.lgamma(n_transitions - flips + beta_C)
                - math.lgamma(n_transitions + 2 * beta_C)
            )
            log_b0 = 2 * math.lgamma(beta_C) - math.lgamma(2 * beta_C)
            pmf[flips] = comb * math.exp(log_b - log_b0)
    return pmf


def transition_posterior_check(
    n: int,
    beta_C: float,
    trials: int,
    seed: int = 0,
    theta: float | None = None,
) -> TransitionCheck:
    """Check generated chains against their advertised transition law.

    Draws `trials` lag-1 chains of length n (A = 1) from :func:`generate`, one
    chain per trial, either at a fixed theta or at a theta drawn from the
    beta(C, C) prior per trial, and summarizes their flip statistics; see
    :class:`TransitionCheck`.
    """
    if n < 2:
        raise ValueError("need n >= 2 for at least one transition")
    if trials < 2:
        raise ValueError("need trials >= 2")
    spec = AdversarySpec(AdversaryKind.SIGN_FLIP_LAG, beta_C=beta_C, bound_A=1.0, horizon_n=n, seed=seed)
    rng = np.random.default_rng(seed)
    stays = np.empty((trials, n - 1), dtype=bool)
    for i in range(trials):
        chain = generate(spec, sample_theta(beta_C, rng) if theta is None else float(theta), rng).values
        stays[i] = chain[1:] == chain[:-1]
    flips_per_trial = (n - 1) - stays.sum(axis=1)

    flip_fraction = float(np.mean(flips_per_trial) / (n - 1))
    expected_flip = 1.0 - float(theta) if theta is not None else 0.5
    products_per_trial = np.mean(2.0 * stays - 1.0, axis=1)  # mean of x[t]*x[t-1] per chain
    prod_mean = float(np.mean(products_per_trial))
    prod_se = float(np.std(products_per_trial, ddof=1) / math.sqrt(trials))
    prod_z = prod_mean / prod_se if prod_se > 0 else 0.0

    if theta is not None:
        expected_var = (n - 1) * theta * (1.0 - theta)
        var_ratio = float(np.var(flips_per_trial, ddof=1) / expected_var) if expected_var > 0 else None
    else:
        var_ratio = None

    pmf = _flip_count_pmf(n - 1, beta_C, theta)
    expected = pmf * trials
    observed = np.bincount(flips_per_trial.astype(int), minlength=n)[:n].astype(float)
    # merge small-expectation bins into the tails so the Pearson statistic is sane
    keep = expected >= 5.0
    if not np.any(keep):
        chi_square, dof = 0.0, 0
    else:
        first, last = int(np.argmax(keep)), int(len(keep) - 1 - np.argmax(keep[::-1]))
        obs = observed[first:last + 1].copy()
        exp = expected[first:last + 1].copy()
        obs[0] += observed[:first].sum()
        exp[0] += expected[:first].sum()
        obs[-1] += observed[last + 1:].sum()
        exp[-1] += expected[last + 1:].sum()
        chi_square = float(np.sum((obs - exp) ** 2 / exp))
        dof = max(len(obs) - 1, 1)

    return TransitionCheck(
        trials=trials,
        horizon_n=n,
        theta=theta,
        flip_fraction=flip_fraction,
        expected_flip_fraction=expected_flip,
        flip_var_ratio=var_ratio,
        lag_product_mean=prod_mean,
        lag_product_z=prod_z,
        chi_square=chi_square,
        chi_square_dof=dof,
    )


# ------------------------------------------------------------------ batch

def bound_convention_audit(n_max: int = 4, bound_A: float = 1.0, delta: float = 1.0) -> dict:
    """Exhaustively compare bound conventions on all +-A sequences up to n_max.

    Scalar lag-1 class.  For each sequence, evaluates the gap
    (sequential loss) - (penalized hindsight objective + A^2 ln(1 + R/delta))
    for the plain and for the leverage-damped prediction rule, both with all
    steps included.  A positive gap is a bound violation.  The result freezes
    why the damped convention is the certified one: the plain rule admits
    violations from n = 3 on, the damped rule never does.
    """
    worst = {
        "plain_worst_gap": -math.inf,
        "plain_worst_sequence": None,
        "damped_worst_gap": -math.inf,
        "damped_worst_sequence": None,
    }
    A = float(bound_A)
    for n in range(2, n_max + 1):
        for signs in product((-A, A), repeat=n):
            x = np.array(signs)
            feats = np.concatenate([[0.0], x[:-1]])
            R_run = 0.0
            r_run = 0.0
            loss_plain = 0.0
            loss_damped = 0.0
            for t in range(n):
                f = feats[t]
                pred = r_run * f / (R_run + delta)
                leverage = f * f / (R_run + delta)
                loss_plain += (x[t] - pred) ** 2
                loss_damped += (x[t] - pred / (1.0 + leverage)) ** 2
                R_run += f * f
                r_run += x[t] * f
            objective = float(x @ x) - (float(x @ feats)) ** 2 / (R_run + delta)
            rhs = objective + A * A * math.log1p(R_run / delta)
            if loss_plain - rhs > worst["plain_worst_gap"]:
                worst["plain_worst_gap"] = loss_plain - rhs
                worst["plain_worst_sequence"] = signs
            if loss_damped - rhs > worst["damped_worst_gap"]:
                worst["damped_worst_gap"] = loss_damped - rhs
                worst["damped_worst_sequence"] = signs
    return worst


# ------------------------------------------------------------- randomized

def uniform_rule(n_constituents: int) -> ProbRule:
    return static_rule(np.full(n_constituents, 1.0 / n_constituents))


def derandomize(rp: RandomizedPredictor) -> PredictorFn:
    """The deterministic predictor outputting the mixture mean at every step."""

    def mixture_mean(history: np.ndarray) -> float:
        probs = _probs_at(rp, np.asarray(history, dtype=float))
        outputs = np.array([fn(history) for fn in rp.constituents])
        return float(probs @ outputs)

    return mixture_mean
