"""Sign-flip adversaries, the Bayes reference predictor, and regret floor estimates.

The construction: draw a stay probability theta from a symmetric beta(C, C)
prior, then emit a two-valued sequence in {+A, -A} where each new sample
either repeats or flips a reference value (the sample k steps back, or the
sign of a normalized monomial of the recent history).  The conditional mean
predictor under this law is (2*theta_hat - 1) times the reference, with
theta_hat the conjugate posterior mean of theta given every transition seen
so far (one pooled count, whatever the reference).  Averaging the gap between
that predictor's sequential loss and the best hindsight fit gives a Monte
Carlo floor on how much any sequential algorithm must regret.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .batch import batch_solve, _fmt
from .sequences import (
    BoundedSequence,
    FeatureSpec,
    Monomial,
    linear_lag,
    monomial_features,
)

# Seedable generator used throughout: numpy PCG64 behind default_rng, with
# per-task streams derived by SeedSequence.spawn.  Gamma draws (for the beta
# prior) use numpy's standard rejection sampler.
RNG_ALGORITHM = "PCG64"
MAX_DEGENERATE_DRAWS = 1000  # consecutive underflowed beta draws before sample_theta gives up


class AdversaryKind(Enum):
    SIGN_FLIP_LAG = "lag"
    SIGN_FLIP_MONOMIAL = "monomial"


@dataclass(frozen=True)
class AdversarySpec:
    """A lower-bound sequence distribution.

    One theta is drawn per sequence, and every sample from the memory on
    repeats its reference with probability theta, else flips it; the first
    memory samples are +A.  kind = SIGN_FLIP_LAG: the reference is x[t-k]
    (the monomial ((k, 1),)), so all k interleaved subchains share theta.
    kind = SIGN_FLIP_MONOMIAL: the reference is the sign of the monomial
    evaluated on recent history (normalized to magnitude A, which is exact for
    any pure monomial on two-valued input).  `reference` gives the monomial of
    either kind.
    """

    kind: AdversaryKind
    beta_C: float
    bound_A: float
    horizon_n: int
    seed: int
    lag_k: int = 1
    monomial: Monomial = ()

    def __post_init__(self) -> None:
        if not self.beta_C > 0:
            raise ValueError("beta_C must be positive")
        if not (self.bound_A > 0 and math.isfinite(self.bound_A)):
            raise ValueError("bound_A must be positive and finite")
        if self.horizon_n < 1:
            raise ValueError("horizon_n must be >= 1")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.kind is AdversaryKind.SIGN_FLIP_LAG:
            if self.lag_k < 1:
                raise ValueError("lag_k must be >= 1")
            if self.monomial:
                raise ValueError("monomial is only meaningful for the monomial adversary")
        else:
            if not self.monomial:
                raise ValueError("monomial adversary needs a monomial")
            for lag, exp in self.monomial:
                if lag < 1 or exp < 1:
                    raise ValueError(f"monomial terms need lag >= 1 and exponent >= 1, got {(lag, exp)}")
            if len({lag for lag, _ in self.monomial}) != len(self.monomial):
                raise ValueError("duplicate lag inside one monomial; merge exponents instead")

    @property
    def reference(self) -> Monomial:
        """The monomial whose sign each sample repeats or flips: ((k, 1),), i.e. x[t-k], for the lag kind."""
        if self.kind is AdversaryKind.SIGN_FLIP_LAG:
            return ((self.lag_k, 1),)
        return self.monomial

    @property
    def memory(self) -> int:
        return max(lag for lag, _ in self.reference)

    def matching_feature_spec(self, order_m: int = 1) -> FeatureSpec:
        """The hindsight comparator class this adversary is built against."""
        if self.kind is AdversaryKind.SIGN_FLIP_LAG:
            return linear_lag(self.lag_k, order_m)
        return monomial_features([self.monomial])


def sample_theta(beta_C: float, rng: np.random.Generator) -> float:
    """One beta(C, C) draw built from two gamma draws (theta = g1 / (g1 + g2)).

    Degenerate draws (0 or 1, possible only by floating-point underflow at
    tiny C) are rejected and redrawn so the result is always in (0, 1), up to
    MAX_DEGENERATE_DRAWS in a row (at C <= 1e-10 all underflow); then ValueError.
    """
    if not beta_C > 0:
        raise ValueError("beta_C must be positive")
    for _ in range(MAX_DEGENERATE_DRAWS):
        g1 = rng.gamma(beta_C)
        g2 = rng.gamma(beta_C)
        total = g1 + g2
        if total > 0:
            theta = g1 / total
            if 0.0 < theta < 1.0:
                return float(theta)
    raise ValueError(f"beta_C={beta_C!r} is too small: {MAX_DEGENERATE_DRAWS} draws in a row underflowed")


def generate(spec: AdversarySpec, theta: float, rng: np.random.Generator) -> BoundedSequence:
    """Sample one two-valued sequence of length horizon_n under stay probability theta.

    The endpoints theta = 0 (always flip) and theta = 1 (always stay) are
    legal and deterministic; prior draws from :func:`sample_theta` stay in the
    open interval.

    Both laws are one GF(2) recurrence: with x[t] = A * (-1)^b[t], b[t] = flip[t] XOR
    b[t-l] over the reference's odd-exponent lags l.  So b = flips / g(z), g(z) = 1 + sum z^l,
    and as g(z)^2 = g(z^2), 1/g(z) = prod_{i<j} g(z^(2^i)) mod z^m (m = n - memory) once
    2^j >= m: ceil(log2 m) rounds of shifted XORs, a prefix scan in O(|odd lags| * n log n).
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must be in [0, 1]")
    n, A = spec.horizon_n, spec.bound_A
    m = max(n - spec.memory, 0)  # samples after the all-+A prefix
    lags = [lag for lag, exp in spec.reference if exp % 2]
    bits = rng.random(m) >= theta  # flip bits: u < theta stays
    shift = 1
    while shift < m:
        step = bits.copy()
        for offset in (lag * shift for lag in lags if lag * shift < m):
            step[offset:] ^= bits[:m - offset]
        bits, shift = step, 2 * shift
    x = np.full(n, A)
    x[n - m:][bits] = -A
    return BoundedSequence(x, A)


def _check_two_valued(values: np.ndarray, A: float) -> None:
    if not np.all((values == A) | (values == -A)):
        raise ValueError("history must take values exactly in {+A, -A}")


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


def bayes_prediction_trace(seq: BoundedSequence, beta_C: float, reference: Monomial) -> np.ndarray:
    """Conditional-mean predictions of a sign-flip law, one pooled posterior: entry t predicts x[t].

    The reference at t is A times the sign of the monomial `reference` of the
    history (x[t-k] is ((k, 1),)); under the law every sample from the
    reference's memory on agrees with it with probability theta.  theta_hat_t
    = (agreements before t + C) / (transitions before t + 2C), over every
    q >= memory, and entry t is (2*theta_hat_t - 1) times the reference; the
    first memory entries are 0.  `seq` must take values exactly in {+A, -A}.
    """
    values, A = seq.values, seq.bound_A
    _check_two_valued(values, A)
    n = values.size
    mem = max(lag for lag, _ in reference)
    preds = np.zeros(n)
    if n <= mem:
        return preds
    ref = np.full(n - mem, A)
    for lag, exp in reference:
        ref *= np.sign(values[mem - lag:n - lag]) ** exp
    agree = (values[mem:] == ref).astype(float)
    seen = np.arange(agree.size, dtype=float)
    agrees_before = np.concatenate([[0.0], np.cumsum(agree)[:-1]])
    theta_hat = (agrees_before + beta_C) / (seen + 2.0 * beta_C)
    preds[mem:] = (2.0 * theta_hat - 1.0) * ref
    return preds


@dataclass(frozen=True)
class LowerBoundRow:
    n: int
    mean_regret: float
    std_error: float
    trials: int


@dataclass(frozen=True)
class LowerBoundTable:
    """Monte-Carlo regret floor per horizon, with a log-rate fit.

    mean_regret at horizon n averages (Bayes predictor cumulative loss) minus
    (hindsight least-squares loss, delta = 0 pseudo-solve) over independent
    sequence draws; fitted_slope_vs_ln_n is the least-squares slope of those
    means against ln n.
    """

    rows: tuple[LowerBoundRow, ...]
    fitted_slope_vs_ln_n: float

    CSV_COLUMNS = ("n", "mean_regret", "std_error", "trials")

    def csv_text(self) -> str:
        lines = [",".join(self.CSV_COLUMNS)]
        for row in self.rows:
            lines.append(",".join([str(row.n), _fmt(row.mean_regret), _fmt(row.std_error), str(row.trials)]))
        lines.append(",".join(["slope_fit", _fmt(self.fitted_slope_vs_ln_n), "", ""]))
        return "\n".join(lines) + "\n"


def estimate_lower_bound(
    spec: AdversarySpec,
    n_grid: list[int],
    trials: int,
    order_m: int = 1,
) -> LowerBoundTable:
    """Monte-Carlo estimate of the expected regret floor on a horizon grid.

    For each n, `trials` independent draws of (theta, sequence); each trial
    contributes (Bayes cumulative loss) - (delta=0 hindsight loss on the
    matching feature class).  Trials use seeds split from spec.seed with
    SeedSequence.spawn, so the table is reproducible bit-for-bit and the
    reduction is a plain array mean (order-independent).
    """
    if trials < 2:
        raise ValueError("trials must be >= 2 (one trial has no standard error)")
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError("n_grid must be strictly increasing")
    # A gap lies in [-A^2 n, 4 A^2 n]: the standard error sums `trials` squared deviations of
    # up to 5 A^2 n, and the slope fit one squared residual of at most that per horizon.
    A, n_top = spec.bound_A, max(n_grid, default=0)
    gap_range = 5.0 * A * A * n_top
    if not math.isfinite(gap_range * gap_range * max(trials, len(n_grid))):
        raise ValueError(
            f"regret floor scale (5 A^2 n)^2 * max(trials, horizons) overflows "
            f"(A={A!r}, n={n_top}, trials={trials}, horizons={len(n_grid)})"
        )
    feature_spec = spec.matching_feature_spec(order_m)
    root = np.random.SeedSequence(spec.seed)
    per_n_seeds = root.spawn(len(n_grid))
    rows = []
    for n, n_seed in zip(n_grid, per_n_seeds):
        spec_n = replace(spec, horizon_n=int(n))
        gaps = np.empty(trials)
        for i, trial_seed in enumerate(n_seed.spawn(trials)):
            rng = np.random.default_rng(trial_seed)
            theta = sample_theta(spec.beta_C, rng)
            seq = generate(spec_n, theta, rng)
            _, hindsight = batch_solve(feature_spec, seq, 0.0)
            preds = bayes_prediction_trace(seq, spec.beta_C, spec.reference)
            gaps[i] = float(np.sum((seq.values - preds) ** 2)) - hindsight
        mean = float(np.mean(gaps))
        se = float(np.std(gaps, ddof=1) / math.sqrt(trials))
        rows.append(LowerBoundRow(n=int(n), mean_regret=mean, std_error=se, trials=trials))
    slope = float(np.polyfit(np.log([r.n for r in rows]), [r.mean_regret for r in rows], 1)[0]) if len(rows) > 1 else 0.0
    return LowerBoundTable(rows=tuple(rows), fitted_slope_vs_ln_n=slope)


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
