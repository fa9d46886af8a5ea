"""Randomized-output prediction: mixtures of predictors and their derandomization.

A randomized predictor draws, at every step, one constituent predictor
according to a (possibly history-dependent) probability vector and outputs
that constituent's prediction.  Its expected time-accumulated squared loss on
a fixed sequence decomposes per step as

    E[(x - f)^2] = (x - E f)^2 + Var(f),

so replacing the random output by its mixture mean (derandomizing) removes
exactly the variance term and can never lose.  The functions here compute the
Monte-Carlo and analytic sides of that account.

The account is read from two (K, n) tables, the constituents' predictions and
the mixture weights at every step: `mixture_account` turns them into the
Monte-Carlo totals, the per-step expected losses, the bias/variance split and
the derandomized loss.  `mixture_tables` fills the tables by calling every
constituent on every prefix, which costs O(n) calls of O(n) each for ridge
constituents; a caller that knows its constituents can fill them in linear
time instead (`identity` reads its ridge rows from whole-sequence `run_online`
runs, bitwise equal to `ridge_predictor_fn`, the history-function form that
runs `run_online` on each history, and spot-checks them against it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .predictors import run_online
from .sequences import BoundedSequence, FeatureSpec

# A constituent maps the observed history x_1..x_{t-1} (1d array) to a real
# prediction of x_t.  A probability rule maps the same history to a vector of
# mixture weights over the constituents.
PredictorFn = Callable[[np.ndarray], float]
ProbRule = Callable[[np.ndarray], np.ndarray]

PROB_SUM_TOL = 1e-12
MC_CHUNK = 2 ** 14  # uniforms per block of the Monte-Carlo pass of `mixture_account` (128 kB arrays)


@dataclass(frozen=True)
class RandomizedPredictor:
    constituents: tuple[PredictorFn, ...]
    prob_rule: ProbRule
    seed: int = 0

    def __post_init__(self) -> None:
        if len(self.constituents) == 0:
            raise ValueError("randomized predictor needs at least one constituent")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ValueError("seed must fit in 64 unsigned bits")


def static_rule(weights) -> ProbRule:
    """Probability rule that ignores history and always returns `weights`."""
    w = np.array(weights, dtype=float)
    w.flags.writeable = False
    return lambda history: w


def uniform_rule(n_constituents: int) -> ProbRule:
    return static_rule(np.full(n_constituents, 1.0 / n_constituents))


def _probs_at(rp: RandomizedPredictor, history: np.ndarray) -> np.ndarray:
    probs = np.asarray(rp.prob_rule(history), dtype=float)
    k = len(rp.constituents)
    if probs.shape != (k,):
        raise ValueError(f"probability rule returned shape {probs.shape}, expected ({k},)")
    if np.any(probs < 0):
        raise ValueError("probability rule returned a negative weight")
    if abs(float(np.sum(probs)) - 1.0) > PROB_SUM_TOL:
        raise ValueError("probability weights must sum to 1 within 1e-12")
    return probs


def mixture_tables(rp: RandomizedPredictor, seq: BoundedSequence) -> tuple[np.ndarray, np.ndarray]:
    """Per-step constituent predictions and mixture weights, each (K, n).

    Both depend only on the fixed sequence, not on the realized randomization,
    so one pass serves the analytic and every Monte-Carlo path.
    """
    values = seq.values
    n = values.size
    k = len(rp.constituents)
    preds = np.empty((k, n))
    probs = np.empty((k, n))
    for t in range(n):
        history = values[:t]
        probs[:, t] = _probs_at(rp, history)
        for i, fn in enumerate(rp.constituents):
            preds[i, t] = float(fn(history))
    return preds, probs


def _choice_cdf(probs: np.ndarray) -> np.ndarray:
    """Per-step normalized cumulative weights of (K, n) `probs`, as `rng.choice` forms them,
    refusing what it refuses: a weight sum that is NaN, a negative weight, or a sum
    off 1 by more than sqrt(eps)."""
    with np.errstate(invalid="ignore"):  # inf - inf reads as a NaN sum, as in `rng.choice`
        sums = np.sum(probs, axis=0)
    if np.isnan(sums).any():
        raise ValueError("Probabilities contain NaN")
    if (probs < 0).any():
        raise ValueError("Probabilities are not non-negative")
    if (np.abs(sums - 1.0) > np.sqrt(np.finfo(np.float64).eps)).any():
        raise ValueError("Probabilities do not sum to 1")
    cdf = np.cumsum(probs, axis=0)
    cdf /= cdf[-1]
    return cdf


@dataclass(frozen=True)
class MixtureAccount:
    """The loss account of a mixture on one sequence.

    `trial_totals` holds the randomized cumulative loss of each Monte-Carlo
    trial (None when no trials were run), `per_step` the exact expected loss
    sum_k p_k (x - f_k)^2 of each step, `bias_sq` + `variance` the split of
    its total into (x - mean)^2 and sum_k p_k (f_k - mean)^2, and
    `derandomized_loss` the cumulative loss of the mixture-mean predictor.
    """

    trial_totals: np.ndarray | None
    per_step: np.ndarray
    bias_sq: float
    variance: float
    derandomized_loss: float

    @property
    def mc_mean(self) -> float:
        return float(np.mean(self.trial_totals))


def mixture_account(
    values: np.ndarray,
    preds: np.ndarray,
    probs: np.ndarray,
    trials: int | None = None,
    seed: int = 0,
) -> MixtureAccount:
    """Account of the mixture with (K, n) tables `preds`, `probs` on `values`.

    With `trials`, also runs that many independent randomized passes drawing
    from one generator seeded by `seed`, one draw per trial and step.  The draws
    are `rng.choice(k, size=trials, p=probs[:, t])` step after step, computed as
    that function does (a uniform per trial against the normalized cumulative
    weights) over MC_CHUNK uniforms at a time, so totals are bitwise the loop's.
    """
    k, n = preds.shape
    totals = None
    if trials is not None:
        if trials < 1:
            raise ValueError("trials must be >= 1")
        cdf = _choice_cdf(probs)
        rng = np.random.default_rng(seed)
        totals = np.zeros(trials)
        rows = max(1, MC_CHUNK // trials)
        for lo in range(0, n, rows):
            steps = np.arange(lo, min(n, lo + rows))
            uniforms = rng.random((steps.size, trials))
            idx = np.zeros(uniforms.shape, dtype=np.intp)
            for j in range(k - 1):  # searchsorted(cdf, u, side='right'); cdf[k-1] = 1 > u
                idx += cdf[j, steps, None] <= uniforms
            losses = (values[steps, None] - preds[idx, steps[:, None]]) ** 2
            losses[0] += totals
            totals = np.cumsum(losses, axis=0, out=losses)[-1].copy()
    per_step = np.sum(probs * (values[None, :] - preds) ** 2, axis=0)
    means = np.sum(probs * preds, axis=0)
    variances = np.sum(probs * (preds - means[None, :]) ** 2, axis=0)
    # the mixture mean as `derandomize` forms it, one dot product of contiguous
    # rows per step, so its loss equals the history-function route bitwise
    prob_rows, pred_rows = np.ascontiguousarray(probs.T), np.ascontiguousarray(preds.T)
    derandomized = np.array([prob_rows[t] @ pred_rows[t] for t in range(n)])
    return MixtureAccount(
        trial_totals=totals,
        per_step=per_step,
        bias_sq=float(math.fsum((values - means) ** 2)),
        variance=float(math.fsum(variances)),
        derandomized_loss=float(math.fsum((values - derandomized) ** 2)),
    )


def mc_trial_totals(rp: RandomizedPredictor, seq: BoundedSequence, trials: int) -> np.ndarray:
    """Cumulative randomized loss of `trials` independent runs (seeded by rp.seed)."""
    return mixture_account(seq.values, *mixture_tables(rp, seq), trials, rp.seed).trial_totals


def run_randomized(rp: RandomizedPredictor, seq: BoundedSequence, trials: int) -> tuple[float, list[float]]:
    """Monte-Carlo total expected loss plus the exact per-step mixture expectations.

    Returns (empirical mean over `trials` of the randomized cumulative loss,
    [sum_k p_k[t] * (x[t] - f_k[t])^2 for each step t]).  The sum of the second
    is the analytic expected loss the first estimates.
    """
    account = mixture_account(seq.values, *mixture_tables(rp, seq), trials, rp.seed)
    return account.mc_mean, [float(v) for v in account.per_step]


def derandomize(rp: RandomizedPredictor) -> PredictorFn:
    """The deterministic predictor outputting the mixture mean at every step."""

    def mixture_mean(history: np.ndarray) -> float:
        probs = _probs_at(rp, np.asarray(history, dtype=float))
        outputs = np.array([fn(history) for fn in rp.constituents])
        return float(probs @ outputs)

    return mixture_mean


def variance_decomposition(rp: RandomizedPredictor, seq: BoundedSequence) -> tuple[float, float]:
    """(total squared bias, total output variance) of the mixture on seq.

    Per step the expected loss splits as (x - mean)^2 + sum_k p_k (f_k - mean)^2;
    the two totals therefore sum to the analytic expected loss.
    """
    account = mixture_account(seq.values, *mixture_tables(rp, seq))
    return account.bias_sq, account.variance


def run_predictor_fn(fn: PredictorFn, seq: BoundedSequence) -> float:
    """Cumulative squared loss of a plain history -> prediction function."""
    values = seq.values
    return float(math.fsum((values[t] - float(fn(values[:t]))) ** 2 for t in range(values.size)))


def ridge_predictor_fn(
    spec: FeatureSpec,
    delta: float,
    damped: bool = False,
    clip_to: float | None = None,
) -> PredictorFn:
    """A pure history -> prediction wrapper around the online ridge engine.

    Each call is one `run_online` over the history with a 0 appended and reads
    the last step's prediction (cost grows with the history's length), so the
    handle is a genuine function of the observed prefix as the mixture
    contract requires, and equals the whole-sequence run's row bitwise.
    `damped` selects the leverage-damped output (the certificate-carrying
    form); `clip_to` clamps the output into [-clip_to, +clip_to].
    """

    def predict_next(history: np.ndarray) -> float:
        # the appended sample is never read: the features of the step to
        # predict use earlier samples, and its prediction the earlier steps
        h = np.append(np.asarray(history, dtype=float), 0.0)
        run = run_online(spec, BoundedSequence(h, float(np.max(np.abs(h)))), delta)
        out = float((run.damped_predictions if damped else run.predictions)[-1])
        if clip_to is not None:
            out = min(max(out, -clip_to), clip_to)
        return out

    return predict_next


EXTENDED_CSV_COLUMNS = (
    "n", "m", "class", "delta", "seq_loss", "batch_ridge",
    "batch_raw", "regret", "det_bound", "simple_bound",
    "p_rand_mc", "p_rand_analytic", "variance_total",
)


def extended_csv_row(report, p_rand_mc: float, p_rand_analytic: float, variance_total: float) -> list[str]:
    """RegretReport row plus the randomized-account columns."""
    return report.csv_row() + [repr(float(p_rand_mc)), repr(float(p_rand_analytic)), repr(float(variance_total))]
