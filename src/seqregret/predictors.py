"""Online ridge prediction on feature vectors, plus LMS / forgetting-RLS baselines.

The ridge predictor keeps R = sum f f^T and r = sum x*f over the steps seen so
far; one solve of (R + delta I) against [r, f] gives the plain prediction
r^T (R + dI)^{-1} f (what `predict` returns) and the leverage f^T (R + dI)^{-1} f.
The leverage-damped prediction plain / (1 + leverage) is the Vovk-Azoury-Warmuth
forecast r^T (R + f f^T + dI)^{-1} f, which the regret certificate in
`batch.RegretReport` provably covers; the plain trace can overshoot it on short
sign-flip bursts (see `batch.bound_convention_audit`).

Every ridge path runs on one blocked engine whose layout only this module knows:
`_prefix_blocks` builds BLOCK_STEPS steps of statistics at a time by cumulative
sums, `_vaw_solve` solves them in one batched call and `_engine_pass` walks them
once; other modules read predictions and leverages from `run_online`.  RLS is the
same pass with discounted statistics and regularizer.  A system singular in floating
point raises ValueError (exit 2 in the CLI); `verify_dense` audits by Cholesky.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sequences import BoundedSequence, FeatureSpec, feature_matrix

# Steps per engine block.  Blocks start at multiples of this whatever the run
# length, so a prefix run reproduces the leading steps of a longer run bitwise.
BLOCK_STEPS = 256


@dataclass
class PredictorState:
    """Sufficient statistics of the online ridge predictor.

    Treated as an immutable value: `update` returns a fresh successor state
    and never mutates its argument, so states may be shared across threads.
    """

    gram_R: np.ndarray
    cross_r: np.ndarray
    delta: float
    steps_n: int

    @property
    def order_m(self) -> int:
        return self.cross_r.shape[0]

    @property
    def inv_cache(self) -> np.ndarray:
        """(R + delta I)^{-1}, derived from the statistics on each read."""
        return np.linalg.inv(self.gram_R + self.delta * np.eye(self.order_m))


def init(m: int, delta: float) -> PredictorState:
    """Fresh state: zero statistics."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta!r}")
    return PredictorState(gram_R=np.zeros((m, m)), cross_r=np.zeros(m), delta=float(delta), steps_n=0)


def _as_feature(state: PredictorState, f) -> np.ndarray:
    vec = np.asarray(f, dtype=float).reshape(-1)
    if vec.shape[0] != state.order_m:
        raise ValueError(f"feature vector of length {vec.shape[0]} against state of order {state.order_m}")
    return vec


def _prefix_blocks(F: np.ndarray, x: np.ndarray, delta: float, forgetting: float = 1.0):
    """Yield (steps, shifted, crosses) per engine block from zero statistics.

    Row i holds (R + lambda^k delta I, r) before the block's step i (global step
    k), R and r summing lambda^(k-1-s) f_s f_s^T and lambda^(k-1-s) x_s f_s over
    s < k.  At lambda = 1 sums add one step at a time from the previous block's
    statistics after its final step, so each row equals the `update` chain
    bitwise.  Under forgetting the decaying regularizer rides in the statistics,
    step j enters the sums weighted by lambda^-j <= e^300 and row i >= 1 is
    rescaled by lambda^(i-1).  Block lengths depend on lambda alone, so prefix
    runs reproduce the leading steps bitwise.  The next block overwrites `shifted`.
    """
    n, m = F.shape
    block = BLOCK_STEPS if forgetting == 1.0 else min(BLOCK_STEPS, 1 + int(300.0 / -np.log(forgetting)))
    buffer = np.empty((min(n, block) + 1, m, m))
    gram, cross = np.zeros((m, m)), np.zeros(m)
    shift = delta * np.eye(m)
    discounted = forgetting != 1.0
    if discounted:
        gram, shift = shift, 0.0
        powers = forgetting ** np.arange(float(block))
        weights = np.concatenate([[forgetting], 1.0 / powers])  # row 0 by lambda, step j by lambda^-j
    for lo in range(0, n, block):
        steps = slice(lo, min(n, lo + block))
        f = F[steps]
        b = f.shape[0]
        grams = buffer[: b + 1]
        grams[0] = gram
        np.multiply(f[:, :, None], f[:, None, :], out=grams[1:])
        crosses = np.concatenate([cross[None], x[steps, None] * f])
        if discounted:
            grams *= weights[: b + 1, None, None]
            crosses *= weights[: b + 1, None]
        np.cumsum(grams, axis=0, out=grams)
        np.cumsum(crosses, axis=0, out=crosses)
        if discounted:
            grams[1:] *= powers[:b, None, None]
            crosses[1:] *= powers[:b, None]
            grams[0], crosses[0] = gram, cross
        gram, cross = grams[-1].copy(), crosses[-1]  # after the block's final step
        grams += shift
        yield steps, grams[:-1], crosses[:-1]


def _vaw_solve(shifted: np.ndarray, crosses: np.ndarray, F: np.ndarray):
    """Plain prediction r.g and leverage f.g per stacked step.

    (a, g) solve (R + dI) [a, g] = [r, f] per item of `shifted` (b, m, m) = R + dI,
    `crosses` (b, m) and `F` (b, m).  Items are solved independently, so a batch
    of one reproduces any row of a larger batch bitwise.  A system singular in
    floating point (a zero pivot, or an overflowing solution) raises ValueError.
    """
    try:
        sol = np.linalg.solve(shifted, np.stack([crosses, F], axis=-1))
        if not np.isfinite(sol).all():
            raise np.linalg.LinAlgError("solution overflows")
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            "ridge system R + dI is singular in floating point: the regularizer d (delta, or "
            "delta * forgetting^k under forgetting) is below the resolution of R at its scale"
        ) from exc
    return np.sum(crosses * sol[..., 1], 1), np.sum(F * sol[..., 1], 1)


def _engine_pass(F: np.ndarray, x: np.ndarray, delta: float, forgetting: float = 1.0, audit: bool = False):
    """Per-step plain predictions, leverages and the worst Cholesky audit gap (if `audit`)."""
    raw, leverage = np.empty((2, F.shape[0]))
    worst_gap = 0.0
    for steps, shifted, crosses in _prefix_blocks(F, x, delta, forgetting):
        raw[steps], leverage[steps] = _vaw_solve(shifted, crosses, F[steps])
        if audit:
            worst_gap = max(worst_gap, _cholesky_gap(shifted, crosses, F[steps], raw[steps]))
    return raw, leverage, worst_gap if audit else None


def _cholesky_gap(shifted: np.ndarray, crosses: np.ndarray, F: np.ndarray, raw: np.ndarray) -> float:
    """Worst relative gap between `raw` and a re-solve independent of the engine's LU solve:
    R + dI = L L^T per step, then forward and back substitution for a = (R + dI)^{-1} r."""
    low = np.linalg.cholesky(shifted)
    a = np.empty_like(crosses)
    for i in range(F.shape[1]):  # L y = r, y kept in a
        a[:, i] = (crosses[:, i] - np.sum(low[:, i, :i] * a[:, :i], axis=1)) / low[:, i, i]
    for i in reversed(range(F.shape[1])):  # L^T a = y
        a[:, i] = (a[:, i] - np.sum(low[:, i + 1:, i] * a[:, i + 1:], axis=1)) / low[:, i, i]
    direct = np.sum(a * F, axis=1)
    return float(np.max(np.abs(raw - direct) / np.maximum(1.0, np.maximum(np.abs(raw), np.abs(direct)))))


def predict(state: PredictorState, f) -> float:
    """Plain online prediction r^T (R + delta I)^{-1} f; 0 on empty statistics."""
    vec = _as_feature(state, f)
    shifted = state.gram_R + state.delta * np.eye(state.order_m)
    raw, _ = _vaw_solve(shifted[None], state.cross_r[None], vec[None])
    return float(raw[0])


def update(state: PredictorState, f, x: float) -> PredictorState:
    """Successor state after observing (f, x): R += f f^T, r += x f, n += 1."""
    vec = _as_feature(state, f)
    return PredictorState(
        gram_R=state.gram_R + np.outer(vec, vec),
        cross_r=state.cross_r + float(x) * vec,
        delta=state.delta,
        steps_n=state.steps_n + 1,
    )


@dataclass
class OnlineRunResult:
    """Trace of one sequential run.

    `predictions` / `per_step_losses` / `cumulative_loss` describe the plain
    online predictions.  For `run_online`, `damped_predictions` / `damped_loss`
    hold the leverage-damped trace that the determinant certificate covers, and
    `leverage` each step's f^T (R + delta I)^{-1} f (all None for the LMS and
    RLS baselines, which report plain predictions only).  `max_dense_gap` is the
    worst per-step relative gap between the engine's prediction and the
    independent Cholesky re-solve, when that audit was requested.
    """

    predictions: np.ndarray
    cumulative_loss: float
    per_step_losses: np.ndarray
    damped_predictions: np.ndarray | None = None
    damped_loss: float | None = None
    max_dense_gap: float | None = None
    leverage: np.ndarray | None = None


def run_online(
    spec: FeatureSpec,
    seq: BoundedSequence,
    delta: float,
    clip: bool = False,
    verify_dense: bool = False,
) -> OnlineRunResult:
    """Run the online ridge predictor over the whole sequence.

    Step t predicts from the statistics of steps 1..t-1 (optionally clamping
    the plain prediction to [-A, A]) and is scored against x[t].
    `verify_dense=True` re-solves every step's system by the independent
    Cholesky path and records the worst relative gap.
    """
    if len(seq) == 0:
        raise ValueError("sequence must be nonempty")
    delta = init(spec.order_m, delta).delta  # validates delta
    x = seq.values
    raw, leverage, worst_gap = _engine_pass(feature_matrix(spec, seq), x, delta, audit=verify_dense)
    damped = raw / (1.0 + leverage)
    preds = np.clip(raw, -seq.bound_A, seq.bound_A, out=raw) if clip else raw
    losses = (x - preds) ** 2
    return OnlineRunResult(
        predictions=preds,
        cumulative_loss=float(np.sum(losses)),
        per_step_losses=losses,
        damped_predictions=damped,
        damped_loss=float(np.sum((x - damped) ** 2)),
        max_dense_gap=worst_gap,
        leverage=leverage,
    )


def run_lms(spec: FeatureSpec, seq: BoundedSequence, step_size: float) -> OnlineRunResult:
    """Gradient baseline: w <- w + step_size * error * f, weights start at 0.  A step size
    above the stability limit 2 / |f_t|^2 of some step (the update amplifies the error) raises
    ValueError, and so does a prediction, loss or weight that overflows.

    The recursion steps on Python floats; each prediction sums w_i f_i left to right,
    so it can differ from a BLAS dot product in the last bit where that fuses multiply-adds.
    """
    if len(seq) == 0:
        raise ValueError("sequence must be nonempty")
    if not 0.0 <= step_size < np.inf:
        raise ValueError("step_size must be nonnegative and finite")
    F = feature_matrix(spec, seq)
    x = seq.values
    with np.errstate(over="raise", invalid="raise"):
        energy = np.einsum("ij,ij->i", F, F)
        if step_size * energy.max() > 2.0:
            t = int(np.argmax(energy))
            raise ValueError(f"LMS step size mu={step_size!r} is unstable on this sequence: mu |f_t|^2 > 2 at "
                             f"step {t + 1}, where the update amplifies the error (stable for mu <= {2.0 / energy[t]})")
    w = [0.0] * spec.order_m
    preds = []
    for f, x_t in zip(F.tolist(), x.tolist()):
        pred = 0.0
        for wi, fi in zip(w, f):
            pred += wi * fi
        c = step_size * (x_t - pred)
        w = [wi + c * fi for wi, fi in zip(w, f)]
        preds.append(pred)
    preds = np.array(preds)
    with np.errstate(over="ignore", invalid="ignore"):
        losses = (x - preds) ** 2
    if not (np.isfinite(losses).all() and np.isfinite(w).all()):
        raise ValueError(f"LMS step size mu={step_size!r} overflows on this sequence: "
                         f"a prediction, loss or weight is not finite")
    return OnlineRunResult(predictions=preds, cumulative_loss=float(np.sum(losses)), per_step_losses=losses)


def run_rls(
    spec: FeatureSpec,
    seq: BoundedSequence,
    delta: float,
    forgetting: float = 1.0,
) -> OnlineRunResult:
    """Exponentially weighted recursive least squares: the ridge engine's plain
    predictions with R, r and the regularizer delta discounted by `forgetting`
    per step (at 1.0, `run_online`'s plain trace bitwise).  The regularizer
    decays, so features rank-deficient over the forgetting window make the
    system singular in floating point (ValueError).
    """
    if len(seq) == 0:
        raise ValueError("sequence must be nonempty")
    if not delta > 0:
        raise ValueError("delta must be positive")
    if not 0.0 < forgetting <= 1.0:
        raise ValueError("forgetting factor must be in (0, 1]")
    x = seq.values
    with np.errstate(over="raise"):  # features near the float range overflow the discount weights
        preds, _, _ = _engine_pass(feature_matrix(spec, seq), x, float(delta), float(forgetting))
    losses = (x - preds) ** 2
    return OnlineRunResult(predictions=preds, cumulative_loss=float(np.sum(losses)), per_step_losses=losses)
