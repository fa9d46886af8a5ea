"""Online ridge prediction on feature vectors, plus LMS / forgetting-RLS baselines.

The ridge predictor keeps R = sum f f^T and r = sum x*f over the steps seen so
far.  With R + delta I = L L^T, z = L^-1 r and y = L^-1 f, the plain prediction
r^T (R + dI)^{-1} f (what `predict` returns) is z.y and the leverage
f^T (R + dI)^{-1} f is |y|^2: forward substitution only.
The leverage-damped prediction plain / (1 + leverage) is the Vovk-Azoury-Warmuth
forecast r^T (R + f f^T + dI)^{-1} f, which the regret certificate in
`batch.RegretReport` provably covers; the plain trace can overshoot it on short
sign-flip bursts (the exhaustive `bound_convention_audit` in `tests/oracles.py`).

Every ridge path runs on one blocked engine whose layout only this module knows:
`_prefix_blocks` builds BLOCK_STEPS steps of statistics at a time by cumulative
sums, `_vaw_solve` factors and substitutes them in place by numpy elementwise
operations across the block, and `_engine_pass` walks them once; other modules
read predictions and leverages from `run_online`.  RLS is the same pass with
discounted statistics and regularizer.  A system singular in floating point raises
ValueError (exit 2 in the CLI); `verify_dense` audits every step against an
independent LAPACK LU re-solve (`np.linalg.solve`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sequences import BoundedSequence, FeatureSpec, feature_matrix

# Steps per engine block.  Blocks start at multiples of this whatever the run
# length, so a prefix run reproduces the leading steps of a longer run bitwise.
BLOCK_STEPS = 512


# PredictorState, init, predict and update (the per-step form) serve only tests;
# perfbench/tracing.py TARGETS pins them by name.
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


def _column_starts(m: int) -> list[int]:
    """First row of each column of the engine's packed statistics, and their count last.

    Column j (j < m) of the lower triangle of [[R + dI, .], [r^T, .]] holds rows
    j..m: (R + dI)[j:, j], then r_j.
    """
    return [j * (m + 1) - j * (j - 1) // 2 for j in range(m + 1)]


def _prefix_blocks(F: np.ndarray, x: np.ndarray, delta: float, forgetting: float = 1.0):
    """Yield (steps, stats, features) per engine block from zero statistics.

    Column i of `stats` holds R + lambda^k delta I and r before the block's step i
    (global step k), packed as `_column_starts` lays out, and column i of
    `features` (m, b) holds f_k; R and r sum lambda^(k-1-s) f_s f_s^T and
    lambda^(k-1-s) x_s f_s over s < k.  Each column adds step k-1 to the previous
    one, so at lambda = 1 sums add one step at a time and every column equals the
    `update` chain bitwise.  Under forgetting the decaying regularizer rides in the
    statistics: the block's first column is lambda times the previous block's last
    plus step k-1, later ones enter the cumulative sum weighted by lambda^-i <= e^300
    and are rescaled by lambda^i.  Block lengths depend on lambda alone, so prefix
    runs reproduce the leading steps bitwise.  Both arrays are contiguous views of
    buffers that the next block overwrites, so the solve may work in place.
    """
    n, m = F.shape
    block = BLOCK_STEPS if forgetting == 1.0 else min(BLOCK_STEPS, 1 + int(300.0 / -np.log(forgetting)))
    starts = _column_starts(m)
    width = min(n, block)
    stats_buffer, window_buffer = np.empty(starts[m] * width), np.empty((m + 1) * width)
    initial = np.zeros(starts[m])
    discounted = forgetting != 1.0
    if discounted:
        initial[starts[:m]] = delta
        powers = forgetting ** np.arange(float(block))
        weights = 1.0 / powers
    for lo in range(0, n, block):
        steps = slice(lo, min(n, lo + block))
        b = steps.stop - lo
        stats = stats_buffer[: starts[m] * b].reshape(-1, b)
        window = window_buffer[: (m + 1) * b].reshape(m + 1, b)  # [f; x] of steps lo-1 .. lo+b-2
        before = slice(max(lo - 1, 0), steps.stop - 1)
        pad = b - (before.stop - before.start)  # the first block has no step before it
        window[:, :pad] = 0.0
        window[:m, pad:], window[m, pad:] = F[before].T, x[before]
        for j in range(m):  # column j of the triangle: f_i f_j for i >= j, then x f_j
            np.multiply(window[j:], window[j], out=stats[starts[j]:starts[j + 1]])
        if discounted:
            stats[:, 1:] *= weights[1:b]
        stats[:, 0] += forgetting * carry if lo else initial
        np.cumsum(stats, axis=1, out=stats)
        if discounted:
            stats[:, 1:] *= powers[1:b]
        carry = stats[:, -1].copy()  # before the block's final step
        if not discounted:
            for j in range(m):
                stats[starts[j]] += delta
        features = window[:m]
        features[:] = F[steps].T
        yield steps, stats, features


def _singular() -> ValueError:
    return ValueError(
        "ridge system R + dI is singular in floating point: the regularizer d (delta, or "
        "delta * forgetting^k under forgetting) is below the resolution of R at its scale"
    )


def _vaw_solve(stats: np.ndarray, features: np.ndarray):
    """Plain prediction r^T (R + dI)^{-1} f and leverage f^T (R + dI)^{-1} f per column.

    `stats` holds R + dI and r as `_prefix_blocks` packs them and `features` (m, b)
    the f of each column; both are overwritten.  The Cholesky factorization of
    [[R + dI, .], [r^T, .]] by columns gives R + dI = L L^T with z = L^-1 r as its
    last row, forward substitution turns f into y = L^-1 f, and the plain
    prediction is z.y, the leverage |y|^2 (never negative).  Every entry
    accumulates elementwise in a fixed order, never by a reduction over m, so a
    batch of one reproduces any column of a larger batch bitwise.  A pivot that is
    not positive and finite, or a result that is not finite, raises ValueError
    (the system is singular in floating point).
    """
    m, b = features.shape
    starts = _column_starts(m)
    scratch = np.empty((m, b))
    y = features
    with np.errstate(all="ignore"):  # a failed pivot propagates as nan or inf, checked below
        for j in range(m):
            column = stats[starts[j]:starts[j + 1]]  # rows j..m of column j, then of L
            for k in range(j):
                low = stats[starts[k] + j - k:starts[k + 1]]  # L[j:, k]
                column -= np.multiply(low, low[0], out=scratch[: m + 1 - j])
            np.sqrt(column[0], out=column[0])
            column[1:] /= column[0]
        for k in range(m):
            y[k] /= stats[starts[k]]
            below = stats[starts[k] + 1:starts[k + 1] - 1]  # L[k+1:, k]
            y[k + 1:] -= np.multiply(below, y[k], out=scratch[: m - 1 - k])
        plain, leverage = stats[starts[1] - 1] * y[0], y[0] * y[0]
        for i in range(1, m):
            plain += np.multiply(stats[starts[i + 1] - 1], y[i], out=scratch[0])
            leverage += np.multiply(y[i], y[i], out=scratch[0])
        pivots = np.take(stats, starts[:m], axis=0, out=scratch)
        if not (pivots.min() > 0 and pivots.max() < np.inf and np.isfinite(plain).all()
                and np.isfinite(leverage).all()):
            raise _singular()
    return plain, leverage


AUDIT_ENTRIES = 2 ** 12  # matrix entries per LAPACK call of the dense audit (at most 256 systems)


def _lu_predictions(stats: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Plain predictions f.(R + dI)^{-1} r re-solved by LAPACK LU (`np.linalg.solve`),
    independently of the engine's Cholesky, a bounded slice of systems at a time."""
    m, b = features.shape
    items = min(256, AUDIT_ENTRIES // (m * m))
    starts = _column_starts(m)
    entries = [starts[min(i, j)] + abs(i - j) for i in range(m) for j in range(m)]
    crosses = [starts[j + 1] - 1 for j in range(m)]
    direct = np.empty(b)
    for lo in range(0, b, items):
        part = slice(lo, min(b, lo + items))
        systems = stats[entries, part].T.reshape(-1, m, m)
        try:
            a = np.linalg.solve(systems, stats[crosses, part].T[..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise _singular() from exc
        direct[part] = np.sum(a * features[:, part].T, axis=1)
    if not np.isfinite(direct).all():
        raise _singular()
    return direct


def _engine_pass(F: np.ndarray, x: np.ndarray, delta: float, forgetting: float = 1.0, audit: bool = False):
    """Per-step plain predictions, leverages and the worst LU audit gap (if `audit`)."""
    raw, leverage = np.empty((2, F.shape[0]))
    worst_gap = 0.0
    for steps, stats, features in _prefix_blocks(F, x, delta, forgetting):
        direct = _lu_predictions(stats, features) if audit else None  # before the solve overwrites them
        raw[steps], leverage[steps] = _vaw_solve(stats, features)
        if audit:
            gap = np.abs(raw[steps] - direct) / np.maximum(1.0, np.maximum(np.abs(raw[steps]), np.abs(direct)))
            worst_gap = max(worst_gap, float(np.max(gap)))
    return raw, leverage, worst_gap if audit else None


def predict(state: PredictorState, f) -> float:
    """Plain online prediction r^T (R + delta I)^{-1} f; 0 on empty statistics."""
    vec = _as_feature(state, f)
    m = state.order_m
    shifted = state.gram_R + state.delta * np.eye(m)
    stats = np.concatenate([np.append(shifted[j:, j], state.cross_r[j]) for j in range(m)])
    raw, _ = _vaw_solve(stats[:, None], vec[:, None].copy())
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
    independent LU re-solve, when that audit was requested.
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
    `verify_dense=True` re-solves every step's system by LAPACK LU, independently
    of the engine's Cholesky, and records the worst relative gap.
    """
    if len(seq) == 0:
        raise ValueError("sequence must be nonempty")
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta!r}")
    delta = float(delta)
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
