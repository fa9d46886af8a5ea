"""Hindsight ridge solves, regret accounting, and evidence-identity checks.

The central object is :class:`RegretReport`, which compares one online run
against the best fixed parameter vector chosen in hindsight and against the
log-determinant regret certificate.

Bound convention (resolved by exhaustive small-case search; frozen in tests
by ``bound_convention_audit`` in ``tests/oracles.py``):

* both sides sum over every step t = 1..n, zero-padded startup steps included;
* the right side is the penalized hindsight objective
  min_a { sum (x - a^T f)^2 + delta * ||a||^2 } plus A^2 * ln det(I + R/delta);
* the left side is the sequential loss of the *leverage-damped* predictions
  (``bound_loss``), i.e. plain/(1 + leverage) at each step.  The plain online
  loss (``sequential_loss``) can exceed the certificate on short sign-flip
  bursts — the audit exhibits a three-step counterexample — so it is reported
  but not the certified quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .predictors import OnlineRunResult
from .sequences import BoundedSequence, FeatureSpec, feature_matrix

# Relative cutoff under which singular values are treated as zero in the
# delta=0 minimum-norm solve.
PSEUDO_RANK_TOL = 1e-10


def batch_solve(
    spec: FeatureSpec, seq: BoundedSequence, delta: float, F: np.ndarray | None = None
) -> tuple[np.ndarray, float]:
    """Best fixed weights in hindsight and their raw squared-error loss.

    For delta > 0 solves the ridge normal equations (F^T F + delta I) w = F^T x;
    for delta = 0 returns the minimum-norm least-squares solution, treating
    singular values below ``PSEUDO_RANK_TOL`` times the largest as zero.  The
    returned loss excludes the delta*||w||^2 penalty (add it back for the
    penalized objective).  `F` is feature_matrix(spec, seq) when the caller
    already has it.  Weights that overflow (features near the bottom of the
    float range fit by a huge coefficient) raise ValueError.
    """
    if delta < 0:
        raise ValueError("delta must be >= 0")
    if F is None:
        F = feature_matrix(spec, seq)
    x = seq.values
    if delta == 0:
        w, *_ = np.linalg.lstsq(F, x, rcond=PSEUDO_RANK_TOL)
    else:
        gram = F.T @ F + float(delta) * np.eye(spec.order_m)
        w = np.linalg.solve(gram, F.T @ x)
    if not np.isfinite(w).all():
        raise ValueError(f"the delta={delta!r} hindsight fit overflows: its weights are not finite")
    residual = x - F @ w
    return w, float(residual @ residual)


def gram_log_det_ratio(gram: np.ndarray, delta: float) -> float:
    """ln det(I + R/delta) via the Cholesky diagonal of R + delta*I (overflow-free)."""
    m = gram.shape[0]
    low = np.linalg.cholesky(gram + float(delta) * np.eye(m))
    return float(2.0 * np.sum(np.log(np.diag(low))) - m * math.log(delta))


def simple_envelope(bound_A: float, m: int, n: int, delta: float) -> float:
    """Closed-form envelope A^2 * m * ln(1 + A^2 n / delta) for normalized classes."""
    return bound_A ** 2 * m * math.log1p(bound_A ** 2 * n / delta)


@dataclass(frozen=True)
class RegretReport:
    """Regret accounting for one online run.

    Schema notes: ``batch_loss_ridge`` is the *penalized* hindsight objective
    (raw loss at the ridge optimum plus delta*||w*||^2); the certified
    inequality is ``bound_loss <= batch_loss_ridge + det_bound`` under the
    convention in the module docstring (BOUND_CONVENTION).  ``sequential_loss``
    is the plain online loss and ``regret_vs_unregularized`` measures it
    against the delta=0 hindsight fit.
    """

    sequential_loss: float
    batch_loss_ridge: float
    batch_loss_unregularized: float
    regret_vs_unregularized: float
    det_bound: float
    simple_bound: float
    weights_star: np.ndarray
    bound_loss: float
    n: int
    order_m: int
    class_label: str
    delta: float

    BOUND_CONVENTION = "damped-lhs, penalized-objective, all-steps"

    CSV_COLUMNS = (
        "n", "m", "class", "delta", "seq_loss", "batch_ridge",
        "batch_raw", "regret", "det_bound", "simple_bound",
    )

    def csv_row(self) -> list[str]:
        return [
            str(self.n),
            str(self.order_m),
            self.class_label,
            _fmt(self.delta),
            _fmt(self.sequential_loss),
            _fmt(self.batch_loss_ridge),
            _fmt(self.batch_loss_unregularized),
            _fmt(self.regret_vs_unregularized),
            _fmt(self.det_bound),
            _fmt(self.simple_bound),
        ]

    def bound_satisfied(self, slack: float = 1e-6) -> bool:
        return self.bound_loss <= self.batch_loss_ridge + self.det_bound + slack


def _fmt(v: float) -> str:
    return repr(float(v))


def regret_report(
    spec: FeatureSpec,
    seq: BoundedSequence,
    delta: float,
    online: OnlineRunResult,
) -> RegretReport:
    """Assemble the full regret account for a finished `run_online` trace."""
    n = len(seq)
    if online.predictions.shape[0] != n:
        raise ValueError(f"online run of length {online.predictions.shape[0]} does not match sequence of length {n}")
    if online.damped_loss is None:
        raise ValueError("regret_report needs a ridge run (damped trace missing)")
    if not delta > 0:
        raise ValueError("delta must be positive")

    F = feature_matrix(spec, seq)
    w_star, ridge_raw = batch_solve(spec, seq, delta, F)
    ridge_objective = ridge_raw + float(delta) * float(w_star @ w_star)
    _, raw_loss = batch_solve(spec, seq, 0.0, F)
    det_bound = seq.bound_A ** 2 * gram_log_det_ratio(F.T @ F, delta)
    return RegretReport(
        sequential_loss=online.cumulative_loss,
        batch_loss_ridge=ridge_objective,
        batch_loss_unregularized=raw_loss,
        regret_vs_unregularized=online.cumulative_loss - raw_loss,
        det_bound=det_bound,
        simple_bound=simple_envelope(seq.bound_A, spec.order_m, n, delta),
        weights_star=w_star,
        bound_loss=online.damped_loss,
        n=n,
        order_m=spec.order_m,
        class_label=spec.label,
        delta=float(delta),
    )


def mixture_log_evidence(spec: FeatureSpec, seq: BoundedSequence, h: float, sigma2: float) -> float:
    """-2h * ln of the Gaussian scale-mixture evidence for a scalar feature class.

    With per-step densities proportional to exp(-(x - b f)^2 / 2h) and a
    zero-mean Gaussian weight prior of variance sigma2, the evidence collapses
    to the penalized hindsight objective plus a log volume ratio:

        min_b { sum (x - b f)^2 + (h/sigma2) b^2 } + h * ln(1 + sigma2 * R / h)

    computed two ways internally (explicit minimizer vs. completed square) and
    cross-checked; callers compare against direct numerical integration.
    """
    if spec.order_m != 1:
        raise ValueError("evidence identity requires a scalar feature class (order_m == 1)")
    if not h > 0 or not sigma2 > 0:
        raise ValueError("h and sigma2 must be positive")
    F = feature_matrix(spec, seq)[:, 0]
    x = seq.values
    R = float(F @ F)
    r = float(x @ F)
    S = float(x @ x)
    delta_eff = h / sigma2

    b_star = r / (R + delta_eff)
    explicit = float(np.sum((x - b_star * F) ** 2)) + delta_eff * b_star ** 2
    algebraic = S - r * r / (R + delta_eff)
    if abs(explicit - algebraic) > 1e-9 * max(1.0, abs(algebraic)):
        raise FloatingPointError(f"internal evidence cross-check failed: {explicit} vs {algebraic}")
    return algebraic + h * math.log1p(sigma2 * R / h)
