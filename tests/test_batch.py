"""Hindsight solves, the determinant certificate, and the evidence identity."""

import math

import numpy as np
import pytest

from seqregret import (
    BoundedSequence,
    RegretReport,
    batch_solve,
    gram_log_det_ratio,
    linear_lag,
    mixture_log_evidence,
    monomial_features,
    regret_report,
    run_online,
    simple_envelope,
    univariate_poly,
)
from seqregret.sequences import feature_matrix

from oracles import bound_convention_audit


def grid_min_objective(F, x, delta, lo=-3.0, hi=3.0, step=0.01):
    """Brute-force minimum of sum (x - Fw)^2 + delta ||w||^2 over a product grid.

    Evaluates through the sufficient statistics S - 2 w.r + w^T (F^T F + dI) w,
    chunked along the first axis for m = 3 so the full 601^3 grid stays cheap.
    """
    m = F.shape[1]
    S = float(x @ x)
    r = F.T @ x
    Q = F.T @ F + delta * np.eye(m)
    axis = np.arange(lo, hi + step / 2, step)
    if m == 1:
        vals = S - 2.0 * r[0] * axis + Q[0, 0] * axis ** 2
        return float(np.min(vals))
    if m == 2:
        W1, W2 = np.meshgrid(axis, axis, indexing="ij")
        vals = (
            S
            - 2.0 * (r[0] * W1 + r[1] * W2)
            + Q[0, 0] * W1 ** 2
            + Q[1, 1] * W2 ** 2
            + 2.0 * Q[0, 1] * W1 * W2
        )
        return float(np.min(vals))
    assert m == 3
    W2, W3 = np.meshgrid(axis, axis, indexing="ij")
    tail = (
        Q[1, 1] * W2 ** 2
        + Q[2, 2] * W3 ** 2
        + 2.0 * Q[1, 2] * W2 * W3
        - 2.0 * (r[1] * W2 + r[2] * W3)
    )
    cross = Q[0, 1] * W2 + Q[0, 2] * W3
    best = math.inf
    for w1 in axis:
        vals = (S - 2.0 * r[0] * w1 + Q[0, 0] * w1 * w1) + tail + (2.0 * w1) * cross
        best = min(best, float(np.min(vals)))
    return best


def ridge_objective(F, x, delta, w):
    resid = x - F @ w
    return float(resid @ resid) + delta * float(w @ w)


# -------------------------------------------------------------- batch_solve


def test_constant_sequence_pseudo_solve():
    # oracle: on x = [c,c,c,c,c] with lag-1 features [0,c,c,c,c] the t >= 2
    # terms vanish at w = 1 and the zero-padded first term contributes c^2.
    c = 0.7
    seq = BoundedSequence(np.full(5, c), 1.0)
    w, loss = batch_solve(linear_lag(1, 1), seq, 0.0)
    assert w[0] == pytest.approx(1.0)
    assert loss == pytest.approx(c * c)


def test_zero_sequence_solves_to_zero():
    seq = BoundedSequence(np.zeros(3), 1.0)
    for spec in (univariate_poly(2), linear_lag(1, 2)):
        w, loss = batch_solve(spec, seq, 1.0)
        np.testing.assert_array_equal(w, np.zeros(spec.order_m))
        assert loss == 0.0


def test_negative_delta_rejected():
    with pytest.raises(ValueError):
        batch_solve(linear_lag(1, 1), BoundedSequence(np.zeros(2), 1.0), -1.0)


@pytest.mark.parametrize("m,seed", [(1, 0), (2, 1), (3, 2)])
def test_ridge_objective_matches_grid_search(m, seed):
    # small amplitude keeps the quadratic's curvature low enough that the
    # 0.01 grid resolves the optimum to better than 1e-3
    rng = np.random.default_rng(seed)
    values = rng.uniform(-0.5, 0.5, 6)
    seq = BoundedSequence(values, 0.5)
    spec = linear_lag(1, m)
    F = feature_matrix(spec, seq)
    w, loss = batch_solve(spec, seq, 1.0)
    solver_obj = loss + 1.0 * float(w @ w)
    grid_obj = grid_min_objective(F, values, 1.0)
    assert grid_obj >= solver_obj - 1e-12  # the grid can never beat the optimum
    assert grid_obj - solver_obj <= 1e-3


def test_pseudo_solve_returns_minimum_norm_on_rank_deficient_gram():
    # on two-valued +-1 data the cubic feature equals the linear one and the
    # square is constant, so the univariate order-3 Gram is singular
    rng = np.random.default_rng(4)
    values = np.where(rng.random(40) < 0.5, 1.0, -1.0)
    seq = BoundedSequence(values, 1.0)
    spec = univariate_poly(3)
    F = feature_matrix(spec, seq)
    assert np.linalg.matrix_rank(F) == 2
    w, loss = batch_solve(spec, seq, 0.0)
    pinv_w = np.linalg.pinv(F) @ values
    np.testing.assert_allclose(w, pinv_w, atol=1e-10)
    assert loss == pytest.approx(ridge_objective(F, values, 0.0, pinv_w), abs=1e-10)


def test_small_delta_trend_approaches_pseudo_solve():
    rng = np.random.default_rng(9)
    values = rng.uniform(-1, 1, 40)
    seq = BoundedSequence(values, 1.0)
    spec = linear_lag(1, 2)
    w0, _ = batch_solve(spec, seq, 0.0)
    gaps = [float(np.linalg.norm(batch_solve(spec, seq, d)[0] - w0)) for d in (1e-2, 1e-4, 1e-6)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-5


@pytest.mark.parametrize("delta", [1.0, 0.0])
def test_gradient_vanishes_at_solution(delta):
    rng = np.random.default_rng(14)
    values = rng.uniform(-1, 1, 30)
    seq = BoundedSequence(values, 1.0)
    spec = linear_lag(1, 3)
    F = feature_matrix(spec, seq)
    w, _ = batch_solve(spec, seq, delta)
    h = 1e-5
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        grad = (ridge_objective(F, values, delta, w + e) - ridge_objective(F, values, delta, w - e)) / (2 * h)
        assert abs(grad) < 1e-6


# ------------------------------------------------------- determinant bound


def test_log_det_ratio_matches_slogdet_oracle():
    rng = np.random.default_rng(2)
    B = rng.normal(size=(12, 4))
    gram = B.T @ B
    for delta in (0.5, 1.0, 4.0):
        sign, oracle = np.linalg.slogdet(np.eye(4) + gram / delta)
        assert sign == 1.0
        assert gram_log_det_ratio(gram, delta) == pytest.approx(oracle, rel=1e-12)


def test_simple_envelope_arithmetic():
    assert simple_envelope(1.0, 1, 3, 1.0) == pytest.approx(math.log(4.0))
    assert simple_envelope(2.0, 3, 10, 0.5) == pytest.approx(4.0 * 3.0 * math.log1p(4.0 * 10.0 / 0.5))
    assert simple_envelope(0.0, 5, 100, 1.0) == 0.0


def test_det_bound_is_nondecreasing_along_a_run():
    rng = np.random.default_rng(8)
    values = np.clip(np.cumsum(rng.normal(0, 0.2, 60)), -1, 1)
    seq = BoundedSequence(values, 1.0)
    spec = linear_lag(1, 3)
    prev = 0.0
    for n in range(1, len(seq) + 1):
        F = feature_matrix(spec, seq.prefix(n))
        current = gram_log_det_ratio(F.T @ F, 1.0)
        assert current >= prev - 1e-12
        prev = current


# ------------------------------------------------------------ regret_report


def test_report_zero_sequence_is_all_zero():
    seq = BoundedSequence(np.zeros(3), 1.0)
    spec = linear_lag(1, 1)
    report = regret_report(spec, seq, 1.0, run_online(spec, seq, 1.0))
    assert report.sequential_loss == 0.0
    assert report.batch_loss_ridge == 0.0
    assert report.det_bound == 0.0
    assert report.regret_vs_unregularized == 0.0
    assert report.bound_satisfied()


def test_report_three_ones_and_the_resolved_convention():
    """The worked three-ones example, under the convention the audit resolved.

    All-steps penalized hindsight objective: the zero-padded first step
    contributes (1 - w*0)^2 = 1, so min_w {1 + 2(1-w)^2 + w^2} = 5/3 at
    w = 2/3.  The t>=2-only objective would be 2/3, under which the plain
    online loss 2.25 > 2/3 + ln 3 — the documented failure that forced the
    convention resolution.  Under the resolved convention the certified
    (leverage-damped) loss is 22/9 and the bound holds.
    """
    seq = BoundedSequence(np.ones(3), 1.0)
    spec = linear_lag(1, 1)
    run = run_online(spec, seq, 1.0)
    report = regret_report(spec, seq, 1.0, run)

    assert report.sequential_loss == pytest.approx(2.25)
    oracle_objective = 1.0 + 2.0 * (1.0 / 3.0) ** 2 + (2.0 / 3.0) ** 2  # = 5/3
    F = feature_matrix(spec, seq)
    assert grid_min_objective(F, seq.values, 1.0, step=0.001) == pytest.approx(oracle_objective, abs=1e-5)
    assert report.batch_loss_ridge == pytest.approx(oracle_objective)
    assert report.batch_loss_unregularized == pytest.approx(1.0)
    assert report.regret_vs_unregularized == pytest.approx(1.25)
    assert report.det_bound == pytest.approx(math.log(3.0))
    assert report.simple_bound == pytest.approx(math.log(4.0))
    assert report.weights_star[0] == pytest.approx(2.0 / 3.0)

    # the failure the worked example flags, reproduced: t>=2-only objective
    reduced_objective = 2.0 / 3.0
    assert report.sequential_loss > reduced_objective + report.det_bound

    # resolved convention: damped trace is certified; hand oracle 1 + 1 + (2/3)^2
    assert report.bound_loss == pytest.approx(22.0 / 9.0)
    assert report.bound_loss <= report.batch_loss_ridge + report.det_bound + 1e-6
    assert report.bound_satisfied()
    assert RegretReport.BOUND_CONVENTION == "damped-lhs, penalized-objective, all-steps"


def test_report_rejects_mismatched_run_length():
    seq = BoundedSequence(np.ones(3), 1.0)
    spec = linear_lag(1, 1)
    run = run_online(spec, seq.prefix(2), 1.0)
    with pytest.raises(ValueError, match="does not match"):
        regret_report(spec, seq, 1.0, run)


def test_report_csv_row_shape_and_formatting():
    seq = BoundedSequence(np.ones(3), 1.0)
    spec = linear_lag(1, 1)
    report = regret_report(spec, seq, 1.0, run_online(spec, seq, 1.0))
    row = report.csv_row()
    assert len(row) == len(RegretReport.CSV_COLUMNS) == 10
    assert row[0] == "3" and row[1] == "1" and row[2] == "linear"
    assert row[4] == repr(2.25)  # repr round-trips bit-exactly


def test_convention_audit_frozen_resolution():
    """Freeze the exhaustive small-case search that resolved the bound convention.

    Plain predictions violate the certificate from n = 3 on (worst case the
    flip-flip-stay pattern); damped predictions never do, on any +-A window
    tested, including a rescaled one.
    """
    audit = bound_convention_audit()
    assert audit["plain_worst_gap"] == pytest.approx(0.15138771133189088, rel=1e-12)
    assert audit["plain_worst_sequence"] == (-1.0, -1.0, 1.0)
    assert audit["damped_worst_gap"] == pytest.approx(-0.1931471805599454, rel=1e-12)
    assert audit["damped_worst_gap"] < 0.0

    rescaled = bound_convention_audit(n_max=4, bound_A=2.0, delta=0.5)
    assert rescaled["plain_worst_gap"] == pytest.approx(-1.0612484379532603, rel=1e-12)
    assert rescaled["damped_worst_gap"] < 0.0


# -------------------------------------------------------- evidence identity


def evidence_by_quadrature(spec, seq, h, sigma2):
    """Trapezoid oracle for -2h ln integral N(b; 0, s2) exp(-sum(x-bf)^2/2h) db."""
    F = feature_matrix(spec, seq)[:, 0]
    x = seq.values
    R = float(F @ F)
    center = (float(x @ F)) / (R + h / sigma2)
    width = math.sqrt(h / (R + h / sigma2))
    grid = np.linspace(center - 14 * width, center + 14 * width, 40001)
    logs = np.array(
        [-0.5 * b * b / sigma2 - float((x - b * F) @ (x - b * F)) / (2 * h) for b in grid]
    )
    shift = logs.max()
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    integral = float(trapezoid(np.exp(logs - shift), grid))
    return -2.0 * h * (shift + math.log(integral) - 0.5 * math.log(2 * math.pi * sigma2))


def test_evidence_zero_sequence_reduces_to_log_volume():
    # zero data: min term 0, value h * ln(1 + sigma2 R / h); features of the
    # zero signal are zero, so R = 0 and the value is exactly 0
    seq = BoundedSequence(np.zeros(2), 1.0)
    assert mixture_log_evidence(linear_lag(1, 1), seq, 1.0, 1.0) == 0.0


def test_evidence_with_zero_features_is_raw_energy():
    # single sample: its only feature is zero-padded, so R = 0 and the prior
    # integrates out, leaving sum x^2
    seq = BoundedSequence(np.array([0.7]), 1.0)
    assert mixture_log_evidence(linear_lag(1, 1), seq, 1.0, 1.0) == pytest.approx(0.49)


def test_evidence_requires_scalar_class():
    seq = BoundedSequence(np.zeros(3), 1.0)
    with pytest.raises(ValueError):
        mixture_log_evidence(linear_lag(1, 2), seq, 1.0, 1.0)
    with pytest.raises(ValueError):
        mixture_log_evidence(linear_lag(1, 1), seq, 0.0, 1.0)


@pytest.mark.parametrize("seed", range(6))
def test_evidence_matches_numerical_integration(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    values = rng.uniform(-1, 1, n)
    seq = BoundedSequence(values, 1.0)
    spec = (linear_lag(1, 1), univariate_poly(1), monomial_features([{1: 1, 2: 1}]))[seed % 3]
    h = float(rng.uniform(0.5, 3.0))
    sigma2 = float(rng.uniform(0.5, 3.0))
    closed = mixture_log_evidence(spec, seq, h, sigma2)
    oracle = evidence_by_quadrature(spec, seq, h, sigma2)
    assert closed == pytest.approx(oracle, rel=1e-4)
