"""Acceptance gate: nine criteria, one printed PASS/FAIL line each (run with -s).

Criteria 1-3 share one large bound-suite fixture (built once per module); the
rest are independent.  Every expected value is produced by an in-test oracle
(exhaustive enumeration, brute-force quadrature, integral-ratio posterior
means) or is a closed-form hand value documented inline.
"""

import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from scipy.special import betaln

import seqregret
from seqregret import (
    AdversaryKind,
    AdversarySpec,
    BoundedSequence,
    RandomizedPredictor,
    batch_solve,
    bayes_predict,
    bayes_prediction_trace,
    derandomize,
    estimate_lower_bound,
    generate,
    linear_lag,
    mixture_log_evidence,
    monomial_features,
    regret_report,
    ridge_predictor_fn,
    run_online,
    run_predictor_fn,
    run_randomized,
    sample_theta,
    static_rule,
    univariate_poly,
)
from seqregret.cli import main as cli_main
from seqregret.sequences import feature_matrix

BOUND_SLACK = 1e-6
SUITE_N_GRID = (128, 256, 512, 1024, 2048, 4096, 8192)
SUITE_AMPLITUDES = (0.5, 1.0, 2.0)


def report_line(k, ok, detail):
    print(f"[CRITERION {k}] {'PASS' if ok else 'FAIL'}: {detail}")


# --------------------------------------------------------- suite (1, 2, 3)


@dataclass(frozen=True)
class SuiteRun:
    family: str
    class_label: str
    order_m: int
    n: int
    bound_A: float
    delta: float
    slack: float
    det_bound: float
    simple_bound: float
    dense_gap: float


def make_sequence(family: str, A: float, n: int, seed: int) -> BoundedSequence:
    if family == "sinusoid":
        t = np.arange(1, n + 1)
        return BoundedSequence(A * np.sin(2.0 * math.pi * 0.05 * t), A)
    if family == "walk":
        rng = np.random.default_rng(seed)
        return BoundedSequence(np.clip(np.cumsum(rng.normal(0.0, A / 8.0, n)), -A, A), A)
    spec = AdversarySpec(
        kind=AdversaryKind.SIGN_FLIP_LAG, beta_C=1.0, bound_A=A, horizon_n=n, seed=seed
    )
    rng = np.random.default_rng(seed)
    return generate(spec, sample_theta(1.0, rng), rng)


def class_grid(A: float):
    """Feature classes and regularizers exercised on one sequence of amplitude A.

    Linear-lag windows run at every amplitude; the polynomial and monomial
    classes only at A <= 1, where they are normalized (worst feature magnitude
    <= A), keeping the closed-form envelope of criterion 2 applicable.
    """
    grid = [(linear_lag(1, m), 1.0) for m in (1, 2, 4, 8)]
    grid += [(linear_lag(1, m), 0.25) for m in (1, 4)]
    if A <= 1.0:
        grid += [(univariate_poly(m), 1.0) for m in (1, 2, 3, 4)]
        grid += [(monomial_features([{1: 1}, {1: 1, 2: 1}]), 1.0)]
    return grid


@pytest.fixture(scope="module")
def bound_suite():
    start = time.perf_counter()
    runs = []
    seed = 0
    for family in ("sinusoid", "walk", "adversarial"):
        for n in SUITE_N_GRID:
            for A in SUITE_AMPLITUDES:
                seed += 1
                seq = make_sequence(family, A, n, seed=1000 + seed)
                for spec, delta in class_grid(A):
                    run = run_online(spec, seq, delta, verify_dense=True)
                    report = regret_report(spec, seq, delta, run)
                    runs.append(
                        SuiteRun(
                            family=family,
                            class_label=spec.label,
                            order_m=spec.order_m,
                            n=n,
                            bound_A=A,
                            delta=delta,
                            slack=report.bound_loss - report.batch_loss_ridge - report.det_bound,
                            det_bound=report.det_bound,
                            simple_bound=report.simple_bound,
                            dense_gap=float(run.max_dense_gap),
                        )
                    )
    return {"runs": runs, "seconds": time.perf_counter() - start}


def test_criterion_1_certified_bound_suite(bound_suite):
    runs, seconds = bound_suite["runs"], bound_suite["seconds"]
    families = {r.family for r in runs}
    amplitudes = {r.bound_A for r in runs}
    horizons = {r.n for r in runs}
    worst = max(r.slack for r in runs)
    ok = (
        len(runs) >= 500
        and families == {"sinusoid", "walk", "adversarial"}
        and amplitudes == set(SUITE_AMPLITUDES)
        and horizons == set(SUITE_N_GRID)
        and worst <= BOUND_SLACK
        and seconds < 60.0
    )
    report_line(
        1,
        ok,
        f"{len(runs)} runs across {sorted(families)}, A={sorted(amplitudes)}, "
        f"n=2^7..2^13; worst bound slack {worst:.3e} <= {BOUND_SLACK:.0e}; "
        f"suite built in {seconds:.1f}s (< 60s)",
    )
    assert len(runs) >= 500
    assert worst <= BOUND_SLACK
    assert seconds < 60.0


def test_criterion_2_envelope_dominates_det_bound(bound_suite):
    runs = bound_suite["runs"]
    violations = [r for r in runs if r.det_bound > r.simple_bound]
    margin = min(r.simple_bound - r.det_bound for r in runs)
    ok = not violations
    report_line(
        2,
        ok,
        f"det_bound <= closed-form envelope on all {len(runs)} normalized-class "
        f"runs (exact, no tolerance; smallest margin {margin:.3e})",
    )
    assert not violations


def test_criterion_3_recursive_matches_dense(bound_suite):
    runs = bound_suite["runs"]
    worst = max(r.dense_gap for r in runs)
    ok = worst <= 1e-8
    report_line(
        3,
        ok,
        f"blocked engine vs independent per-step LU audit: worst relative gap "
        f"{worst:.3e} <= 1e-8 over {len(runs)} runs",
    )
    assert worst <= 1e-8


# ------------------------------------------------------------- criterion 4


def test_criterion_4_lower_bound_rate():
    start = time.perf_counter()
    spec = AdversarySpec(
        kind=AdversaryKind.SIGN_FLIP_LAG, beta_C=1.0, bound_A=1.0, horizon_n=8192, seed=20240
    )
    table = estimate_lower_bound(spec, list(SUITE_N_GRID), trials=2000)
    seconds = time.perf_counter() - start
    z_scores = [r.mean_regret / r.std_error for r in table.rows]
    ln_n = np.log([r.n for r in table.rows])
    means = np.array([r.mean_regret for r in table.rows])
    slope_early = float(np.polyfit(ln_n[:4], means[:4], 1)[0])
    slope_late = float(np.polyfit(ln_n[3:], means[3:], 1)[0])
    agreement = abs(slope_late - slope_early) / abs(slope_early)
    ok = (
        all(z > 3.0 for z in z_scores)
        and table.fitted_slope_vs_ln_n > 0
        and slope_early > 0
        and slope_late > 0
        and agreement <= 0.30
        and seconds < 300.0
    )
    report_line(
        4,
        ok,
        f"mean regret positive at all 7 horizons (min z={min(z_scores):.1f} > 3); "
        f"slope vs ln n {table.fitted_slope_vs_ln_n:.3f} > 0, first/second-half "
        f"agreement {agreement:.1%} <= 30%; {seconds:.1f}s (< 300s)",
    )
    assert all(z > 3.0 for z in z_scores)
    assert table.fitted_slope_vs_ln_n > 0
    assert slope_early > 0 and slope_late > 0
    assert agreement <= 0.30
    assert seconds < 300.0


# ------------------------------------------------------------- criterion 5


def exact_floor(n: int, A: float, beta_C: float = 1.0) -> float:
    """Exact E[Bayes loss - hindsight loss]: enumerate every +-A sequence
    starting at +A, weighted by its beta-mixed likelihood B(S+C,F+C)/B(C,C)."""
    spec = linear_lag(1, 1)
    total = weight_sum = 0.0
    for tail in product((A, -A), repeat=n - 1):
        x = np.array((A,) + tail)
        stays = int(np.sum(x[1:] == x[:-1]))
        flips = (n - 1) - stays
        weight = math.exp(betaln(stays + beta_C, flips + beta_C) - betaln(beta_C, beta_C))
        weight_sum += weight
        preds = bayes_prediction_trace(BoundedSequence(x, A), beta_C, ((1, 1),))
        bayes_loss = float(np.sum((x - preds) ** 2))
        _, hindsight = batch_solve(spec, BoundedSequence(x, A), 0.0)
        total += weight * (bayes_loss - hindsight)
    assert abs(weight_sum - 1.0) < 1e-12
    return total


def test_criterion_5_floor_nonnegative_small_horizons():
    floors = {(n, A): exact_floor(n, A) for n in (2, 3, 4) for A in (0.5, 1.0, 2.0)}
    worst = min(floors.values())
    ok = worst >= -1e-12
    detail = ", ".join(f"L({n})={floors[(n, 1.0)]:.6f}" for n in (2, 3, 4))
    report_line(
        5,
        ok,
        f"exact enumeration, all +-A sequences, n in {{2,3,4}}, A in {{0.5,1,2}}: "
        f"{detail} at A=1; min over all {worst:.3e} >= -1e-12",
    )
    assert worst >= -1e-12
    # hand-derived reference points (A = 1): the gap is 1 deterministically at
    # n = 2, and 11/9 at n = 3 (13/9 and 7/9 patterns at weights 2/3 and 1/3)
    assert floors[(2, 1.0)] == pytest.approx(1.0, abs=1e-12)
    assert floors[(3, 1.0)] == pytest.approx(11.0 / 9.0, abs=1e-12)


# ------------------------------------------------------------- criterion 6


def evidence_quadrature_oracle(spec, seq, h, sigma2):
    F = feature_matrix(spec, seq)[:, 0]
    x = seq.values
    R = float(F @ F)
    center = float(x @ F) / (R + h / sigma2)
    width = math.sqrt(h / (R + h / sigma2))
    grid = np.linspace(center - 14 * width, center + 14 * width, 30001)
    resid = x[None, :] - grid[:, None] * F[None, :]
    logs = -0.5 * grid * grid / sigma2 - np.sum(resid * resid, axis=1) / (2 * h)
    shift = logs.max()
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    integral = float(trapezoid(np.exp(logs - shift), grid))
    return -2.0 * h * (shift + math.log(integral) - 0.5 * math.log(2 * math.pi * sigma2))


def test_criterion_6_evidence_identity():
    rng = np.random.default_rng(606)
    scalar_classes = (
        linear_lag(1, 1),
        linear_lag(2, 1),
        univariate_poly(1),
        monomial_features([{1: 1, 2: 1}]),
    )
    worst = 0.0
    for i in range(50):
        n = int(rng.integers(2, 17))
        seq = BoundedSequence(rng.uniform(-1, 1, n), 1.0)
        spec = scalar_classes[i % len(scalar_classes)]
        h = float(rng.uniform(0.5, 3.0))
        sigma2 = float(rng.uniform(0.5, 3.0))
        closed = mixture_log_evidence(spec, seq, h, sigma2)
        oracle = evidence_quadrature_oracle(spec, seq, h, sigma2)
        worst = max(worst, abs(closed - oracle) / max(1.0, abs(closed)))
    ok = worst <= 1e-4
    report_line(
        6,
        ok,
        f"closed-form evidence vs brute quadrature on 50 scalar instances "
        f"(n <= 16): worst relative gap {worst:.3e} <= 1e-4",
    )
    assert worst <= 1e-4


# ------------------------------------------------------------- criterion 7


def test_criterion_7_derandomization_identity_and_dominance():
    rng = np.random.default_rng(707)
    ridge_pool = (
        ridge_predictor_fn(linear_lag(1, 1), 1.0),
        ridge_predictor_fn(linear_lag(1, 2), 1.0, damped=True),
        ridge_predictor_fn(univariate_poly(2), 0.5, damped=True, clip_to=1.0),
    )
    worst_identity = 0.0
    dominated = True
    for i in range(100):
        n = int(rng.integers(4, 33))
        seq = BoundedSequence(rng.uniform(-1, 1, n), 1.0)
        pool = [
            lambda h, c=float(rng.uniform(-0.5, 0.5)): c,
            lambda h: float(h[-1]) if len(h) else 0.0,
            ridge_pool[i % 3],
        ]
        k = int(rng.integers(1, 4))
        constituents = tuple(pool[j] for j in rng.choice(3, size=k, replace=False))
        weights = rng.dirichlet(np.ones(k))
        rp = RandomizedPredictor(constituents, static_rule(weights), seed=i)
        _, per_step = run_randomized(rp, seq, trials=2)
        analytic = math.fsum(per_step)
        from seqregret import variance_decomposition

        _, variance = variance_decomposition(rp, seq)
        derand_loss = run_predictor_fn(derandomize(rp), seq)
        worst_identity = max(worst_identity, abs(derand_loss - (analytic - variance)))
        dominated = dominated and derand_loss <= analytic + 1e-10
    ok = worst_identity <= 1e-10 and dominated
    report_line(
        7,
        ok,
        f"100 (mixture, sequence) pairs: worst |derandomized - (P_rand - Var)| "
        f"= {worst_identity:.3e} <= 1e-10; derandomized <= P_rand on every pair",
    )
    assert worst_identity <= 1e-10
    assert dominated


# ------------------------------------------------------------- criterion 8


def posterior_mean_enumerated(stays, flips, C):
    return math.exp(betaln(stays + C + 1, flips + C) - betaln(stays + C, flips + C))


def test_criterion_8_posterior_mean_predictor():
    worst = 0.0
    checked = 0
    for n in range(1, 13):
        for tail in product((1.0, -1.0), repeat=n - 1):
            x = np.array((1.0,) + tail)
            hist = BoundedSequence(x, 1.0)
            stays = int(np.sum(x[1:] == x[:-1]))
            flips = (n - 1) - stays
            oracle = (2.0 * posterior_mean_enumerated(stays, flips, 1.0) - 1.0) * x[-1]
            worst = max(worst, abs(bayes_predict(hist, 1.0, 1) - oracle))
            checked += 1
    # spot-check other lags and priors against the same enumeration oracle
    rng = np.random.default_rng(808)
    for k, C in ((2, 0.5), (3, 2.0)):
        for _ in range(200):
            x = np.where(rng.random(12) < 0.5, 1.0, -1.0)
            t = 12
            positions = np.arange(k, t)
            stays = int(np.sum(x[positions] == x[positions - k]))
            flips = int(positions.size) - stays
            oracle = (2.0 * posterior_mean_enumerated(stays, flips, C) - 1.0) * x[t - k]
            worst = max(worst, abs(bayes_predict(BoundedSequence(x, 1.0), C, k) - oracle))
            checked += 1
    ok = worst <= 1e-12
    report_line(
        8,
        ok,
        f"posterior-mean predictor vs beta-integral enumeration on {checked} "
        f"histories (all +-1 sequences n <= 12, plus k=2,3): worst gap {worst:.3e} <= 1e-12",
    )
    assert worst <= 1e-12


# ------------------------------------------------------------- criterion 9


def cli_twice(tmp_path, name, args):
    a, b = tmp_path / f"{name}_a.csv", tmp_path / f"{name}_b.csv"
    assert cli_main([*args, "--out", str(a)]) == 0
    assert cli_main([*args, "--out", str(b)]) == 0
    return a.read_bytes(), b.read_bytes()


def test_criterion_9_seeded_cli_reruns_byte_identical(tmp_path):
    commands = {
        "regret": ["regret", "--family", "adversarial", "--seed", "17", "--n", "256"],
        "lowerbound": ["lowerbound", "--seed", "23", "--n", "256", "--trials", "40"],
        "compare": ["compare", "--family", "walk", "--seed", "29", "--n", "128"],
        "identity": ["identity", "--family", "walk", "--seed", "31", "--n", "64", "--trials", "60"],
    }
    all_equal = True
    for name, args in commands.items():
        first, second = cli_twice(tmp_path, name, args)
        all_equal = all_equal and first == second and len(first) > 0

    # one pair through a fresh interpreter as well (separate processes), importing
    # the package this suite imported, installed or not
    package_root = str(Path(seqregret.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    sub_a, sub_b = tmp_path / "proc_a.csv", tmp_path / "proc_b.csv"
    for target in (sub_a, sub_b):
        proc = subprocess.run(
            [
                sys.executable, "-m", "seqregret.cli", "regret", "--family", "walk",
                "--seed", "41", "--n", "128", "--out", str(target),
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
    subprocess_equal = sub_a.read_bytes() == sub_b.read_bytes()

    ok = all_equal and subprocess_equal
    report_line(
        9,
        ok,
        f"byte-identical CSV on repeat seeded runs: {len(commands)} subcommands "
        f"in-process plus one subprocess pair",
    )
    assert all_equal
    assert subprocess_equal
