"""Command-line front end: regret runs, lower-bound experiments, baselines, identities.

Subcommands
-----------
regret      one sequence, one feature class: online run, regret report CSV,
            optional SVG of cumulative certified loss vs the certificate.
lowerbound  Monte-Carlo regret floor over a horizon grid (adversarial draws),
            optional SVG of the floor vs ln n.
compare     universal ridge vs LMS vs RLS (vs the Bayes reference on
            adversarial data) at prefix checkpoints of one sequence.
identity    evidence-identity and randomized/derandomized accounting checks.

Exit codes: 0 = success and all checks passed; 1 = a check failed;
2 = usage, config, or input-parse error, or an array too large to allocate.

Every command is deterministic given its full configuration (seed included):
CSV and SVG outputs are byte-identical across repeat runs.
"""

from __future__ import annotations

import argparse
import math
import re
import sys

import numpy as np

from .adversary import (
    AdversaryKind,
    AdversarySpec,
    bayes_prediction_trace,
    estimate_lower_bound,
    generate,
    sample_theta,
)
from .batch import batch_solve, mixture_log_evidence, regret_report, RegretReport
from .predictors import OnlineRunResult, run_lms, run_online, run_rls
from .randomized import mixture_account
from .sequences import (
    BoundedSequence,
    FeatureSpec,
    feature_matrix,
    linear_lag,
    monomial_features,
    normalization_constant,
    univariate_poly,
)
from .svgchart import line_chart

STOCHASTIC_FAMILIES = ("walk", "adversarial")


class InputFileError(Exception):
    """Raised for malformed sequence or config files; mapped to exit code 2."""


# ---------------------------------------------------------------- input files

def read_sequence_file(path: str) -> BoundedSequence:
    """Parse one real per line; optional '# A=<bound>' header; other # lines ignored.

    Without a header the bound is taken as max |x| (zero for the all-zero
    file), per the declared file format.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputFileError(f"cannot read sequence file {path}: {exc}") from exc
    bound = None
    values: list[float] = []
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text:
            continue
        if text.startswith("#"):
            match = re.match(r"#\s*A\s*=\s*(\S+)\s*$", text)
            if match:
                try:
                    bound = float(match.group(1))
                except ValueError as exc:
                    raise InputFileError(f"{path}:{lineno}: bad bound in header: {text!r}") from exc
            continue
        try:
            values.append(float(text))
        except ValueError as exc:
            raise InputFileError(f"{path}:{lineno}: not a number: {text!r}") from exc
    if not values:
        raise InputFileError(f"{path}: no samples found")
    arr = np.array(values)
    if bound is None:
        bound = float(np.max(np.abs(arr)))
    try:
        return BoundedSequence(arr, bound)
    except ValueError as exc:
        raise InputFileError(f"{path}: {exc}") from exc


def read_config_file(path: str) -> dict[str, str]:
    """Flat key=value file; '#' starts a comment; keys are long flag names."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputFileError(f"cannot read config file {path}: {exc}") from exc
    out: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise InputFileError(f"{path}:{lineno}: expected key=value, got {text!r}")
        key, value = text.split("=", 1)
        key = key.strip().replace("_", "-")
        if not key:
            raise InputFileError(f"{path}:{lineno}: empty key")
        out[key] = value.strip()
    return out


# ----------------------------------------------------------- built sequences

def build_sequence(ns: argparse.Namespace) -> BoundedSequence:
    if ns.input:
        return read_sequence_file(ns.input)
    n, A = ns.n, ns.A
    if ns.family == "zero":
        return BoundedSequence(np.zeros(n), 0.0)
    if ns.family == "sinusoid":
        t = np.arange(1, n + 1)
        return BoundedSequence(A * np.sin(2.0 * math.pi * 0.05 * t), A)
    if ns.family == "walk":
        rng = np.random.default_rng(ns.seed)
        steps = rng.normal(0.0, A / 8.0, size=n)
        return BoundedSequence(np.clip(np.cumsum(steps), -A, A), A)
    if ns.family == "adversarial":
        spec = AdversarySpec(
            kind=AdversaryKind.SIGN_FLIP_LAG,
            beta_C=ns.C,
            bound_A=A,
            horizon_n=n,
            seed=ns.seed,
            lag_k=ns.k,
        )
        rng = np.random.default_rng(np.random.SeedSequence(ns.seed))
        theta = sample_theta(ns.C, rng)
        return generate(spec, theta, rng)
    raise InputFileError(f"unknown family {ns.family!r}")


def checked_sequence(ns: argparse.Namespace, spec: FeatureSpec) -> BoundedSequence:
    """The command's sequence, refused up front when the certificate scale A^2 n / delta
    or the feature scale M^2 n / delta (M the class's worst feature magnitude) overflows."""
    seq = build_sequence(ns)
    if not (ns.delta > 0 and math.isfinite(ns.delta)):
        raise ValueError(f"delta must be positive and finite, got {ns.delta!r}")
    n, A = len(seq), seq.bound_A
    if not math.isfinite(A * A * n / ns.delta):
        raise ValueError(f"A^2 * n / delta overflows (A={A!r}, n={n}, delta={ns.delta!r})")
    try:
        feature_scale = normalization_constant(spec, A) ** 2 * n / ns.delta if A > 0 else 0.0
    except OverflowError:
        feature_scale = math.inf
    if not math.isfinite(feature_scale):
        raise ValueError(
            f"feature scale normalization_constant(spec, A)^2 * n / delta overflows "
            f"(class={spec.label}, m={spec.order_m}, A={A!r}, n={n}, delta={ns.delta!r})"
        )
    return seq


def default_monomials(order_m: int) -> list[dict[int, int]]:
    """Chained products x[t-1]*...*x[t-i] for i = 1..m (degrees 1..m)."""
    return [{lag: 1 for lag in range(1, i + 1)} for i in range(1, order_m + 1)]


def build_feature_spec(ns: argparse.Namespace) -> FeatureSpec:
    if ns.klass == "univar":
        return univariate_poly(ns.m)
    if ns.klass == "linear":
        return linear_lag(ns.k, ns.m)
    return monomial_features(default_monomials(ns.m))


# ------------------------------------------------------------------- outputs

def write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def svg_path_for(out: str | None) -> str:
    if out is None:
        raise InputFileError("--svg requires --out (the chart path is derived from it)")
    stem = out[:-4] if out.endswith(".csv") else out
    return stem + ".svg"


# ------------------------------------------------------------------ commands

def bound_trace(run: OnlineRunResult, seq: BoundedSequence) -> tuple[np.ndarray, np.ndarray]:
    """Per-prefix certified loss and certificate value of an unclipped `run_online(spec, seq, delta)`.

    Returns (cumulative damped loss at each t, penalized hindsight objective
    at prefix t plus A^2 * sum_{s<=t} ln(1 + leverage_s)); the second majorizes
    the first at every prefix under the certified convention.  The objective
    grows at step t by e_t^2 / (1 + leverage_t), e_t = x_t - plain_t (the RLS
    a-priori error identity): a sum of nonnegative terms, which cannot cancel.
    The identity needs the plain predictions, so a clipped run does not serve.
    """
    x = seq.values
    objective = np.cumsum((x - run.predictions) ** 2 / (1.0 + run.leverage))
    certificate = objective + seq.bound_A ** 2 * np.cumsum(np.log1p(run.leverage))
    return np.cumsum((x - run.damped_predictions) ** 2), certificate


def cmd_regret(ns: argparse.Namespace) -> int:
    spec = build_feature_spec(ns)
    seq = checked_sequence(ns, spec)
    run = run_online(spec, seq, ns.delta, clip=ns.clip)
    report = regret_report(spec, seq, ns.delta, run)
    lines = [",".join(RegretReport.CSV_COLUMNS), ",".join(report.csv_row())]
    write_text(ns.out, "\n".join(lines) + "\n")
    if ns.svg:
        steps = np.arange(1.0, len(seq) + 1)
        unclipped = run_online(spec, seq, ns.delta) if ns.clip else run  # bound_trace reads plain predictions
        cum_damped, certificate = bound_trace(unclipped, seq)
        chart = line_chart(
            [("certified loss", steps, cum_damped), ("certificate", steps, certificate)],
            title=f"cumulative certified loss vs certificate ({spec.label}, m={spec.order_m})",
            x_label="t",
            y_label="cumulative squared error",
        )
        write_text(svg_path_for(ns.out), chart)
    if not report.bound_satisfied():
        print(
            f"BOUND CHECK FAILED: certified loss {report.bound_loss!r} > "
            f"{report.batch_loss_ridge!r} + {report.det_bound!r}",
            file=sys.stderr,
        )
        return 1
    return 0


def default_n_grid(n_top: int) -> list[int]:
    grid = []
    n = 128
    while n <= n_top:
        grid.append(n)
        n *= 2
    return grid or [n_top]


def cmd_lowerbound(ns: argparse.Namespace) -> int:
    if ns.klass == "univar":
        raise ValueError("lowerbound has no univar adversary: --class is linear (lag-k sign flips) or monomial")
    if ns.klass == "monomial":
        if ns.m != 1 or ns.k != 1:
            raise ValueError(
                f"lowerbound --class monomial flips the fixed monomial x[t-1]*x[t-2] and fits that one "
                f"feature; --m and --k do not apply (got --m {ns.m}, --k {ns.k})"
            )
        law = dict(kind=AdversaryKind.SIGN_FLIP_MONOMIAL, monomial=((1, 1), (2, 1)))
    else:
        law = dict(kind=AdversaryKind.SIGN_FLIP_LAG, lag_k=ns.k)
    spec = AdversarySpec(beta_C=ns.C, bound_A=ns.A, horizon_n=ns.n, seed=ns.seed, **law)
    table = estimate_lower_bound(spec, default_n_grid(ns.n), ns.trials, order_m=ns.m)
    write_text(ns.out, table.csv_text())
    if ns.svg:
        chart = line_chart(
            [("mean regret", [math.log(r.n) for r in table.rows], [r.mean_regret for r in table.rows])],
            title=f"regret floor vs ln n (trials={ns.trials})",
            x_label="ln n",
            y_label="mean regret",
        )
        write_text(svg_path_for(ns.out), chart)
    failing = [r for r in table.rows if r.mean_regret < -3.0 * r.std_error]
    if failing:
        rows = ", ".join(f"n={r.n}: {r.mean_regret!r} (se {r.std_error!r})" for r in failing)
        print(f"LOWER-BOUND CHECK FAILED: negative mean regret beyond 3 SE at {rows}", file=sys.stderr)
        return 1
    return 0


COMPARE_COLUMNS = ("algo", "n", "m", "class", "delta", "loss", "batch_raw", "regret")
EXTENDED_CSV_COLUMNS = (
    "n", "m", "class", "delta", "seq_loss", "batch_ridge",
    "batch_raw", "regret", "det_bound", "simple_bound",
    "p_rand_mc", "p_rand_analytic", "variance_total",
)


def extended_csv_row(report: RegretReport, p_rand_mc: float, p_rand_analytic: float,
                     variance_total: float) -> list[str]:
    """identity's row: the RegretReport row plus the randomized-account columns."""
    return report.csv_row() + [repr(float(p_rand_mc)), repr(float(p_rand_analytic)), repr(float(variance_total))]


def cmd_compare(ns: argparse.Namespace) -> int:
    spec = build_feature_spec(ns)
    seq = checked_sequence(ns, spec)
    n = len(seq)
    checkpoints = sorted({max(1, n // 8), max(1, n // 4), max(1, n // 2), n})
    # LMS step size: normalized by the worst-case feature energy m M^2, so mu |f_t|^2 <= 0.5
    feature_scale = normalization_constant(spec, seq.bound_A) if seq.bound_A > 0 else 0.0
    mu = ns.mu if ns.mu is not None else 0.5 / (spec.order_m * max(feature_scale, 1.0) ** 2)
    two_valued = seq.bound_A > 0 and bool(
        np.all((seq.values == seq.bound_A) | (seq.values == -seq.bound_A))
    )

    # Online predictions depend only on the prefix (engine blocks start at fixed
    # offsets), so one full run gives each checkpoint's loss bitwise as a rerun.
    def at_checkpoints(per_step_losses: np.ndarray) -> list[float]:
        return [float(np.sum(per_step_losses[:nc])) for nc in checkpoints]

    losses = {
        "universal": at_checkpoints(run_online(spec, seq, ns.delta, clip=ns.clip).per_step_losses),
        "lms": at_checkpoints(run_lms(spec, seq, mu).per_step_losses),
    }
    if ns.forgetting == 1.0 and not ns.clip:  # RLS at lambda = 1 is the unclipped universal run bitwise
        losses["rls"] = losses["universal"]
    else:
        losses["rls"] = at_checkpoints(run_rls(spec, seq, ns.delta, forgetting=ns.forgetting).per_step_losses)
    if two_valued:
        losses["bayes"] = at_checkpoints((seq.values - bayes_prediction_trace(seq, ns.C, ((ns.k, 1),))) ** 2)

    lines = [",".join(COMPARE_COLUMNS)]
    for i, nc in enumerate(checkpoints):
        _, batch_raw = batch_solve(spec, seq.prefix(nc), 0.0)
        for algo, totals in losses.items():
            fields = [algo, str(nc), str(spec.order_m), spec.label, repr(float(ns.delta)), repr(totals[i]),
                      repr(float(batch_raw)), repr(float(totals[i] - batch_raw))]
            lines.append(",".join(fields))
    write_text(ns.out, "\n".join(lines) + "\n")
    return 0


QUADRATURE_POINTS = 20001
QUADRATURE_CHUNK = 2 ** 14  # most residual elements held at once


def evidence_quadrature(spec: FeatureSpec, seq: BoundedSequence, h: float, sigma2: float) -> float:
    """-2h ln of the scale-mixture evidence by brute trapezoid integration.

    Deliberately independent of the algebraic path: integrates the weight
    variable over +-12 posterior widths with log-sum-exp shifting.  Grid
    points are evaluated in chunks of at most QUADRATURE_CHUNK residuals,
    each residual's sum of squares as one dot product.
    """
    F = feature_matrix(spec, seq)[:, 0]
    x = seq.values
    R = float(F @ F)
    r = float(x @ F)
    delta_eff = h / sigma2
    center = r / (R + delta_eff)
    width = math.sqrt(h / (R + delta_eff))
    grid = np.linspace(center - 12.0 * width, center + 12.0 * width, QUADRATURE_POINTS)
    log_vals = np.empty(grid.size)
    rows = max(1, QUADRATURE_CHUNK // max(1, x.size))
    for lo in range(0, grid.size, rows):
        b = grid[lo:lo + rows]
        resid = x[None] - b[:, None] * F[None]
        sq = np.matmul(resid[:, None, :], resid[:, :, None])[:, 0, 0]
        log_vals[lo:lo + rows] = -0.5 * b * b / sigma2 - sq / (2.0 * h)
    shift = float(np.max(log_vals))
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    integral = trapezoid(np.exp(log_vals - shift), grid)
    if not (integral > 0 and math.isfinite(integral)):
        raise ValueError(
            f"evidence quadrature failed: the weight grid around {center!r} (posterior width {width!r}) "
            f"gives integral {float(integral)!r}; delta={delta_eff!r} is too small for it"
        )
    log_evidence = shift + math.log(integral) - 0.5 * math.log(2.0 * math.pi * sigma2)
    return -2.0 * h * log_evidence


IDENTITY_WEIGHTS = (0.5, 0.3, 0.2)


def identity_tables(
    spec: FeatureSpec, seq: BoundedSequence, delta: float, run: OnlineRunResult
) -> tuple[np.ndarray, np.ndarray]:
    """identity's (3, n) prediction and weight tables of its mixture of certified predictors.

    The constituents are the damped ridge predictor at delta, the same clipped
    to [-A, A], and the damped predictor at 2 delta, weighted IDENTITY_WEIGHTS at
    every step.  Their rows come from `run` (the caller's `run_online` at delta;
    a clip moves only its plain trace) and a run at 2 delta.  Engine blocks start
    at fixed offsets and every step is solved on its own, so each row equals the
    predictor called on every prefix bitwise (held by tests/test_randomized.py).
    """
    damped = run.damped_predictions
    preds = np.stack([
        damped,
        np.clip(damped, -seq.bound_A, seq.bound_A),
        run_online(spec, seq, 2.0 * delta).damped_predictions,
    ])
    probs = np.broadcast_to(np.array(IDENTITY_WEIGHTS)[:, None], preds.shape)
    return preds, probs


def cmd_identity(ns: argparse.Namespace) -> int:
    spec = build_feature_spec(ns)
    seq = checked_sequence(ns, spec)
    failures: list[str] = []

    # evidence identity on the scalar restriction of the chosen class
    scalar_spec = build_feature_spec(argparse.Namespace(klass=ns.klass, k=ns.k, m=1))
    h = 2.0 * ns.delta
    sigma2 = 2.0  # delta_eff = h / sigma2 = delta
    algebraic = mixture_log_evidence(scalar_spec, seq, h, sigma2)
    quadrature = evidence_quadrature(scalar_spec, seq, h, sigma2)
    rel_gap = abs(algebraic - quadrature) / max(1.0, abs(algebraic))
    print(f"evidence identity: algebraic={algebraic!r} quadrature={quadrature!r} rel_gap={rel_gap:.3e}")
    if rel_gap > 1e-4:
        failures.append(f"evidence identity mismatch (rel gap {rel_gap:.3e})")

    # randomized mixture of certified predictors vs its derandomization
    run = run_online(spec, seq, ns.delta, clip=ns.clip)
    preds, probs = identity_tables(spec, seq, ns.delta, run)
    account = mixture_account(seq.values, preds, probs, ns.trials, ns.seed)
    p_rand_mc = account.mc_mean
    p_rand_analytic = float(math.fsum(account.per_step))
    variance_total = account.variance
    derand_loss = account.derandomized_loss

    decomposition_gap = abs(account.bias_sq + variance_total - p_rand_analytic)
    identity_gap = abs(derand_loss - (p_rand_analytic - variance_total))
    scale = max(1.0, p_rand_analytic)
    print(
        f"randomized account: p_rand_mc={p_rand_mc!r} p_rand_analytic={p_rand_analytic!r} "
        f"variance_total={variance_total!r} derandomized_loss={derand_loss!r}"
    )
    if decomposition_gap > 1e-10 * scale:
        failures.append(f"bias+variance decomposition gap {decomposition_gap:.3e}")
    if identity_gap > 1e-10 * scale:
        failures.append(f"derandomized-loss identity gap {identity_gap:.3e}")
    if derand_loss > p_rand_analytic + 1e-10 * scale:
        failures.append("derandomization failed to dominate the randomized loss")

    report = regret_report(spec, seq, ns.delta, run)
    lines = [
        ",".join(EXTENDED_CSV_COLUMNS),
        ",".join(extended_csv_row(report, p_rand_mc, p_rand_analytic, variance_total)),
    ]
    write_text(ns.out, "\n".join(lines) + "\n")

    for message in failures:
        print(f"IDENTITY CHECK FAILED: {message}", file=sys.stderr)
    return 1 if failures else 0


# -------------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqregret",
        description="Sequential prediction experiments: regret certificates, "
        "lower-bound floors, baselines, and randomization identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(
        p: argparse.ArgumentParser, with_sequence: bool, with_chart: bool = False, with_trials: bool = False
    ) -> None:
        p.add_argument("--config", help="flat key=value file; explicit flags override it")
        p.add_argument("--seed", type=int, default=None, help="RNG seed (required for stochastic runs)")
        p.add_argument("--A", type=float, default=1.0, help="amplitude bound for generated sequences")
        p.add_argument(
            "--class", dest="klass", choices=("univar", "monomial", "linear"), default="linear",
            help="feature class (univar: powers of x[t-1]; linear: lagged window; "
            "monomial: chained lag products)",
        )
        p.add_argument("--m", type=int, default=1, help="number of features")
        p.add_argument("--k", type=int, default=1, help="prediction lookahead / adversary lag")
        p.add_argument("--n", type=int, default=256, help="sequence length / top of horizon grid")
        if with_trials:
            p.add_argument("--trials", type=int, default=200, help="Monte-Carlo trials")
        p.add_argument("--C", type=float, default=None,
                       help="beta prior parameter of the adversary; read by lowerbound, by --family "
                       "adversarial without --input, and by compare's bayes rows on an --input file")
        p.add_argument("--out", default=None, help="CSV output path (default: stdout)")
        if with_chart:
            p.add_argument("--svg", action="store_true", help="also write a chart next to --out")
        if with_sequence:
            p.add_argument("--delta", type=float, default=1.0, help="ridge regularizer (> 0)")
            p.add_argument("--clip", action="store_true", help="clamp online predictions to [-A, A]")
            p.add_argument("--input", default=None, help="sequence file (one real per line, optional '# A=' header)")
            p.add_argument(
                "--family", choices=("zero", "sinusoid", "walk", "adversarial"), default="sinusoid",
                help="built-in sequence generator when --input is absent",
            )

    p_regret = sub.add_parser("regret", help="one online run + regret certificate")
    add_common(p_regret, with_sequence=True, with_chart=True)

    p_lower = sub.add_parser("lowerbound", help="Monte-Carlo regret floor on a horizon grid")
    add_common(p_lower, with_sequence=False, with_chart=True, with_trials=True)

    p_compare = sub.add_parser("compare", help="universal vs LMS vs RLS (vs Bayes on two-valued data)")
    add_common(p_compare, with_sequence=True)
    p_compare.add_argument("--mu", type=float, default=None, help="LMS step size (default: 0.5 / (m*max(M,1)^2), M = worst |f|)")
    p_compare.add_argument("--forgetting", type=float, default=1.0,
                           help="RLS forgetting factor in (0, 1]: discounts the ridge statistics and regularizer per step")

    p_identity = sub.add_parser("identity", help="evidence + randomization identity checks")
    add_common(p_identity, with_sequence=True, with_trials=True)

    return parser


def _with_config(argv: list[str], ns: argparse.Namespace) -> list[str]:
    """`argv` with the entries of config file `ns.config` spliced in as flags ahead
    of the explicit ones, which override them: 'svg=true' style booleans become
    bare flags, everything else --key=value.  A boolean for a flag the command
    lacks is refused whatever its value, as the bare flag would be."""
    synthesized: list[str] = []
    for key, value in read_config_file(ns.config).items():
        if key == "config":
            raise InputFileError(f"config key {key!r}: a config file cannot name another config file")
        if key in ("svg", "clip"):
            if not hasattr(ns, key):
                raise InputFileError(
                    f"config key {key!r}: unrecognized arguments: --{key} ({ns.command} has no such flag)"
                )
            if value.lower() in ("1", "true", "yes", "on"):
                synthesized.append(f"--{key}")
            elif value.lower() not in ("0", "false", "no", "off"):
                raise InputFileError(f"config key {key!r}: expected a boolean, got {value!r}")
        else:
            synthesized.append(f"--{key}={value}")
    at = argv.index(ns.command) + 1
    return [*argv[:at], *synthesized, *argv[at:]]


def _prior_read(ns: argparse.Namespace) -> bool:
    """Whether the command reads --C: lowerbound's adversary, a generated adversarial
    sequence, or compare's bayes rows on an --input file (two-valued data)."""
    if ns.command == "lowerbound":
        return True
    if ns.input is None:
        return ns.family == "adversarial"
    return ns.command == "compare"


def _needs_seed(ns: argparse.Namespace) -> bool:
    if ns.command == "lowerbound":
        return True
    if ns.command == "identity":
        return True  # the randomized Monte-Carlo path always draws
    family = getattr(ns, "family", None)
    return getattr(ns, "input", None) is None and family in STOCHASTIC_FAMILIES


_parser: argparse.ArgumentParser | None = None  # built by the first `main` call, not at import


def main(argv: list[str] | None = None) -> int:
    global _parser
    argv = list(sys.argv[1:] if argv is None else argv)
    if _parser is None:
        _parser = build_parser()
    try:
        ns = _parser.parse_args(argv)
        if ns.config is not None:
            ns = _parser.parse_args(_with_config(argv, ns))
        if _needs_seed(ns) and ns.seed is None:
            raise ValueError(f"{ns.command} is stochastic here; --seed is required")
        if ns.seed is None:
            ns.seed = 0
        if not 0 <= ns.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if ns.C is not None and not _prior_read(ns):
            source = f"--input {ns.input}" if ns.input is not None else f"--family {ns.family}"
            raise ValueError(
                f"--C is not read by {ns.command} on {source}: the beta prior applies to --family "
                f"adversarial without --input, to lowerbound, and to compare's bayes rows on an --input file"
            )
        if ns.C is None:
            ns.C = 1.0
        # looked up per call, not stored in the shared parser: a cmd_* rebound after the
        # first call (perfbench/tracing.py wraps them) is the one that runs
        return globals()[f"cmd_{ns.command}"](ns)
    except SystemExit as exc:  # argparse's usage errors and --help
        return int(exc.code or 0)
    except (InputFileError, ValueError, FloatingPointError, OverflowError, MemoryError,
            np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
