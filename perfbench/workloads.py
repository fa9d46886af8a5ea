"""The three benchmark workloads: what each operation runs and how it is checked.

Every workload is a fixed list of operations built from the workload seed.
One pass runs the list once, back to back, in one process (a closed loop with
one client).  Each operation reports the sequence steps it processes, so
throughput is comparable across workloads of different shapes:

* ``sweep``   one cell = run_online(verify_dense=True) + regret_report +
              bound_satisfied; steps = n of the cell's sequence.
* ``long``    one CLI command on a long sequence; steps = n.
* ``mixture`` one ``identity`` command; steps = n.

The program sees only generated inputs: sequences (sweep) or argv lists.
"""

from __future__ import annotations

import io
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from seqregret import adversary, batch, cli, predictors
from seqregret.sequences import BoundedSequence, linear_lag, monomial_features, univariate_poly

WORKLOADS = ("sweep", "long", "mixture")

# sweep: the shape of acceptance criterion 1 at horizons 2^7..2^10
SWEEP_FAMILIES = ("sinusoid", "walk", "adversarial")
SWEEP_AMPLITUDES = (0.5, 1.0, 2.0)
SWEEP_HORIZONS = (128, 256, 512, 1024)
DENSE_GAP_LIMIT = 1e-8  # criterion 3's recursive-vs-dense tolerance

# mixture: identity length and Monte-Carlo trials
MIXTURE_N = 128
MIXTURE_TRIALS = 400


@dataclass
class Outcome:
    """What one operation produced: named text artifacts plus check results."""

    artifacts: dict[str, str]
    problems: list[str]
    stdout_non_csv_lines: int = 0


@dataclass
class Op:
    name: str
    steps: int
    run: Callable[[], object]  # the timed call into the program
    collect: Callable[[object], Outcome]  # untimed: read outputs and run the program's own checks


def derived_seed(seed: int, *key: int) -> int:
    """A 32-bit seed for one input, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


# --------------------------------------------------------------------- sweep

def sweep_sequence(family: str, A: float, n: int, seed: int) -> BoundedSequence:
    """The sequence families of acceptance criterion 1."""
    if family == "sinusoid":
        t = np.arange(1, n + 1)
        return BoundedSequence(A * np.sin(2.0 * math.pi * 0.05 * t), A)
    rng = np.random.default_rng(seed)
    if family == "walk":
        return BoundedSequence(np.clip(np.cumsum(rng.normal(0.0, A / 8.0, n)), -A, A), A)
    spec = adversary.AdversarySpec(
        kind=adversary.AdversaryKind.SIGN_FLIP_LAG, beta_C=1.0, bound_A=A, horizon_n=n, seed=seed
    )
    return adversary.generate(spec, adversary.sample_theta(1.0, rng), rng)


def sweep_classes(A: float):
    """Criterion 1's class grid: linear windows at every A, the rest at A <= 1."""
    grid = [(linear_lag(1, m), 1.0) for m in (1, 2, 4, 8)]
    grid += [(linear_lag(1, m), 0.25) for m in (1, 4)]
    if A <= 1.0:
        grid += [(univariate_poly(m), 1.0) for m in (1, 2, 3, 4)]
        grid += [(monomial_features([{1: 1}, {1: 1, 2: 1}]), 1.0)]
    return grid


REPORT_FIELDS = (
    "n", "order_m", "class_label", "delta", "sequential_loss", "batch_loss_ridge",
    "batch_loss_unregularized", "regret_vs_unregularized", "det_bound", "simple_bound", "bound_loss",
)


def _sweep_op(name, spec, seq, delta) -> Op:
    def run():
        # module attributes are looked up per call so the traced run sees its wrappers
        online = predictors.run_online(spec, seq, delta, verify_dense=True)
        report = batch.regret_report(spec, seq, delta, online)
        return online, report, report.bound_satisfied()

    def collect(result) -> Outcome:
        online, report, satisfied = result
        problems = []
        if not satisfied:
            problems.append(f"certificate violated: {report.bound_loss!r} > {report.batch_loss_ridge!r} + {report.det_bound!r}")
        if not online.max_dense_gap <= DENSE_GAP_LIMIT:
            problems.append(f"recursive vs dense gap {online.max_dense_gap!r} > {DENSE_GAP_LIMIT}")
        text = ",".join(repr(getattr(report, f)) for f in REPORT_FIELDS)
        return Outcome({"report": text}, problems)

    return Op(name, len(seq), run, collect)


def sweep_ops(seed: int) -> list[Op]:
    ops = []
    for fi, family in enumerate(SWEEP_FAMILIES):
        for n in SWEEP_HORIZONS:
            for ai, A in enumerate(SWEEP_AMPLITUDES):
                seq = sweep_sequence(family, A, n, derived_seed(seed, fi, n, ai))
                for spec, delta in sweep_classes(A):
                    name = f"{family}/A{A:g}/n{n}/{spec.label}-m{spec.order_m}/d{delta:g}"
                    ops.append(_sweep_op(name, spec, seq, delta))
    return ops


# ----------------------------------------------------------------- CLI ops

@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


# identity prints these diagnostics into the CSV on its stdout; they are
# counted, not failed, so the defect stays visible in the record
STDOUT_DIAGNOSTICS = ("evidence identity:", "randomized account:")


def _ragged_lines(text: str, label: str, problems: list[str]) -> list[str]:
    """Lines that do not have the header's column count (none for pure CSV)."""
    lines = text.splitlines()
    header = next((ln for ln in lines if ln.count(",") > 0), None)
    if header is None:
        problems.append(f"{label}: no CSV header")
        return []
    return [ln for ln in lines if ln.count(",") != header.count(",")]


def _cli_op(name: str, argv: list[str], steps: int, workdir: Path, files: tuple[str, ...] = ()) -> Op:
    """One in-process ``seqregret.cli.main`` call.

    CSV goes to stdout unless the command writes files (``--svg`` needs
    ``--out``).  stdout and stderr are captured.  Ragged CSV fails the op,
    except ``identity``'s diagnostic lines on stdout, which are counted as
    non-CSV lines and kept.
    """
    paths = [workdir / f for f in files]

    def run():
        for p in paths:
            p.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return CliResult(code, out.getvalue(), err.getvalue())

    def collect(result: CliResult) -> Outcome:
        problems = []
        if result.code != 0:
            problems.append(f"exit {result.code}: {result.stderr.strip()[:200]}")
        artifacts = {}
        non_csv = 0
        if result.stdout or not files:
            artifacts["stdout"] = result.stdout
            ragged = _ragged_lines(result.stdout, "stdout", problems)
            non_csv = sum(1 for ln in ragged if ln.startswith(STDOUT_DIAGNOSTICS))
            if len(ragged) > non_csv:
                problems.append("stdout: ragged CSV")
        for f, p in zip(files, paths):
            if not p.exists():
                problems.append(f"missing output {f}")
                continue
            artifacts[f] = p.read_text(encoding="utf-8")
            if f.endswith(".csv") and _ragged_lines(artifacts[f], f, problems):
                problems.append(f"{f}: ragged CSV")
        return Outcome(artifacts, problems, non_csv)

    return Op(name, steps, run, collect)


def long_ops(seed: int, workdir: Path) -> list[Op]:
    out = str(workdir / "long_regret_svg.csv")
    return [
        _cli_op(
            "regret-svg/sinusoid/linear-m4/n16384",
            ["regret", "--family", "sinusoid", "--n", "16384", "--class", "linear", "--m", "4",
             "--out", out, "--svg"],
            16384, workdir, ("long_regret_svg.csv", "long_regret_svg.svg"),
        ),
        _cli_op(
            "regret/walk/monomial-m3/n65536",
            ["regret", "--family", "walk", "--seed", str(derived_seed(seed, 1)), "--n", "65536",
             "--class", "monomial", "--m", "3"],
            65536, workdir,
        ),
        _cli_op(
            "compare/adversarial/linear-m2/n16384",
            ["compare", "--family", "adversarial", "--seed", str(derived_seed(seed, 2)), "--n", "16384",
             "--m", "2"],
            16384, workdir,
        ),
    ]


def mixture_ops(seed: int, workdir: Path) -> list[Op]:
    common = ["--n", str(MIXTURE_N), "--trials", str(MIXTURE_TRIALS)]
    return [
        _cli_op(
            f"identity/{family}/n{MIXTURE_N}",
            ["identity", "--family", family, "--seed", str(derived_seed(seed, i)), *common],
            MIXTURE_N, workdir,
        )
        for i, family in enumerate(("walk", "adversarial"), start=1)
    ]


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    """The operation list of one pass of ``workload`` at ``seed``."""
    if workload == "sweep":
        return sweep_ops(seed)
    builders = {"long": long_ops, "mixture": mixture_ops}
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    workdir.mkdir(parents=True, exist_ok=True)
    return builders[workload](seed, workdir)
