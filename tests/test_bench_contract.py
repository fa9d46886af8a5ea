"""The benchmark's traced run keeps working: its wrappers fit the program's signatures.

`perfbench/tracing.py` wraps the public functions of each layer and reads their
arguments by position (for example `len(args[1])` of `cli.bound_trace` is the
step count).  These tests run two of the `long` workload's commands and the
monomial regret floor at a small size, and the `mixture` workload's command at
its own size, under those wrappers, so a signature change that would break a
traced benchmark run fails here first.
"""

import contextlib
import io
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracing  # noqa: E402

from seqregret import cli  # noqa: E402

N = 512


def bindings():
    """Every attribute of every module the tracer patches, by dotted name."""
    return {f"{mod.__name__}.{attr}": value for mod in tracing._modules() for attr, value in vars(mod).items()}


def span_work(rec, name):
    spans = rec.arrays()
    nid = rec.names.index(name)
    return spans["work"][spans["name_id"] == nid].tolist()


@pytest.fixture
def traced_main():
    """cli.main run under the tracer; yields (run, recorder), then checks every binding is restored."""
    before = bindings()
    rec = tracing.Recorder()
    with tracing.traced(rec) as patched:

        def run(*argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
            assert code == 0, err.getvalue()
            return out.getvalue()

        assert "seqregret.cli.bound_trace" in patched and "seqregret.cli.run_online" in patched
        assert "seqregret.adversary.generate" in patched  # wrapped by name, on its home module
        yield run, rec
    after = bindings()
    for name in patched:
        assert after[name] is before[name], name


def test_traced_regret_svg_counts_the_bound_trace_steps(traced_main, tmp_path):
    run, rec = traced_main
    run("regret", "--family", "sinusoid", "--n", str(N), "--m", "4", "--out", str(tmp_path / "r.csv"), "--svg")
    assert span_work(rec, "cli.bound_trace") == [N]
    assert span_work(rec, "predictors.run_online") == [N]
    assert span_work(rec, "svgchart.line_chart") == [2 * N]


def test_traced_compare_runs_the_ridge_engine_once(traced_main):
    run, rec = traced_main
    out = run("compare", "--family", "adversarial", "--seed", "1", "--n", str(N), "--m", "2")
    assert out.splitlines()[0].startswith("algo,")
    assert span_work(rec, "predictors.run_online") == [N]
    assert span_work(rec, "predictors.run_lms") == [N]
    assert "predictors.run_rls" not in rec.names
    metrics = tracing.layer_metrics(rec, 1.0, N)
    assert metrics["cli.compare.rerun_ratio"] == pytest.approx(2 / 3)
    assert np.isfinite(list(metrics.values())).all()


def test_traced_monomial_floor_spans_one_generate_per_trial(traced_main):
    run, rec = traced_main
    trials = 3
    out = run("lowerbound", "--class", "monomial", "--seed", "7", "--n", "256", "--trials", str(trials))
    grid = [int(line.split(",")[0]) for line in out.splitlines()[1:-1]]
    assert grid == [128, 256]
    # one span per (horizon, trial), in draw order, each working on its horizon
    assert span_work(rec, "adversary.generate") == [n for n in grid for _ in range(trials)]
    metrics = tracing.layer_metrics(rec, 1.0, sum(grid) * trials)
    assert metrics["adversary.generate.calls"] == trials * len(grid)
    assert np.isfinite(list(metrics.values())).all()


def test_traced_identity_runs_the_evidence_quadrature_once(traced_main):
    # the mixture workload's command at its size: identity at n = 128 with 400 trials
    run, rec = traced_main
    out = run("identity", "--family", "walk", "--seed", "1", "--n", "128", "--trials", "400")
    assert out.splitlines()[-1].count(",") == out.splitlines()[-2].count(",")  # header and CSV row
    assert len(span_work(rec, "cli.evidence_quadrature")) == 1
    assert len(span_work(rec, "cli.cmd_identity")) == 1
    # the mixture's table comes from the run at delta and one at 2 delta; no history function runs
    assert span_work(rec, "predictors.run_online") == [128, 128]
    assert "randomized.constituent" not in rec.names
    metrics = tracing.layer_metrics(rec, 1.0, 128)
    assert np.isfinite(list(metrics.values())).all()
