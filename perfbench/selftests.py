"""Tests of the benchmark itself (not part of the repository's test suite).

    python3 -m pytest -q perfbench/selftests.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import golden  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKDIR = run.OUT_DIR / "work"


# ------------------------------------------------------------- self times

def synthetic(rows):
    """Recorder filled from (name, parent, start, end, work) rows."""
    rec = tracing.Recorder()
    for name, parent, start, end, work in rows:
        sid = rec.open(name)
        rec.stack.pop()
        rec.parent[sid], rec.start[sid], rec.end[sid], rec.work[sid] = parent, start, end, work
    return rec


NESTED = [
    # root 0..10 holds a 1..4 (with grandchild 2..3) and b 5..9 (with two c's);
    # root 11..12 holds cli.main 11.2..11.9 holding a command 11.3..11.8
    ("bench.op", -1, 0.0, 10.0, 0),
    ("predictors.run_online", 0, 1.0, 4.0, 100),
    ("predictors.update", 1, 2.0, 3.0, 0),
    ("batch.batch_solve.ridge", 0, 5.0, 9.0, 0),
    ("sequences.feature_matrix", 3, 5.5, 6.0, 0),
    ("sequences.feature_matrix", 3, 7.0, 8.5, 0),
    ("bench.op", -1, 11.0, 12.0, 0),
    ("cli.main", 6, 11.2, 11.9, 0),
    ("cli.cmd_regret", 7, 11.3, 11.8, 0),
    ("bench.check", -1, 12.0, 12.5, 0),
]


def test_self_time_is_duration_minus_direct_children():
    a = synthetic(NESTED).arrays()
    got = tracing.self_times(a["parent"], a["start"], a["end"])
    np.testing.assert_allclose(got, [3.0, 2.0, 1.0, 2.0, 0.5, 1.5, 0.3, 0.2, 0.5, 0.5])
    # self times partition the root spans exactly
    roots = a["parent"] < 0
    assert got.sum() == pytest.approx((a["end"] - a["start"])[roots].sum())


def test_layer_metrics_on_synthetic_trace():
    m = tracing.layer_metrics(synthetic(NESTED), traced_wall_s=13.0, sequence_steps=100)
    assert m["predictors.run_online.calls"] == 1
    assert m["predictors.run_online.steps"] == 100
    assert m["predictors.run_online.self_s"] == pytest.approx(2.0)
    assert m["predictors.update.self_s"] == pytest.approx(1.0)
    assert m["batch.batch_solve.calls"] == 1
    assert m["batch.batch_solve.ridge_s"] == pytest.approx(2.0)
    assert m["batch.batch_solve.lstsq_s"] == 0.0
    assert m["sequences.feature_matrix.calls"] == 2
    assert m["sequences.feature_matrix.self_s"] == pytest.approx(2.0)
    assert m["cli.cmd_regret.self_s"] == pytest.approx(0.5)
    assert m["layer.cli.self_s"] == pytest.approx(0.7)
    assert m["layer.bench.self_s"] == pytest.approx(3.8)
    # attributed: 7.5 s of program self time, less cli.main's own 0.2 s; the base
    # is 13 s of wall less 0.5 s of checking; the ops' own 3.3 s, cli.main's 0.2 s
    # and 1.5 s between spans are unattributed
    assert m["trace.accounted_ratio"] == pytest.approx(7.5 / 12.5)
    assert m["trace.unattributed_s"] == pytest.approx(3.3 + 0.2 + 1.5)
    assert set(m) >= {name for name, _ in tracing.PER_LAYER_METRICS} - {"trace.overhead_ratio"}


def test_recorder_nests_and_restores_the_program():
    import seqregret.cli as cli
    import seqregret.randomized as randomized

    orig_update = randomized.update
    rec = tracing.Recorder()
    with tracing.traced(rec) as patched:
        assert randomized.update is not orig_update
        with rec.span("bench.op"):
            state = randomized.init(2, 1.0)
            randomized.update(state, np.ones(2), 0.5)
    assert randomized.update is orig_update
    for name in (
        "randomized.init", "randomized.update", "randomized.predict", "randomized.features",
        "cli.init", "cli.update", "cli.features", "predictors.feature_matrix",
        "batch.feature_matrix", "adversary.batch_solve", "cli.batch_solve",
    ):
        assert f"seqregret.{name}" in patched
    assert cli.update is randomized.update
    a = rec.arrays()
    assert [rec.names[i] for i in a["name_id"]] == ["bench.op", "predictors.init", "predictors.update"]
    assert list(a["parent"]) == [-1, 0, 0]


# --------------------------------------------------------- step accounting

def test_static_step_accounting():
    ops = workloads.build("sweep", 0, WORKDIR)
    assert len(ops) == 336
    assert sum(op.steps for op in ops) == 3 * 28 * sum(workloads.SWEEP_HORIZONS) == 161280
    assert [op.steps for op in workloads.build("long", 0, WORKDIR)] == [16384, 65536, 16384]
    assert [op.steps for op in workloads.build("mixture", 0, WORKDIR)] == [128, 128]


def traced_pass(ops):
    ledger = run.Ledger(None)
    rec = tracing.Recorder()
    with tracing.traced(rec):
        run.run_pass(ops, ledger, rec)
    assert ledger.failed == 0, ledger.messages
    return rec, tracing.layer_metrics(rec, 1.0, sum(op.steps for op in ops))


def test_sweep_steps_are_online_steps():
    ops = workloads.build("sweep", 3, WORKDIR)[::40]
    _, m = traced_pass(ops)
    assert m["predictors.run_online.steps"] == sum(op.steps for op in ops)
    assert m["predictors.run_online.calls"] == len(ops)


def test_mixture_counts_replayed_steps():
    ops = workloads.build("mixture", 3, WORKDIR)[:1]
    _, m = traced_pass(ops)
    n = workloads.MIXTURE_N
    # tables built three times plus the derandomized pass, each call replaying its history
    per_pass = 3 * n * (n - 1) // 2
    assert m["randomized.replay_steps"] == 4 * per_pass
    assert m["randomized.useful_step_ratio"] == pytest.approx(n / (4 * per_pass))
    assert m["predictors.run_online.steps"] == n


def test_op_latency_is_each_ops_slowest_after_the_first_pass():
    passes = [[9.0, 90.0], [2.0, 40.0], [3.0, 20.0], [1.0, 30.0]]
    assert run.op_latencies(passes) == [3.0, 40.0]
    assert run.op_latencies(passes[:1]) == [9.0, 90.0]
    assert run.steps_per_s(workloads.build("mixture", 0, WORKDIR), [0.5, 0.5]) == 256.0


# ------------------------------------------------------------------ goldens

def test_compare_text_tolerance():
    assert golden.compare_text("a,1.0", "a,1.0", 1e-6) is None
    assert golden.compare_text("a,1.0000000001", "a,1.0", 1e-6) is None
    assert "number 0" in golden.compare_text("a,1.001", "a,1.0", 1e-6)
    assert "outside" in golden.compare_text("b,1.0", "a,1.0", 1e-6)


def test_altered_golden_fails_the_op():
    op = workloads.build("sweep", golden.DEFAULT_SEED, WORKDIR)[0]
    goldens = golden.load("sweep")
    ledger = run.Ledger(goldens)
    ledger.check(op, op.run(), None)
    assert (ledger.failed, ledger.golden_identical) == (0, 1)

    fields = goldens[op.name]["report"].split(",")
    fields[4] = repr(float(fields[4]) * 1.001)  # sequential_loss
    altered = {**goldens, op.name: {"report": ",".join(fields)}}
    ledger = run.Ledger(altered)
    ledger.check(op, op.run(), None)
    assert ledger.failed == 1
    assert "golden mismatch in report" in ledger.messages[0]


def test_changed_rerun_and_exceptions_fail_the_op():
    op = workloads.build("sweep", 5, WORKDIR)[0]
    ledger = run.Ledger(None)
    ledger.check(op, op.run(), None)
    ledger.first[op.name] = {"report": "something else"}
    ledger.check(op, op.run(), None)
    ledger.check(op, None, FloatingPointError("boom"))
    assert (ledger.attempted, ledger.failed) == (3, 2)
    assert "differs from the first pass" in ledger.messages[0]
    assert "FloatingPointError: boom" in ledger.messages[1]


def fake_cli_op(monkeypatch, stdout: str):
    """A CLI op whose in-process ``cli.main`` prints ``stdout`` and exits 0."""

    def main(argv):
        print(stdout, end="")
        return 0

    monkeypatch.setattr(workloads.cli, "main", main)
    return workloads._cli_op("fake", ["identity"], 1, WORKDIR)


def test_ragged_stdout_fails_the_op(monkeypatch):
    op = fake_cli_op(monkeypatch, "n,loss\n1,0.5\n2\n")
    ledger = run.Ledger(None)
    ledger.check(op, op.run(), None)
    assert ledger.failed == 1 and "stdout: ragged CSV" in ledger.messages[0]


def test_identity_diagnostics_are_counted_not_failed(monkeypatch):
    op = fake_cli_op(monkeypatch, "n,loss\n1,0.5\nevidence identity: gap=0\nrandomized account: p=1\n")
    ledger = run.Ledger(None)
    ledger.check(op, op.run(), None)
    assert (ledger.failed, ledger.stdout_non_csv_lines) == (0, 2)


def test_cli_exit_code_fails_the_op():
    op = workloads._cli_op("bad", ["regret", "--family", "walk"], 1, WORKDIR)  # walk needs --seed
    ledger = run.Ledger(None)
    ledger.check(op, op.run(), None)
    assert ledger.failed == 1 and "exit 2" in ledger.messages[0]


# ---------------------------------------------------------------- contract

def test_benchmark_json_lists_what_the_run_prints():
    import json

    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.E2E_UNITS
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(tracing.PER_LAYER_METRICS)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program():
    import shutil
    import subprocess

    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no seqregret sources" in proc.stderr

