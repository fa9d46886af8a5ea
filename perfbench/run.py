"""seqregret benchmark: one workload, one closed-loop client, checked outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` runs untraced passes for half the time (the last of them is
the base of ``trace.overhead_ratio``), then exactly one pass with every layer
wrapper installed, and reports the per-layer metrics of that pass.

The benchmark imports seqregret from ``src/`` next to this directory and
refuses to run without it.  stdout ends with a record line (provenance,
sample counts, failures, golden statistics) and, last, the result line:
``{"correct", "attempted", "failed", "metrics"}``.  A readable table goes to
stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

SETUP_SLOTS = 8
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "GOTO_NUM_THREADS", "NUMEXPR_NUM_THREADS",
)
E2E_UNITS = {"setup_s": "s", "steps_per_s": "steps/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("sweep", "long", "mixture"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2 ** 63:
        p.error("--seed must be a nonnegative 63-bit integer")
    return args


def import_program():
    """Import seqregret from this checkout's src/, never from anywhere else."""
    if not (SRC / "seqregret" / "__init__.py").is_file():
        raise ImportError(f"no seqregret sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import seqregret

    if Path(seqregret.__file__).resolve().parent != SRC / "seqregret":
        raise ImportError(f"seqregret imported from {seqregret.__file__}, not from {SRC}")
    return seqregret


# ---------------------------------------------------------------- provenance

def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(workload: str, seed: int, argv) -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for f in sorted((SRC / "seqregret").glob("*.py")):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "argv": list(argv),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
    }


# --------------------------------------------------------------------- setup

def setup(workload: str, seed: int):
    """Build the workload's operations and load its goldens."""
    import golden
    import workloads

    ops = workloads.build(workload, seed, OUT_DIR / "work")
    goldens = golden.load(workload)
    return ops, goldens


def time_setup(args) -> float:
    """Wall time of a fresh interpreter that imports seqregret and runs setup()."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    t0 = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"setup child failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    return elapsed


# ---------------------------------------------------------------------- loop

class Ledger:
    """Failure, rerun and golden bookkeeping across every pass of a run."""

    def __init__(self, goldens):
        self.goldens = goldens  # None away from the default seed
        self.first: dict[str, dict[str, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.golden_compared = 0
        self.golden_identical = 0
        self.stdout_non_csv_lines = 0

    def check(self, op, result, error) -> None:
        import golden
        from workloads import Outcome

        if error is not None:
            outcome = Outcome({}, [f"{type(error).__name__}: {error}"])
        else:
            outcome = op.collect(result)
        problems = list(outcome.problems)
        if op.name in self.first:
            if outcome.artifacts != self.first[op.name]:
                problems.append("output differs from the first pass of this run")
        else:
            self.first[op.name] = outcome.artifacts
            self.stdout_non_csv_lines += outcome.stdout_non_csv_lines
            if self.goldens is not None:
                golden_problems, identical = golden.compare(outcome.artifacts, self.goldens.get(op.name))
                problems += golden_problems
                self.golden_compared += len(outcome.artifacts)
                self.golden_identical += identical
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(f"{op.name}: {'; '.join(problems)}")


def run_pass(ops, ledger: Ledger, rec=None) -> list[float]:
    """Run every op once; returns each op's latency (program time only)."""
    latencies = []
    for op in ops:
        error = result = None
        if rec is not None:
            sid = rec.open("bench.op")
        t0 = perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # an op that raises is a failed op, not a failed benchmark
            error = exc
        latencies.append(perf_counter() - t0)
        if rec is not None:
            rec.close(sid)
            with rec.span("bench.check"):
                ledger.check(op, result, error)
        else:
            ledger.check(op, result, error)
    return latencies


def run_phase(ops, ledger: Ledger, budget_s: float, after_pass=None) -> list[list[float]]:
    """Whole passes, back to back, while the next one should still fit the budget.

    ``after_pass(elapsed_s)`` runs between passes, inside the budget.
    """
    passes: list[list[float]] = []
    t0 = perf_counter()
    last = 0.0
    while not passes or perf_counter() - t0 + last <= budget_s:
        p0 = perf_counter()
        passes.append(run_pass(ops, ledger))
        if after_pass is not None:
            after_pass(perf_counter() - t0)
        last = perf_counter() - p0
    return passes


def steps_per_s(ops, latencies: list[float]) -> float:
    return sum(op.steps for op in ops) / sum(latencies)


def op_latencies(passes: list[list[float]]) -> list[float]:
    """Each op's slowest latency over the passes of a run, after the first.

    The first pass fills caches and finishes lazy imports, so it is left out
    when there are others.  On a shared host an op runs at one of two speeds,
    alone or beside a neighbour's load, and the share of each shifts over
    minutes.  An op's slowest sample stays with the contended speed unless
    the whole run was uncontended; the mean, the median and the quartiles
    follow the share (README, "Host noise").
    """
    return [max(samples) for samples in zip(*(passes[1:] or passes))]


# -------------------------------------------------------------------- output

def emit(record: dict, ledger: Ledger, metrics: dict[str, tuple[float, str]]) -> None:
    width = max(len(k) for k in metrics)
    lines = [f"{k:<{width}}  {v:>14.6g}  {u}" for k, (v, u) in metrics.items()]
    failed_ratio = ledger.failed / max(ledger.attempted, 1)
    lines.append(f"{'failed_ratio':<{width}}  {failed_ratio:>14.6g}  fraction "
                 f"({ledger.failed} of {ledger.attempted} ops)")
    print("\n".join(lines), file=sys.stderr)
    for msg in ledger.messages:
        print(f"FAILED {msg}", file=sys.stderr)
    record["failed_ratio"] = failed_ratio
    record["failures"] = ledger.messages
    record["golden"] = (
        {"compared": ledger.golden_compared, "byte_identical": ledger.golden_identical}
        if ledger.goldens is not None else None
    )
    # identity prints its diagnostics into the CSV on stdout; keep that visible
    record["stdout_non_csv_lines"] = ledger.stdout_non_csv_lines
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    try:
        import_program()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        setup(args.workload, args.seed)
        return 0

    import golden

    record = {"provenance": provenance(args.workload, args.seed, argv), "mode": "trace" if args.trace else "end_to_end"}
    ops, goldens = setup(args.workload, args.seed)
    ledger = Ledger(goldens if args.seed == golden.DEFAULT_SEED else None)
    record.update(ops_per_pass=len(ops), steps_per_pass=sum(op.steps for op in ops))

    if not args.trace:
        # set-up samples are spread over the run, so they see the same host
        # speeds as the passes: one now, then at most one per slot of the budget
        setup_samples = [time_setup(args)]

        def sample_setup(elapsed_s: float) -> None:
            if elapsed_s >= len(setup_samples) * args.seconds / SETUP_SLOTS:
                setup_samples.append(time_setup(args))

        passes = run_phase(ops, ledger, args.seconds, sample_setup)
        latencies = op_latencies(passes)
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "steps_per_s": steps_per_s(ops, latencies),
            "op_p50_ms": 1e3 * statistics.median(latencies),
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record.update(setup_samples_s=setup_samples, passes=len(passes),
                      op_samples=len(ops) * max(len(passes) - 1, 1),
                      pass_steps_per_s=[steps_per_s(ops, p) for p in passes])
        emit(record, ledger, {k: (v, E2E_UNITS[k]) for k, v in metrics.items()})
        return 0

    import tracing

    untraced = run_phase(ops, ledger, args.seconds / 2)
    # the host's speed drifts, so the traced pass is compared with the
    # untraced pass that ran just before it
    base = steps_per_s(ops, untraced[-1])
    rec = tracing.Recorder()
    with tracing.traced(rec) as patched:
        t0 = perf_counter()
        traced_latencies = run_pass(ops, ledger, rec)
        wall = perf_counter() - t0
    per_layer = tracing.layer_metrics(rec, wall, sum(op.steps for op in ops))
    per_layer["trace.overhead_ratio"] = steps_per_s(ops, traced_latencies) / base
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    trace_file = OUT_DIR / f"trace_{args.workload}_seed{args.seed}.npz"
    rec.write(trace_file)
    record.update(untraced_passes=len(untraced), traced_wall_s=wall, spans=len(rec.name_id),
                  patched=patched, trace_file=str(trace_file.relative_to(ROOT)))
    units = dict(tracing.PER_LAYER_METRICS)
    emit(record, ledger, {k: (per_layer[k], units[k]) for k, _ in tracing.PER_LAYER_METRICS})
    return 0


if __name__ == "__main__":
    sys.exit(main())
