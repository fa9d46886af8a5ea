"""Span tracing for the benchmark's traced run.

Spans come only from wrappers installed here, around the public functions of
each seqregret layer; nothing inside ``src/`` is changed.  A wrapper replaces
the function on its home module *and* on every seqregret module that imported
it by name (``from .predictors import update``), so nested calls are
attributed even where the caller never goes through the home module.

Spans are kept in memory as flat arrays (name id, parent id, start, end,
work) and written once, after the traced pass.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("sequences", "predictors", "batch", "adversary", "randomized", "cli", "svgchart")
BENCH_LAYER = "bench"


class Recorder:
    """In-memory span store with an open-span stack (single-threaded)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.work.append(0)
        self.stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int) -> float:
        t = perf_counter()
        self.end[sid] = t
        self.stack.pop()
        return t - self.start[sid]

    def inside(self, name: str) -> bool:
        nid = self._ids.get(name)
        return nid is not None and any(self.name_id[s] == nid for s in self.stack)

    @contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield sid
        finally:
            self.close(sid)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "work": np.frombuffer(self.work, dtype=np.int64).copy(),
        }

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the summed durations of its direct children."""
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur - covered


# ------------------------------------------------------------------ wrappers
#
# Each target is (module, function, span name or name-chooser, hook).  The hook
# runs after the call with (recorder, span id, duration, args, kwargs, result)
# and may set the span's work value or bump counters.

def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _hook_run(rec, sid, dur, args, kwargs, result):
    """run_online / run_lms / run_rls: work is the step count."""
    n = len(_arg(args, kwargs, 1, "seq"))
    rec.work[sid] = n
    if rec.inside("cli.cmd_compare"):
        rec.counters["cli.compare.run_steps"] += n


def _hook_run_online(rec, sid, dur, args, kwargs, result):
    _hook_run(rec, sid, dur, args, kwargs, result)
    m = _arg(args, kwargs, 0, "spec").order_m
    rec.counters[f"predictors.run_online.steps.m{m}"] += rec.work[sid]
    rec.counters[f"predictors.run_online.incl_s.m{m}"] += dur


def _hook_steps(rec, sid, dur, args, kwargs, result):
    rec.work[sid] = len(_arg(args, kwargs, 1, "seq"))


def _hook_generate(rec, sid, dur, args, kwargs, result):
    rec.work[sid] = _arg(args, kwargs, 0, "spec").horizon_n


def _hook_compare(rec, sid, dur, args, kwargs, result):
    # args[0] is the parsed namespace; the benchmark's compare ops build --n samples
    rec.counters["cli.compare.full_steps"] += 3 * args[0].n


def _hook_write_text(rec, sid, dur, args, kwargs, result):
    rec.work[sid] = len(_arg(args, kwargs, 1, "text").encode("utf-8"))


def _hook_line_chart(rec, sid, dur, args, kwargs, result):
    rec.work[sid] = sum(len(xs) for _, xs, _ in _arg(args, kwargs, 0, "series"))
    rec.counters["svgchart.line_chart.bytes"] += len(result.encode("utf-8"))


def _batch_solve_name(args, kwargs) -> str:
    return "batch.batch_solve.ridge" if _arg(args, kwargs, 2, "delta") > 0 else "batch.batch_solve.lstsq"


def _hook_ridge_fn(rec, sid, dur, args, kwargs, result):
    """Return value of ridge_predictor_fn is a constituent; trace its calls."""
    return _wrap(rec, "randomized.constituent", result, _hook_constituent)


def _hook_constituent(rec, sid, dur, args, kwargs, result):
    # each call replays the ridge recursion over the whole history
    rec.work[sid] = len(args[0])


TARGETS = (
    ("sequences", "features", None, None),
    ("sequences", "feature_matrix", None, None),
    ("predictors", "init", None, None),
    ("predictors", "predict", None, None),
    ("predictors", "update", None, None),
    ("predictors", "run_online", None, _hook_run_online),
    ("predictors", "run_lms", None, _hook_run),
    ("predictors", "run_rls", None, _hook_run),
    ("batch", "batch_solve", _batch_solve_name, None),
    ("batch", "gram_log_det_ratio", None, None),
    ("batch", "regret_report", None, None),
    ("batch", "mixture_log_evidence", None, None),
    ("adversary", "sample_theta", None, None),
    ("adversary", "generate", None, _hook_generate),
    ("adversary", "bayes_prediction_trace", None, None),
    ("randomized", "mixture_tables", None, None),
    ("randomized", "mc_trial_totals", None, None),
    ("randomized", "run_randomized", None, None),
    ("randomized", "run_predictor_fn", None, None),
    ("randomized", "variance_decomposition", None, None),
    ("randomized", "ridge_predictor_fn", None, _hook_ridge_fn),
    ("cli", "main", None, None),
    ("cli", "bound_trace", None, _hook_steps),
    ("cli", "cmd_regret", None, None),
    ("cli", "cmd_compare", None, _hook_compare),
    ("cli", "cmd_identity", None, None),
    ("cli", "evidence_quadrature", None, None),
    ("cli", "write_text", None, _hook_write_text),
    ("svgchart", "line_chart", None, _hook_line_chart),
)


def _wrap(rec: Recorder, name, fn, hook):
    choose = name if callable(name) else None

    def traced(*args, **kwargs):
        sid = rec.open(choose(args, kwargs) if choose else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = rec.close(sid)
        if hook is not None:
            replaced = hook(rec, sid, dur, args, kwargs, result)
            if replaced is not None:
                return replaced
        return result

    return traced


def _modules():
    mods = [importlib.import_module("seqregret")]
    mods += [importlib.import_module(f"seqregret.{layer}") for layer in LAYERS]
    return mods


@contextmanager
def traced(rec: Recorder):
    """Install every wrapper for the duration of the block; yields the patch list.

    The patch list holds ``module.attribute`` for each replaced binding, the
    home definition and every by-name import of it.
    """
    replacements = {}
    for layer, fname, span_name, hook in TARGETS:
        orig = getattr(importlib.import_module(f"seqregret.{layer}"), fname)
        replacements[id(orig)] = (orig, _wrap(rec, span_name or f"{layer}.{fname}", orig, hook))
    undo = []
    for mod in _modules():
        for attr, value in list(vars(mod).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                undo.append((mod, attr, value))
                setattr(mod, attr, hit[1])
    try:
        yield [f"{mod.__name__}.{attr}" for mod, attr, _ in undo]
    finally:
        for mod, attr, value in undo:
            setattr(mod, attr, value)


# ------------------------------------------------------------- layer metrics

PER_LAYER_METRICS = (
    # (name, unit)
    ("predictors.run_online.calls", "count"),
    ("predictors.run_online.steps", "count"),
    ("predictors.run_online.self_s", "s"),
    ("predictors.run_online.us_per_step.m1", "us"),
    ("predictors.run_online.us_per_step.m4", "us"),
    ("predictors.run_online.us_per_step.m8", "us"),
    ("predictors.update.calls", "count"),
    ("predictors.update.self_s", "s"),
    ("predictors.predict.calls", "count"),
    ("predictors.run_lms.self_s", "s"),
    ("predictors.run_rls.self_s", "s"),
    ("sequences.feature_matrix.calls", "count"),
    ("sequences.feature_matrix.self_s", "s"),
    ("sequences.features.calls", "count"),
    ("sequences.features.self_s", "s"),
    ("batch.batch_solve.calls", "count"),
    ("batch.batch_solve.ridge_s", "s"),
    ("batch.batch_solve.lstsq_s", "s"),
    ("batch.gram_log_det_ratio.self_s", "s"),
    ("batch.regret_report.calls", "count"),
    ("batch.regret_report.self_s", "s"),
    ("batch.mixture_log_evidence.self_s", "s"),
    ("adversary.sample_theta.calls", "count"),
    ("adversary.sample_theta.self_s", "s"),
    ("adversary.generate.calls", "count"),
    ("adversary.generate.self_s", "s"),
    ("adversary.bayes_prediction_trace.self_s", "s"),
    ("randomized.mixture_tables.calls", "count"),
    ("randomized.mixture_tables.self_s", "s"),
    ("randomized.constituent.calls", "count"),
    ("randomized.replay_steps", "count"),
    ("randomized.useful_step_ratio", "ratio"),
    ("randomized.mc_trial_totals.self_s", "s"),
    ("randomized.run_predictor_fn.self_s", "s"),
    ("randomized.variance_decomposition.self_s", "s"),
    ("cli.bound_trace.steps", "count"),
    ("cli.bound_trace.self_s", "s"),
    ("cli.cmd_regret.self_s", "s"),
    ("cli.cmd_compare.self_s", "s"),
    ("cli.cmd_identity.self_s", "s"),
    ("cli.evidence_quadrature.self_s", "s"),
    ("cli.compare.rerun_ratio", "ratio"),
    ("cli.write_text.bytes", "bytes"),
    ("cli.write_text.self_s", "s"),
    ("svgchart.line_chart.calls", "count"),
    ("svgchart.line_chart.points", "count"),
    ("svgchart.line_chart.bytes", "bytes"),
    ("svgchart.line_chart.self_s", "s"),
    *((f"layer.{layer}.self_s", "s") for layer in (*LAYERS, BENCH_LAYER)),
    ("trace.accounted_ratio", "ratio"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when the denominator is 0 (the layer did no such work)."""
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, traced_wall_s: float, sequence_steps: int) -> dict[str, float]:
    """Per-name aggregates of one traced pass, in the PER_LAYER_METRICS names.

    ``traced_wall_s`` is the wall time of the pass as the benchmark loop saw
    it and ``sequence_steps`` the workload's step count for that pass.
    ``trace.overhead_ratio`` needs the untraced run and is filled by the caller.
    """
    spans = rec.arrays()
    own = self_times(spans["parent"], spans["start"], spans["end"])
    k = len(rec.names)
    calls = np.bincount(spans["name_id"], minlength=k)
    self_s = np.bincount(spans["name_id"], weights=own, minlength=k)
    work = np.bincount(spans["name_id"], weights=spans["work"].astype(float), minlength=k)
    agg = {name: (int(calls[i]), float(self_s[i]), float(work[i])) for i, name in enumerate(rec.names)}

    def get(name: str, field: int) -> float:
        return agg.get(name, (0, 0.0, 0.0))[field]

    c = rec.counters
    out: dict[str, float] = {}
    # "<span name>.<field>" metrics read the span aggregates directly;
    # steps, bytes and points are the work values the hooks recorded
    field = {"calls": 0, "self_s": 1, "steps": 2, "bytes": 2, "points": 2}
    for name, _unit in PER_LAYER_METRICS:
        head, _, tail = name.rpartition(".")
        if tail in field and head in agg:
            out[name] = float(get(head, field[tail]))
    ridge, lstsq = "batch.batch_solve.ridge", "batch.batch_solve.lstsq"
    out["batch.batch_solve.calls"] = float(get(ridge, 0) + get(lstsq, 0))
    out["batch.batch_solve.ridge_s"] = get(ridge, 1)
    out["batch.batch_solve.lstsq_s"] = get(lstsq, 1)
    for m in (1, 4, 8):
        out[f"predictors.run_online.us_per_step.m{m}"] = 1e6 * _ratio(
            c[f"predictors.run_online.incl_s.m{m}"], c[f"predictors.run_online.steps.m{m}"]
        )
    replay = get("randomized.constituent", 2)
    out["randomized.replay_steps"] = replay
    out["randomized.useful_step_ratio"] = _ratio(sequence_steps, replay) if get("cli.cmd_identity", 0) else 0.0
    out["cli.compare.rerun_ratio"] = _ratio(c["cli.compare.run_steps"], c["cli.compare.full_steps"])
    # line_chart's work value is its point count; its output size is a counter
    out["svgchart.line_chart.bytes"] = c["svgchart.line_chart.bytes"]

    layer_self = defaultdict(float)
    for name, (_, s, _) in agg.items():
        layer_self[name.split(".", 1)[0]] += s
    for layer in (*LAYERS, BENCH_LAYER):
        out[f"layer.{layer}.self_s"] = layer_self[layer]
    # Work no listed wrapper claims is unattributed: cli.main's own time, the
    # op's own time (program calls an op makes directly, such as sweep's
    # bound_satisfied) and the loop between spans.  Only output checking is
    # the benchmark's alone and leaves the base.
    attributed = sum(layer_self[layer] for layer in LAYERS) - get("cli.main", 1)
    base = traced_wall_s - get("bench.check", 1)
    out["trace.accounted_ratio"] = _ratio(attributed, base)
    out["trace.unattributed_s"] = base - attributed
    for name, _unit in PER_LAYER_METRICS:
        out.setdefault(name, 0.0)
    return out
