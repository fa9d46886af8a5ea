"""Record goldens, or run the benchmark repeatedly and store a BENCH record.

    python3 perfbench/record.py goldens [WORKLOAD ...]
    python3 perfbench/record.py baseline --tag TAG [WORKLOAD ...]

``goldens`` runs one untimed pass per workload at the default seed and
writes every artifact to ``goldens/<workload>.json.gz``; it refuses to write
when any operation fails its own checks.

``baseline`` runs ``run.py`` in fresh processes, one after another: ten
end-to-end runs per workload on seeds 1..10, then one traced run at the
default seed, each for ``run_seconds`` of ``BENCHMARK.json``.  It writes ``results/BENCH_<TAG>.json`` with each metric's
median and quartiles, the spread (interquartile range over median) and the
traced per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run

WORKLOADS = ("sweep", "long", "mixture")
RESULTS_DIR = run.HERE / "results"
RUNS = 10


def record_goldens(workloads: list[str]) -> int:
    run.import_program()
    import golden
    import workloads as wl

    for name in workloads:
        ops = wl.build(name, golden.DEFAULT_SEED, run.OUT_DIR / "work")
        artifacts = {}
        for op in ops:
            outcome = op.collect(op.run())
            if outcome.problems:
                print(f"error: {name}/{op.name}: {outcome.problems}", file=sys.stderr)
                return 1
            artifacts[op.name] = outcome.artifacts
        golden.save(name, golden.DEFAULT_SEED, artifacts, run.provenance(name, golden.DEFAULT_SEED, ["goldens", name]))
        print(f"{name}: {len(artifacts)} ops -> {golden.path_for(name).relative_to(run.ROOT)}")
    return 0


def bench_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-1000:]}")
    return {"record": json.loads(lines[-2])["record"], "result": json.loads(lines[-1])}


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "values": values}


def record_baseline(tag: str, workloads: list[str]) -> int:
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    doc = {"tag": tag, "runs": RUNS, "seconds": seconds, "workloads": {}}
    for name in workloads:
        results = []
        for seed in range(1, RUNS + 1):
            out = bench_once(name, seed, seconds, 0)
            results.append(out)
            metrics = out["result"]["metrics"]
            print(name, seed, {k: round(v["value"], 6) for k, v in metrics.items()},
                  "failed", out["result"]["failed"], flush=True)
        traced = bench_once(name, 0, seconds, 1)
        metric_names = list(results[0]["result"]["metrics"])
        doc["workloads"][name] = {
            "end_to_end": {
                k: dict(summarize([r["result"]["metrics"][k]["value"] for r in results]),
                        unit=results[0]["result"]["metrics"][k]["unit"])
                for k in metric_names
            },
            "attempted": sum(r["result"]["attempted"] for r in results),
            "failed": sum(r["result"]["failed"] for r in results),
            "stdout_non_csv_lines": results[0]["record"]["stdout_non_csv_lines"],
            "per_layer": {k: v["value"] for k, v in traced["result"]["metrics"].items()},
            "traced_run": {k: traced["record"][k] for k in ("golden", "failed_ratio", "spans", "traced_wall_s")},
        }
        doc["provenance"] = results[0]["record"]["provenance"]
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{tag}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(run.ROOT)}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="what", required=True)
    g = sub.add_parser("goldens")
    g.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    b = sub.add_parser("baseline")
    b.add_argument("--tag", required=True)
    b.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = p.parse_args(argv)
    if args.what == "goldens":
        return record_goldens(args.workloads)
    return record_baseline(args.tag, args.workloads)


if __name__ == "__main__":
    sys.exit(main())
