"""Golden outputs: load, compare within tolerance, and record.

A golden file holds, for every operation of one workload at the default
seed, the exact text of each artifact the operation produced (CSV, SVG,
captured stdout, or a sweep cell's report fields).  Comparison splits a text
into its numbers and the skeleton between them: the skeleton must match
exactly and each number within a relative tolerance, so a change that only
reorders floating-point work still passes.  Byte-identical artifacts are
counted separately, for changes that claim unchanged bytes.
"""

from __future__ import annotations

import gzip
import json
import re
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"
DEFAULT_SEED = 0

# |a - b| <= RTOL * max(1, |a|, |b|).  SVG coordinates are printed with 6
# significant digits, so a last-digit rounding flip needs the looser bound.
RTOL = 1e-6
RTOL_SVG = 1e-4

_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|nan|inf")


def path_for(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json.gz"


def load(workload: str) -> dict[str, dict[str, str]]:
    """Golden artifacts keyed by operation name, then artifact name."""
    with gzip.open(path_for(workload), "rt", encoding="utf-8") as fh:
        return json.load(fh)["ops"]


def save(workload: str, seed: int, ops: dict[str, dict[str, str]], provenance: dict) -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    doc = {"workload": workload, "seed": seed, "provenance": provenance, "ops": ops}
    # mtime=0 keeps the compressed bytes reproducible
    with open(path_for(workload), "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
        gz.write(json.dumps(doc, indent=1, sort_keys=True).encode("utf-8"))


def _split(text: str) -> tuple[str, list[float]]:
    return _NUMBER.sub("#", text), [float(tok) for tok in _NUMBER.findall(text)]


def compare_text(got: str, want: str, rtol: float) -> str | None:
    """None when ``got`` matches ``want`` within ``rtol``; else a short reason."""
    if got == want:
        return None
    got_skel, got_nums = _split(got)
    want_skel, want_nums = _split(want)
    if got_skel != want_skel or len(got_nums) != len(want_nums):
        return "text differs outside its numbers"
    for i, (a, b) in enumerate(zip(got_nums, want_nums)):
        if not abs(a - b) <= rtol * max(1.0, abs(a), abs(b)):
            return f"number {i}: {a!r} vs golden {b!r} (rtol {rtol:g})"
    return None


def compare(artifacts: dict[str, str], golden: dict[str, str] | None) -> tuple[list[str], int]:
    """(problems, count of byte-identical artifacts) of one operation's outputs."""
    if golden is None:
        return ["no golden for this operation"], 0
    problems = []
    if set(artifacts) != set(golden):
        problems.append(f"artifacts {sorted(artifacts)} vs golden {sorted(golden)}")
    identical = 0
    for name in sorted(set(artifacts) & set(golden)):
        if artifacts[name] == golden[name]:
            identical += 1
            continue
        reason = compare_text(artifacts[name], golden[name], RTOL_SVG if name.endswith(".svg") else RTOL)
        if reason:
            problems.append(f"golden mismatch in {name}: {reason}")
    return problems, identical
