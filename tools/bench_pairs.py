"""Alternating benchmark pairs: a parent checkout against a change.

    python3 tools/bench_pairs.py PARENT CHANGE SEED PAIRS

PARENT and CHANGE are two source checkouts.  For each of PAIRS pairs
(at least 10) and each workload that CHANGE's ``BENCHMARK.json`` names,
this runs ``perfbench/run.py --workload W --seed SEED --seconds S
--trace 0`` once in each checkout, at that file's ``run_seconds`` S:
the parent first in odd pairs and the change first in even ones, so
that drift in the machine's speed falls on both sides alike.  It prints
every run as it ends, then, per workload and end-to-end metric, the two
medians, the parent's interquartile range, how many pairs the change
won, the metric's ``bound`` and one verdict (see ``verdict``).  It
stops at the first run whose last line is not ``correct: true`` and
prints that run's exit code.  Standard library only.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

MIN_PAIRS = 10
USAGE = "usage: python3 tools/bench_pairs.py PARENT CHANGE SEED PAIRS"


class RunFailed(RuntimeError):
    """A benchmark run that did not end in ``correct: true``."""


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """The metrics of one plain run, by name, read from its last stdout line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {}
    if proc.returncode != 0 or not isinstance(result, dict) or result.get("correct") is not True:
        raise RunFailed(f"{checkout} {workload}: exit code {proc.returncode}, "
                        f"not correct: true\n{proc.stderr.strip()}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """Medians, the parent's interquartile range (quartiles by the
    ``statistics.quantiles`` default), the pairs the change won (a tie
    wins neither way) and whether every change run beat every parent run."""
    q1, _, q3 = statistics.quantiles(parent, n=4)
    pm, cm = statistics.median(parent), statistics.median(change)
    higher = better == "higher"
    wins = sum(c > p if higher else c < p for p, c in zip(parent, change))
    sweep = min(change) > max(parent) if higher else max(change) < min(parent)
    return {"parent_median": pm, "change_median": cm, "relative": cm / pm - 1,
            "parent_iqr": q3 - q1, "change_better": wins, "pairs": len(parent),
            "gain": (cm - pm) if higher else (pm - cm), "sweep": sweep}


def verdict(s: dict, bound: float) -> str:
    """The first that holds of: "worse", the change's median is worse
    than the parent's by more than bound times the parent median;
    "unresolved", the parent's IQR exceeds that and not every change run
    beat every parent run; "better", the change won at least 9 of every
    10 pairs and its median is better by more than the parent's IQR;
    else "within bound"."""
    limit = bound * s["parent_median"]
    if s["gain"] < -limit:
        return "worse"
    if s["parent_iqr"] > limit and not s["sweep"]:
        return "unresolved"
    if 10 * s["change_better"] >= 9 * s["pairs"] and s["gain"] > s["parent_iqr"]:
        return "better"
    return "within bound"


def summary_line(workload: str, metric: str, s: dict, bound: float) -> str:
    return (f"{workload:8s} {metric:12s} median {s['parent_median']:.6g} -> "
            f"{s['change_median']:.6g} ({s['relative']:+.1%}), parent IQR "
            f"{s['parent_iqr']:.4g}, change better {s['change_better']}/{s['pairs']}, "
            f"bound {bound:.0%}: {verdict(s, bound)}")


def main(argv: list[str]) -> int:
    try:
        parent, change, seed, pairs = argv
        seed, pairs = int(seed), int(pairs)
    except ValueError:
        print(USAGE, file=sys.stderr)
        return 2
    parent, change = Path(parent).resolve(), Path(change).resolve()
    if pairs < MIN_PAIRS:
        print(f"error: PAIRS must be at least {MIN_PAIRS}", file=sys.stderr)
        return 2
    bench = json.loads((change / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    runs = {(w, side): [] for w in workloads for side in ("parent", "change")}
    order = (("parent", parent), ("change", change))
    for i in range(pairs):
        for w in workloads:
            for side, checkout in order if i % 2 == 0 else order[::-1]:
                try:
                    values = run_once(checkout, w, seed, bench["run_seconds"])
                except RunFailed as exc:
                    print(f"pair {i + 1} {side}: {exc}", flush=True)
                    return 1
                runs[w, side].append(values)
                shown = " ".join(f"{m}={values[m]:.6g}" for m in metrics)
                print(f"pair {i + 1:2d} {w:8s} {side:6s} {shown}", flush=True)
    for w in workloads:
        for m, spec in metrics.items():
            parent_values = [r[m] for r in runs[w, "parent"]]
            change_values = [r[m] for r in runs[w, "change"]]
            s = summarize(parent_values, change_values, spec["better"])
            print(summary_line(w, m, s, spec["bound"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
