"""starpull benchmark: one workload, one seed, every metric by name.

    python3 perfbench/run.py --workload oracle|classes|eval --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout.  Each run starts fresh
single-threaded interpreters (``worker.py``) with ``src`` on the path:
several that only set up, for ``setup_s``, then one that runs the
workload.  ``--trace 1`` runs the workload traced and then untraced on
the same inputs and reports the per-layer metrics and the tracing
overhead.  The last line of standard output is the JSON result; the
exit code is nonzero when any output is wrong.  ``--pin`` rewrites the
pinned digests of the default seed instead.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = ROOT / ".perfbench_out"
DEFAULT_SEED = 7
DEFAULT_SECONDS = 30
SETUP_RUNS = 11
DEADLINE_S = 170.0

UNITS = {
    "items_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
    "peak_rss_mb": "MB", "setup_s": "s", "trace.overhead": "ratio",
}


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def _git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = _read(ROOT / ".git" / "HEAD")
    if head is None:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(ROOT / ".git" / ref)
    if loose:
        return loose
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return f"unknown ({ref})"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "starpull").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def metadata(seed: int) -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "git_revision": _git_revision(), "src_sha256": _src_digest(),
            "seed": seed, "loadavg_start": _read(Path("/proc/loadavg"))}


class Worker:
    """A worker interpreter; ``raw_setup_s`` is its time from spawn to set up."""

    def __init__(self, args: list[str], deadline: float):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.deadline = deadline
        t0 = time.perf_counter()
        self.proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
                                     stdout=subprocess.PIPE, text=True)
        first = self.proc.stdout.readline()
        self.raw_setup_s = time.perf_counter() - t0
        speed = self.proc.stdout.readline().split()
        if first.strip() != "ready" or len(speed) != 2 or speed[0] != "speed":
            self.finish()
            raise RuntimeError("worker failed during set-up")
        # set-up time at the reference machine speed (see workloads.Speed)
        self.setup_s = self.raw_setup_s * float(speed[1])

    def finish(self) -> dict | None:
        """Wait for the worker; its last stdout line is its JSON result."""
        try:
            out, _ = self.proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise RuntimeError("worker exceeded the time limit")
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {self.proc.returncode}")
        lines = out.strip().splitlines()
        return json.loads(lines[-1]) if lines else None


def _workload_args(a, trace: int) -> list[str]:
    return ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(trace)]


def run_plain(a, deadline: float) -> tuple[dict, dict]:
    workers = []
    for _ in range(SETUP_RUNS - 1):
        workers.append(Worker(_workload_args(a, 0) + ["--setup-only"], deadline))
        workers[-1].finish()
    workers.append(Worker(_workload_args(a, 0), deadline))
    res = workers[-1].finish()
    metrics = {
        "items_per_s": res["items_per_s"],
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_s": statistics.median(w.setup_s for w in workers),
    }
    res["raw_setup_s"] = statistics.median(w.raw_setup_s for w in workers)
    if "latency" in res:
        metrics["latency_p50_ms"] = res["latency"]["p50_ms"]
        metrics["latency_tail_ms"] = res["latency"]["tail_ms"]
    return res, metrics


def run_traced(a, deadline: float) -> tuple[dict, dict]:
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{a.workload}.gz"
    traced = Worker(_workload_args(a, 1) + ["--spans", str(spans)], deadline).finish()
    plain = Worker(_workload_args(a, 0), deadline).finish()
    metrics = dict(traced["layers"])
    metrics["trace.overhead"] = traced["items_per_s"] / plain["items_per_s"]
    traced["failed"] = max(traced["failed"], plain["failed"])
    traced["notes"] += plain["notes"]
    return traced, metrics


def pin() -> int:
    """Record the digests of the default seed and run length."""
    pinned = {}
    for workload in ("oracle", "classes", "eval"):
        a = argparse.Namespace(workload=workload, seed=DEFAULT_SEED, seconds=DEFAULT_SECONDS)
        res = Worker(_workload_args(a, 0) + ["--unpinned"], time.monotonic() + 600).finish()
        if res["failed"]:
            print("\n".join(res["notes"]), file=sys.stderr)
            return 1
        pinned[workload] = res["digests"]
    (HERE / "digests.json").write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("oracle", "classes", "eval"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true", help="rewrite digests.json and exit")
    a = ap.parse_args()
    if not (ROOT / "src" / "starpull" / "__init__.py").is_file():
        print(f"no starpull sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if a.pin:
        return pin()
    if a.workload is None:
        ap.error("--workload is required")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in spec["per_layer" if a.trace else "end_to_end"]]
    meta = metadata(a.seed)
    deadline = time.monotonic() + DEADLINE_S
    try:
        res, metrics = (run_traced if a.trace else run_plain)(a, deadline)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    meta["loadavg_end"] = _read(Path("/proc/loadavg"))

    attempted, failed = res["attempted"], res["failed"]
    print(f"workload {a.workload}: seed {a.seed}, closed loop, 1 client, "
          f"{res['items']} items in {res['seconds']:.3f} s timed, trace {a.trace}")
    for name, value in sorted(metrics.items()):
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:40s} {shown:>14s} {_unit(name)}")
    if "latency" in res:
        lat = res["latency"]
        print(f"  latency tail is p{lat['tail_percentile']:g} of {lat['samples']} samples")
    if a.trace:
        print(f"  {res['spans']} spans; traced process peak RSS {res['peak_rss_mb']:.1f} MB")
    else:
        print(f"  unscaled: items_per_s {res['raw_items_per_s']:.6g} 1/s, "
              f"setup_s {res['raw_setup_s']:.6g} s")
    print(f"  fail_ratio {failed / attempted:.6g} ({failed} of {attempted} failed)")
    for note in res["notes"][:20]:
        print(f"  FAIL {note}")
    print("meta " + json.dumps(meta, sort_keys=True))
    missing = [n for n in declared if metrics.get(n) is None]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": _unit(n)} for n in declared},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
