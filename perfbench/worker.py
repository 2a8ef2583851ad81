"""One workload run in a fresh interpreter; started by ``run.py``.

Prints ``ready`` once the instances are built and ``speed <factor>``
(see ``workloads.Speed``), then runs the workload, checks its outputs
and prints one JSON line with the results.  With ``--setup-only`` it
exits after those two lines; ``--trace`` wraps the layers with
``tracer.Tracer`` for the timed section and writes the spans.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path

from tracer import LAYERS, Tracer

DIGESTS = Path(__file__).with_name("digests.json")
# percentiles considered for the latency tail
TAIL_GRID = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9)


def latency_stats(latencies: list[float]) -> dict:
    """Median and the highest grid percentile with ten samples beyond it."""
    n = len(latencies)
    cuts = statistics.quantiles(latencies, n=1000, method="inclusive")
    tail_p = max((p for p in TAIL_GRID if n * (1 - p / 100) >= 10), default=50.0)
    return {"p50_ms": statistics.median(latencies) * 1e3,
            "tail_ms": cuts[round(tail_p * 10) - 1] * 1e3,
            "tail_percentile": tail_p, "samples": n}


def layer_metrics(summary: dict) -> dict:
    """Per-layer metrics named by the benchmark; None where undefined."""
    def calls(name):
        return summary[name]["calls"]

    def self_s(name):
        return summary[name]["self_ns"] / 1e9

    def ratio(num, den):
        return num / den if den else None

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v["self_ns"] for k, v in summary.items()
                                     if k.startswith(layer + ".")) / 1e9
    colon, raw = calls("base_domain.dmod_colon"), calls("base_domain._dmod_colon_raw")
    v_calls = calls("pullback.oracle_v_member")
    p_calls = calls("class_groups.is_principal_R")
    out.update({
        "kernel.ratfunc_mul.calls": calls("kernel.RatFunc.__mul__"),
        "kernel.ratfunc_mul.self_s": self_s("kernel.RatFunc.__mul__"),
        "kernel.poly_gcd.calls": calls("kernel.poly_gcd"),
        "kernel.poly_gcd.self_s": self_s("kernel.poly_gcd"),
        "kernel.poly_divmod.calls": calls("kernel.Poly.__divmod__"),
        "kernel.fieldelem_new.calls": calls("kernel.FieldElem.__init__"),
        "lattices.hnf_rows.calls": calls("lattices.hnf_rows"),
        "lattices.rational_rref.calls": calls("lattices.rational_rref"),
        "base_domain.dmod_predicates.calls": calls("base_domain.dmod_predicates"),
        "base_domain.dmod_predicates.self_s": self_s("base_domain.dmod_predicates"),
        "base_domain.dmod_colon.calls": colon,
        "base_domain.colon_cache.hit_ratio": ratio(colon - raw, colon),
        "base_domain.unit_module.calls": calls("base_domain.BaseDomain.unit_module"),
        "pullback.member_R.calls": calls("pullback.member_R"),
        "pullback.oracle_colon_member.calls": calls("pullback.oracle_colon_member"),
        "pullback.oracle_v_member.calls": v_calls,
        "pullback.oracle_v.inconclusive_ratio":
            ratio(v_calls - summary["pullback.oracle_v_member"]["useful"], v_calls),
        "pullback.colon_R.calls": calls("pullback.colon_R"),
        "pullback.colon_R.self_s": self_s("pullback.colon_R"),
        "pullback.structured_hull.calls": calls("pullback.structured_hull"),
        "star_ops.star_eval.calls": calls("star_ops.star_eval"),
        "class_groups.invertibility_R.calls": calls("class_groups.invertibility_R"),
        "class_groups.is_principal_R.calls": p_calls,
        "class_groups.principal.found_ratio":
            ratio(summary["class_groups.is_principal_R"]["useful"], p_calls),
        "exprlang.parse.calls": calls("exprlang.parse_expression"),
        # inputs rejected with a typed error; value_to_expr refusing a
        # label or principality answer is not a rejection
        "exprlang.typed_errors": sum(summary[k]["typed_errors_from_outside"] for k in
                                     ("exprlang.parse_expression", "exprlang.evaluate")),
    })
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("oracle", "classes", "eval"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans", help="where the traced run writes its spans")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--unpinned", action="store_true", help="skip the pinned digests")
    args = ap.parse_args()

    import workloads  # imports starpull: part of the set-up being timed
    workloads.setup()
    print("ready", flush=True)
    # set-up time times this factor is the set-up time at the reference speed
    print(f"speed {workloads.Speed().factor()}", flush=True)
    if args.setup_only:
        return 0
    pinned = {} if args.unpinned else json.loads(DIGESTS.read_text())

    tracer = None
    if args.trace:
        tracer = Tracer(workloads.TYPED_ERRORS)
        tracer.install()
        escaped = tracer.escapes()
        if escaped:
            print(f"untraced references remain: {escaped}", file=sys.stderr)
            return 1
    try:
        if args.workload == "eval":
            res = workloads.run_eval(args.seed, args.seconds)
        else:
            res = workloads.run_suites(args.workload, args.seed, args.seconds)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if args.workload == "eval":
        key = f"{args.seed}/{len(res['outputs'])}"
        digests = {key: workloads.eval_digest(res["outputs"])}
        attempted, failed, notes = workloads.check_eval(res["outputs"],
                                                        pinned.get("eval", {}).get(key))
    else:
        digests = workloads.suite_digests(res["outputs"])
        attempted, failed, notes = workloads.check_suites(res["outputs"],
                                                          pinned.get(args.workload, {}))
    out = {
        "items": res["items"],
        "seconds": res["seconds"],
        "items_per_s": res["items"] / res["seconds"],
        "raw_items_per_s": res["items"] / res["raw_seconds"],
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "digests": digests,
        "peak_rss_mb": peak_rss_mb,
    }
    if "latencies" in res:
        out["latency"] = latency_stats(res["latencies"])
    if tracer is not None:
        summary = tracer.summary()
        out["layers"] = layer_metrics(summary)
        out["spans"] = len(tracer.start)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
