"""Tests for the benchmark itself: ``python3 -m pytest perfbench``.

Tracing must not change what the library computes, every function the
per-layer metrics read must be wrapped everywhere it is referenced, and
the runner must refuse to run without the library's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import pytest  # noqa: E402

import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from starpull import harness, kernel, pullback  # noqa: E402
from starpull.harness import SampleParams  # noqa: E402
from starpull.pullback import make_instance  # noqa: E402
from starpull.star_ops import StarOp  # noqa: E402

SMALL = [("oracle-agreement", "C"), ("split-exact", "C"), ("pic-splitting", "A"),
         ("quasilocal-iso", "E")]


@pytest.fixture
def tracer():
    t = tracer_mod.Tracer(workloads.TYPED_ERRORS)
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def _reports() -> list[bytes]:
    op = StarOp.t_op("R")
    return [harness.run_suite(suite, make_instance(name),
                              SampleParams(seed=3, count=8, degree_window=12), op=op)
            .to_json().encode() for suite, name in SMALL]


def _eval_outputs() -> list:
    return [out[4] for out in workloads.run_eval(5, 1)["outputs"]]


def test_every_named_function_is_wrapped_and_restored():
    originals = (pullback.member_R, kernel.RatFunc.__dict__["__mul__"], harness.colon_R)
    t = tracer_mod.Tracer(workloads.TYPED_ERRORS)
    names = t.install()
    try:
        assert set(tracer_mod.REQUIRED) <= set(names)
        assert t.escapes() == []
        # harness imported member_R and colon_R itself; both are rebound
        assert harness.member_R is pullback.member_R
        assert harness.member_R.__wrapped__ is originals[0]
        assert harness.colon_R.__wrapped__ is originals[2]
        assert kernel.RatFunc.__dict__["__mul__"].__wrapped__ is originals[1]
    finally:
        t.uninstall()
    assert (pullback.member_R, kernel.RatFunc.__dict__["__mul__"], harness.colon_R) == originals


def test_tracing_leaves_report_bytes_unchanged(tracer):
    tracer.uninstall()
    plain = _reports()
    tracer.install()
    traced = _reports()
    assert traced == plain
    summary = tracer.summary()
    assert summary["harness.run_suite"]["calls"] == len(SMALL)
    assert summary["kernel.RatFunc.__mul__"]["calls"] > 0


def test_tracing_leaves_eval_output_unchanged(tracer):
    tracer.uninstall()
    plain = _eval_outputs()
    tracer.install()
    traced = _eval_outputs()
    assert traced == plain
    assert any("error" in r for r in plain) and any("canonical" in r for r in plain)


def test_self_times_add_up_and_spans_round_trip(tracer, tmp_path):
    harness.run_suite("pic-splitting", make_instance("C"), SampleParams(seed=1, count=6))
    summary = tracer.summary()
    path = tmp_path / "spans.gz"
    tracer.write(path)
    header, arrays = tracer_mod.read_spans(path)
    assert header["names"] == tracer.names
    assert arrays["start"] == tracer.start and arrays["parent"] == tracer.parent
    roots = [i for i, p in enumerate(arrays["parent"]) if p < 0]
    covered = sum(arrays["end"][i] - arrays["start"][i] for i in roots)
    assert sum(v["self_ns"] for v in summary.values()) == covered
    assert all(v["self_ns"] >= 0 for v in summary.values())


def test_declared_metrics_are_measured_with_their_units(tracer):
    harness.run_suite("oracle-agreement", make_instance("A"), SampleParams(seed=1, count=6))
    metrics = worker.layer_metrics(tracer.summary())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for m in spec["per_layer"]:
        if m["name"] != "trace.overhead":
            assert metrics[m["name"]] is not None, m["name"]
    for m in spec["per_layer"] + spec["end_to_end"]:
        assert run._unit(m["name"]) == m["unit"], m["name"]


def test_split_exact_items_include_sampled_dmods():
    report = harness.run_suite("split-exact", make_instance("C"), SampleParams(seed=2, count=6),
                               op=StarOp.t_op("R"))
    assert report.n_samples == 6
    assert workloads.report_items(report) == 6 + 3


def test_latency_tail_has_ten_samples_beyond():
    stats = worker.latency_stats([i / 1000 for i in range(1, 91)])
    assert stats["tail_percentile"] == 75.0 and stats["samples"] == 90
    assert worker.latency_stats([0.001] * 1800)["tail_percentile"] == 99.0


def test_eval_stream_has_fixed_shares_and_typed_errors():
    stream = workloads.eval_stream(9, 200)
    assert sum(malformed for _, _, malformed in stream) == 20
    assert stream == workloads.eval_stream(9, 200)
    res = workloads.run_eval(9, 1)
    attempted, failed, notes = workloads.check_eval(res["outputs"], None)
    assert (attempted, failed) == (len(res["outputs"]), 0), notes


def test_runner_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "eval",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
