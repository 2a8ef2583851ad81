"""tools/bench_pairs.py: the pair summary on fixed numbers, with no run started."""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

PARENT = [100.0, 110.0, 90.0, 105.0, 95.0, 120.0, 80.0, 100.0, 115.0, 85.0]
CHANGE = [104.0, 108.0, 95.0, 110.0, 90.0, 121.0, 85.0, 99.0, 116.0, 86.0]


def test_summary_of_a_higher_is_better_metric():
    s = bench_pairs.summarize(PARENT, CHANGE, "higher")
    assert s["parent_median"] == 100.0
    assert s["change_median"] == 101.5
    assert s["relative"] == pytest.approx(0.015)
    # exclusive quartiles of the sorted parent runs 80 85 90 95 100 100 105 110 115 120
    assert s["parent_iqr"] == pytest.approx(111.25 - 88.75)
    assert (s["change_better"], s["pairs"]) == (7, 10)


def test_lower_is_better_counts_the_other_pairs():
    s = bench_pairs.summarize(PARENT, CHANGE, "lower")
    assert s["change_better"] == 3
    # a tie wins neither way
    assert bench_pairs.summarize([1.0] * 10, [1.0] * 10, "lower")["change_better"] == 0


def test_summary_line():
    line = bench_pairs.summary_line("oracle", "items_per_s",
                                    bench_pairs.summarize(PARENT, CHANGE, "higher"), 0.25)
    assert line == ("oracle   items_per_s  median 100 -> 101.5 (+1.5%), "
                    "parent IQR 22.5, change better 7/10, bound 25%: within bound")


def _verdict(change, better="higher", bound=0.25):
    return bench_pairs.verdict(bench_pairs.summarize(PARENT, change, better), bound)


def test_worse_is_a_median_past_the_bound():
    # median 100 -> 74 is 26% worse, past a 25% bound; 76 is not
    assert _verdict([p - 26 for p in PARENT]) == "worse"
    assert _verdict([p - 24 for p in PARENT]) == "within bound"
    # lower is better: 100 -> 126 is worse, and 74 is no loss
    assert _verdict([p + 26 for p in PARENT], "lower") == "worse"
    assert _verdict([p - 26 for p in PARENT], "lower") != "worse"


def test_unresolved_is_a_parent_iqr_past_the_bound():
    # the parent's IQR of 22.5 exceeds a 10% bound of 10
    assert _verdict(CHANGE, bound=0.1) == "unresolved"
    assert _verdict([p + 30 for p in PARENT], bound=0.1) == "unresolved"
    # unless every change run beats every parent run
    assert _verdict([p + 41 for p in PARENT], bound=0.1) == "better"
    # worse is checked first
    assert _verdict([p - 11 for p in PARENT], bound=0.1) == "worse"


def test_better_needs_nine_pairs_in_ten_and_a_gap_past_the_iqr():
    assert _verdict([p + 23 for p in PARENT]) == "better"
    # a gain of 22 is inside the parent's IQR of 22.5
    assert _verdict([p + 22 for p in PARENT]) == "within bound"
    # one tie leaves 9 of 10 pairs won; two leave 8
    one_tie = [p + 30 for p in PARENT[:9]] + PARENT[9:]
    two_ties = [p + 30 for p in PARENT[:8]] + PARENT[8:]
    assert _verdict(one_tie) == "better"
    assert _verdict(two_ties) == "within bound"
    assert _verdict([p - 23 for p in PARENT], "lower") == "better"


def test_within_bound_is_every_other_case():
    assert _verdict(CHANGE) == "within bound"
    assert _verdict(PARENT) == "within bound"
    assert _verdict(CHANGE, "lower") == "within bound"


def test_fewer_than_ten_pairs_is_refused(capsys):
    assert bench_pairs.main(["parent", "change", "9", "9"]) == 2
    assert "at least 10" in capsys.readouterr().err
    assert bench_pairs.main(["parent", "change", "seed", "10"]) == 2
    assert bench_pairs.main(["parent", "change", "9"]) == 2
    assert "usage" in capsys.readouterr().err


def test_the_tool_imports_only_the_standard_library():
    tree = ast.parse(_PATH.read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert {name.split(".")[0] for name in imported} <= sys.stdlib_module_names, imported
