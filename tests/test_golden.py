"""Golden reports: sha256 of every applicable suite x instance report.

The digests pin report bytes at ``SampleParams(seed=7, count=10)`` under
the default op ``t``.  A change that alters records on purpose re-pins
them and says why in ``CHANGES.md``.  Count 10 keeps the set near 11 s
on a 2-core box; count 25 took about three times as long.
"""

import hashlib

import pytest

from starpull.harness import SUITES, HarnessError, SampleParams, run_suite
from starpull.pullback import instance_catalog, make_instance

PARAMS = SampleParams(seed=7, count=10)

GOLDEN = {
    ("extension-laws", "A"): "70a88426820dbc739c8b1e7266c17ceea06cdcf486d55adcd243663bb3a7684c",
    ("extension-laws", "B"): "e84ab71cab5917487a21fa419e139faac278ac03b0773b4325b3dd898b200f55",
    ("extension-laws", "C"): "7e3fe320312275082252e881c1b032fe91bc84402c3af458a7482825880fff3e",
    ("extension-laws", "D"): "ef91f29c48ea73596c438b322e15f4c355856eb154fd6b9b3866a40a8b74627b",
    ("extension-laws", "E"): "0cfb5d3aa0496361ff0fee3b7bca8faac098e1e0470eeebff329c542f2e6c9b1",
    ("oracle-agreement", "A"): "58d79568004987d9d52b38e7cbb69ea50c74815c8a7cd0c457081982b74a5180",
    ("oracle-agreement", "B"): "64152ecc87d409a0e8f212af9a627348046b3d92c1e6d46f416542a01f19791a",
    ("oracle-agreement", "C"): "a57d0b5d5ff3b7e8dfc13a15916a09f7fc2817f53ceccf6887162b1658115067",
    ("oracle-agreement", "D"): "418e51d166abe7667a0f31f773de034c3b743bb7ed74e2705bb1ea6b257a5435",
    ("oracle-agreement", "E"): "4377f3b498d00bc43b312980b839d999984ed2274c3dafd59fa3039054540f7c",
    ("pic-splitting", "A"): "0d0723cdc70100b423b96210308b14ee8422fbbec9ea42c059fcabe8388d8ea4",
    ("pic-splitting", "B"): "a830313395b742cda8e16e24c1abbd4e0cf0afe4ffa700e4be892048fdc27bfa",
    ("pic-splitting", "C"): "887177adb6b6e4ec0b1ba6eace3b4a78e5edd00551c10c30227b1e114e7a3d0d",
    ("pvmd", "A"): "dc0ea054b44880db210e697f311e273628e0026f8c9e1fec4cc33559174d7c5e",
    ("pvmd", "B"): "49aea85b431cbc6532941e91170a030ac2e6437f558da119240abc9f37483e0a",
    ("pvmd", "C"): "1673598197e0baaf938ca2312cad8a07b0f85da6c20619b1530659ceac782824",
    ("pvmd", "D"): "ee3dde80de618c4908ce5eefdfef53dd266adebf5567c19cd6940c33a26add0b",
    ("pvmd", "E"): "3dd6b8a4ed235a4ec4e985135ad41a0bd4542ef8affd4c2e1d4315698cae5782",
    ("quasilocal-iso", "B"): "d4e8ea4676ed3f5faea317d6a9156ffc13c12c9616ceccc22671af2ab58a5bb1",
    ("quasilocal-iso", "E"): "5178ed7c6af01ee57d301d5bcefdff7c37c49d55b25ab1c393c4c05676af1639",
    ("split-exact", "A"): "f904a6bf3ace9507156ece148d9cd2a39c82f62ac2faf81ef69dc81d454e1861",
    ("split-exact", "B"): "262a887513dcabd3aac286e4af30dcfed15b5a7c249c61b745faa6cc24396df1",
    ("split-exact", "C"): "b2e543858056424c815369be689252ea8e25b1489bd6028f70d6c456add2861e",
}


@pytest.mark.parametrize("suite,name", sorted(GOLDEN))
def test_report_digest(suite, name):
    report = run_suite(suite, make_instance(name), PARAMS)
    assert report.verdict == "pass", report.violations
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    assert digest == GOLDEN[suite, name]


def test_golden_covers_every_applicable_pair():
    # every pair left out of GOLDEN fails its precondition before sampling
    for suite in SUITES:
        for name in instance_catalog():
            if (suite, name) not in GOLDEN:
                with pytest.raises(HarnessError):
                    run_suite(suite, make_instance(name), PARAMS)
