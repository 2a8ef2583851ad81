"""Golden reports: sha256 of every applicable suite x instance report.

The digests pin report bytes at ``SampleParams(seed=7, count=10)`` under
the default op ``t``.  A change that alters records on purpose re-pins
them and says why in ``CHANGES.md``.  Count 10 keeps the set under 1 s
on a 2-core box: 0.8 s for its 33 tests, the five star-laws pairs
included, against 0.8 s for the 28 before them.
"""

import hashlib

import pytest

from starpull.harness import SUITES, HarnessError, SampleParams, run_suite
from starpull.pullback import instance_catalog, make_instance

PARAMS = SampleParams(seed=7, count=10)

GOLDEN = {
    ("extension-laws", "A"): "6b8c06bd10278ab473477d0d0506f2d0b82489e2bd6aa5f3c674d283d9691d41",
    ("extension-laws", "B"): "8f41faf1c0e2f04b8fd9e339f9632ca62ea16da67733a43607c9eff5059a4829",
    ("extension-laws", "C"): "fa253364f5c131726b0de3aa1cd856d19f85637dc27987925e31403f2330521f",
    ("extension-laws", "D"): "cfee004121d899be2f2bca9559a4e82ea4ee2239ec7e2ba3188915f695b2dbab",
    ("extension-laws", "E"): "031cc356f3e4aadf3e1ccb6240584415cc68318842de0f1d53a5a59e1ebca8ca",
    ("oracle-agreement", "A"): "58d79568004987d9d52b38e7cbb69ea50c74815c8a7cd0c457081982b74a5180",
    ("oracle-agreement", "B"): "64152ecc87d409a0e8f212af9a627348046b3d92c1e6d46f416542a01f19791a",
    ("oracle-agreement", "C"): "a57d0b5d5ff3b7e8dfc13a15916a09f7fc2817f53ceccf6887162b1658115067",
    ("oracle-agreement", "D"): "418e51d166abe7667a0f31f773de034c3b743bb7ed74e2705bb1ea6b257a5435",
    ("oracle-agreement", "E"): "4377f3b498d00bc43b312980b839d999984ed2274c3dafd59fa3039054540f7c",
    ("pic-splitting", "A"): "0d0723cdc70100b423b96210308b14ee8422fbbec9ea42c059fcabe8388d8ea4",
    ("pic-splitting", "B"): "a830313395b742cda8e16e24c1abbd4e0cf0afe4ffa700e4be892048fdc27bfa",
    ("pic-splitting", "C"): "887177adb6b6e4ec0b1ba6eace3b4a78e5edd00551c10c30227b1e114e7a3d0d",
    ("pic-splitting", "D"): "973e638dcaffa2cbbe817cd2bb61150661c88dffa3529e285017de16903dcfe4",
    ("pic-splitting", "E"): "68cd38649cb5c4b33890a7edcee1ef0880fa1118ce90b9f109027dd0c4eb10e4",
    ("pvmd", "A"): "34e8d7cc5416f33b1dafba685ec78b51cb8a06ac89636475b3c3af64c200613a",
    ("pvmd", "B"): "d421b03179f2e0c3d77508be246a14177bea9cfc4cbec94e7ee02c94ea0749e3",
    ("pvmd", "C"): "dcba367f8616ad6004afb4a4daf79260e85954d013487deec56a073cd40b4a19",
    ("pvmd", "D"): "8c6b1be82e73840182c216b8048b33a0290a201db48d1da310b53c585194ef5f",
    ("pvmd", "E"): "d2f97a9d7eb567ad09d6b4a367a0b9fc4468cbbc129eafdd6df3727e8c95f5c1",
    ("quasilocal-iso", "B"): "d4e8ea4676ed3f5faea317d6a9156ffc13c12c9616ceccc22671af2ab58a5bb1",
    ("quasilocal-iso", "E"): "5178ed7c6af01ee57d301d5bcefdff7c37c49d55b25ab1c393c4c05676af1639",
    ("split-exact", "A"): "f904a6bf3ace9507156ece148d9cd2a39c82f62ac2faf81ef69dc81d454e1861",
    ("split-exact", "B"): "262a887513dcabd3aac286e4af30dcfed15b5a7c249c61b745faa6cc24396df1",
    ("split-exact", "C"): "b2e543858056424c815369be689252ea8e25b1489bd6028f70d6c456add2861e",
    ("split-exact", "D"): "630bdcd46d1676909f6555ded9147a9b79103a9f56224929583779bfe91e7f42",
    ("split-exact", "E"): "ec0bca2397e0ed526f406a187a7479ade58b20b9094f8e1b375099247109a859",
    ("star-laws", "A"): "23e504db23d8a3c325b9313d8172aa3e18c82f5e1751fa5fc481e1efa498b093",
    ("star-laws", "B"): "c88097eaccd6d35623057105c5c52e3115b472f1666b8d2c2947441069335ba0",
    ("star-laws", "C"): "65136b158ce6dffc8e7e0b935c87e8dffe60ae3ad350fa5c7dbe6f4bb8b9edda",
    ("star-laws", "D"): "269d8519a0540b80299ed9038f5b7c9c61bd48a1418c322691b80e3a0124df48",
    ("star-laws", "E"): "f8f83f9f803bf408f7a4634b18cbed1ba93118683828b8b76648b7a0dd87ccc9",
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
