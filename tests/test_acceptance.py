"""Acceptance gate: every criterion at its stated tolerance, seed 0.

The report is the output JSON of the suite's one ``heatchern selftest
--seed 0`` run (the ``selftest_run`` fixture; the runner internally
re-executes the battery to certify byte-identical output, which is itself
criterion C15); each test then asserts one criterion and prints its
pass/fail line.
"""

import pytest

from heatchern.selftest import CRITERIA

ALL_IDS = sorted(CRITERIA) + ["C15"]


@pytest.fixture(scope="module")
def report(selftest_run):
    return selftest_run[2]["report"]


@pytest.mark.parametrize("cid", ALL_IDS)
def test_criterion(report, cid):
    entry = next(c for c in report["criteria"] if c["id"] == cid)
    status = "PASS" if entry["passed"] else "FAIL"
    print(f"{cid} {status}: {entry['description']}")
    assert entry["passed"], entry["details"]


def test_overall(report):
    assert report["passed"]
