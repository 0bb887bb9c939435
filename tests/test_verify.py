"""The corpus checks behind acceptance criteria 3 and 4 read their tallies."""

import pytest

from grouptest.verify import CorpusReport, check_structural_invariants, check_success_conditions


@pytest.mark.parametrize(
    "key,check",
    [
        ("sss_size", check_structural_invariants),
        ("stats_identity", check_structural_invariants),
        ("comp_iff_g_zero", check_success_conditions),
    ],
)
def test_one_planted_violation_fails_its_check(key, check):
    report = CorpusReport(instances=10)
    assert check(report).ok
    report.violations[key] = 1
    res = check(report)
    assert not res.ok
    assert res.detail == "10 instances, 1 violations"
