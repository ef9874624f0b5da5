"""Verify suites report a failing check with its first counterexample."""

from footprint_lab import cli, formulas
from footprint_lab.verify import VerifyConfig, run_suites


def _macaulay_form_check():
    (rep,) = run_suites("macaulay", VerifyConfig())
    return rep.checks[1]


def test_failing_check_keeps_first_counterexample(monkeypatch):
    clean = _macaulay_form_check()
    assert clean.passed and clean.counterexample is None

    exact = formulas.conjectured_max_points_macaulay
    monkeypatch.setattr(formulas, "conjectured_max_points_macaulay",
                        lambda r, d, m, q: exact(r, d, m, q) + (r == 3))
    broken = _macaulay_form_check()
    assert broken.name == clean.name
    assert broken.passed is False
    assert broken.counterexample == {"q": 3, "m": 1, "d": 2, "r": 3}
    assert broken.cases == clean.cases

    assert cli.main(["verify", "--suite", "macaulay"]) == 1
