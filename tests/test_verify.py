"""Verify suites report a failing check with its first counterexample."""

import dataclasses

import numpy as np

from footprint_lab import cli, codes, formulas, linalg
from footprint_lab.verify import Check, VerifyConfig, run_suites


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


def test_check_builds_only_the_first_failing_counterexample():
    built = []

    def builder(i):
        return lambda: built.append(i) or {"case": i}
    check = Check("c")
    check.case(True, builder(0))
    assert check.passed and check.counterexample is None and built == []
    check.case(False, builder(1))
    check.case(False, builder(2), cases=3)
    check.case(True, builder(3))
    assert built == [1] and check.counterexample == {"case": 1}
    assert check.passed is False and check.cases == 6
    bare = Check("bare")
    bare.case(False)
    assert bare.passed is False and bare.counterexample is None


def test_codes_dim_check_computes_the_rank(monkeypatch):
    """A generator of deficient rank is a failed check with its code's
    parameters, not an exception from the code builder."""
    monkeypatch.setattr(linalg, "rank", lambda field, mat: mat.shape[0] - 1)
    (rep,) = run_suites(["codes"], VerifyConfig())
    dim = rep.checks[0]
    assert dim.name.startswith("generator rank matches")
    assert dim.passed is False
    assert dim.counterexample == {"q": 2, "m": 1, "d": 1, "k": 2}


def test_codes_min_distance_recounts_the_witness(monkeypatch):
    """Witness rows that do not span a minimum-weight codeword fail the
    minimum-distance check even though the scan's weight is right."""
    def mindist():
        (rep,) = run_suites(["codes"], VerifyConfig())
        return rep.checks[2]
    clean = mindist()
    assert clean.name == "exhaustive minimum distance matches the closed form"
    assert clean.passed

    exhaustive = codes.ghw_exhaustive

    def shifted_rows(code, r, **kw):
        res = exhaustive(code, r, **kw)
        return dataclasses.replace(res, rows=np.roll(res.rows, 1, axis=1))
    monkeypatch.setattr(codes, "ghw_exhaustive", shifted_rows)
    broken = mindist()
    assert broken.passed is False
    assert broken.cases == clean.cases
    assert broken.counterexample == {"q": 4, "m": 1, "d": 3, "weight": 2, "formula": 2,
                                     "recount": 3}


def test_dependent_witness_family_is_a_failed_case(monkeypatch):
    """A construction whose members are dependent fails the witness check
    with its parameters; the suite still reports every other check."""
    monkeypatch.setattr(linalg, "rank", lambda field, mat: mat.shape[0] - 1)
    (rep,) = run_suites(["sandwich"], VerifyConfig())
    wit = rep.checks[-1]
    assert wit.name == "constructed witness families attain every predicted maximum"
    assert wit.passed is False
    assert wit.counterexample["error"].endswith("is linearly dependent")
    assert {key: wit.counterexample[key] for key in "qdmr"} == {"q": 3, "d": 1, "m": 1, "r": 1}
    assert all(check.passed for check in rep.checks[:-1])


def test_expander_covers_every_field_size():
    """Each q of the grid adds its own subset walk: q = 3 and q = 5 alone
    report 896 and 1152 cases, together their sum."""
    def cases(qs):
        (rep,) = run_suites(["expander"], VerifyConfig(qs=qs))
        assert rep.passed
        return rep.cases
    assert cases((3,)) == 896
    assert cases((5,)) == 1152
    assert cases((3, 5)) == 896 + 1152
