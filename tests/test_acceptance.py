"""Acceptance gate: ten pinned end-to-end criteria.

Every criterion prints one [PASS]/[FAIL] line (run with -s to stream them)
and asserts exact values; the stated wall-clock ceilings are asserted too.
"""

import time

from footprint_lab import codes as co
from footprint_lab import formulas as fo
from footprint_lab import varieties as va
from footprint_lab.verify import VerifyConfig, run_suites


def _report(num, description, ok):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}"
    print(line)
    assert ok, line


def _suites_pass(names):
    reports = run_suites(names, VerifyConfig())
    return (all(rep.passed for rep in reports)
            and all(rep.cases > 0 for rep in reports))


def test_criterion_01_exhaustive_projective_maxima():
    start = time.perf_counter()
    got = [va.brute_force_max_points(r, 2, 2, 3, footprint_check=True).value
           for r in range(1, 7)]
    predicted = [fo.conjectured_max_points(r, 2, 2, 3)[0] for r in range(1, 7)]
    elapsed = time.perf_counter() - start
    ok = got == [7, 5, 4, 2, 1, 0] == predicted and elapsed < 120
    _report(1, "exhaustive maxima for quadric systems on the plane over F_3 "
               f"equal (7, 5, 4, 2, 1, 0) in {elapsed:.1f}s", ok)


def test_criterion_02_linear_systems_and_line_quartics():
    lin = [va.brute_force_max_points(r, 1, 2, 3).value for r in (1, 2, 3)]
    cub = [va.brute_force_max_points(r, 3, 1, 4).value for r in (1, 2, 3, 4)]
    ok = lin == [4, 1, 0] and cub == [3, 2, 1, 0]
    _report(2, "linear systems over F_3 give (4, 1, 0) and line cubics over "
               "F_4 give (3, 2, 1, 0)", ok)


def test_criterion_03_extremal_footprints_hit_the_ceiling():
    got = [va.brute_force_max_footprint(r, 2, 2, 3, 6).value for r in range(1, 7)]
    ceiling = [fo.projective_upper_bound(r, 2, 2, 3) for r in range(1, 7)]
    ok = got == [8, 5, 4, 2, 1, 0] == ceiling
    _report(3, "maximal stable footprints over F_3 equal the ceiling "
               "(8, 5, 4, 2, 1, 0)", ok)


def test_criterion_04_exhaustive_affine_maxima():
    start = time.perf_counter()
    ok = True
    for d in (1, 2):
        pool = fo.bounded_tuples(2, 2, d, "at_most")
        for r in range(1, len(pool) + 1):
            got = va.brute_force_affine_max_points(r, d, 2, 3).value
            ok = ok and got == fo.affine_max_points(r, d, 2, 3)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120
    _report(4, "exhaustive affine maxima over F_3 match the positional "
               f"formula for every rank in {elapsed:.1f}s", ok)


def test_criterion_05_macaulay_forms_agree():
    ok = True
    for q in (3, 4, 5, 7):
        for m in range(1, 5):
            for d in range(1, q):
                top = fo.binom(m + d, d)
                for r in range(top + 1):
                    ok = ok and fo.affine_max_points(r, d, m, q) == \
                        fo.affine_max_points_macaulay(r, d, m, q)
                for r in range(1, top + 1):
                    ok = ok and fo.conjectured_max_points(r, d, m, q)[0] == \
                        fo.conjectured_max_points_macaulay(r, d, m, q)
    _report(5, "direct and binomial-sum forms agree for q in {3,4,5,7}, "
               "m <= 4, d < q, every rank", ok)


def test_criterion_06_hypercube_extremality_suites():
    ok = _suites_pass(["clements-lindstrom", "wei", "affinecomb"])
    _report(6, "lex-segment extremality (single step, iterated, mixed "
               "degree) exhaustive over F_2 and F_3 at level 2", ok)


def test_criterion_07_level_collapse_and_expander():
    ok = _suites_pass(["footprint-decomposition", "specialization", "expander"])
    _report(7, "level decomposition, specialization transfer and the "
               "expander checks pass for every quadric set over F_3", ok)


def test_criterion_08_code_dimensions_distances_duality():
    start = time.perf_counter()
    ok = True
    for q in (2, 3, 4):
        for m in range(1, 4):
            for d in range(1, m * (q - 1) + 1):
                ok = ok and co.build_prm(d, m, q).k == fo.prm_dimension(d, m, q)
    ok = ok and co.ghw_table(co.build_prm(2, 1, 3)) == (2, 3, 4)
    ok = ok and co.ghw_exhaustive(co.build_prm(2, 2, 3), 1).value == 6
    ok = ok and co.ghw_exhaustive(co.build_prm(2, 2, 2), 1).value == 2
    for d, m, q in ((1, 1, 3), (1, 2, 3), (2, 1, 3), (2, 2, 3), (3, 1, 2)):
        ok = ok and all(row["holds"] for row in co.check_duality(d, m, q))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 300
    _report(8, "code dimensions match the alternating sum, spot minimum "
               f"distances and weight/zero duality hold in {elapsed:.1f}s", ok)


def test_criterion_09_witness_families():
    start = time.perf_counter()
    ok = True
    for q in (3, 4, 5):
        for d in range(1, q):
            for m in (1, 2):
                for r in range(1, fo.binom(m + d, d) + 1):
                    res = va.construct_witness(r, d, m, q)
                    ok = ok and res.value == res.predicted
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120
    _report(9, "constructed witnesses attain the predicted maximum for "
               f"q in {{3,4,5}}, d < q, m <= 2, every rank in {elapsed:.1f}s", ok)


def test_criterion_10_footprint_bound_never_violated():
    violations = []
    for r in range(1, 7):
        res = va.brute_force_max_points(r, 2, 2, 3, footprint_check=True)
        violations.extend(res.violations)
    _report(10, "no subspace in the full F_3 quadric scan exceeds its "
                "leading-monomial footprint bound", violations == [])
