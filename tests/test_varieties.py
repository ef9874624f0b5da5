"""Point enumeration, exhaustive subspace searches, witness families."""

import itertools

import numpy as np
import pytest

from footprint_lab.errors import (AmbientMismatch, BadEncoding, BudgetExceeded,
                                  IndexOutOfRange, OutOfRange, WitnessInvalid)
from footprint_lab import codes as co
from footprint_lab import formulas as fo
from footprint_lab import linalg as li
from footprint_lab import monomials as mo
from footprint_lab import varieties as va
from footprint_lab.gf import make_field
from footprint_lab.polys import make_affine_poly, make_poly, monomial_poly
from footprint_lab.verify import VerifyConfig, run_suites


def test_projective_points():
    pts = va.projective_points(1, 3)
    assert len(pts) == 4
    assert set(pts) == {(0, 1), (1, 1), (2, 1), (1, 0)}
    for m, q in ((2, 3), (3, 2), (1, 4), (2, 4)):
        pts = va.projective_points(m, q)
        assert len(pts) == fo.projective_count(m, q)
        assert len(set(pts)) == len(pts)
        # canonical representatives: last nonzero coordinate is 1
        for pt in pts:
            last = max(j for j, c in enumerate(pt) if c)
            assert pt[last] == 1


def test_affine_points():
    assert len(va.affine_points(2, 3)) == 9
    assert len(va.affine_points(3, 2)) == 8


def test_count_common_zeros():
    # a linear form cuts out a hyperplane
    assert va.count_common_zeros([monomial_poly(2, (1, 0, 0))], 2, 3) == 4
    # the conic x0*x1 - x2^2 over F_3
    conic = make_poly(2, 2, {(1, 1, 0): 1, (0, 0, 2): 2})
    assert va.count_common_zeros([conic], 2, 3) == 4
    # no polynomials, or identically vanishing ones: everything counts
    assert va.count_common_zeros([], 2, 3) == 13
    vanishing = make_poly(1, 3, {(2, 1): 1, (1, 2): 1})  # x0^2*x1 + x0*x1^2 over F_2
    assert va.count_common_zeros([vanishing], 1, 2) == 3
    with pytest.raises(AmbientMismatch):
        va.count_common_zeros([monomial_poly(1, (1, 0))], 2, 3)


@pytest.mark.parametrize("coeff", [7, -1])
def test_count_common_zeros_refuses_non_encodings(coeff):
    with pytest.raises(BadEncoding) as info:
        va.count_common_zeros([make_poly(2, 1, {(1, 0, 0): coeff})], 2, 3)
    assert str(info.value) == f"{coeff} is not an element encoding of F_3"


def test_brute_force_linear():
    got = [va.brute_force_max_points(r, 1, 2, 3).value for r in (1, 2, 3)]
    assert got == [4, 1, 0]


def test_brute_force_line_quartics():
    got = [va.brute_force_max_points(r, 3, 1, 4).value for r in (1, 2, 3, 4)]
    assert got == [3, 2, 1, 0]


def test_brute_force_witness_recounts():
    for r in (1, 2, 4):
        res = va.brute_force_max_points(r, 2, 2, 3)
        assert len(res.witness) == r
        assert va.count_common_zeros(res.witness, 2, 3) == res.value
    assert va.brute_force_max_points(1, 2, 2, 3).enumerated == 364


@pytest.mark.parametrize("r, value", [(3, 7), (8, 2)])
def test_branch_and_bound_decides_large_scans(r, value):
    """d = q on the plane over F_3: 1.8e10 subspaces at r = 3, decided in
    well under a second because the scan prunes; each value equals the
    d = q lower bound, and the witness's own zeros recount it."""
    res = va.brute_force_max_points(r, 3, 2, 3, budget=10**12)
    assert res.enumerated == fo.gaussian_binomial(10, r, 3)
    assert res.value == value
    assert va.count_common_zeros(res.witness, 2, 3) == value


def test_brute_force_argument_checks():
    with pytest.raises(IndexOutOfRange):
        va.brute_force_max_points(0, 2, 2, 3)
    with pytest.raises(IndexOutOfRange):
        va.brute_force_max_points(7, 2, 2, 3)
    with pytest.raises(BudgetExceeded) as info:
        va.brute_force_max_points(2, 2, 2, 3, budget=100)
    assert info.value.estimated > 100
    assert info.value.budget == 100


@pytest.mark.parametrize("call, exc, message", [
    (lambda: va.brute_force_max_points(1, 2, 2, 3, mode="bogus"), ValueError, "mode 'bogus'"),
    (lambda: va.brute_force_max_points(1, 2, 2, 3, mode="all", footprint_check=True),
     ValueError, "footprint bound check requires reduced mode"),
    (lambda: va.brute_force_affine_max_points(0, 2, 2, 3), IndexOutOfRange,
     "r = 0 outside 1..6"),
    (lambda: va.brute_force_affine_max_points(7, 2, 2, 3), IndexOutOfRange,
     "r = 7 outside 1..6"),
    (lambda: va.brute_force_max_footprint(0, 2, 2, 3, 4), IndexOutOfRange,
     "r = 0 outside 1..6"),
    (lambda: va.brute_force_max_footprint(7, 2, 2, 3, 4), IndexOutOfRange,
     "r = 7 outside 1..6"),
], ids=["bad-mode", "footprint-check-all-mode", "affine-rank-0", "affine-rank-7",
        "footprint-rank-0", "footprint-rank-7"])
def test_search_argument_errors(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert info.type is exc
    assert str(info.value) == message


def test_brute_force_worker_invariance():
    lone = va.brute_force_max_points(2, 2, 2, 3, workers=1)
    many = va.brute_force_max_points(2, 2, 2, 3, workers=3)
    assert lone.value == many.value
    assert lone.witness == many.witness
    assert lone.enumerated == many.enumerated


@pytest.mark.parametrize("cap", [None, 30])
@pytest.mark.parametrize("workers", [1, 2])
def test_cached_row_table_scans_like_a_fresh_one(monkeypatch, fresh_row_tables, cap, workers):
    """Every rank's scan over the cached table gives the fresh table's
    count, witness, subspaces and violations; a cap of 30 leaves the
    first blocks unstored."""
    if cap is not None:
        monkeypatch.setattr(li, "CHUNK_CAP", cap)
    monkeypatch.setattr(li, "POOL_MIN_WORK", 0)  # a real pool at workers 2
    d, m, q = 2, 2, 3
    mat = va.projective_eval_matrix("reduced", d, m, q)
    basis = mo.reduced_monomials(m, q, d)
    for r in range(1, len(basis) + 1):
        bounds = mo.footprint_sizes(basis, r, mo.stable_degree(d, m, q), q, m)
        for given in (None, bounds, [-1] * len(bounds)):
            fresh = li.scan_max_zero_columns(li.RowTable(make_field(q), mat), r, workers, given)
            cached = li.scan_max_zero_columns(va.projective_row_table("reduced", d, m, q), r,
                                              workers, given)
            assert cached[0] == fresh[0] and np.array_equal(cached[1], fresh[1])
            assert cached[2:] == fresh[2:]
    assert va.projective_row_table.cache_info().currsize == 1
    if cap is not None:
        assert va.projective_row_table("reduced", d, m, q).blocks[0] is None


def test_brute_force_all_mode_shifts_by_vanishing_dim():
    # over F_2 on the line, degree 3: one cubic vanishes identically
    assert fo.vanishing_forms_dim(3, 1, 2) == 1
    allv = [va.brute_force_max_points(r, 3, 1, 2, mode="all").value
            for r in (1, 2, 3, 4)]
    red = [va.brute_force_max_points(r, 3, 1, 2, mode="reduced").value
           for r in (1, 2, 3)]
    assert allv == [3, 2, 1, 0]
    assert red == [2, 1, 0]
    assert allv[1:] == red


def test_footprint_check_no_violations():
    for r in (1, 3, 6):
        res = va.brute_force_max_points(r, 2, 2, 3, footprint_check=True)
        assert res.violations == ()


def test_footprint_check_reports_each_pattern_over_its_bound(monkeypatch):
    """Each pivot pattern's maximum is checked against its own bound: one
    bound lowered below its pattern's maximum gives exactly one violation,
    which the sandwich suite reports as its counterexample."""
    r, d, m, q = 2, 2, 2, 3
    res = va.brute_force_max_points(r, d, m, q)
    basis = mo.reduced_monomials(m, q, d)
    leads = tuple(f.terms[0][0] for f in res.witness)  # terms run in descending lex
    pattern = va.linalg.pivot_patterns(len(basis), r).index(tuple(map(basis.index, leads)))
    footprint_sizes = mo.footprint_sizes

    def lowered(pool, rank, *args):
        bounds = footprint_sizes(pool, rank, *args)
        if (tuple(pool), rank) == (basis, r):
            bounds[pattern] = res.value - 1
        return bounds
    monkeypatch.setattr(mo, "footprint_sizes", lowered)
    violation = (tuple(map(mo.format_monomial, leads)), res.value, res.value - 1)
    assert va.brute_force_max_points(r, d, m, q, footprint_check=True).violations == (violation,)
    (rep,) = run_suites(["sandwich"], VerifyConfig())
    (viol,) = (c for c in rep.checks
               if c.name == "no subspace beats the footprint of its leading monomials")
    assert viol.passed is False
    assert viol.counterexample == {"q": q, "d": d, "m": m, "r": r, "violation": list(violation)}


def test_brute_force_affine():
    got = [va.brute_force_affine_max_points(r, 2, 1, 3).value for r in (1, 2, 3)]
    assert got == [2, 1, 0]
    res = va.brute_force_affine_max_points(1, 2, 2, 3)
    assert res.value == fo.affine_max_points(1, 2, 2, 3) == 6
    assert len(res.witness) == 1


def test_brute_force_max_footprint():
    res = va.brute_force_max_footprint(1, 2, 2, 3, 6)
    assert res.value == 8
    assert res.witness == ((2, 0, 0),)
    got = [va.brute_force_max_footprint(r, 2, 2, 3, 6).value for r in range(1, 7)]
    assert got == [8, 5, 4, 2, 1, 0]
    with pytest.raises(BudgetExceeded):
        va.brute_force_max_footprint(3, 2, 2, 3, 6, budget=5)


def test_max_footprint_budget_prices_the_mask_scan():
    # k = 6 pool masks over 13 targets, then C(6, 3) = 20 subsets of 3 ORs
    want = va.brute_force_max_footprint(3, 2, 2, 3, 6)
    assert va.brute_force_max_footprint(3, 2, 2, 3, 6, budget=138) == want
    with pytest.raises(BudgetExceeded) as info:
        va.brute_force_max_footprint(3, 2, 2, 3, 6, budget=137)
    assert info.value.estimated == 138


def test_max_footprint_witness_is_earliest_maximizer():
    tied = 0
    for r, d, m, q, e in ((2, 2, 2, 3, 3), (3, 2, 2, 3, 6), (2, 3, 2, 4, 5),
                          (3, 1, 3, 2, 2), (2, 2, 1, 5, 3)):
        pool = mo.reduced_monomials(m, q, d)
        target = mo.reduced_monomials(m, q, e)
        sizes = [sum(1 for mu in target if not any(mo.divides(nu, mu) for nu in combo))
                 for combo in itertools.combinations(pool, r)]
        best = max(sizes)
        tied += sizes.count(best) > 1
        first = next(itertools.islice(itertools.combinations(pool, r),
                                      sizes.index(best), None))
        res = va.brute_force_max_footprint(r, d, m, q, e)
        assert (res.value, res.witness) == (best, first)
        assert res.enumerated == len(sizes)
    # the instances are only a test of "earliest" if maximizers tie
    assert tied >= 3


def test_construct_witness_matches_prediction():
    for q, d, m in ((3, 2, 2), (4, 3, 2), (5, 4, 1), (5, 3, 2)):
        for r in range(1, fo.binom(m + d, d) + 1):
            res = va.construct_witness(r, d, m, q)
            assert res.value == res.predicted
            assert len(res.polys) == r
            assert va.count_common_zeros(res.polys, m, q) == res.value


def test_construct_witness_degenerate_ranks():
    full = fo.binom(4, 2)
    res = va.construct_witness(full, 2, 2, 3)
    assert res.value == 0
    res = va.construct_witness(1, 2, 2, 3)
    assert res.value == 7
    with pytest.raises(IndexOutOfRange):
        va.construct_witness(0, 2, 2, 3)
    with pytest.raises(OutOfRange):
        va.construct_witness(1, 4, 2, 3)  # d > q has no construction


def test_construct_witness_reports_its_own_count(monkeypatch):
    """A construction that misses its prediction is returned as built,
    with its own count; no exhaustive scan stands in for it."""
    def no_scan(*args, **kwargs):
        raise AssertionError("construct_witness must not scan")
    monkeypatch.setattr(va, "brute_force_max_points", no_scan)
    monkeypatch.setattr(va, "count_common_zeros", lambda *args: -1)
    res = va.construct_witness(2, 2, 2, 3)
    assert (res.value, res.predicted, len(res.polys)) == (-1, 5, 2)


def test_construct_witness_dependent_family_raises(monkeypatch):
    monkeypatch.setattr(va.linalg, "rank", lambda field, mat: mat.shape[0] - 1)
    with pytest.raises(WitnessInvalid):
        va.construct_witness(2, 2, 2, 3)


def _ghw_search(r, d, m, q):
    return co.ghw_exhaustive(co.build_prm(d, m, q), r)


@pytest.mark.parametrize("search", [va.brute_force_max_points,
                                    va.brute_force_affine_max_points,
                                    _ghw_search])
def test_refused_scan_builds_no_points(monkeypatch, search):
    """A refusal is priced from the point count alone: neither the points
    nor the evaluation matrix are built first."""
    def unbuilt(*args):
        raise AssertionError("built before the budget was charged")
    for name in ("projective_points", "affine_points"):
        monkeypatch.setattr(va, name, unbuilt)
    monkeypatch.setattr(va.linalg, "eval_matrix", unbuilt)
    with pytest.raises(BudgetExceeded):
        search(1, 2, 5, 25)


def test_search_result_shape():
    res = va.brute_force_max_points(1, 1, 1, 2)
    assert res.value == 1
    assert res.violations == ()
    assert res.enumerated == fo.gaussian_binomial(2, 1, 2)


@pytest.mark.parametrize("r, d, m, q, mode", [
    (2, 2, 2, 3, "reduced"), (1, 3, 1, 8, "reduced"), (2, 2, 1, 9, "reduced"),
    (2, 2, 2, 3, "all")])
def test_projective_rows_are_the_scan_rref(r, d, m, q, mode):
    """rows is the scan's RREF witness as uint8, the witness forms are its
    rows over the scan's basis, and ghw reports the same rows."""
    res = va.brute_force_max_points(r, d, m, q, mode=mode)
    _, rref, _, _ = li.scan_max_zero_columns(
        li.RowTable(make_field(q), va.projective_eval_matrix(mode, d, m, q)), r)
    assert res.rows.dtype == np.uint8 and res.rows.shape == rref.shape
    assert (res.rows == rref).all()
    basis = mo.reduced_monomials(m, q, d) if mode == "reduced" else mo.all_monomials(m, d)
    assert res.witness == tuple(make_poly(m, d, {mon: int(c) for mon, c in zip(basis, row)})
                                for row in res.rows)
    assert res == va.brute_force_max_points(r, d, m, q, mode=mode, workers=2)
    if mode == "reduced":
        ghw = co.ghw_exhaustive(co.build_prm(d, m, q), r)
        assert ghw.rows.dtype == np.uint8 and (ghw.rows == res.rows).all()


@pytest.mark.parametrize("r, d, m, q", [(2, 2, 2, 3), (1, 2, 1, 4), (3, 2, 2, 2)])
def test_affine_rows_are_the_scan_rref(r, d, m, q):
    res = va.brute_force_affine_max_points(r, d, m, q)
    basis = fo.bounded_tuples(m, q - 1, d, "at_most")
    mat = li.eval_matrix(make_field(q), basis, va.affine_points(m, q))
    _, rref, _, _ = li.scan_max_zero_columns(li.RowTable(make_field(q), mat), r)
    assert res.rows.dtype == np.uint8 and res.rows.shape == rref.shape
    assert (res.rows == rref).all()
    assert res.witness == tuple(make_affine_poly(m, {mon: int(c) for mon, c in zip(basis, row)})
                                for row in res.rows)


def test_footprint_search_has_no_rows():
    assert va.brute_force_max_footprint(2, 2, 2, 3, 4).rows is None
