"""Closed forms: frozen reference values and cross identities.

The reference tables were computed independently (by hand for the small
grids, by exhaustive search for the rest) before being frozen here.
"""

import pytest

from footprint_lab.errors import IndexOutOfRange, OutOfRange
from footprint_lab import formulas as fo
from footprint_lab import monomials as mo


def test_binom_conventions():
    assert fo.binom(5, 2) == 10
    assert fo.binom(3, -1) == 0
    assert fo.binom(-1, 0) == 0
    assert fo.binom(2, 3) == 0
    assert fo.binom(0, 0) == 1


def test_projective_count():
    assert fo.projective_count(-2, 3) == 0
    assert fo.projective_count(-1, 3) == 0
    assert fo.projective_count(0, 3) == 1
    assert fo.projective_count(1, 3) == 4
    assert fo.projective_count(2, 3) == 13
    assert fo.projective_count(2, 4) == 21


def test_bounded_tuples():
    pool = fo.bounded_tuples(2, 2, 2, "at_most")
    assert pool == ((2, 0), (1, 1), (1, 0), (0, 2), (0, 1), (0, 0))
    assert fo.bounded_tuples(2, 2, 2, "exact") == ((2, 0), (1, 1), (0, 2))
    assert fo.bounded_tuples(0, 2, 0, "exact") == ((),)
    assert fo.bounded_tuples(0, 2, 1, "exact") == ()
    with pytest.raises(ValueError):
        fo.bounded_tuples(2, 2, 2, "sometimes")
    with pytest.raises(ValueError, match="length -1 is negative"):
        fo.bounded_tuples(-1, 2, 2)


def test_affine_maximum_table():
    # q=3, d=2, m=2: 9, then the positional weights down to 0
    got = [fo.affine_max_points(r, 2, 2, 3) for r in range(7)]
    assert got == [9, 6, 4, 3, 2, 1, 0]
    got = [fo.affine_max_points(r, 1, 2, 3) for r in range(3)]
    assert got == [9, 3, 1]
    with pytest.raises(IndexOutOfRange):
        fo.affine_max_points(7, 2, 2, 3)


def test_projective_ceiling_table():
    got = [fo.projective_upper_bound(r, 2, 2, 3) for r in range(1, 7)]
    assert got == [8, 5, 4, 2, 1, 0]
    with pytest.raises(IndexOutOfRange):
        fo.projective_upper_bound(0, 2, 2, 3)


def test_predicted_projective_table():
    got = [fo.conjectured_max_points(r, 2, 2, 3) for r in range(1, 7)]
    assert [v for v, _ in got] == [7, 5, 4, 2, 1, 0]
    assert all(s == "proven" for _, s in got)
    got = [fo.conjectured_max_points(r, 1, 2, 3) for r in range(1, 4)]
    assert [v for v, _ in got] == [4, 1, 0]
    got = [fo.conjectured_max_points(r, 3, 1, 4) for r in range(1, 5)]
    assert [v for v, _ in got] == [3, 2, 1, 0]
    with pytest.raises(OutOfRange):
        fo.conjectured_max_points(1, 4, 2, 3)  # d > q
    with pytest.raises(OutOfRange):
        fo.conjectured_max_points(1, 0, 2, 3)


def test_rank_split():
    splits = [fo.rank_split(r, 2, 2) for r in range(1, 7)]
    assert splits == [(0, 1), (0, 2), (1, 0), (1, 1), (2, 0), (2, 1)]
    for d, m in ((1, 3), (2, 2), (3, 2), (4, 3)):
        top = fo.binom(m + d, d)
        for r in range(1, top + 1):
            i, j = fo.rank_split(r, d, m)
            base = sum(fo.binom(m + d - a, d - 1) for a in range(1, i + 1))
            assert base + j == r
            if r < top:
                assert 0 <= j < fo.binom(m + d - i - 1, d - 1)
        assert fo.rank_split(top, d, m) == (m, 1)
    with pytest.raises(IndexOutOfRange):
        fo.rank_split(0, 2, 2)


def test_known_families():
    # d = 1: hyperplane sections
    assert fo.known_family(2, 1, 3, 4) == (fo.projective_count(1, 4), "linear")
    # m = 1, d < q
    assert fo.known_family(2, 3, 1, 4) == (2, "line")
    # near the top of the rank range
    assert fo.known_family(14, 4, 2, 5) == (1, "tail")
    assert fo.known_family(15, 4, 2, 5) == (0, "tail")
    # just below a block boundary
    assert fo.known_family(7, 4, 2, 5) == (9, "boundary")
    assert fo.known_family(10, 4, 2, 5) == (6, "boundary")
    # small ranks
    assert fo.known_family(5, 4, 2, 5)[1] == "small-rank"
    # at q=5, d=4, m=2 the families tile the whole rank range
    assert all(fo.known_family(r, 4, 2, 5) is not None for r in range(1, 16))
    # but between the small ranks and the first boundary window a gap opens
    assert fo.known_family(8, 5, 2, 7) is None
    assert fo.known_family(10, 5, 2, 7) is None
    assert fo.conjectured_max_points(8, 5, 2, 7)[1] == "conjectural"
    # frozen q=5, d=4, m=2 values
    expect = {7: 9, 8: 8, 9: 7, 10: 6, 14: 1, 15: 0}
    for r, value in expect.items():
        assert fo.known_max_points(r, 4, 2, 5) == value


def test_tail_family_survives_large_degree():
    # at d = q the prediction is only a lower bound, but the tail values
    # are still exact; the status flag must nevertheless stay conservative
    assert fo.known_family(3, 2, 1, 2) == (0, "tail")
    assert fo.conjectured_max_points(3, 2, 1, 2) == (0, "conjectural")


def test_tail_family_needs_degree_at_most_q():
    # above q some forms vanish on all of P^m, so s <= d points no longer
    # impose independent conditions: s = 4 cannot be counted on the 3
    # points of P^1(F_2)
    assert fo.known_max_points(1, 4, 1, 2) is None
    above = 0
    for q in (2, 3, 4, 5):
        for m in (1, 2, 3):
            for d in range(2, q + 4):
                top = fo.binom(m + d, d)
                for r in range(max(1, top - d), top + 1):
                    hit = fo.known_family(r, d, m, q)
                    if d > q:
                        assert hit is None, (r, d, m, q)
                        above += top - r > fo.projective_count(m, q)
                    elif not (m == 1 and d < q):  # the line family comes first there
                        assert hit == (top - r, "tail"), (r, d, m, q)
    # tail values the old rule claimed above the point count p_m
    assert above == 12


def test_macaulay_tuple():
    assert fo.macaulay_tuple(5, 2) == (1, 1)
    assert fo.macaulay_tuple(0, 3) == (-1, -1, -1)
    assert fo.macaulay_tuple(fo.binom(5, 2), 2) == (3, -1)
    for d in (1, 2, 3, 4):
        for n in range(150):
            parts = fo.macaulay_tuple(n, d)
            assert fo.macaulay_value(parts) == n
            assert all(a >= b for a, b in zip(parts, parts[1:]))
            assert all(x >= -1 for x in parts)
    with pytest.raises(OutOfRange):
        fo.macaulay_tuple(-1, 2)
    with pytest.raises(OutOfRange):
        fo.macaulay_tuple(5, 0)


def test_macaulay_forms_match():
    for q, m, d in ((3, 2, 2), (4, 3, 3), (5, 2, 4), (7, 4, 2)):
        top = fo.binom(m + d, d)
        for r in range(top + 1):
            assert fo.affine_max_points(r, d, m, q) == \
                fo.affine_max_points_macaulay(r, d, m, q)
        for r in range(1, top + 1):
            assert fo.conjectured_max_points(r, d, m, q)[0] == \
                fo.conjectured_max_points_macaulay(r, d, m, q)
    with pytest.raises(OutOfRange):
        fo.affine_max_points_macaulay(1, 3, 2, 3)  # needs d < q


def test_vanishing_forms_dim():
    # no form of degree <= q vanishes identically
    for d in range(4):
        assert fo.vanishing_forms_dim(d, 2, 3) == 0
    assert fo.vanishing_forms_dim(4, 2, 3) == 3
    assert fo.vanishing_forms_dim(4, 2, 3) == fo.binom(3, 2)  # d = q+1 case
    assert fo.vanishing_forms_dim(3, 1, 2) == 1
    # saturation: dimension count minus the point count
    for d in (5, 6, 7):
        assert fo.vanishing_forms_dim(d, 2, 3) == fo.binom(2 + d, d) - 13
    for q, m in ((2, 1), (2, 2), (3, 1), (3, 2), (4, 2)):
        for d in range(m * (q - 1) + 3):
            expect = fo.binom(m + d, d) - len(mo.reduced_monomials(m, q, d))
            assert fo.vanishing_forms_dim(d, m, q) == expect


@pytest.mark.parametrize("call, exc, message", [
    (lambda: fo.affine_max_points_macaulay(7, 2, 2, 3), IndexOutOfRange, "rank 7 exceeds 6"),
    (lambda: fo.known_family(0, 2, 2, 3), IndexOutOfRange, "rank 0 outside 1..6"),
    (lambda: fo.conjectured_max_points_macaulay(1, 4, 2, 3), OutOfRange, "d = 4 outside 1..3"),
    (lambda: fo.conjectured_max_points_macaulay(7, 2, 2, 3), IndexOutOfRange,
     "rank 7 exceeds 6"),
    (lambda: fo.vanishing_forms_dim(-1, 2, 3), OutOfRange, "d = -1 must be >= 0"),
], ids=["affine-macaulay-rank", "known-family-rank", "conjectured-macaulay-degree",
        "conjectured-macaulay-rank", "vanishing-negative-degree"])
def test_domain_errors(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert info.type is exc
    assert str(info.value) == message


def test_prm_dimension():
    assert fo.prm_dimension(2, 2, 3) == 6
    assert fo.prm_dimension(3, 1, 2) == 3
    assert fo.prm_dimension(5, 2, 3) == 13
    for q, m in ((2, 1), (2, 3), (3, 2), (4, 2)):
        for d in range(1, m * (q - 1) + 3):
            assert fo.prm_dimension(d, m, q) == len(mo.reduced_monomials(m, q, d))
    with pytest.raises(OutOfRange):
        fo.prm_dimension(0, 2, 3)


def test_prm_min_distance():
    assert fo.prm_min_distance(2, 2, 3) == 6
    assert fo.prm_min_distance(2, 2, 2) == 2
    assert fo.prm_min_distance(1, 2, 3) == 9
    assert fo.prm_min_distance(3, 1, 4) == 2
    with pytest.raises(OutOfRange):
        fo.prm_min_distance(0, 2, 3)
    with pytest.raises(OutOfRange):
        fo.prm_min_distance(5, 2, 3)


def test_ghw_lower_bound():
    got = [fo.ghw_lower_bound(r, 2, 2, 3) for r in range(1, 7)]
    assert got == [5, 8, 9, 11, 12, 13]
    with pytest.raises(OutOfRange):
        fo.ghw_lower_bound(1, 3, 2, 3)  # needs d < q
    with pytest.raises(IndexOutOfRange):
        fo.ghw_lower_bound(7, 2, 2, 3)


def test_gaussian_binomial():
    assert fo.gaussian_binomial(6, 1, 3) == 364
    assert fo.gaussian_binomial(6, 2, 3) == 11011
    assert sum(fo.gaussian_binomial(6, r, 3) for r in range(1, 7)) == 56631
    assert fo.gaussian_binomial(5, 0, 2) == 1
    assert fo.gaussian_binomial(3, 4, 2) == 0
    for n in range(1, 6):
        for k in range(n + 1):
            assert fo.gaussian_binomial(n, k, 3) == fo.gaussian_binomial(n, n - k, 3)
