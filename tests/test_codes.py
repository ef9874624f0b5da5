"""Evaluation codes on projective space and their weight hierarchies."""

import numpy as np
import pytest

from footprint_lab.errors import (AmbientMismatch, BadEncoding, DependentBasis,
                                  IndexOutOfRange, OutOfRange)
from footprint_lab import codes as co
from footprint_lab import formulas as fo
from footprint_lab import linalg as li
from footprint_lab import monomials as mo
from footprint_lab import varieties as va
from footprint_lab.gf import make_field


def test_build_prm_shapes():
    code = co.build_prm(2, 2, 3)
    assert (code.n, code.k) == (13, 6)
    assert code.generator.shape == (6, 13)
    assert code.basis == mo.reduced_monomials(2, 3, 2)
    assert code.generator is code.generator  # evaluated once, on first use
    for d, m, q in ((1, 2, 3), (2, 2, 2), (3, 1, 4), (3, 3, 2)):
        code = co.build_prm(d, m, q)
        assert code.k == fo.prm_dimension(d, m, q)
        assert code.n == fo.projective_count(m, q)
    with pytest.raises(OutOfRange):
        co.build_prm(0, 2, 3)
    with pytest.raises(OutOfRange):
        co.build_prm(2, 0, 3)


def test_full_space_code():
    # beyond d = m(q-1) the code saturates to the whole ambient space
    code = co.build_prm(2, 1, 2)
    assert (code.n, code.k) == (3, 3)
    assert co.ghw_table(code) == (1, 2, 3)
    bigger = co.build_prm(5, 1, 2)
    assert (bigger.n, bigger.k) == (3, 3)


def test_first_order_code_is_equiweight():
    # order-1 evaluations: every nonzero codeword is a hyperplane complement
    code = co.build_prm(1, 2, 3)
    assert (code.n, code.k) == (13, 3)
    for row in np.eye(3, dtype=np.uint8):
        assert co.subspace_weight(code, row) == 9
    assert co.ghw_table(code) == (9, 12, 13)


def test_subspace_weight():
    code = co.build_prm(1, 2, 3)
    assert co.subspace_weight(code, [1, 0, 0]) == 9
    assert co.subspace_weight(code, [[1, 0, 0], [0, 1, 0]]) == 12
    with pytest.raises(DependentBasis):
        co.subspace_weight(code, [[1, 0, 0], [2, 0, 0]])
    with pytest.raises(AmbientMismatch):
        co.subspace_weight(code, [1, 0])


@pytest.mark.parametrize("rows", [[[3, 0, 0]], [[-1, 0, 0]], [[1.0, 0, 0]]])
def test_subspace_weight_refuses_non_encodings(rows):
    with pytest.raises(BadEncoding) as info:
        co.subspace_weight(co.build_prm(1, 2, 3), rows)
    assert str(info.value) == "rows hold entries that are not element encodings of F_3"


def test_ghw_quadrics_on_the_line():
    code = co.build_prm(2, 1, 3)
    assert co.ghw_table(code) == (2, 3, 4)


def test_ghw_matches_duality_table():
    # weights are complementary to the exhaustive zero maxima
    assert co.ghw_table(co.build_prm(2, 2, 3)) == (6, 8, 9, 11, 12, 13)
    assert co.ghw_table(co.build_prm(1, 2, 3)) == (9, 12, 13)


def test_ghw_table_evaluates_the_code_once(monkeypatch):
    """Every rank's scan and the generator read one cached, read-only
    evaluation matrix."""
    va.projective_eval_matrix.cache_clear()
    calls = []
    evaluate = li.eval_matrix
    monkeypatch.setattr(li, "eval_matrix", lambda *args: calls.append(args) or evaluate(*args))
    code = co.build_prm(2, 2, 3)
    assert co.ghw_table(code) == (6, 8, 9, 11, 12, 13)
    assert code.generator is va.projective_eval_matrix("reduced", 2, 2, 3)
    assert len(calls) == 1
    with pytest.raises(ValueError):
        code.generator[0, 0] = 1


def test_rank_loops_build_one_row_table(monkeypatch, fresh_row_tables):
    """Every rank's scan of ghw_table and check_duality reads one row table
    of the one evaluation matrix."""
    built = []

    class SpyTable(li.RowTable):
        def __init__(self, field, mat):
            super().__init__(field, mat)
            built.append(mat)
    monkeypatch.setattr(li, "RowTable", SpyTable)
    code = co.build_prm(2, 2, 3)
    assert co.ghw_table(code) == (6, 8, 9, 11, 12, 13)
    assert all(row["holds"] for row in co.check_duality(2, 2, 3))
    assert len(built) == 1 and built[0] is code.generator


def test_min_distance_formulas():
    assert co.ghw_exhaustive(co.build_prm(2, 2, 3), 1).value == 6
    assert co.ghw_exhaustive(co.build_prm(2, 2, 2), 1).value == 2
    assert co.ghw_exhaustive(co.build_prm(3, 1, 4), 1).value == 2
    for d, m, q in ((2, 2, 3), (2, 2, 2), (3, 1, 4), (1, 2, 3)):
        assert co.ghw_exhaustive(co.build_prm(d, m, q), 1).value == \
            fo.prm_min_distance(d, m, q)


def test_ghw_monotone_and_bounded():
    for d, m, q in ((2, 2, 3), (2, 1, 3), (1, 2, 2)):
        code = co.build_prm(d, m, q)
        table = co.ghw_table(code)
        assert all(a < b for a, b in zip(table, table[1:]))
        assert table[-1] == code.n
        if d < q:
            for r, w in enumerate(table, start=1):
                assert fo.ghw_lower_bound(r, d, m, q) <= w


def test_ghw_rank_checks():
    code = co.build_prm(2, 1, 3)
    with pytest.raises(IndexOutOfRange):
        co.ghw_exhaustive(code, 0)
    with pytest.raises(IndexOutOfRange):
        co.ghw_exhaustive(code, 4)


@pytest.mark.parametrize("d, m, q, r", [
    (2, 2, 2, 2), (2, 2, 3, 2), (2, 2, 4, 1), (2, 1, 4, 2),
    (2, 1, 8, 2), (3, 1, 8, 1), (2, 1, 9, 2), (2, 2, 9, 1)])
@pytest.mark.parametrize("workers", [1, 2])
def test_ghw_is_the_generator_scan(d, m, q, r, workers):
    """n - e_r from the projective scan equals the subcode scan run on the
    code's own generator, weight and witness rows alike; F_8 and F_9 have
    nonsymmetric multiplication matrices."""
    code = co.build_prm(d, m, q)
    res = co.ghw_exhaustive(code, r, workers=workers)
    zeros, rref, _ = li.scan_max_zero_columns(
        li.RowTable(make_field(q), code.generator), r, workers)
    assert res.value == code.n - zeros
    assert res.rows.dtype == rref.dtype and (res.rows == rref).all()
    assert res.enumerated == fo.gaussian_binomial(code.k, r, q)


def test_ghw_worker_invariance():
    code = co.build_prm(2, 2, 3)
    lone = co.ghw_exhaustive(code, 2, workers=1)
    many = co.ghw_exhaustive(code, 2, workers=4)
    assert lone.value == many.value
    assert (lone.rows == many.rows).all()
    assert lone.enumerated == many.enumerated == fo.gaussian_binomial(6, 2, 3)
    assert lone == many
    assert hash(lone) == hash(many)


def test_check_duality():
    for d, m, q in ((1, 1, 3), (2, 1, 3), (2, 2, 3), (3, 1, 2)):
        rows = co.check_duality(d, m, q)
        assert all(row["holds"] for row in rows)
        assert [row["r"] for row in rows] == list(range(1, len(rows) + 1))
    # the witness recount agrees with the independent er scan at every rank
    rows = co.check_duality(2, 2, 3)
    assert [row["max_zeros"] for row in rows] == [
        va.brute_force_max_points(r, 2, 2, 3).value for r in range(1, len(rows) + 1)]


def test_export_csv():
    code = co.build_prm(1, 1, 2)
    text = co.export_generator_csv(code)
    lines = text.strip().split("\n")
    assert len(lines) == code.k
    parsed = [[int(x) for x in line.split(",")] for line in lines]
    assert parsed == [[int(c) for c in row] for row in code.generator]
    assert text.endswith("\n")
