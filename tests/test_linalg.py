"""The F_q product, the evaluation matrix, the factored RREF grid and the
row-table kernel, against naive references: the per-term table-lookup
product, scalar powers and an itertools odometer."""

import itertools
import math

import numpy as np
import pytest

from footprint_lab import linalg
from footprint_lab.gf import make_field

# every field size the package supports, e = 1 to 6
PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37,
                41, 43, 47, 49, 53, 59, 61, 64]


def _table_product(field, a, b):
    """a @ b over F_q with one add and one mul table lookup per term."""
    add, mul = field.add_table, field.mul_table
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    out = np.zeros(a.shape[:-1] + (b.shape[1],), dtype=np.uint8)
    for t in range(b.shape[0]):
        out = add[out, mul[a[..., t][..., None], b[t][(None,) * (a.ndim - 1)]]]
    return out


def _reference_counts(field, blocks, mat):
    return (_table_product(field, blocks, mat) == 0).all(axis=-2).sum(axis=-1)


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_matmul_matches_table_product(q):
    field = make_field(q)
    rng = np.random.default_rng(q)
    for k in (0, 1, 7):
        for n in (0, 1, 63, 64, 65):
            # the last shape holds more rows than one product slice
            rows = 2 * (linalg.PRODUCT_CAP // max(k * field.e, n * field.e, 1)) + 1
            for lead in ((), (3,), (2, 3, 1), (rows,)):
                a = rng.integers(0, q, size=lead + (k,), dtype=np.uint8)
                b = rng.integers(0, q, size=(k, n), dtype=np.uint8)
                got = linalg.matmul(field, a, b)
                assert got.dtype == np.uint8 and got.shape == lead + (n,)
                assert np.array_equal(got, _table_product(field, a, b)), (k, n, lead)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 25, 64])
def test_eval_matrix_matches_power_loop(q):
    field = make_field(q)
    rng = np.random.default_rng(q)
    points = [tuple(int(x) for x in pt) for pt in rng.integers(0, q, size=(40, 3))]
    points += [(0, 0, 0), (0, 1, q - 1), (1, 1, 1)]
    mons = [tuple(int(x) for x in mon) for mon in rng.integers(0, 2 * q + 2, size=(12, 3))]
    mons += [(0, 0, 0), (q - 1, 0, 1), (q, q + 1, 0), (0, 0, 3 * q)]
    got = linalg.eval_matrix(field, mons, points)
    want = [[1] * len(points) for _ in mons]
    for i, mon in enumerate(mons):
        for j, pt in enumerate(points):
            for x, a in zip(pt, mon):
                want[i][j] = field.mul(want[i][j], field.pow(x, a))
    assert got.dtype == np.uint8
    assert got.tolist() == want
    assert linalg.eval_matrix(field, [], points).shape == (0, len(points))


def _sparse_matrix(rng, q, k, n):
    """Random k x n matrix with mostly zero entries, so that zero columns
    of products are common."""
    mat = rng.integers(0, q, size=(k, n), dtype=np.uint8)
    mat[rng.random((k, n)) < 0.6] = 0
    return mat


def _naive_rrefs(q, k, pivots):
    """Every RREF matrix with the given pivots, free entries in odometer
    order (row by row, last position fastest)."""
    rows, cols = [], []
    for i, p in enumerate(pivots):
        for c in range(p + 1, k):
            if c not in pivots:
                rows.append(i)
                cols.append(c)
    for values in itertools.product(range(q), repeat=len(rows)):
        mat = np.zeros((len(pivots), k), dtype=np.uint8)
        for i, p in enumerate(pivots):
            mat[i, p] = 1
        mat[rows, cols] = values
        yield mat


class _TableGrid:
    """A factored grid over explicit row tables: row i takes the n_i
    values of tables[i], whatever the other rows hold."""

    def __init__(self, tables):
        self.tables = [np.asarray(t, dtype=np.uint8) for t in tables]
        self.shape = tuple(map(len, self.tables)) + (len(tables), self.tables[0].shape[1])

    def rows(self, i, idx):
        return self.tables[i][idx]

    def __getitem__(self, index):
        return np.stack([self.tables[i][j] for i, j in enumerate(index)])


def _random_grid(rng, q, k, sizes):
    """Random row tables, half their entries zero."""
    tables = []
    for n_i in sizes:
        rows = rng.integers(0, q, size=(n_i, k), dtype=np.uint8)
        rows[rng.random(rows.shape) < 0.5] = 0
        tables.append(rows)
    return _TableGrid(tables)


def _reference_max(field, grid, mat):
    """Largest zero-column count over the grid's matrices and the first
    C-order index of it, from every matrix built out."""
    blocks = np.array([grid[index] for index in np.ndindex(grid.shape[:-2])])
    counts = _reference_counts(field, blocks, mat)
    return int(counts.max()), int(np.argmax(counts))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 130])
def test_kernel_matches_table_product(monkeypatch, q, n):
    field = make_field(q)
    rng = np.random.default_rng(q * 1000 + n)
    k = 4
    mat = _sparse_matrix(rng, q, k, n)
    for sizes in ((200,), (9, 11), (9, 3), (5, 1, 7)):
        grid = _random_grid(rng, q, k, sizes)
        want = _reference_max(field, grid, mat)
        # the whole grid in one chunk; rows that fit but several lines per
        # chunk; then head and last rows over the cap, down to one matrix
        # per chunk
        for cap in (2**14, 60, 4, 1):
            monkeypatch.setattr(linalg, "CHUNK_CAP", cap)
            assert linalg.zero_column_counts(field, grid, mat) == want, (sizes, cap)
        # no columns, no mask words: every matrix has all n = 0 columns zero
        assert n or want == (0, 0)


def test_kernel_counts_past_every_narrow_integer():
    # 70,000 columns, all but one zero: counts of 69,999 or more fit no uint16
    field = make_field(3)
    mat = np.zeros((4, 70_000), dtype=np.uint8)
    mat[:, 0] = [0, 1, 2, 1]
    grid = _random_grid(np.random.default_rng(7), 3, 4, (5, 3))
    want = _reference_max(field, grid, mat)
    assert want[0] >= 69_999
    assert linalg.zero_column_counts(field, grid, mat) == want


def test_kernel_keeps_the_first_maximizer_across_slices(monkeypatch):
    # rows 2 x 4 and a cap of 2: the last row goes in two slices, so the
    # tie at grid index (1, 0) is met before the earlier one at (0, 2)
    field = make_field(3)
    grid = _TableGrid([[[0, 0, 1, 1], [1, 1, 0, 0]],
                       [[1, 1, 0, 0], [1, 1, 1, 1], [0, 0, 1, 1], [1, 1, 1, 1]]])
    mat = np.eye(4, dtype=np.uint8)
    assert _reference_max(field, grid, mat) == (2, 2)
    monkeypatch.setattr(linalg, "CHUNK_CAP", 2)
    assert linalg.zero_column_counts(field, grid, mat) == (2, 2)


def test_kernel_multiplies_once_per_pattern(monkeypatch):
    field = make_field(3)
    mat = _sparse_matrix(np.random.default_rng(3), 3, 6, 70)
    calls = []
    product = linalg.matmul
    monkeypatch.setattr(linalg, "matmul", lambda *args: calls.append(args) or product(*args))
    for pivots in ((0,), (0, 2), (0, 1, 3), (1, 2, 4)):
        grid = linalg.RrefGrid(3, 6, pivots)
        sizes = grid.shape[:-2]
        want = _reference_max(field, grid, mat)
        # each row's values are multiplied once, in one product per row
        for cap in (2**14, max(sizes), max(sizes) + 1):
            monkeypatch.setattr(linalg, "CHUNK_CAP", cap)
            calls.clear()
            assert linalg.zero_column_counts(field, grid, mat) == want
            assert len(calls) == len(sizes)
        assert sum(sizes) <= 2**14


def test_kernel_rejects_blocks_that_are_not_grids():
    field = make_field(3)
    mat = np.ones((4, 5), dtype=np.uint8)
    for r in (2, 3):
        with pytest.raises(ValueError):
            linalg.zero_column_counts(field, np.zeros((6, r, 4), dtype=np.uint8), mat)


@pytest.mark.parametrize("q, k, pivots, cap", [
    (3, 5, (0, 1), 2**14),     # one chunk holds the whole grid
    (3, 5, (0, 1), 10),        # rows 27 x 27: every row is over the cap
    (2, 6, (0, 2, 3), 5),      # rows 8 x 4 x 4: only the first row is over the cap
    (2, 6, (0, 1, 2), 3),      # rows 8 x 8 x 8: the last row alone exceeds the cap
    (4, 4, (1, 3), 3),         # rows 4 x 1: the head row is over the cap, 3 lines a chunk
    (5, 3, (0, 1, 2), 4),      # no free entries: a single matrix
])
def test_rref_grid_follows_the_odometer(monkeypatch, q, k, pivots, cap):
    """RrefGrid indexes a pattern's matrices in odometer order, and the
    kernel's chunks at the cap find the first maximizer of that order."""
    expected = list(_naive_rrefs(q, k, pivots))
    grid = linalg.RrefGrid(q, k, pivots)
    assert grid.shape[-2:] == (len(pivots), k)
    assert math.prod(grid.shape[:-2]) == len(expected) == linalg.pattern_size(pivots, k, q)
    for j, mat in enumerate(expected):
        got = grid[np.unravel_index(j, grid.shape[:-2])]
        assert got.dtype == np.uint8 and np.array_equal(got, mat)
    monkeypatch.setattr(linalg, "CHUNK_CAP", cap)
    field = make_field(q)
    mat = _sparse_matrix(np.random.default_rng(q * 10 + cap), q, k, 40)
    counts = _reference_counts(field, np.array(expected), mat)
    assert linalg.zero_column_counts(field, grid, mat) == (counts.max(), np.argmax(counts))


def _naive_scan(q, mat, r):
    field = make_field(q)
    k = mat.shape[0]
    best, witness, total, maxima = -1, None, 0, []
    for pivots in linalg.pivot_patterns(k, r):
        rrefs = np.array(list(_naive_rrefs(q, k, pivots)))
        counts = _reference_counts(field, rrefs, mat)
        for rref, count in zip(rrefs, counts):
            if count > best:
                best, witness = int(count), rref
        maxima.append(int(counts.max()))
        total += len(rrefs)
    return best, witness, total, maxima


@pytest.mark.parametrize("q, k, r, n, cap", [
    # the (0, 1, 2) pattern holds 3**9 > CHUNK_CAP matrices
    pytest.param(3, 6, 3, 13, None, id="3-6-3-13"),
    pytest.param(4, 4, 2, 21, None, id="4-4-2-21"),
    pytest.param(2, 7, 2, 70, None, id="2-7-2-70"),
    # chunks of at most 7 split the 8 x 8 x 8 pattern (0, 1, 2) into 128,
    # and the earliest maximizer is its matrix 34, in its 5th chunk
    pytest.param(2, 6, 3, 12, 7, id="2-6-3-12-cap7"),
    # r = 1: the earliest maximizer is matrix 11 of pattern (1,), whose one
    # row of 27 values is multiplied in slices of 10
    pytest.param(3, 5, 1, 11, 10, id="3-5-1-11-cap10"),
    # the earliest maximizer is matrix 180 of the 27 x 9 pattern (0, 2),
    # whose last row alone exceeds the cap
    pytest.param(3, 5, 2, 8, 5, id="3-5-2-8-cap5"),
])
@pytest.mark.parametrize("workers", [1, 2])
def test_scan_matches_naive_enumeration(monkeypatch, q, k, r, n, cap, workers):
    if cap is not None:
        monkeypatch.setattr(linalg, "CHUNK_CAP", cap)
    rng = np.random.default_rng(q * 100 + k * 10 + r)
    mat = _sparse_matrix(rng, q, k, n)
    best, naive_witness, total, naive_maxima = _naive_scan(q, mat, r)
    # each odd pattern's bound is one below its maximum, each even one's equals it
    bounds = [top - i % 2 for i, top in enumerate(naive_maxima)]
    odd = [(i, top) for i, top in enumerate(naive_maxima) if i % 2]
    for given, want in ((None, []), (bounds, odd)):
        count, witness, enumerated, violations = linalg.scan_max_zero_columns(
            linalg.RowTable(make_field(q), mat), r, workers, given)
        assert count == best
        assert np.array_equal(witness, naive_witness)
        assert enumerated == total
        assert violations == want
    assert len(set(naive_maxima)) > 1  # the patterns' maxima differ
    if cap is not None:
        pivots = tuple(int(np.flatnonzero(row)[0]) for row in naive_witness)
        position = next(j for j, rref in enumerate(_naive_rrefs(q, k, pivots))
                        if np.array_equal(rref, naive_witness))
        assert position >= cap  # past the first chunk of its pattern


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("workers", [1, 2])
def test_pruned_scan_matches_naive_on_random_instances(monkeypatch, seed, workers):
    """Random sizes, densities and bounds; odd seeds lower CHUNK_CAP below
    the row table's first blocks and below the longest rows."""
    rng = np.random.default_rng(seed)
    q, k = [(2, 6), (2, 7), (3, 5), (4, 4), (5, 4), (7, 3)][seed % 6]
    r = int(rng.integers(1, k))
    mat = rng.integers(0, q, size=(k, int(rng.integers(1, 140))), dtype=np.uint8)
    mat[rng.random(mat.shape) < rng.uniform(0.3, 0.9)] = 0
    if seed % 2:
        monkeypatch.setattr(linalg, "CHUNK_CAP", int(rng.integers(2, q ** (k - r) + 1)))
    best, naive_witness, total, naive_maxima = _naive_scan(q, mat, r)
    exact = list(enumerate(naive_maxima))
    bounds = [int(top + rng.integers(-2, 2)) for top in naive_maxima]
    over = [(i, top) for i, top in exact if top > bounds[i]]
    # bounds of -1 are below every maximum, so they list every pattern's
    for given, want in ((None, []), ([-1] * len(exact), exact), (bounds, over)):
        count, witness, enumerated, violations = linalg.scan_max_zero_columns(
            linalg.RowTable(make_field(q), mat), r, workers, given)
        assert count == best
        assert np.array_equal(witness, naive_witness)
        assert enumerated == total
        assert violations == want


def test_kernel_is_exact_above_its_floor(monkeypatch):
    """Above floor the kernel's (max, first index) is exact, with or
    without the scan's row table; at or below it, it reports a count no
    higher than floor."""
    field = make_field(3)
    rng = np.random.default_rng(11)
    mat = _sparse_matrix(rng, 3, 6, 70)
    grids = [_random_grid(rng, 3, 6, sizes) for sizes in ((40,), (9, 11), (5, 1, 7))]
    patterns = ((0, 2), (1, 2, 4), (0, 1, 3))
    grids += [linalg.RrefGrid(3, 6, pivots) for pivots in patterns]
    wants = [_reference_max(field, grid, mat) for grid in grids]
    for cap in (2**14, 30, 4, 1):
        monkeypatch.setattr(linalg, "CHUNK_CAP", cap)
        table = linalg.RowTable(field, mat)
        cases = [(grid, want, None) for grid, want in zip(grids, wants)]
        cases += [(grid, want, table) for grid, want in zip(grids[-3:], wants[-3:])]
        for grid, want, given in cases:
            for floor in (-1, 0, want[0] - 1, want[0], want[0] + 1, 71):
                got = linalg.zero_column_counts(field, grid, mat, floor, given)
                assert got == want if want[0] > floor else got[0] <= floor, (grid.shape, cap)


def test_row_table_stores_no_block_over_the_cap(monkeypatch):
    """A block of more than CHUNK_CAP masks is not stored; an r = 1 scan
    multiplies its over-cap pattern's single row CHUNK_CAP values at a
    time and keeps none of it."""
    q, k, cap = 3, 6, 80
    monkeypatch.setattr(linalg, "CHUNK_CAP", cap)
    field = make_field(q)
    mat = _sparse_matrix(np.random.default_rng(5), q, k, 50)
    table = linalg.RowTable(field, mat)
    stored = [block[1].size for block in table.blocks if block is not None]
    assert [block is None for block in table.blocks] == [True, True] + [False] * 4
    assert stored == [27, 9, 3, 1] and max(stored) <= cap
    products = []
    zero_masks = linalg._zero_masks

    def spy_masks(field, values, mat):
        products.append(len(values))
        return zero_masks(field, values, mat)

    class SpyTable(linalg.RowTable):
        def __init__(self, *args):
            super().__init__(*args)
            products.clear()  # what the kernel multiplies from here on
    monkeypatch.setattr(linalg, "_zero_masks", spy_masks)
    spy_table = SpyTable(field, mat)
    count, witness, _, maxima = linalg.scan_max_zero_columns(spy_table, 1, 1, [-1] * k)
    best, naive_witness, _, naive_maxima = _naive_scan(q, mat, 1)
    assert count == best and np.array_equal(witness, naive_witness)
    assert maxima == list(enumerate(naive_maxima))
    assert spy_table.blocks[:2] == [None, None]
    # patterns (0,) and (1,), rows of 243 and 81 values, in slices of at
    # most cap, plus the first value of each for its pattern's seed
    assert products and max(products) <= cap
    assert sum(products) == 243 + 81 + 2


def test_scan_skips_patterns_whose_pivot_block_peaks_at_the_floor(monkeypatch):
    """A pattern reaches the kernel only when every pivot's block peaks
    above the best count of the earlier patterns; the rest are skipped
    whole and still counted, and the result stays exact."""
    q, k, r = 3, 6, 2
    field = make_field(q)
    mat = _sparse_matrix(np.random.default_rng(20), q, k, 40)
    table = linalg.RowTable(field, mat)
    # block p's peak is the best single row with its leading 1 at p
    assert table.peaks == _naive_scan(q, mat, 1)[3]
    seen = []
    kernel = linalg.zero_column_counts

    def spy(field, grid, mat, floor=-1, table=None):
        seen.append(grid.pivots)
        return kernel(field, grid, mat, floor, table)
    monkeypatch.setattr(linalg, "zero_column_counts", spy)
    best, naive_witness, total, naive_maxima = _naive_scan(q, mat, r)
    count, witness, enumerated, _ = linalg.scan_max_zero_columns(table, r, 1)
    assert count == best and np.array_equal(witness, naive_witness) and enumerated == total
    patterns = linalg.pivot_patterns(k, r)
    floors = [max(naive_maxima[:j], default=-1) for j in range(len(patterns))]
    walked = [p for p, floor in zip(patterns, floors) if all(table.peaks[c] > floor for c in p)]
    assert seen == walked and 0 < len(walked) < len(patterns)


def _reference_row_reduce(field, mat):
    """Gauss-Jordan elimination one entry at a time with the scalar field
    operations."""
    m = [[int(x) for x in row] for row in mat]
    rows, cols = len(m), (len(m[0]) if m else mat.shape[1])
    pivots, pr = [], 0
    for c in range(cols):
        below = [rr for rr in range(pr, rows) if m[rr][c]]
        if pr == rows or not below:
            continue
        m[pr], m[below[0]] = m[below[0]], m[pr]
        inv = field.inv(m[pr][c])
        m[pr] = [field.mul(inv, x) for x in m[pr]]
        for rr in range(rows):
            if rr != pr and m[rr][c]:
                f = m[rr][c]
                m[rr] = [field.sub(x, field.mul(f, y)) for x, y in zip(m[rr], m[pr])]
        pivots.append(c)
        pr += 1
    return np.array(m, dtype=np.uint8).reshape(rows, cols), pivots


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_row_reduce_matches_row_by_row_reference(q):
    field = make_field(q)
    rng = np.random.default_rng(q)
    shapes = [(0, 0), (0, 4), (3, 0), (1, 1), (2, 7), (7, 2), (4, 4), (3, 9), (9, 3)]
    mats = []
    for rows, cols in shapes:
        for _ in range(4):
            mat = rng.integers(0, q, size=(rows, cols), dtype=np.uint8)
            mat[rng.random((rows, cols)) < 0.4] = 0
            mats.append(mat)
    # many pivots, each clearing its column from many rows
    mat = rng.integers(0, q, size=(20, 30), dtype=np.uint8)
    mat[rng.random(mat.shape) < 0.4] = 0
    mats.append(mat)
    # zero rows, a zero matrix, and repeated and scaled rows (rank-deficient)
    base = rng.integers(0, q, size=(3, 6), dtype=np.uint8)
    base[:, :3] = np.eye(3, dtype=np.uint8)[::-1]  # rank 3
    mats.append(np.zeros((4, 5), dtype=np.uint8))
    mats.append(np.vstack([base[:1], np.zeros((2, 6), dtype=np.uint8), base[1:]]))
    mats.append(np.vstack([base, base, field.mul_table[q - 1][base[::-1]]]))
    mats.append(np.vstack([base[:2], field.add_table[base[0], base[1]][None]]))
    for mat in mats:
        got, pivots = linalg.row_reduce(field, mat)
        want, want_pivots = _reference_row_reduce(field, mat)
        assert got.shape == mat.shape and got.dtype == np.uint8
        assert pivots == want_pivots
        # echelon form: each pivot row leads with a 1, zeros below each pivot
        for i, c in enumerate(pivots):
            assert got[i, c] == 1 and not got[i, :c].any() and not got[i + 1:, c].any(), mat
        assert not got[len(pivots):].any()
        # the same row space: both reduce to one RREF
        assert np.array_equal(_reference_row_reduce(field, got)[0], want), mat
        assert linalg.rank(field, mat) == len(pivots)
    assert linalg.rank(field, mats[-1]) == 2 and linalg.rank(field, mats[-2]) == 3


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_rank_matches_reference_with_repeated_and_zero_rows(q):
    field = make_field(q)
    rng = np.random.default_rng(100 + q)
    for _ in range(40):
        rows, cols = int(rng.integers(1, 8)), int(rng.integers(1, 9))
        base = rng.integers(0, q, size=(rows, cols), dtype=np.uint8)
        base[rng.random(base.shape) < 0.3] = 0
        # multiples of earlier rows (a zero multiple is a zero row) and sums of two
        picks = rng.integers(0, rows, size=(int(rng.integers(1, 5)), 2))
        scale = rng.integers(0, q, size=(len(picks), 1))
        extra = [field.mul_table[scale, base[picks[:, 0]]],
                 field.add_table[base[picks[:, 0]], base[picks[:, 1]]],
                 np.zeros((int(rng.integers(0, 3)), cols), dtype=np.uint8)]
        mat = np.vstack([base, *extra])
        mat = mat[rng.permutation(len(mat))]
        assert linalg.rank(field, mat) == len(_reference_row_reduce(field, mat)[1]), mat
