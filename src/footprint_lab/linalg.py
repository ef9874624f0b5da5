"""Vectorized linear algebra over F_q.

Matrices are numpy uint8 arrays of element encodings.  The subspace
enumeration walks reduced row echelon forms: pivot column sets in
lexicographic order, free entries in odometer order (last position
fastest), which fixes the canonical order of the subspaces.

Within one pivot pattern the rows of an RREF matrix vary independently,
so an RrefGrid stands for the pattern as a grid with one axis per row and
makes any row's values on demand.  A row's zero columns depend only on
the row and the evaluation matrix, so a RowTable, the scan's one input,
keeps the matrix and field it was built from and holds the packed
uint64 zero masks and popcounts of every vector with a leading 1, one
block per leading position of at most CHUNK_CAP vectors, and each stored
block's largest popcount; a row of a pattern is a slice of its pivot's
block.  A row from a larger block is multiplied once per pattern, one
product per row, or in slices when over the cap.

The scan kernel, zero_column_counts, is a branch and bound over one
pattern's rows, one loop for every row, that keeps the maximum and the
index of its first maximizer, from which the witness is rebuilt, exact.
Each chunk of patterns passes its best count so far to the next pattern
as the floor to prune at, lowered to the pattern's bound when bounds are
given; a pattern one of whose pivots' blocks peaks at or below the floor
is skipped whole, and every subspace still counts as enumerated.

Every product over F_q, q = p^e, is one float64 BLAS product over F_p
(matmul): the right factor's entries become their e x e multiplication
matrices on base-p digits, the left factor becomes its digits, and the
digit sums, each at most k*e*(p-1)**2 and so exact in float64, are reduced
mod p in integer arithmetic and folded back into encodings.  The left
factor's rows are multiplied in slices of at most PRODUCT_CAP float64
entries per temporary.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .gf import FieldSpec
from .runtime import run_chunks, split_chunks

# Most matrices, row values or grid lines in one intermediate of the scan
# kernel: a batch of ANDs and popcounts, a row's product, a slice of a row
# over the cap; and the most vectors in one stored block of a RowTable.
CHUNK_CAP = 2**14

# Most float64 entries in one matmul temporary.  matmul multiplies the rows
# of its left operand in slices, so the digit-expanded slice and its product
# each stay at 256 KiB whatever the block size: a whole e = 3 block at once
# nearly tripled a scan's peak memory, and slices of 2**14 to 2**16 entries,
# which stay in a core's L2 cache, ran up to twice as fast as 2**17.
PRODUCT_CAP = 2**15

# Least priced work (subspaces x points) that a process pool has to take
# off a scan's largest chunk before one is started.  On a 2-CPU x86-64
# machine a fork pool costs about 0.005 s more than running the same
# chunks in-process (median over seven scans of 1 ms to 0.5 s), and one
# process scans about 1.5e10 subspace-points per second (median over
# seven scans of 0.1 to 8 s, r = 1 to 3, q = 3 to 8: 2.5e8 to 6.6e10, the
# r = 1 scans, which multiply every subspace, below 5e8), so below
# 0.005 s x 1.5e10 the pool cannot win back its start-up.
POOL_MIN_WORK = 75 * 10**6


def matmul(field: FieldSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product over F_q, q = p^e; a has shape (..., k), b has shape (k, n).

    Multiplying by a fixed element is F_p-linear on base-p digit vectors,
    so b becomes the (k*e, n*e) F_p matrix of its entries' e x e
    multiplication matrices and a its (..., k*e) digits.  One float64 BLAS
    product per slice of rows then gives every output digit as a sum of
    k*e terms, each at most (p-1)**2: no entry exceeds k*e*(p-1)**2, far
    below 2**53, up to which float64 is exact.  The digits are reduced mod
    p in integer arithmetic and folded back into encodings.
    """
    p, e = field.p, field.e
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    (k, n), lead = b.shape, a.shape[:-1]
    wide = field.mul_matrices[b].transpose(0, 2, 1, 3).reshape(k * e, n * e)
    rows = a.reshape(math.prod(lead), k)
    exact = np.int32 if k * e * (p - 1) ** 2 < 2**31 else np.int64  # holds every digit sum
    step = max(1, PRODUCT_CAP // max(k * e, n * e, 1))
    out = np.empty((len(rows), n), dtype=np.uint8)
    for lo in range(0, len(rows), step):
        part = rows[lo:lo + step]
        digits = np.take(field.digit_table, part, axis=0).reshape(len(part), k * e)
        digits = (digits @ wide).astype(exact)
        # numpy floor-divides by a scalar without a division instruction per
        # entry, so this is several times faster than digits % p
        digits -= digits // p * p
        digits = digits.reshape(len(part), n, e)
        value = digits[..., e - 1]
        for j in range(e - 2, -1, -1):
            value = value * p + digits[..., j]
        out[lo:lo + step] = value
    return out.reshape(lead + (n,))


@lru_cache(maxsize=None)
def _axpy_table(field: FieldSpec) -> np.ndarray:
    """a - f*x for every a, f, x in F_q, flat at index (a*q + f)*q + x."""
    return field.add_table[:, field.mul_table[field.neg_table]].ravel()


def row_reduce(field: FieldSpec, mat: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Row echelon form, each pivot entry 1 and every entry below a pivot
    0, and its pivot columns."""
    q, mul, inv = field.q, field.mul_table, field.inv_table
    axpy = _axpy_table(field)
    m = np.array(mat, dtype=np.intp)  # holds the flat axpy index, below q**3
    rows, cols = m.shape
    pivots: list[int] = []
    pr = 0
    for c in range(cols):
        if pr == rows:
            break
        col = m[pr:, c]
        i = int(col.argmax())  # a nonzero entry unless the column is 0 here
        if not col[i]:
            continue
        if i:
            m[[pr, pr + i]] = m[[pr + i, pr]]
        # the pivot row is zero left of c, so columns c: are all that change
        row = mul[inv[m[pr, c]], m[pr, c:]]
        m[pr, c:] = row
        # every row below gains -f times the pivot row, f its entry in column
        # c, in one gather; row[0] == 1, so column c becomes 0
        below = m[pr + 1:, c:]
        below[...] = axpy[(below * q + below[:, :1]) * q + row]
        pivots.append(c)
        pr += 1
    return m.astype(np.uint8), pivots


def rank(field: FieldSpec, mat: np.ndarray) -> int:
    return len(row_reduce(field, mat)[1])


def eval_matrix(field: FieldSpec, mons, points) -> np.ndarray:
    """Rows indexed by monomials, columns by points; entry = value.

    A nonzero coordinate x is g**log(x) for the field's generator g, so a
    monomial's value is g**(exponents . logs); it is 0 instead where a
    positive exponent meets a zero coordinate, and 0**0 = 1.
    """
    mons = list(mons)
    points = list(points)
    n = len(points)
    if not mons:
        return np.zeros((0, n), dtype=np.uint8)
    exps = np.array(mons, dtype=np.int64)  # (monomials, vars)
    coords = np.array(points, dtype=np.intp).reshape(n, exps.shape[1]).T  # (vars, n)
    out = field.exp_table[exps @ field.log_table[coords] % (field.q - 1)]
    out[(exps > 0) @ (coords == 0)] = 0
    return out


def pivot_patterns(k: int, r: int) -> list[tuple[int, ...]]:
    """All pivot column sets, lexicographic."""
    return list(itertools.combinations(range(k), r))


def _free_columns(pivots: tuple[int, ...], k: int) -> list[list[int]]:
    """Per row, the free columns of a pivot pattern: right of the row's
    pivot and not a pivot."""
    return [[c for c in range(p + 1, k) if c not in pivots] for p in pivots]


def pattern_size(pivots: tuple[int, ...], k: int, q: int) -> int:
    # row i has k-1-p_i columns right of its pivot, r-1-i of them pivots
    r = len(pivots)
    return q ** (r * (2 * k - 1 - r) // 2 - sum(pivots))


class RrefGrid:
    """Every RREF matrix with the given pivot columns, as a grid of shape
    (n_0, ..., n_{r-1}) whose C order is the canonical order: row i has f_i
    free entries and takes n_i = q**f_i values, whatever the other rows
    hold.  shape appends (r, k); nothing is built up front."""

    def __init__(self, q: int, k: int, pivots: tuple[int, ...]):
        self.q, self.pivots = q, pivots
        self.free = _free_columns(pivots, k)
        self.shape = tuple(q ** len(f) for f in self.free) + (len(pivots), k)

    def rows(self, i: int, idx: np.ndarray) -> np.ndarray:
        """Row i at each odometer index in idx, (len(idx), k): 1 at the
        pivot, the index's base-q digits at the free columns (last column
        fastest)."""
        out = np.zeros((self.shape[-1], len(idx)), dtype=np.uint8)  # each column contiguous
        out[self.pivots[i]] = 1
        for c in reversed(self.free[i]):
            # a scalar divisor: numpy divides without a division instruction per entry
            idx, out[c] = np.divmod(idx, self.q)
        return out.T

    def __getitem__(self, index) -> np.ndarray:
        return np.concatenate([self.rows(i, np.array([j])) for i, j in enumerate(index)])


def _zero_masks(field: FieldSpec, values: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """The zero columns of values @ mat, values (len, k), as word-major bit
    masks (ceil(n/64), len) of uint64, multiplied CHUNK_CAP rows at a time."""
    masks = np.empty((-(-mat.shape[1] // 64), len(values)), dtype=np.uint64)
    for lo in range(0, len(values), CHUNK_CAP):
        part = values[lo:lo + CHUNK_CAP]
        product = matmul(field, part, mat)
        # the zero flags overwrite the product's own bytes: a second
        # CHUNK_CAP x n temporary was the kernel's largest
        zero = np.equal(product, 0, out=product.view(np.bool_))
        packed = np.packbits(zero, axis=-1, bitorder="little")
        words = np.zeros((len(part), 8 * len(masks)), dtype=np.uint8)
        words[:, :packed.shape[1]] = packed
        masks[:, lo:lo + len(part)] = words.view(np.uint64).T
    return masks


def _popcounts(masks: np.ndarray, n: int) -> np.ndarray:
    """Set bits of word-major masks, summed over the words into the
    narrowest integers that hold n."""
    return np.bitwise_count(masks).sum(axis=0, dtype=np.min_scalar_type(n))


class RowTable:
    """Zero masks of row @ mat over field for every row vector with a
    leading 1, one block per position p of that 1; field and mat are kept.

    Block p holds the packed masks (ceil(n/64), q, ..., q) and popcounts
    (q, ..., q) of the q**(k-1-p) vectors with entries at columns
    p+1..k-1, one axis per column, or None when that is more than
    CHUNK_CAP vectors; peaks[p] is block p's largest popcount, or None.
    Row i of an RREF pattern takes 0 at the later pivots, so its masks are
    block p_i read at index 0 on those axes, and no matrix of the pattern
    has more zero columns than peaks[p_i]."""

    def __init__(self, field: FieldSpec, mat: np.ndarray):
        self.field, self.mat = field, mat
        q, (k, n) = field.q, mat.shape
        lead = next((p for p in range(k) if q ** (k - 1 - p) <= CHUNK_CAP), k)
        sizes = [q ** (k - 1 - p) for p in range(lead, k)]
        values = [RrefGrid(q, k, (p,)).rows(0, np.arange(size))
                  for p, size in zip(range(lead, k), sizes)]
        masks = _zero_masks(field, np.concatenate(values), mat)
        ends = np.cumsum(sizes[:-1])
        self.blocks: list = [None] * lead
        for p, part, counts in zip(range(lead, k), np.split(masks, ends, axis=1),
                                   np.split(_popcounts(masks, n), ends)):
            axes = (q,) * (k - 1 - p)
            self.blocks.append((part.reshape(len(masks), *axes), counts.reshape(axes)))
        self.peaks = [None if block is None else int(block[1].max()) for block in self.blocks]

    def row(self, pivots: tuple[int, ...], i: int):
        """Masks (ceil(n/64), n_i) and popcounts (n_i,) of row i of the
        pattern's grid, in its odometer order; None if not stored."""
        p = pivots[i]
        if self.blocks[p] is None:
            return None
        masks, counts = self.blocks[p]
        index = tuple(0 if c in pivots else slice(None) for c in range(p + 1, len(self.blocks)))
        counts = counts[index]
        return masks[(slice(None),) + index].reshape(len(masks), counts.size), counts.reshape(-1)


def zero_column_counts(field: FieldSpec, grid: RrefGrid, mat: np.ndarray,
                       floor: int = -1, table: RowTable | None = None) -> tuple[int, int]:
    """The largest number of columns of matrix @ mat that vanish
    identically over the (r, k) matrices of grid, and the first C-order
    grid index that reaches it, when that number is above floor; at or
    below floor, some count of the grid and its index.

    grid is an RrefGrid, or anything with its shape and rows.  Each row's
    packed zero masks and popcounts come from table, mat's RowTable, if
    it stores them, or else from one product per row of at most CHUNK_CAP
    values; a longer row is multiplied in slices as the walk reads it.

    The walk is a branch and bound over the rows in C order, seeded with
    the count of the grid's first matrix, and one loop serves every row:
    row i's values whose popcount is at most the bound, max(floor, best
    so far), are dropped, the lines of rows 0..i-1 are ANDed with the rest
    at most CHUNK_CAP pairs at a time, and every AND above the bound goes
    on to row i+1, or at the last row into the best count.  ANDing more
    rows cannot raise a popcount, and a tie found later in C order never
    beats the earlier maximizer, so nothing dropped can win, and a row
    with no value above the bound ends the walk there.  A head row over
    the cap goes one line at a time, so the walk stays in C order; the
    last row over the cap is read slice by slice for all its lines, out
    of C order when there are several, so there the bound stays as it
    was when the row was reached and ties go to the earlier index.
    """
    *sizes, r, _ = grid.shape
    if len(sizes) != r:
        raise ValueError(f"grid of shape {grid.shape} is not (n_0, ..., n_{{r-1}}, r, k)")
    walk = _Walk(field, grid, mat, floor, table)
    row0 = walk.rows[0]
    if r > 1 and row0 is not None:  # row 0's values are the first lines
        lines = np.flatnonzero(row0[1] > walk.bound())
        walk.extend(1, lines, row0[0][:, lines])
    else:
        walk.extend(0, np.zeros(1, dtype=np.intp),
                    np.full((-(-walk.n // 64), 1), ~np.uint64(0)))
    return walk.best, walk.first


class _Walk:
    """One pattern's branch and bound: every row's masks and popcounts (or
    None for a row over the cap), the floor, and the best count so far
    with its first C-order index."""

    def __init__(self, field: FieldSpec, grid, mat: np.ndarray, floor: int,
                 table: RowTable | None):
        self.field, self.grid, self.mat, self.floor = field, grid, mat, floor
        self.n = mat.shape[1]
        *self.sizes, r, _ = grid.shape
        self.rows = [None if table is None else table.row(grid.pivots, i) for i in range(r)]
        for i, size in enumerate(self.sizes):
            if self.rows[i] is None and size <= CHUNK_CAP:
                self.rows[i] = self.values(i, 0, size)
        seed = self.values(0, 0, 1)[0]
        for i in range(1, r):
            seed = seed & self.values(i, 0, 1)[0]
        self.best, self.first = int(_popcounts(seed, self.n)[0]), 0

    def bound(self) -> int:
        return min(max(self.floor, self.best), self.n)  # n: the counts' type holds it

    def values(self, i: int, lo: int, hi: int):
        """Masks and popcounts of row i's values lo..hi-1."""
        if self.rows[i] is not None:
            masks, counts = self.rows[i]
            return masks[:, lo:hi], counts[lo:hi]
        masks = _zero_masks(self.field, self.grid.rows(i, np.arange(lo, hi)), self.mat)
        return masks, _popcounts(masks, self.n)

    def extend(self, i: int, lines: np.ndarray, head: np.ndarray) -> None:
        """Extend lines, C-order indices over rows 0..i-1 whose masks AND
        to head (words, len(lines)), by every value of row i: into row i+1,
        or into the best count at the last row."""
        size, last = self.sizes[i], i == len(self.sizes) - 1
        spans = [(lo, min(lo + CHUNK_CAP, size)) for lo in range(0, size, CHUNK_CAP)]
        if len(spans) > 1 and not last:  # a head row over the cap goes one line at a time
            groups = [(slice(j, j + 1), lo, hi) for j in range(len(lines)) for lo, hi in spans]
        else:
            groups = [(slice(None), lo, hi) for lo, hi in spans]
        # the last row's slices, each for every line, leave C order when
        # there are several of both, so there the bound is held
        held, start = last and len(spans) > 1 and len(lines) > 1, self.bound()
        for part, lo, hi in groups:
            masks, counts = self.values(i, lo, hi)
            sub_lines, sub_head = lines[part], head[:, part]
            bar, s = None, 0
            while s < len(sub_lines):
                now = start if held else self.bound()
                if now != bar:  # the values above the bound, refiltered as it rises
                    bar, keep = now, np.flatnonzero(counts > now)
                    if not keep.size:
                        break
                    kept = masks[:, keep]
                step = max(1, CHUNK_CAP // keep.size)
                both = sub_head[:, s:s + step, None] & kept[:, None]
                pair_counts = _popcounts(both, self.n)
                if last:
                    arg = int(np.argmax(pair_counts))
                    line, value = divmod(arg, keep.size)
                    self.update(int(pair_counts.flat[arg]),
                                int(sub_lines[s + line]) * size + lo + int(keep[value]))
                else:
                    hit = np.flatnonzero(pair_counts > bar)
                    if hit.size:
                        line, value = np.divmod(hit, keep.size)
                        self.extend(i + 1, sub_lines[s + line] * size + lo + keep[value],
                                    both.reshape(len(both), -1)[:, hit])
                s += step

    def update(self, top: int, index: int) -> None:
        if top > self.best or top == self.best and index < self.first:
            self.best, self.first = top, index


def _zero_scan_chunk(args):
    """One chunk of pivot patterns, starting at pattern index start: each
    prunes at the chunk's best so far, lowered to its bound if given, and
    is skipped when a pivot's block in the table peaks at or below that."""
    table, start, combos, bounds = args
    field, mat, q, k = table.field, table.mat, table.field.q, len(table.mat)
    best_count, best_rref = -1, None
    enumerated = 0
    violations = []
    for j, pivots in enumerate(combos):
        floor = best_count if bounds is None else min(best_count, bounds[j])
        enumerated += pattern_size(pivots, k, q)
        if any(table.peaks[p] is not None and table.peaks[p] <= floor for p in pivots):
            continue
        grid = RrefGrid(q, k, pivots)
        top, index = zero_column_counts(field, grid, mat, floor, table)
        if top > best_count:
            best_count = top
            best_rref = grid[np.unravel_index(index, grid.shape[:-2])]
        if bounds is not None and top > bounds[j]:
            violations.append((start + j, top))
    return best_count, best_rref, enumerated, violations


def scan_max_zero_columns(table: RowTable, r: int, workers: int = 1, bounds=None):
    """Maximize the zero-column count of B @ mat over every r-dimensional
    row space B of F_q^k; table is mat's RowTable over F_q, k = mat rows.

    Returns (count, rref witness, subspaces enumerated, violations).
    bounds, if given, holds one bound per pattern of pivot_patterns(k, r),
    and violations lists (i, maximum of pattern i) for every pattern i
    whose maximum is above bounds[i], in pattern order; without bounds it
    is empty.  The subspaces enumerated are every subspace, pruned or not.

    The patterns are split into `workers` chunks of consecutive patterns.
    Each chunk is a branch and bound: a pattern prunes at the best count
    its chunk found at earlier patterns, or at its bound if that is lower,
    so the count and each listed maximum stay exact.  The witness is the
    earliest maximizer in the canonical order: each chunk keeps its own
    earliest one, and the chunks, which run_chunks returns in order, are
    merged by keeping the first that reaches the best count.  So the
    result does not depend on the worker count.

    With several chunks, a pool is started only when the chunks other
    than the largest, whose work is all a pool can take off one process,
    are priced above POOL_MIN_WORK; otherwise the chunks run in-process, in
    order.  Each pool worker gets a copy of table.
    """
    q, (k, n) = table.field.q, table.mat.shape
    patterns = pivot_patterns(k, r)
    chunked = split_chunks(list(range(len(patterns))), workers)
    if len(chunked) > 1:
        work = [sum(pattern_size(patterns[i], k, q) for i in chunk) * n
                for chunk in chunked]
        if sum(work) - max(work) <= POOL_MIN_WORK:
            workers = 1
    chunk_args = [(table, chunk[0], [patterns[i] for i in chunk],
                   None if bounds is None else [bounds[i] for i in chunk]) for chunk in chunked]
    best_count, best_rref = -1, None
    enumerated = 0
    violations = []
    for count, rref, part, found in run_chunks(_zero_scan_chunk, chunk_args, workers):
        enumerated += part
        violations += found
        if count > best_count:
            best_count, best_rref = count, rref
    return best_count, best_rref, enumerated, violations
