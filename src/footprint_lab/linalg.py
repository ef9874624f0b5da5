"""Vectorized linear algebra over F_q.

Matrices are numpy uint8 arrays of element encodings.  The subspace
enumeration walks reduced row echelon forms: pivot column sets in
lexicographic order, free entries in odometer order (last position
fastest), which fixes the canonical order of the subspaces.

Within one pivot pattern the rows of an RREF matrix vary independently,
so an RrefGrid stands for the pattern as a grid with one axis per row and
makes any row's values on demand.  The scan kernel multiplies each row's
values by the evaluation matrix once per pattern instead of once per
subspace, packs the zero columns into row tables of uint64 masks and walks
the grid in chunks of at most CHUNK_CAP matrices: AND the head rows'
masks, AND them with the last row's table, popcount.  A subspace costs
about ceil(n/64) word operations, and the kernel keeps only the pattern's
maximum and the index of its first maximizer, from which the witness is
rebuilt.

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

import numpy as np

from .gf import FieldSpec, make_field
from .runtime import run_chunks, split_chunks

# Most matrices, row values or grid lines in one intermediate of the scan
# kernel: a chunk's AND and popcount, a row table's product, the head rows' AND.
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


def row_reduce(field: FieldSpec, mat: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and its pivot columns."""
    q, mul, inv = field.q, field.mul_table, field.inv_table
    add = field.add_table.ravel()
    minus = mul[field.neg_table]  # minus[x, y] = -x * y
    m = np.array(mat, dtype=np.uint16)  # so m * q + x, a flat add-table index below q*q, cannot wrap
    rows, cols = m.shape
    pivots: list[int] = []
    pr = 0
    for c in range(cols):
        if pr == rows:
            break
        nz = np.nonzero(m[pr:, c])[0]
        if nz.size == 0:
            continue
        swap = pr + int(nz[0])
        if swap != pr:
            m[[pr, swap]] = m[[swap, pr]]
        # the pivot row is zero left of c, so columns c: are all that change
        row = mul[inv[m[pr, c]], m[pr, c:]]
        m[pr, c:] = row
        # clear column c from every other row at once: row rr gains
        # -m[rr, c] times the pivot row, one gather from its multiples
        factor = m[:, c].copy()
        factor[pr] = 0
        m[:, c:] = add[m[:, c:] * q + minus[:, row][factor]]
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
    return q ** sum(map(len, _free_columns(pivots, k)))


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
        packed = np.packbits(matmul(field, part, mat) == 0, axis=-1, bitorder="little")
        words = np.zeros((len(part), 8 * len(masks)), dtype=np.uint8)
        words[:, :packed.shape[1]] = packed
        masks[:, lo:lo + len(part)] = words.view(np.uint64).T
    return masks


def zero_column_counts(field: FieldSpec, grid: RrefGrid, mat: np.ndarray) -> tuple[int, int]:
    """The largest number of columns of matrix @ mat that vanish
    identically over the (r, k) matrices of grid, and the first C-order
    grid index that reaches it.

    grid is an RrefGrid, or anything with its shape and rows.  Each row of
    at most CHUNK_CAP values gets a table of packed zero masks, all such
    rows in one product; a longer row is multiplied in slices as the walk
    reads it.  The walk ANDs the head rows 0..r-2 for up to CHUNK_CAP grid
    lines at a time, then ANDs runs of those lines with the last row's
    table, at most CHUNK_CAP matrices per chunk, and popcounts them.
    """
    *sizes, r, _ = grid.shape
    if len(sizes) != r:
        raise ValueError(f"grid of shape {grid.shape} is not (n_0, ..., n_{{r-1}}, r, k)")
    fit = [i for i in range(r) if sizes[i] <= CHUNK_CAP]
    tables = dict.fromkeys(range(r))
    if fit:
        values = np.concatenate([grid.rows(i, np.arange(sizes[i])) for i in fit])
        ends = np.cumsum([sizes[i] for i in fit[:-1]])
        tables.update(zip(fit, np.split(_zero_masks(field, values, mat), ends, axis=1)))

    def head_masks(i, idx):
        if tables[i] is not None:
            return tables[i][:, idx]
        # a head row over the cap is multiplied at the chunk's distinct indices
        values, inverse = np.unique(idx, return_inverse=True)
        return _zero_masks(field, grid.rows(i, values), mat)[:, inverse]

    heads, last, n = sizes[:-1], sizes[-1], mat.shape[1]
    count_type = np.min_scalar_type(n)  # the narrowest counts that hold n
    best, first = -1, 0
    for h0 in range(0, math.prod(heads), CHUNK_CAP):
        lines = np.arange(h0, min(h0 + CHUNK_CAP, math.prod(heads)))
        head = np.full((-(-n // 64), len(lines)), ~np.uint64(0))
        for i, idx in enumerate(np.unravel_index(lines, heads) if heads else ()):
            head &= head_masks(i, idx)
        for l0 in range(0, last, CHUNK_CAP):
            span = np.arange(l0, min(l0 + CHUNK_CAP, last))
            tail = (_zero_masks(field, grid.rows(r - 1, span), mat) if last > CHUNK_CAP
                    else tables[r - 1])
            step = CHUNK_CAP // len(span)
            for s in range(0, len(lines), step):
                counts = np.bitwise_count(head[:, s:s + step, None] & tail[:, None])
                counts = counts.sum(axis=0, dtype=count_type)
                arg = int(np.argmax(counts))
                top = int(counts.flat[arg])
                index = int(lines[s + arg // len(span)]) * last + l0 + arg % len(span)
                # the last row's slices come out of C order when it is over the cap
                if top > best or top == best and index < first:
                    best, first = top, index
    return best, first


def _zero_scan_chunk(args):
    q, mat, k, combos = args
    field = make_field(q)
    best_count, best_rref = -1, None
    enumerated = 0
    maxima = []
    for pivots in combos:
        grid = RrefGrid(q, k, pivots)
        top, index = zero_column_counts(field, grid, mat)
        enumerated += math.prod(grid.shape[:-2])
        if top > best_count:
            best_count = top
            best_rref = grid[np.unravel_index(index, grid.shape[:-2])]
        maxima.append(top)
    return best_count, best_rref, enumerated, maxima


def scan_max_zero_columns(q: int, mat: np.ndarray, r: int, workers: int = 1):
    """Maximize the zero-column count of B @ mat over every r-dimensional
    row space B of F_q^k, k = mat rows.

    Returns (count, rref witness, subspaces enumerated, maxima), where
    maxima[i] is the largest count in pattern i of pivot_patterns(k, r).
    The witness is the earliest maximizer in the canonical order: each
    chunk of patterns keeps its own earliest one, and the chunks, which
    split_chunks cuts contiguously and run_chunks returns in order, are
    merged by keeping the first that reaches the best count.  So the
    result does not depend on the worker count.

    The patterns are split into `workers` chunks either way, but a pool
    is started only when the chunks other than the largest, whose work
    is all a pool can take off one process, are priced above
    POOL_MIN_WORK; otherwise the chunks run in-process, in order.
    """
    k = mat.shape[0]
    chunked = split_chunks(pivot_patterns(k, r), workers)
    work = [sum(pattern_size(c, k, q) for c in chunk) * mat.shape[1] for chunk in chunked]
    if sum(work) - max(work, default=0) <= POOL_MIN_WORK:
        workers = 1
    best_count, best_rref = -1, None
    enumerated = 0
    maxima = []
    for count, rref, part, chunk_maxima in run_chunks(
            _zero_scan_chunk, [(q, mat, k, chunk) for chunk in chunked], workers):
        enumerated += part
        maxima += chunk_maxima
        if count > best_count:
            best_count, best_rref = count, rref
    return best_count, best_rref, enumerated, maxima
