"""Vectorized linear algebra over F_q.

Matrices are numpy uint8 arrays of element encodings.  The subspace
enumeration walks reduced row echelon forms: pivot column sets in
lexicographic order, free entries in odometer order (last position
fastest), which fixes the canonical order of the subspaces.

Within one pivot pattern the rows of an RREF matrix vary independently,
so rref_batches lays the pattern out as a grid with one axis per row (row
i varies along axis i only).  The grid is stored entry-major, so each row
is written by one broadcast along whole grid axes, and handed out as a
(grid..., r, k) view.  The scan kernel reads row i's values off one line
along axis i of that grid, multiplies the r lines by the evaluation matrix
in one product per block instead of once per subspace, packs the zero
columns into uint64 masks and, one mask word at a time, intersects the
rows' masks with a broadcast AND and popcounts them, so a subspace costs
about ceil(n/64) word operations.

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

# Most matrices in one rref_batches block; their packed masks are the
# kernel's largest intermediate.
BLOCK_CAP = 2**14

# Most float64 entries in one matmul temporary.  matmul multiplies the rows
# of its left operand in slices, so the digit-expanded slice and its product
# each stay at 256 KiB whatever the block size: a whole e = 3 block at once
# nearly tripled a scan's peak memory, and slices of 2**14 to 2**16 entries,
# which stay in a core's L2 cache, ran up to twice as fast as 2**17.
PRODUCT_CAP = 2**15

# Least priced work (subspaces x points) that a process pool has to take
# off a scan's largest chunk before one is started.  On a 2-CPU x86-64
# machine a fork pool costs about 0.0105 s more than running the same
# chunks in-process, and one process scans about 2.1e8 subspace-points
# per second (median over seven scans of 0.1 to 8 s, r = 1 to 3, q = 3 to
# 8: 6.9e7 to 8.2e8), so below 0.0105 s x 2.1e8 the pool cannot win back
# its start-up.
POOL_MIN_WORK = 22 * 10**5


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


def _row_values(q: int, k: int, pivot: int, cols: list[int], idx: np.ndarray) -> np.ndarray:
    """One RREF row per odometer index in idx, entry-major (k, len(idx)):
    1 at the pivot, the index's base-q digits at the free columns cols
    (last column fastest)."""
    out = np.zeros((k, len(idx)), dtype=np.uint8)
    out[pivot] = 1
    for c in reversed(cols):
        # a scalar divisor: numpy divides without a division instruction per entry
        idx, out[c] = np.divmod(idx, q)
    return out


def rref_batches(q: int, k: int, pivots: tuple[int, ...]):
    """Yield blocks covering every RREF matrix with the given pivot
    columns, in the canonical order.

    Row i has f_i free entries and takes n_i = q**f_i values, whatever the
    other rows hold, so the matrices form a grid: a block has shape
    (n_0, ..., n_{r-1}, r, k) (or a slice of it), with row i varying along
    axis i only.  The blocks' C orders, one block after the other, are the
    canonical order.  Axes are split from the left so that no block holds
    more than BLOCK_CAP matrices: the axes after the split axis are whole,
    the split axis is cut into slices, and the axes before it take one
    value per block.

    Each block is built entry-major, as (r, k, n_0, ..., n_{r-1}), so row
    i is written by one broadcast of its (k, n_i) values along the grid
    axes, and yielded as a moveaxis view with the shape above.
    """
    r = len(pivots)
    free = _free_columns(pivots, k)
    sizes = [q ** len(f) for f in free]
    tails = [math.prod(sizes[i:]) for i in range(r + 1)]  # tails[i + 1]: step of axis i
    split = next(i for i in range(r + 1) if tails[i] <= BLOCK_CAP)
    whole = [(0, n) for n in sizes[split:]]
    if split == 0:
        spans = [whole]
    else:
        n, step = sizes[split - 1], BLOCK_CAP // tails[split]
        spans = ([*((h, h + 1) for h in head), (lo, min(lo + step, n)), *whole]
                 for head in itertools.product(*map(range, sizes[:split - 1]))
                 for lo in range(0, n, step))
    for span in spans:
        block = np.empty((r, k) + tuple(hi - lo for lo, hi in span), dtype=np.uint8)
        for i, (lo, hi) in enumerate(span):
            values = _row_values(q, k, pivots[i], free[i], np.arange(lo, hi))
            block[i] = values.reshape((k,) + (1,) * i + (hi - lo,) + (1,) * (r - 1 - i))
        yield np.moveaxis(block, (0, 1), (-2, -1))


def _zero_words(values: np.ndarray) -> np.ndarray:
    """The zero columns of values (..., n) as bit masks (..., ceil(n/64)) of uint64."""
    packed = np.packbits(values == 0, axis=-1, bitorder="little")
    nbytes = packed.shape[-1]
    words = np.zeros(packed.shape[:-1] + (nbytes + -nbytes % 8,), dtype=np.uint8)
    words[..., :nbytes] = packed
    return words.view(np.uint64)


def zero_column_counts(field: FieldSpec, blocks: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """For each (r, k) matrix of an rref_batches block, of shape
    (n_0, ..., n_{r-1}, r, k), the number of columns of matrix @ mat that
    vanish identically.

    Row i varies along axis i only, so its n_i values are read off one
    line along that axis; the r lines are stacked and multiplied by mat in
    one product.  Their zero columns are packed into uint64 masks, and for
    each mask word the rows' words are intersected with a broadcast AND
    over the block's axes and popcounted into the counts.
    """
    blocks = np.asarray(blocks, dtype=np.uint8)
    r = blocks.shape[-2]
    if blocks.ndim != r + 2:
        raise ValueError(f"block of shape {blocks.shape} is not an (n_0, ..., n_{{r-1}}, r, k) grid")
    grid = blocks.shape[:-2]
    if r == 0:
        return np.full(grid, mat.shape[1], dtype=np.int64)
    lines = [blocks[(0,) * i + (slice(None),) + (0,) * (r - 1 - i) + (i,)] for i in range(r)]
    stacked = lines[0] if r == 1 else np.concatenate(lines)  # an r = 1 block is its own line
    words = _zero_words(matmul(field, stacked, mat)).T  # (words, sum of n_i)
    ends = np.cumsum(grid)
    counts = np.zeros(grid, dtype=np.int64)
    both = np.empty(grid, dtype=np.uint64)
    for word in words:
        masks = [word[end - n_i:end].reshape((1,) * i + (n_i,) + (1,) * (r - 1 - i))
                 for i, (end, n_i) in enumerate(zip(ends, grid))]
        # the AND grows axis by axis, and only the last step, written into
        # one buffer per block, spans the whole grid (r = 1 ANDs its one
        # mask with itself)
        partial = masks[0]
        for mask in masks[1:-1]:
            partial = partial & mask
        counts += np.bitwise_count(np.bitwise_and(partial, masks[-1], out=both))
    return counts


def _zero_scan_chunk(args):
    q, mat, k, combos = args
    field = make_field(q)
    best_count, best_rref = -1, None
    enumerated = 0
    maxima = []
    for pivots in combos:
        top = -1
        for block in rref_batches(q, k, pivots):
            counts = zero_column_counts(field, block, mat)
            enumerated += counts.size
            arg = int(np.argmax(counts))
            top = max(top, int(counts.flat[arg]))
            if top > best_count:
                best_count = top
                best_rref = block[np.unravel_index(arg, counts.shape)].copy()
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
