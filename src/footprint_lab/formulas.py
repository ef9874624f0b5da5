"""Closed forms for extremal zero counts of systems of forms over F_q.

The central objects: p_j = |P^j(F_q)|; the affine maximum H_r read off the
r-th bounded exponent tuple; its projective upper-bound analogue K_r read
off the r-th reduced monomial; the binomial-sum Macaulay representation;
and the rank decomposition r = (block sum) + j that drives the predicted
projective maximum.  Ranks r are 1-based throughout; descending lex is the
order everywhere a "r-th element" is taken, except the generalized-Hamming
bound which ranks its complementary tuples ascending.
"""

from __future__ import annotations

import math

from .errors import IndexOutOfRange, OutOfRange
from . import monomials
from .monomials import bounded_tuples


def binom(n: int, k: int) -> int:
    """C(n, k), zero when k < 0 or n < k (so C(n, 0) = 1 only for n >= 0)."""
    if k < 0 or n < k:
        return 0
    return math.comb(n, k)


def projective_count(j: int, q: int) -> int:
    """Number of points of j-dimensional projective space; 0 for j < 0."""
    if j < 0:
        return 0
    return (q ** (j + 1) - 1) // (q - 1)


def _positional_weight(t: tuple[int, ...], q: int) -> int:
    return sum(a * q ** (len(t) - 1 - i) for i, a in enumerate(t))


def affine_max_points(r: int, d: int, m: int, q: int) -> int:
    """Maximum number of common zeros in F_q^m of r independent polynomials
    of degree at most d: the base-q positional weight of the r-th bounded
    exponent tuple.  r = 0 gives the whole space q^m."""
    if r == 0:
        return q ** m
    pool = bounded_tuples(m, q - 1, d, "at_most")
    if not 1 <= r <= len(pool):
        raise IndexOutOfRange(f"rank {r} outside 1..{len(pool)}")
    return _positional_weight(pool[r - 1], q)


def macaulay_tuple(n: int, d: int) -> tuple[int, ...]:
    """The unique (m_d, ..., m_1), m_d >= ... >= m_1 >= -1, with
    n = sum of C(m_a + a, a).  Greedy from a = d down."""
    if d < 1:
        raise OutOfRange(f"d = {d} must be >= 1")
    if n < 0:
        raise OutOfRange(f"n = {n} must be >= 0")
    out = []
    rest = n
    for a in range(d, 0, -1):
        # low = C(s, a), high = C(s+1, a), from the floor C(a-1, a) = 0 up
        s, low, high = a - 1, 0, 1
        while high <= rest:
            s += 1
            low, high = high, high * (s + 1) // (s + 1 - a)
        out.append(s - a)
        rest -= low
    assert rest == 0
    return tuple(out)


def macaulay_value(parts: tuple[int, ...]) -> int:
    """Inverse of macaulay_tuple: sum of C(m_a + a, a) with a = d..1."""
    d = len(parts)
    return sum(binom(parts[idx] + (d - idx), d - idx) for idx in range(d))


def affine_max_points_macaulay(r: int, d: int, m: int, q: int) -> int:
    """affine_max_points computed through the Macaulay representation of
    C(m+d, d) - r: sum of floor(q^{m_a}).  Needs 1 <= d < q."""
    if not 1 <= d < q:
        raise OutOfRange(f"d = {d} outside 1..{q - 1}")
    n = binom(m + d, d) - r
    if n < 0:
        raise IndexOutOfRange(f"rank {r} exceeds {binom(m + d, d)}")
    parts = macaulay_tuple(n, d)
    return sum(q ** ma for ma in parts if ma >= 0)


def projective_upper_bound(r: int, d: int, m: int, q: int) -> int:
    """Proven ceiling for the projective maximum: with (a_0..a_m) the
    exponents of the r-th reduced degree-d monomial in descending lex,
    the value sum of a_j * p_{m-1-j} over j < m."""
    pool = monomials.reduced_monomials(m, q, d)
    if not 1 <= r <= len(pool):
        raise IndexOutOfRange(f"rank {r} outside 1..{len(pool)}")
    t = pool[r - 1]
    return sum(a * projective_count(m - 1 - j, q) for j, a in enumerate(t[:-1]))


def rank_split(r: int, d: int, m: int) -> tuple[int, int]:
    """The unique (i, j) with r = sum_{a<=i} C(m+d-a, d-1) + j and
    0 <= j < C(m+d-i-1, d-1); the full rank C(m+d, d) maps to (m, 1)."""
    top = binom(m + d, d)
    if not 1 <= r <= top:
        raise IndexOutOfRange(f"rank {r} outside 1..{top}")
    if r == top:
        return m, 1
    csum = 0
    for i in range(m + 1):
        block = binom(m + d - i - 1, d - 1)
        if r < csum + block:
            return i, r - csum
        csum += block
    raise AssertionError("unreachable: blocks tile the rank range")


def _predicted_value(r: int, d: int, m: int, q: int) -> int:
    i, j = rank_split(r, d, m)
    return affine_max_points(j, d - 1, m - i, q) + projective_count(m - i - 1, q)


def known_family(r: int, d: int, m: int, q: int) -> tuple[int, str] | None:
    """(value, family label) when the maximum is settled by a proved case:

    - "linear": d = 1 (value p_{m-r});
    - "line": m = 1, d < q (value d - r + 1);
    - "tail": r = C(m+d, d) - s with s <= d <= q (value s);
    - "boundary": r at distance t <= d-1 below a block boundary, d < q
      (value p_{m-i} + t);
    - "small-rank": r <= C(m+2, 2), d < q (value from the rank split).
    """
    top = binom(m + d, d)
    if not 1 <= r <= top:
        raise IndexOutOfRange(f"rank {r} outside 1..{top}")
    if d == 1:
        return projective_count(m - r, q), "linear"
    if m == 1 and d < q:
        return d - r + 1, "line"
    if top - r <= d <= q:
        return top - r, "tail"
    if d < q:
        boundary = 0  # sum_{a<=i} C(m+d-a, d-1): rank of the last member of the i-th block
        for i in range(1, m + 2):
            boundary += binom(m + d - i, d - 1)
            t = boundary - r
            if 0 <= t <= d - 1:
                return projective_count(m - i, q) + t, "boundary"
        if r <= binom(m + 2, 2):
            return _predicted_value(r, d, m, q), "small-rank"
    return None


def known_max_points(r: int, d: int, m: int, q: int) -> int | None:
    """The proved maximum when one of the settled families applies, else None."""
    hit = known_family(r, d, m, q)
    return hit[0] if hit else None


def conjectured_max_points(r: int, d: int, m: int, q: int) -> tuple[int, str]:
    """Predicted maximum number of projective zeros of r independent
    degree-d forms, with a status flag.

    For d < q the value is the conjectured exact maximum, reported
    "proven" exactly on the settled families of known_family.  For d = q
    the value is a proved lower bound only and the flag stays
    "conjectural"."""
    if not 1 <= d <= q:
        raise OutOfRange(f"d = {d} outside 1..{q}")
    value = _predicted_value(r, d, m, q)
    if d < q and known_family(r, d, m, q) is not None:
        return value, "proven"
    return value, "conjectural"


def conjectured_max_points_macaulay(r: int, d: int, m: int, q: int) -> int:
    """conjectured_max_points through the Macaulay representation of
    C(m+d, d) - r: p_{m_d} + sum over a < d of floor(q^{m_a})."""
    if not 1 <= d <= q:
        raise OutOfRange(f"d = {d} outside 1..{q}")
    n = binom(m + d, d) - r
    if n < 0:
        raise IndexOutOfRange(f"rank {r} exceeds {binom(m + d, d)}")
    parts = macaulay_tuple(n, d)
    return projective_count(parts[0], q) + sum(q ** ma for ma in parts[1:] if ma >= 0)


def vanishing_forms_dim(d: int, m: int, q: int) -> int:
    """Dimension of the space of degree-d forms vanishing on all of
    P^m(F_q); zero for d <= q."""
    if d < 0:
        raise OutOfRange(f"d = {d} must be >= 0")
    total = 0
    for j in range(2, m + 2):
        inner = 0
        for i in range(j - 1):
            x = d + (i + 1) * (q - 1) - j * q
            inner += binom(x + m, x)
        total += (-1) ** j * binom(m + 1, j) * inner
    return total


def prm_dimension(d: int, m: int, q: int) -> int:
    """Dimension of the projective Reed-Muller code of order d on P^m(F_q):
    equals the number of reduced degree-d monomials."""
    if d < 1:
        raise OutOfRange(f"d = {d} must be >= 1")
    total = 0
    for t in range(d, 0, -(q - 1)):
        for j in range(m + 2):
            x = t - j * q
            total += (-1) ** j * binom(m + 1, j) * binom(x + m, x)
    return total


def prm_min_distance(d: int, m: int, q: int) -> int:
    """Minimum distance (q - s) q^{m-t-1} with d - 1 = t(q-1) + s,
    0 <= s < q-1; defined for 1 <= d <= m(q-1)."""
    if not 1 <= d <= m * (q - 1):
        raise OutOfRange(f"d = {d} outside 1..{m * (q - 1)}")
    t, s = divmod(d - 1, q - 1)
    return (q - s) * q ** (m - t - 1)


def ghw_lower_bound(r: int, d: int, m: int, q: int) -> int:
    """Floor for the r-th generalized Hamming weight of the order-d
    projective Reed-Muller code: m + 1 + the positional p-weight of the
    r-th complementary exponent tuple in ascending lex."""
    if not 1 <= d < q:
        raise OutOfRange(f"d = {d} outside 1..{q - 1}")
    pool = bounded_tuples(m + 1, q - 1, (m + 1) * (q - 1) - d, "exact")
    if not 1 <= r <= len(pool):
        raise IndexOutOfRange(f"rank {r} outside 1..{len(pool)}")
    beta = tuple(reversed(pool))[r - 1]  # ascending lex
    return m + 1 + sum(b * projective_count(m - 1 - j, q) for j, b in enumerate(beta[:-1]))


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den
