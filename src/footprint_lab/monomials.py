"""Monomial calculus behind the footprint bound.

Monomials are exponent tuples.  Projective monomials in m+1 variables
x_0..x_m are tuples of length m+1; hypercube monomials at level l live in
x_0..x_{l-1} and are tuples of length l, every entry at most q-1 (the
level-0 hypercube is the singleton {()}).  Everywhere "descending lex"
means the pure lexicographic order with x_0 > x_1 > ... read off the
exponent tuples, which coincides with Python's tuple order reversed.
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache, reduce

from .errors import BadLevel, CountOutOfRange

Monomial = tuple[int, ...]


def divides(nu: Monomial, mu: Monomial) -> bool:
    """nu | mu componentwise; tuples must share a length."""
    if len(nu) != len(mu):
        raise ValueError("monomials live in different ambients")
    return all(a <= b for a, b in zip(nu, mu))


def level(mon: Monomial) -> int:
    """Index of the last variable appearing; 0 for the constant."""
    for j in range(len(mon) - 1, -1, -1):
        if mon[j]:
            return j
    return 0


def sort_desc(mons) -> list[Monomial]:
    """Canonical presentation: descending lexicographic order."""
    return sorted(mons, reverse=True)


def format_monomial(mon: Monomial) -> str:
    parts = []
    for j, a in enumerate(mon):
        if a == 1:
            parts.append(f"x{j}")
        elif a > 1:
            parts.append(f"x{j}^{a}")
    return "*".join(parts) if parts else "1"


def reduce_exponent(a: int, q: int) -> int:
    """0 stays 0; otherwise the representative of a in 1..q-1 mod q-1."""
    if a == 0:
        return 0
    return (a - 1) % (q - 1) + 1


def reduce_monomial(mon: Monomial, q: int) -> Monomial:
    """Projective reduction: normalize every exponent before the last
    variable into 0..q-1 and absorb the surplus into the last exponent.
    Preserves degree and the evaluation at every point of F_q^{m+1}."""
    lv = level(mon)
    if mon[lv] == 0:  # the constant
        return tuple(mon)
    head = [reduce_exponent(a, q) for a in mon[:lv]]
    surplus = sum(mon[:lv]) - sum(head)
    return tuple(head) + (mon[lv] + surplus,) + tuple(mon[lv + 1:])


def is_reduced(mon: Monomial, q: int) -> bool:
    lv = level(mon)
    return all(a <= q - 1 for a in mon[:lv])


def _check_level(lv, m) -> None:
    if not 0 <= lv <= m:
        raise BadLevel(f"level {lv} outside 0..{m}")


@lru_cache(maxsize=None)
def bounded_tuples(length: int, cap: int, total: int, mode: str = "at_most") -> tuple[Monomial, ...]:
    """Tuples with entries in 0..cap and sum <= total ("at_most") or
    == total ("exact"), in descending lex.  Every basis, cube and slice of
    exponent tuples in the package is read off this one enumerator."""
    if mode not in ("at_most", "exact"):
        raise ValueError(f"mode {mode!r}")
    if length < 0:
        raise ValueError(f"length {length} is negative")
    if length == 0:
        ok = total >= 0 if mode == "at_most" else total == 0
        return ((),) if ok else ()
    out = []
    for first in range(min(cap, total), -1, -1):
        for rest in bounded_tuples(length - 1, cap, total - first, mode):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def reduced_monomials(m: int, q: int, deg: int, lv: int | None = None) -> tuple[Monomial, ...]:
    """Projectively reduced degree-deg monomials in x_0..x_m, descending
    lex; lv restricts to those whose last variable is x_lv."""
    if deg < 0:
        raise ValueError(f"degree {deg} is negative")
    if lv is not None:
        _check_level(lv, m)
    out = []
    for l in range(m + 1) if lv is None else [lv]:
        # the head x_0..x_{l-1} has entries below q and sum below deg (it is
        # empty at level 0); the last variable x_l takes the rest
        for head in bounded_tuples(l, q - 1, deg - 1) if l else [()]:
            out.append(head + (deg - sum(head),) + (0,) * (m - l))
    return tuple(sort_desc(out))


def all_monomials(m: int, deg: int) -> tuple[Monomial, ...]:
    """Every degree-deg monomial in x_0..x_m, descending lex."""
    return bounded_tuples(m + 1, deg, deg, "exact")


# Per target list: its threshold columns and the shadow masks read off
# them, by generator; filled by _shadow_masks and kept for the run.
_MASKS: dict[tuple[Monomial, ...], tuple[list[list[int]], dict[Monomial, int]]] = {}


def _threshold_columns(targets: tuple[Monomial, ...]) -> list[list[int]]:
    """One column per variable j: cols[j][a] is the bitmask of the targets
    whose j-th exponent is >= a, for a from 0 to the largest j-th exponent
    among the targets.  targets must be nonempty and share a length."""
    cols = []
    for j in range(len(targets[0])):
        col = [0] * (max(mu[j] for mu in targets) + 1)
        for t, mu in enumerate(targets):
            col[mu[j]] |= 1 << t
        for a in range(len(col) - 2, -1, -1):  # exponent exactly a -> at least a
            col[a] |= col[a + 1]
        cols.append(col)
    return cols


def _member_mask(nu: Monomial, cols: list[list[int]], full: int) -> int:
    """Bitmask of the targets nu divides: the AND of nu's threshold
    columns, 0 once an exponent exceeds every target's.  full has a bit
    for every target, the mask of the empty monomial."""
    if len(nu) != len(cols):
        raise ValueError("monomials live in different ambients")
    mask = full
    for col, a in zip(cols, nu):
        if a >= len(col):
            return 0
        mask &= col[a]
    return mask


def _shadow_masks(mons, targets: tuple[Monomial, ...]) -> list[int]:
    """One int bitmask per member of mons, bit t set when it divides
    targets[t].  The threshold columns are built once per target list and
    a mask once per (member, target list), then read from the cache;
    targets are hashed once per call."""
    if not targets:
        return [0 for _ in mons]
    entry = _MASKS.get(targets)
    if entry is None:
        entry = _MASKS[targets] = (_threshold_columns(targets), {})
    cols, cache = entry
    full = (1 << len(targets)) - 1
    out = []
    for nu in mons:
        nu = tuple(nu)
        mask = cache.get(nu)
        if mask is None:
            mask = cache[nu] = _member_mask(nu, cols, full)
        out.append(mask)
    return out


def _multiples(mons, targets: tuple[Monomial, ...], divisible: bool = True) -> list[Monomial]:
    """Members of targets that are (or with divisible=False, are not)
    multiples of some member of mons, in target order: the OR of the
    members' shadow masks, read off bit by bit."""
    hit = reduce(operator.or_, _shadow_masks(mons, targets), 0)
    return [mu for t, mu in enumerate(targets) if (hit >> t & 1) == divisible]


def shadow(mons, deg: int, q: int, m: int, lv: int | None = None) -> list[Monomial]:
    """Degree-deg multiples, within the reduced monomials, of members of mons."""
    return _multiples(mons, reduced_monomials(m, q, deg, lv))


def footprint(mons, deg: int, q: int, m: int, lv: int | None = None) -> list[Monomial]:
    """Degree-deg reduced monomials not divisible by any member of mons."""
    return _multiples(mons, reduced_monomials(m, q, deg, lv), divisible=False)


def footprint_sizes(pool, r: int, deg: int, q: int, m: int) -> list[int]:
    """len(footprint(c, deg, q, m)) for every r-subset c of pool, in
    itertools.combinations order, from shadow masks.

    Each pool monomial's shadow mask over reduced_monomials(m, q, deg)
    comes from _shadow_masks.  A subset's shadow is the OR of its members'
    masks and its footprint is the complement, so its size is the number
    of targets minus the popcount.  The walk is prefix-OR: each head, an
    (r-1)-subset of all but the last member, ORs its masks once, and every
    later member w gives one size from head | w.  That is combinations
    order, at one OR per subset beyond the heads'; r = 0 gives the empty
    subset's size alone."""
    target = reduced_monomials(m, q, deg)
    masks = _shadow_masks(pool, target)
    size = len(target)
    if r == 0:
        return [size]
    # every member but the last, with the members after it
    heads = [(w, masks[i + 1:]) for i, w in enumerate(masks[:-1])]
    out = []
    for head in itertools.combinations(heads, r - 1):
        pre = 0
        for w, _ in head:
            pre |= w
        out += [size - (pre | w).bit_count() for w in (head[-1][1] if head else masks)]
    return out


def restrict_level(mons, lv: int, q: int) -> list[Monomial]:
    """Members supported on x_0..x_lv whose exponents below index lv are < q."""
    out = []
    for mon in mons:
        _check_level(lv, len(mon) - 1)
        if all(a == 0 for a in mon[lv + 1:]) and all(a < q for a in mon[:lv]):
            out.append(mon)
    return sort_desc(out)


def specialize(mons, lv: int) -> list[Monomial]:
    """Image under dropping x_lv; monomials involving x_j, j > lv, are killed."""
    out = set()
    for mon in mons:
        _check_level(lv, len(mon) - 1)
        if all(a == 0 for a in mon[lv + 1:]):
            out.add(mon[:lv])
    return sort_desc(out)


def expand(mons, q: int) -> list[Monomial]:
    """Push x_m exponents onto x_{m-1} where doing so leaves the set's
    divisibility structure intact: mu maps to mu*x_{m-1}/x_m unless the
    fully merged monomial already lies in the set or x_{m-1} would reach
    exponent q.  Injective on any set of monomials of a common degree."""
    mons = set(map(tuple, mons))
    out = []
    for mon in mons:
        if len(mon) < 2:
            raise BadLevel("exponent shifting needs at least two variables")
        merged = mon[:-2] + (mon[-2] + mon[-1], 0)
        if merged not in mons and mon[-2] + 1 < q and mon[-1] >= 1:
            out.append(mon[:-2] + (mon[-2] + 1, mon[-1] - 1))
        else:
            out.append(mon)
    return sort_desc(out)


def hypercube(lv: int, q: int) -> tuple[Monomial, ...]:
    """All monomials in x_0..x_{lv-1} with exponents at most q-1, descending lex."""
    return bounded_tuples(lv, q - 1, lv * (q - 1))


def hypercube_slice(lv: int, q: int, deg: int, mode: str = "exact") -> tuple[Monomial, ...]:
    """Degree slice of the level-lv hypercube: total degree == deg
    ("exact") or <= deg ("at_most"), descending lex."""
    return bounded_tuples(lv, q - 1, deg, mode)


def hypercube_lex_segment(lv: int, q: int, deg: int, count: int, mode: str = "at_most") -> list[Monomial]:
    """First `count` members of the degree slice in descending lex."""
    pool = hypercube_slice(lv, q, deg, mode)
    if not 0 <= count <= len(pool):
        raise CountOutOfRange(f"count {count} outside 0..{len(pool)}")
    return list(pool[:count])


def hypercube_shadow(mons, lv: int, q: int, deg: int | None = None) -> list[Monomial]:
    """Hypercube multiples of members of mons; of degree exactly deg when given."""
    targets = hypercube(lv, q) if deg is None else hypercube_slice(lv, q, deg)
    return _multiples(mons, targets)


def hypercube_footprint(mons, lv: int, q: int, deg: int | None = None) -> list[Monomial]:
    """Hypercube non-multiples of members of mons; of degree exactly deg when given."""
    targets = hypercube(lv, q) if deg is None else hypercube_slice(lv, q, deg)
    return _multiples(mons, targets, divisible=False)


def stable_degree(d: int, m: int, q: int) -> int:
    """Degree from which footprint sizes of degree-d generated sets stabilize."""
    return d + m * (q - 1)
