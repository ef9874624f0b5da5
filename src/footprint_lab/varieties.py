"""Exhaustive ground truth for maximum zero counts, plus witness families.

The projective searches range over r-dimensional spaces of forms through
their canonical reduced row echelon bases, evaluating on the standard
point representatives (last nonzero coordinate 1).  Results carry the
earliest maximizing subspace in the canonical enumeration order, so they
are reproducible and independent of the worker count.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from functools import lru_cache

import numpy as np

from . import formulas, linalg, monomials, runtime
from .errors import (AmbientMismatch, IndexOutOfRange, OutOfRange,
                     WitnessInvalid)
from .gf import FieldSpec, make_field
from .polys import (HomogeneousPolynomial, make_affine_poly,
                    make_poly, monomial_poly)


@lru_cache(maxsize=None)
def projective_points(m: int, q: int) -> tuple[tuple[int, ...], ...]:
    """Canonical representatives of P^m(F_q): last nonzero coordinate 1,
    grouped by its index from m down to 0, earlier coordinates running in
    odometer order."""
    pts = []
    for l in range(m, -1, -1):
        for head in itertools.product(range(q), repeat=l):
            pts.append(head + (1,) + (0,) * (m - l))
    return tuple(pts)


@lru_cache(maxsize=None)
def affine_points(m: int, q: int) -> tuple[tuple[int, ...], ...]:
    return tuple(itertools.product(range(q), repeat=m))


def _projective_basis(mode: str, d: int, m: int, q: int) -> tuple:
    if mode not in ("reduced", "all"):
        raise ValueError(f"mode {mode!r}")
    return (monomials.reduced_monomials(m, q, d) if mode == "reduced"
            else monomials.all_monomials(m, d))


@lru_cache(maxsize=None)
def projective_eval_matrix(mode: str, d: int, m: int, q: int) -> np.ndarray:
    """The degree-d monomials of mode ("reduced" or "all") evaluated at
    projective_points(m, q): built once per (mode, d, m, q) and read-only,
    so every rank's scan and a code's generator share one matrix."""
    mat = linalg.eval_matrix(make_field(q), _projective_basis(mode, d, m, q),
                             projective_points(m, q))
    mat.flags.writeable = False
    return mat


@lru_cache(maxsize=16)
def projective_row_table(mode: str, d: int, m: int, q: int) -> linalg.RowTable:
    """The RowTable of projective_eval_matrix(mode, d, m, q), built once per
    matrix for every rank's scan; the cache is bounded because a table can
    hold up to about 2 * CHUNK_CAP masks of n bits."""
    return linalg.RowTable(make_field(q), projective_eval_matrix(mode, d, m, q))


def count_common_zeros(polys, m: int, q: int) -> int:
    """Number of projective points where every polynomial vanishes: the
    forms of each degree present, as coefficient rows over all_monomials,
    times projective_eval_matrix("all", ...), zero columns ANDed."""
    field = make_field(q)
    polys = list(polys)
    for f in polys:
        if f.m != m:
            raise AmbientMismatch(f"polynomial in ambient x0..x{f.m}, expected x0..x{m}")
        for _, c in f.terms:
            field.check(c)
    zero = np.ones(len(projective_points(m, q)), dtype=bool)
    for deg in sorted({f.deg for f in polys}):
        coeff = _coefficient_matrix([f for f in polys if f.deg == deg], m, deg)
        values = linalg.matmul(field, coeff, projective_eval_matrix("all", deg, m, q))
        zero &= (values == 0).all(axis=0)
    return int(zero.sum())


def _coefficient_matrix(polys, m: int, deg: int) -> np.ndarray:
    """Coefficients of the degree-deg forms polys (rows) over
    all_monomials(m, deg) (columns)."""
    where = {mon: t for t, mon in enumerate(monomials.all_monomials(m, deg))}
    coeff = np.zeros((len(polys), len(where)), dtype=np.uint8)
    for i, f in enumerate(polys):
        for mon, c in f.terms:
            coeff[i, where[mon]] = c
    return coeff


@dataclasses.dataclass(frozen=True)
class SearchResult:
    """An exhaustive search's maximum, its earliest witness and the count
    of candidates enumerated.

    er and affine: value is the most common zeros, witness the r forms
    attaining it, rows their (r, k) uint8 RREF coefficients over the
    scan's basis.  ghw: the er scan's result with value n - e_r.
    footprint: value is the largest footprint, witness the monomial
    subset, rows None.  rows carries witness again, so it is not compared.
    """
    value: int
    witness: tuple
    enumerated: int
    violations: tuple = ()
    rows: np.ndarray | None = dataclasses.field(default=None, compare=False)


def brute_force_max_points(r: int, d: int, m: int, q: int, *, mode: str = "reduced",
                           budget: int | None = None, workers: int = 1,
                           footprint_check: bool = False) -> SearchResult:
    """Maximum number of projective zeros over every r-dimensional space
    of degree-d forms spanned by the chosen monomial basis.

    mode "reduced" spans the projectively reduced monomials (every
    evaluation class once); mode "all" spans all degree-d monomials.  With
    footprint_check every pivot pattern's largest zero count is checked
    against the stable footprint size of its leading monomials; each
    pattern that exceeds it lands in .violations as (leading monomials,
    pattern maximum, bound), always empty if the footprint bound is sound.
    The bounds only lower the scan's pruning floor, so value and witness
    do not depend on them.  The budget prices the scan unpruned: every
    subspace times every point.
    """
    basis = _projective_basis(mode, d, m, q)
    make_field(q)  # an unsupported q is refused before the scan is priced
    k = len(basis)
    if not 1 <= r <= k:
        raise IndexOutOfRange(f"r = {r} outside 1..{k}")
    total = formulas.gaussian_binomial(k, r, q)
    runtime.charge_budget(total * formulas.projective_count(m, q), budget,
                          "projective subspace scan")
    if footprint_check and mode != "reduced":
        raise ValueError("footprint bound check requires reduced mode")
    # footprint_sizes follows combinations order, the order of pivot_patterns
    bounds = (monomials.footprint_sizes(basis, r, monomials.stable_degree(d, m, q), q, m)
              if footprint_check else None)
    value, rref, enumerated, found = linalg.scan_max_zero_columns(
        projective_row_table(mode, d, m, q), r, workers, bounds)
    assert enumerated == total
    patterns = linalg.pivot_patterns(k, r) if found else ()
    violations = tuple(
        (tuple(monomials.format_monomial(basis[p]) for p in patterns[i]), top, bounds[i])
        for i, top in found)
    witness = tuple(make_poly(m, d, {basis[t]: int(c) for t, c in enumerate(row) if c})
                    for row in rref)
    return SearchResult(value=value, witness=witness, enumerated=enumerated,
                        violations=violations, rows=rref)


def brute_force_affine_max_points(r: int, d: int, m: int, q: int, *,
                                  budget: int | None = None,
                                  workers: int = 1) -> SearchResult:
    """Maximum number of common zeros in F_q^m over every r-dimensional
    space of reduced polynomials of degree at most d."""
    field = make_field(q)
    basis = formulas.bounded_tuples(m, q - 1, d, "at_most")
    k = len(basis)
    if not 1 <= r <= k:
        raise IndexOutOfRange(f"r = {r} outside 1..{k}")
    total = formulas.gaussian_binomial(k, r, q)
    runtime.charge_budget(total * q ** m, budget, "affine subspace scan")
    table = linalg.RowTable(field, linalg.eval_matrix(field, basis, affine_points(m, q)))
    value, rref, enumerated, _ = linalg.scan_max_zero_columns(table, r, workers)
    assert enumerated == total
    witness = tuple(make_affine_poly(m, {basis[t]: int(c) for t, c in enumerate(row) if c})
                    for row in rref)
    return SearchResult(value=value, witness=witness, enumerated=enumerated, rows=rref)


def brute_force_max_footprint(r: int, d: int, m: int, q: int, e: int, *,
                              budget: int | None = None) -> SearchResult:
    """Largest degree-e footprint over every r-subset of the reduced
    degree-d monomials; the witness is the earliest maximizing subset in
    itertools.combinations order.

    Subset sizes come from monomials.footprint_sizes: one shadow bitmask
    per monomial over the degree-e targets, read off per-variable threshold
    columns, and one OR per subset on a prefix-OR walk.  The budget prices
    the scan at k * |target| + C(k, r) * r, a size estimate rather than a
    count of divisibility tests; the witness is rebuilt from the index of
    the first maximum."""
    pool = monomials.reduced_monomials(m, q, d)
    k = len(pool)
    if not 1 <= r <= k:
        raise IndexOutOfRange(f"r = {r} outside 1..{k}")
    target = monomials.reduced_monomials(m, q, e)
    total = math.comb(k, r)
    runtime.charge_budget(k * len(target) + total * r, budget, "footprint subset scan")
    sizes = monomials.footprint_sizes(pool, r, e, q, m)
    best = max(sizes)
    best_set = next(itertools.islice(itertools.combinations(pool, r), sizes.index(best), None))
    return SearchResult(value=best, witness=best_set, enumerated=total)


@dataclasses.dataclass(frozen=True)
class WitnessResult:
    value: int
    predicted: int
    polys: tuple[HomogeneousPolynomial, ...]


def _mul_linear(field: FieldSpec, g: dict, t: int, c_s: int) -> dict:
    """Multiply the affine coefficient map g by (x_t - c_s)."""
    out: dict = {}
    minus = field.neg(c_s)
    for mon, c in g.items():
        up = mon[:t] + (mon[t] + 1,) + mon[t + 1:]
        out[up] = field.add(out.get(up, 0), c)
        if minus:
            out[mon] = field.add(out.get(mon, 0), field.mul(c, minus))
    return {mon: c for mon, c in out.items() if c}


def construct_witness(r: int, d: int, m: int, q: int) -> WitnessResult:
    """A rank-r family of degree-d forms built to attain the predicted maximum.

    For the block part the family takes every degree-d monomial in
    x_0..x_{m-a+1} divisible by x_{m-a+1}, a = 1..i; the remaining j
    members are products of distinct linear factors in the first m-i
    variables (one product per leading exponent tuple), homogenized with
    x_{m-i}.  value is the family's own common-zero count, to be compared
    with predicted; WitnessInvalid is raised when the members are
    linearly dependent.
    """
    field = make_field(q)
    if not 1 <= d <= q:
        raise OutOfRange(f"d = {d} outside 1..{q}")
    i, j = formulas.rank_split(r, d, m)
    predicted, _ = formulas.conjectured_max_points(r, d, m, q)
    polys = []
    for a in range(1, i + 1):
        v = m - a + 1
        for tail in monomials.all_monomials(v, d - 1):
            mon = list(tail) + [0] * (a - 1)
            mon[v] += 1
            polys.append(monomial_poly(m, tuple(mon)))
    if j:
        nv = m - i
        for beta in formulas.bounded_tuples(nv, q - 1, d - 1, "at_most")[:j]:
            g = {(0,) * nv: 1}
            for t, bt in enumerate(beta):
                for s in range(bt):
                    g = _mul_linear(field, g, t, s)
            coeffs = {mon + (d - sum(mon),) + (0,) * (m - nv): c for mon, c in g.items()}
            polys.append(make_poly(m, d, coeffs))
    if linalg.rank(field, _coefficient_matrix(polys, m, d)) != len(polys):
        raise WitnessInvalid(
            f"the rank-{r} family of degree-{d} forms on P^{m}(F_{q}) is linearly dependent")
    return WitnessResult(value=count_common_zeros(polys, m, q), predicted=predicted,
                         polys=tuple(polys))
