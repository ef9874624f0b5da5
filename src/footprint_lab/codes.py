"""Projective Reed-Muller codes and their generalized Hamming weights.

The order-d code on P^m(F_q) evaluates the reduced degree-d monomials at
the canonical point representatives; those rows are linearly independent,
so they form a generator matrix whose row space is the full code.  The
r-th generalized Hamming weight is the smallest support size of an
r-dimensional subcode, found exhaustively by the canonical RREF scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import formulas, linalg, monomials, runtime, varieties
from .errors import (AmbientMismatch, DependentBasis, IndexOutOfRange,
                     OutOfRange)
from .gf import make_field
from .monomials import Monomial
from .polys import HomogeneousPolynomial, make_poly


@dataclass(frozen=True)
class LinearCode:
    q: int
    n: int
    k: int
    generator: np.ndarray  # (k, n) element encodings
    order: int             # degree of the evaluated forms
    m: int
    basis: tuple[Monomial, ...]  # monomial per generator row


def build_prm(d: int, m: int, q: int) -> LinearCode:
    """Generator matrix of the order-d projective Reed-Muller code.

    Allows d past m(q-1), where the code is the whole ambient space."""
    if d < 1:
        raise OutOfRange(f"d = {d} must be >= 1")
    if m < 1:
        raise OutOfRange(f"m = {m} must be >= 1")
    field = make_field(q)
    basis = monomials.reduced_monomials(m, q, d)
    pts = varieties.projective_points(m, q)
    gen = linalg.eval_matrix(field, basis, pts)
    return LinearCode(q=q, n=len(pts), k=len(basis), generator=gen,
                      order=d, m=m, basis=tuple(basis))


def codeword_polynomials(code: LinearCode, rows) -> tuple[HomogeneousPolynomial, ...]:
    """Message rows as the forms they evaluate."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.uint8))
    return tuple(make_poly(code.m, code.order,
                           {code.basis[t]: int(c) for t, c in enumerate(row) if c})
                 for row in rows)


def subspace_weight(code: LinearCode, rows) -> int:
    """Support size of the subcode spanned by the given message rows."""
    field = make_field(code.q)
    rows = np.atleast_2d(np.asarray(rows, dtype=np.uint8))
    if rows.shape[1] != code.k:
        raise AmbientMismatch(f"rows have {rows.shape[1]} entries, message space wants {code.k}")
    if linalg.rank(field, rows) != rows.shape[0]:
        raise DependentBasis("combination rows are linearly dependent")
    values = linalg.matmul(field, rows, code.generator)
    return code.n - int((values == 0).all(axis=0).sum())


@dataclass(frozen=True)
class GhwResult:
    weight: int
    rows: np.ndarray  # (r, k) RREF witness
    enumerated: int


def ghw_exhaustive(code: LinearCode, r: int, *, budget: int | None = None,
                   workers: int = 1) -> GhwResult:
    """r-th generalized Hamming weight by scanning every r-dim subcode.

    Minimizing support is maximizing the common zero columns, so the scan
    and its canonical witness come from the same engine as the variety
    searches."""
    if not 1 <= r <= code.k:
        raise IndexOutOfRange(f"r = {r} outside 1..{code.k}")
    total = formulas.gaussian_binomial(code.k, r, code.q)
    runtime.charge_budget(total * code.n, budget, "subcode scan")
    zeros, rref, enumerated, _ = linalg.scan_max_zero_columns(
        code.q, code.generator, r, workers)
    assert enumerated == total
    return GhwResult(weight=code.n - zeros, rows=rref, enumerated=enumerated)


def ghw_table(code: LinearCode, *, budget: int | None = None,
              workers: int = 1) -> tuple[int, ...]:
    return tuple(ghw_exhaustive(code, r, budget=budget, workers=workers).weight
                 for r in range(1, code.k + 1))


def check_duality(d: int, m: int, q: int, *, budget: int | None = None,
                  workers: int = 1) -> list[dict]:
    """The subcode scan against an independent zero count, at every rank.

    weight is the exhaustive r-th weight; max_zeros reads that scan's
    witness rows back as forms and counts their common projective zeros
    from their own evaluation (count_common_zeros).  The scan runs once
    per rank; holds checks weight + max_zeros == n."""
    code = build_prm(d, m, q)
    out = []
    for r in range(1, code.k + 1):
        res = ghw_exhaustive(code, r, budget=budget, workers=workers)
        zeros = varieties.count_common_zeros(codeword_polynomials(code, res.rows), m, q)
        out.append({"r": r, "weight": res.weight, "max_zeros": zeros, "n": code.n,
                    "holds": res.weight + zeros == code.n})
    return out


def export_generator_csv(code: LinearCode) -> str:
    """Rows of integer encodings, one generator row per line, basis order."""
    return "\n".join(",".join(str(int(c)) for c in row) for row in code.generator) + "\n"


def export_generator_json(code: LinearCode) -> dict:
    return {
        "schema": 1,
        "q": code.q, "d": code.order, "m": code.m, "n": code.n, "k": code.k,
        "basis": [monomials.format_monomial(mon) for mon in code.basis],
        "rows": [[int(c) for c in row] for row in code.generator],
    }
