"""Projective Reed-Muller codes and their generalized Hamming weights.

The order-d code on P^m(F_q) evaluates the reduced degree-d monomials at
the canonical point representatives; those independent rows generate the
full code.  An r-dimensional subcode evaluates r independent forms, so
the r-th generalized Hamming weight is n - e_r, with e_r from the
projective subspace scan (varieties.brute_force_max_points).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import formulas, linalg, monomials, varieties
from .errors import AmbientMismatch, BadEncoding, DependentBasis, OutOfRange
from .gf import make_field
from .monomials import Monomial


@dataclass(frozen=True)
class LinearCode:
    q: int
    n: int
    k: int
    order: int             # degree of the evaluated forms
    m: int
    basis: tuple[Monomial, ...]  # monomial per generator row

    @property
    def generator(self) -> np.ndarray:  # (k, n) element encodings, read-only
        return varieties.projective_eval_matrix("reduced", self.order, self.m, self.q)


def build_prm(d: int, m: int, q: int) -> LinearCode:
    """The order-d projective Reed-Muller code, its generator evaluated
    on first use.  Allows d past m(q-1), where the code is the whole
    ambient space."""
    if d < 1:
        raise OutOfRange(f"d = {d} must be >= 1")
    if m < 1:
        raise OutOfRange(f"m = {m} must be >= 1")
    make_field(q)
    basis = tuple(monomials.reduced_monomials(m, q, d))
    return LinearCode(q=q, n=formulas.projective_count(m, q), k=len(basis),
                      order=d, m=m, basis=basis)


def subspace_weight(code: LinearCode, rows) -> int:
    """Support size of the subcode spanned by the given message rows."""
    field = make_field(code.q)
    rows = np.atleast_2d(np.asarray(rows))
    if rows.shape[1] != code.k:
        raise AmbientMismatch(f"rows have {rows.shape[1]} entries, message space wants {code.k}")
    if rows.dtype.kind not in "iu" or ((rows < 0) | (rows >= code.q)).any():
        raise BadEncoding(f"rows hold entries that are not element encodings of F_{code.q}")
    rows = rows.astype(np.uint8)
    if linalg.rank(field, rows) != rows.shape[0]:
        raise DependentBasis("combination rows are linearly dependent")
    values = linalg.matmul(field, rows, code.generator)
    return code.n - int((values == 0).all(axis=0).sum())


def ghw_exhaustive(code: LinearCode, r: int, *, budget: int | None = None,
                   workers: int = 1) -> varieties.SearchResult:
    """r-th generalized Hamming weight: the projective scan's SearchResult
    with value n - e_r; its rows are the message rows over code.basis."""
    res = varieties.brute_force_max_points(r, code.order, code.m, code.q,
                                           budget=budget, workers=workers)
    return replace(res, value=code.n - res.value)


def ghw_table(code: LinearCode, *, budget: int | None = None,
              workers: int = 1) -> tuple[int, ...]:
    return tuple(ghw_exhaustive(code, r, budget=budget, workers=workers).value
                 for r in range(1, code.k + 1))


def check_duality(d: int, m: int, q: int, *, budget: int | None = None,
                  workers: int = 1) -> list[dict]:
    """Generalized Hamming weights against an independent zero count.

    weight is ghw_exhaustive's; max_zeros counts the common projective
    zeros of the same result's witness forms from their own evaluation
    (count_common_zeros), once per rank; holds checks
    weight + max_zeros == n."""
    code = build_prm(d, m, q)
    out = []
    for r in range(1, code.k + 1):
        res = ghw_exhaustive(code, r, budget=budget, workers=workers)
        zeros = varieties.count_common_zeros(res.witness, m, q)
        out.append({"r": r, "weight": res.value, "max_zeros": zeros, "n": code.n,
                    "holds": res.value + zeros == code.n})
    return out


def export_generator_csv(code: LinearCode) -> str:
    """Rows of integer encodings, one generator row per line, basis order."""
    return "\n".join(",".join(str(int(c)) for c in row) for row in code.generator) + "\n"
