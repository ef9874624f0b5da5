"""Sparse homogeneous polynomials over a small finite field.

Coefficients use the integer encoding of gf.FieldSpec; monomials are
exponent tuples of length m+1.  Instances are normalized: zero
coefficients dropped, terms sorted in descending lex.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AmbientMismatch
from .gf import FieldSpec
from .monomials import Monomial, format_monomial, reduce_monomial


class _SparseTerms:
    """Behaviour shared by the polynomial classes, which store their
    normalized (monomial, coefficient) pairs in a `terms` field."""

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def to_json(self) -> list:
        return [{"monomial": format_monomial(mon), "coeff": c} for mon, c in self.terms]

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        return " + ".join(f"{c}*{format_monomial(mon)}" if c != 1 or sum(mon) == 0
                          else format_monomial(mon)
                          for mon, c in self.terms)


@dataclass(frozen=True)
class HomogeneousPolynomial(_SparseTerms):
    m: int
    deg: int
    terms: tuple[tuple[Monomial, int], ...]


@dataclass(frozen=True)
class AffinePolynomial(_SparseTerms):
    """Sparse polynomial in nvars variables x_0..x_{nvars-1}, any degrees."""

    nvars: int
    terms: tuple[tuple[Monomial, int], ...]


def make_affine_poly(nvars: int, coeffs: dict[Monomial, int]) -> AffinePolynomial:
    terms = []
    for mon, c in coeffs.items():
        if c == 0:
            continue
        if len(mon) != nvars:
            raise AmbientMismatch(f"monomial {mon} not in {nvars} variables")
        terms.append((tuple(mon), c))
    terms.sort(reverse=True)
    return AffinePolynomial(nvars=nvars, terms=tuple(terms))


def make_poly(m: int, deg: int, coeffs: dict[Monomial, int]) -> HomogeneousPolynomial:
    """Normalize a coefficient map into a HomogeneousPolynomial."""
    terms = []
    for mon, c in coeffs.items():
        if c == 0:
            continue
        if len(mon) != m + 1:
            raise AmbientMismatch(f"monomial {mon} not in ambient x0..x{m}")
        if sum(mon) != deg:
            raise ValueError(f"monomial {format_monomial(mon)} has degree {sum(mon)}, not {deg}")
        terms.append((tuple(mon), c))
    terms.sort(reverse=True)
    return HomogeneousPolynomial(m=m, deg=deg, terms=tuple(terms))


def monomial_poly(m: int, mon: Monomial) -> HomogeneousPolynomial:
    return make_poly(m, sum(mon), {tuple(mon): 1})


def reduce_polynomial(poly: HomogeneousPolynomial, field: FieldSpec) -> HomogeneousPolynomial:
    """Reduce every term projectively and aggregate coefficients.

    The result evaluates identically on all of F_q^{m+1}; terms whose
    reductions collide may cancel, so the result can be zero.
    """
    agg: dict[Monomial, int] = {}
    for mon, c in poly.terms:
        red = reduce_monomial(mon, field.q)
        agg[red] = field.add(agg.get(red, 0), c)
    return make_poly(poly.m, poly.deg, agg)
