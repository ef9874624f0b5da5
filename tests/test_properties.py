"""Property-based checks of the structural invariants."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from footprint_lab.gf import make_field
from footprint_lab import formulas as fo
from footprint_lab import linalg
from footprint_lab import monomials as mo

PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9)

exponent_tuples = st.lists(st.integers(0, 9), min_size=1, max_size=4).map(tuple)
small_q = st.sampled_from(PRIME_POWERS)


@given(mon=exponent_tuples, q=small_q)
def test_reduction_idempotent_degree_preserving(mon, q):
    red = mo.reduce_monomial(mon, q)
    assert sum(red) == sum(mon)
    assert mo.is_reduced(red, q)
    assert mo.reduce_monomial(red, q) == red


@settings(max_examples=50)
@given(mon=st.lists(st.integers(0, 7), min_size=2, max_size=3).map(tuple),
       q=st.sampled_from((2, 3, 4)))
def test_reduction_preserves_every_evaluation(mon, q):
    f = make_field(q)
    red = mo.reduce_monomial(mon, q)

    def value(exponents, pt):
        v = 1
        for x, a in zip(pt, exponents):
            v = f.mul(v, f.pow(x, a))
        return v

    for pt in itertools.product(range(q), repeat=len(mon)):
        assert value(mon, pt) == value(red, pt)


@given(n=st.integers(0, 5000), d=st.integers(1, 7))
def test_macaulay_round_trip(n, d):
    parts = fo.macaulay_tuple(n, d)
    assert fo.macaulay_value(parts) == n
    assert all(a >= b for a, b in zip(parts, parts[1:]))
    assert min(parts) >= -1


@given(d=st.integers(1, 5), m=st.integers(1, 5),
       data=st.data())
def test_rank_split_is_a_bijection(d, m, data):
    top = fo.binom(m + d, d)
    r = data.draw(st.integers(1, top))
    i, j = fo.rank_split(r, d, m)
    assert 0 <= i <= m
    assert sum(fo.binom(m + d - a, d - 1) for a in range(1, i + 1)) + j == r
    if r < top:
        assert 0 <= j < fo.binom(m + d - i - 1, d - 1)


@given(q=st.sampled_from((3, 4, 5, 7, 8, 9)), m=st.integers(1, 4),
       data=st.data())
def test_macaulay_form_agrees_everywhere(q, m, data):
    d = data.draw(st.integers(1, q - 1))
    r = data.draw(st.integers(1, fo.binom(m + d, d)))
    assert fo.affine_max_points(r, d, m, q) == \
        fo.affine_max_points_macaulay(r, d, m, q)
    assert fo.conjectured_max_points(r, d, m, q)[0] == \
        fo.conjectured_max_points_macaulay(r, d, m, q)


@settings(max_examples=30)
@given(q=st.sampled_from((2, 3, 4)), k=st.integers(1, 5), data=st.data())
def test_gaussian_binomial_counts_rref_matrices(q, k, data):
    r = data.draw(st.integers(1, k))
    total = sum(linalg.pattern_size(pivots, k, q)
                for pivots in linalg.pivot_patterns(k, r))
    assert total == fo.gaussian_binomial(k, r, q)


@given(q=st.sampled_from((2, 3)), lv=st.integers(0, 3), data=st.data())
def test_lex_segments_nest(q, lv, data):
    d = data.draw(st.integers(0, lv * (q - 1)))
    pool = mo.hypercube_slice(lv, q, d, "at_most")
    a = data.draw(st.integers(0, len(pool)))
    b = data.draw(st.integers(0, len(pool)))
    small, large = sorted((a, b))
    seg_small = mo.hypercube_lex_segment(lv, q, d, small, "at_most")
    seg_large = mo.hypercube_lex_segment(lv, q, d, large, "at_most")
    assert seg_large[:small] == seg_small


@settings(max_examples=60)
@given(q=st.sampled_from((2, 3)), data=st.data())
def test_footprint_antitone_in_generators(q, data):
    pool = mo.reduced_monomials(2, q, 2)
    sset = data.draw(st.sets(st.sampled_from(pool), max_size=len(pool)))
    extra = data.draw(st.sampled_from(pool))
    e = mo.stable_degree(2, 2, q)
    before = len(mo.footprint(sset, e, q, 2))
    after = len(mo.footprint(set(sset) | {extra}, e, q, 2))
    assert after <= before


@given(q=st.sampled_from(PRIME_POWERS), data=st.data())
def test_field_inverse_pairs(q, data):
    f = make_field(q)
    a = data.draw(st.integers(1, q - 1))
    b = data.draw(st.integers(0, q - 1))
    assert f.mul(a, f.inv(a)) == 1
    assert f.sub(b, b) == 0
    assert f.pow(a, q - 1) == 1
