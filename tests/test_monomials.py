"""Monomial calculus: reduction, enumeration, shadows, the hypercube."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from footprint_lab.errors import BadLevel, CountOutOfRange
from footprint_lab.gf import make_field
from footprint_lab import monomials as mo
from footprint_lab import verify


def test_reduce_examples():
    # the head exponent wraps into 1..q-1, the surplus lands on the level
    assert mo.reduce_monomial((5, 0, 2), 3) == (1, 0, 6)
    assert mo.reduce_monomial((3, 1, 0), 3) == (1, 3, 0)
    assert mo.reduce_monomial((4, 4), 2) == (1, 7)
    # the level exponent itself is never wrapped
    assert mo.reduce_monomial((9, 0, 0), 3) == (9, 0, 0)
    assert mo.reduce_monomial((0, 0, 0), 3) == (0, 0, 0)
    assert mo.format_monomial((0, 0, 0)) == "1"
    assert mo.format_monomial((1, 0, 0)) == "x0"
    assert mo.format_monomial((2, 0, 3)) == "x0^2*x2^3"
    assert mo.format_monomial((1, 7)) == "x0*x1^7"


def test_reduce_preserves_evaluation():
    q = 3
    f = make_field(q)
    mon, red = (5, 0, 2), mo.reduce_monomial((5, 0, 2), q)
    for pt in itertools.product(range(q), repeat=3):
        lhs = f.mul(f.mul(f.pow(pt[0], 5), 1), f.pow(pt[2], 2))
        rhs = f.mul(f.pow(pt[0], red[0]), f.pow(pt[2], red[2]))
        assert lhs == rhs


def test_reduce_degree_and_idempotence():
    for q in (2, 3, 4):
        for mon in mo.all_monomials(2, 7):
            red = mo.reduce_monomial(mon, q)
            assert sum(red) == 7
            assert mo.is_reduced(red, q)
            assert mo.reduce_monomial(red, q) == red


def test_is_reduced_characterization():
    # exponents strictly before the last nonzero position must be < q
    assert mo.is_reduced((2, 5, 0), 3)
    assert not mo.is_reduced((3, 5, 0), 3)
    assert mo.is_reduced((9, 0, 0), 3)
    assert mo.is_reduced((0, 0, 0), 2)


def test_level_and_divides():
    assert mo.level((0, 0, 0)) == 0
    assert mo.level((1, 2, 0)) == 1
    assert mo.divides((1, 0, 1), (2, 0, 1))
    assert not mo.divides((1, 0, 2), (2, 0, 1))
    with pytest.raises(ValueError):
        mo.divides((1, 0), (1, 0, 0))


def test_reduced_monomials_enumeration():
    got = mo.reduced_monomials(2, 3, 2)
    assert got == ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))
    # saturation: from degree m(q-1)+1 on the count is the point count
    assert len(mo.reduced_monomials(2, 3, 5)) == 13
    assert len(mo.reduced_monomials(2, 3, 6)) == 13
    assert len(mo.reduced_monomials(1, 2, 3)) == 3
    # level slices partition
    for deg in range(7):
        whole = mo.reduced_monomials(2, 3, deg)
        parts = [mo.reduced_monomials(2, 3, deg, lv) for lv in range(3)]
        assert sorted(m for p in parts for m in p) == sorted(whole)
    with pytest.raises(BadLevel):
        mo.reduced_monomials(2, 3, 2, 5)


def test_reduced_monomials_rejects_negative_degree():
    with pytest.raises(ValueError, match="negative"):
        mo.reduced_monomials(2, 3, -1)
    with pytest.raises(ValueError, match="negative"):
        mo.footprint([(1, 0, 0)], -2, 3, 2)


def test_all_monomials():
    got = mo.all_monomials(2, 2)
    assert len(got) == 6
    assert got[0] == (2, 0, 0) and got[-1] == (0, 0, 2)
    assert list(got) == mo.sort_desc(got)
    assert mo.all_monomials(0, 4) == ((4,),)


def test_shadow_footprint_partition():
    q, m = 3, 2
    sset = [(1, 0, 1), (0, 2, 0)]
    for deg in (4, 5, 6):
        sh = mo.shadow(sset, deg, q, m)
        fp = mo.footprint(sset, deg, q, m)
        assert sorted(sh + fp) == sorted(mo.reduced_monomials(m, q, deg))
        assert not set(sh) & set(fp)


def test_footprint_single_generator():
    # x0 kills exactly the monomials with positive first exponent
    fp = mo.footprint([(1, 0, 0)], 6, 3, 2)
    assert len(fp) == 4
    assert all(mon[0] == 0 for mon in fp)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), q=st.sampled_from((2, 3, 4, 5)), m=st.integers(1, 3))
def test_footprint_sizes_match_footprint(data, q, m):
    d = data.draw(st.integers(1, q), label="d")
    pool = data.draw(st.lists(st.sampled_from(mo.reduced_monomials(m, q, d)),
                              min_size=1, max_size=7, unique=True), label="pool")
    # the empty subset, every subset size, and one size past the pool
    r = data.draw(st.integers(0, len(pool) + 1), label="r")
    estar = mo.stable_degree(d, m, q)
    # zero, below the pool's degree, just below, at and above the stable degree
    e = data.draw(st.sampled_from((0, d - 1, d, estar - 1, estar, estar + 2)), label="e")
    want = [len(mo.footprint(c, e, q, m)) for c in itertools.combinations(pool, r)]
    assert mo.footprint_sizes(pool, r, e, q, m) == want


def _naive_multiples(mons, targets, divisible=True):
    """The targets that some member of mons divides (or, with
    divisible=False, that none does), one exponent comparison at a time."""
    return [mu for mu in targets
            if any(all(a <= b for a, b in zip(nu, mu)) for nu in mons) == divisible]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), q=st.sampled_from((2, 3, 4, 5)), m=st.integers(0, 3))
def test_shadows_and_footprints_match_naive_double_loop(data, q, m):
    mons = data.draw(st.lists(st.tuples(*[st.integers(0, q + 1)] * (m + 1)), max_size=6),
                     label="mons")
    deg = data.draw(st.integers(0, m * (q - 1) + 3), label="deg")
    for lv in (None, *range(m + 1)):
        targets = mo.reduced_monomials(m, q, deg, lv)
        assert mo.shadow(mons, deg, q, m, lv) == _naive_multiples(mons, targets)
        assert mo.footprint(mons, deg, q, m, lv) == _naive_multiples(mons, targets, False)
    lv = data.draw(st.integers(0, 3), label="lv")
    cube_mons = [mon[:lv] + (0,) * (lv - len(mon)) for mon in mons]
    for cube_deg in (None, *range(lv * (q - 1) + 2)):
        targets = mo.hypercube(lv, q) if cube_deg is None else mo.hypercube_slice(lv, q, cube_deg)
        assert mo.hypercube_shadow(cube_mons, lv, q, cube_deg) == _naive_multiples(
            cube_mons, targets)
        assert mo.hypercube_footprint(cube_mons, lv, q, cube_deg) == _naive_multiples(
            cube_mons, targets, False)


def test_mixed_ambients_raise():
    for mons in ([(1, 0)], [(1, 0, 0), (1, 0)], [(0, 0, 0), (1, 0)]):
        with pytest.raises(ValueError, match="different ambients"):
            mo.shadow(mons, 2, 3, 2)
        with pytest.raises(ValueError, match="different ambients"):
            mo.footprint(mons, 2, 3, 2, 1)
    with pytest.raises(ValueError, match="different ambients"):
        mo.hypercube_shadow([(1,)], 2, 3)
    with pytest.raises(ValueError, match="different ambients"):
        mo.hypercube_footprint([(0, 0), (1, 0, 0)], 2, 3, 1)
    with pytest.raises(ValueError, match="different ambients"):
        mo.footprint_sizes([(1, 0, 0), (1, 0)], 1, 2, 3, 2)


def test_expander_tests_each_generator_once_per_target_list(monkeypatch):
    """suite_expander on its default grid (q = 3, m = 2, d = 2) builds at
    most one threshold table per target list its footprints read, and at
    most one shadow mask per pool monomial and target list, however many
    subsets it walks."""
    q, m, d = 3, 2, 2
    estar = mo.stable_degree(d, m, q)
    target_lists = {mo.reduced_monomials(m, q, e) for e in range(d, estar + 3)}
    target_lists |= {mo.reduced_monomials(m, q, e, lv)
                     for e in range(estar, estar + 3) for lv in (m - 1, m)}
    pool = mo.reduced_monomials(m, q, d)
    tables, masks = [], []
    threshold_columns, member_mask = mo._threshold_columns, mo._member_mask

    def counting_columns(targets):
        tables.append(targets)
        return threshold_columns(targets)

    def counting_mask(nu, cols, full):
        masks.append(nu)
        return member_mask(nu, cols, full)
    monkeypatch.setattr(mo, "_MASKS", {})  # start from an empty cache
    monkeypatch.setattr(mo, "_threshold_columns", counting_columns)
    monkeypatch.setattr(mo, "_member_mask", counting_mask)
    rep = verify.suite_expander(verify.VerifyConfig())
    assert rep.passed
    assert set(tables) <= target_lists
    assert 0 < len(tables) <= len(target_lists)
    assert set(masks) <= set(pool)
    assert 0 < len(masks) <= len(pool) * len(target_lists)


def test_restrict_level():
    q = 3
    sset = [(1, 0, 1), (0, 2, 0), (0, 1, 1), (3, 1, 0), (2, 0, 0)]
    # anything supported on x_0..x_lv with sub-level exponents < q stays,
    # so x0^2 belongs to the level-1 restriction alongside x1^2
    assert mo.restrict_level(sset, 1, q) == [(2, 0, 0), (0, 2, 0)]
    assert mo.restrict_level(sset, 2, q) == \
        mo.sort_desc([(2, 0, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1)])
    assert mo.restrict_level(sset, 0, q) == [(2, 0, 0)]
    # x0^3*x1 fails the sub-level cap everywhere
    assert all((3, 1, 0) not in mo.restrict_level(sset, lv, q) for lv in range(3))
    with pytest.raises(BadLevel):
        mo.restrict_level(sset, 3, q)


def test_specialize():
    assert mo.specialize([(1, 0, 1), (0, 2, 0), (0, 1, 1)], 2) == \
        mo.sort_desc([(1, 0), (0, 2), (0, 1)])
    assert mo.specialize([(0, 2, 0), (2, 0, 0)], 1) == [(2,), (0,)]
    assert mo.specialize([(1, 1, 1)], 1) == []
    assert mo.specialize([(2, 0, 0)], 0) == [()]


def test_expand():
    q = 3
    # x1*x2 moves onto x1^2 when that square is absent
    assert mo.expand([(0, 1, 1)], q) == [(0, 2, 0)]
    # blocked by the merged monomial being present
    assert set(mo.expand([(0, 1, 1), (0, 2, 0)], q)) == {(0, 1, 1), (0, 2, 0)}
    # blocked by the exponent cap
    assert mo.expand([(0, 2, 1)], q) == [(0, 2, 1)]
    # nothing to move
    assert mo.expand([(1, 1, 0)], q) == [(1, 1, 0)]
    for sset in itertools.combinations(mo.reduced_monomials(2, 3, 2), 3):
        image = mo.expand(sset, q)
        assert len(set(image)) == len(sset)
        assert sorted(map(sum, image)) == sorted(map(sum, sset))


def test_expand_needs_two_variables():
    with pytest.raises(BadLevel) as info:
        mo.expand([(1,)], 3)
    assert str(info.value) == "exponent shifting needs at least two variables"


def test_hypercube():
    assert mo.hypercube(0, 3) == ((),)
    assert len(mo.hypercube(2, 3)) == 9
    assert mo.hypercube(2, 3)[0] == (2, 2)
    assert mo.hypercube(2, 3)[-1] == (0, 0)
    assert len(mo.hypercube(3, 2)) == 8


def test_hypercube_slices_and_segments():
    sl = mo.hypercube_slice(2, 3, 2, "exact")
    assert sl == ((2, 0), (1, 1), (0, 2))
    at = mo.hypercube_slice(2, 3, 2, "at_most")
    assert at == ((2, 0), (1, 1), (1, 0), (0, 2), (0, 1), (0, 0))
    assert mo.hypercube_lex_segment(2, 3, 2, 2, "at_most") == [(2, 0), (1, 1)]
    assert mo.hypercube_lex_segment(2, 3, 2, 0, "exact") == []
    with pytest.raises(CountOutOfRange):
        mo.hypercube_lex_segment(2, 3, 2, 7, "at_most")
    with pytest.raises(ValueError):
        mo.hypercube_slice(2, 3, 2, "between")


def test_hypercube_shadow_footprint():
    q, lv = 3, 2
    tset = [(1, 0)]
    sh = mo.hypercube_shadow(tset, lv, q)
    fp = mo.hypercube_footprint(tset, lv, q)
    assert sorted(sh + fp) == sorted(mo.hypercube(lv, q))
    assert len(sh) == 6  # multiples of x0 in the 3x3 grid
    assert mo.hypercube_shadow(tset, lv, q, 2) == [(2, 0), (1, 1)]
    assert mo.hypercube_footprint(tset, lv, q, 2) == [(0, 2)]


def _desc(tuples):
    return tuple(sorted(tuples, reverse=True))


@pytest.mark.parametrize("q", (2, 3, 4, 5))
@pytest.mark.parametrize("m", (0, 1, 2, 3))
def test_enumerations_match_product_constructions(q, m):
    """Every enumeration read off bounded_tuples equals the construction it
    replaced: itertools.product, filtered, sorted descending."""
    top = (m + 1) * (q - 1)  # the top degree of the widest cube below
    for lv in range(m + 2):
        cube = list(itertools.product(range(q), repeat=lv))
        assert mo.hypercube(lv, q) == _desc(cube)
        for deg in range(top + 2):
            assert mo.hypercube_slice(lv, q, deg, "exact") == _desc(
                t for t in cube if sum(t) == deg)
            assert mo.hypercube_slice(lv, q, deg, "at_most") == _desc(
                t for t in cube if sum(t) <= deg)
    for deg in range(top + 2):
        assert mo.all_monomials(m, deg) == _desc(
            t for t in itertools.product(range(deg + 1), repeat=m + 1) if sum(t) == deg)
        whole = []
        for lv in range(m + 1):
            if lv == 0:
                part = [(deg,) + (0,) * m]
            else:
                part = [head + (deg - sum(head),) + (0,) * (m - lv)
                        for head in itertools.product(range(q), repeat=lv)
                        if deg - sum(head) >= 1]
            assert mo.reduced_monomials(m, q, deg, lv) == _desc(part)
            whole += part
        assert mo.reduced_monomials(m, q, deg) == _desc(whole)


def test_stable_degree():
    assert mo.stable_degree(2, 2, 3) == 6
    assert mo.stable_degree(1, 2, 3) == 5
    assert mo.stable_degree(3, 1, 4) == 6
