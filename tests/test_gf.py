"""Field arithmetic: table construction and the field axioms."""

import itertools

import numpy as np
import pytest

from footprint_lab.errors import (BadEncoding, CapExceeded, DivisionByZero,
                                  NotPrimePower)
from footprint_lab.gf import make_field


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_field_axioms_exhaustive(q):
    f = make_field(q)
    els = f.elements()
    assert els == list(range(q))
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
    # associativity and distributivity on the full cube
    for a in els:
        for b in els:
            for c in els:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11])
def test_prime_field_is_mod_p(q):
    f = make_field(q)
    for a in range(q):
        for b in range(q):
            assert f.add(a, b) == (a + b) % q
            assert f.mul(a, b) == (a * b) % q


def test_f4_multiplication_table():
    f = make_field(4)
    assert f.p == 2 and f.e == 2
    # encodings 2 and 3 are the two roots of the modulus x^2 + x + 1
    assert f.modulus == (1, 1, 1)
    assert f.mul(2, 2) == 3
    assert f.mul(3, 3) == 2
    assert f.mul(2, 3) == 1
    assert f.add(2, 3) == 1
    # characteristic 2: subtraction is addition, every element is its own negative
    assert f.sub(2, 3) == 1 and f.neg(3) == 3
    assert f.div(1, 2) == f.inv(2) == 3
    for a in (1, 2, 3):
        assert f.pow(a, 3) == 1


def test_extension_moduli_are_lex_smallest():
    assert make_field(8).modulus == (1, 1, 0, 1)   # x^3 + x + 1
    assert make_field(9).modulus == (1, 0, 1)      # x^2 + 1
    assert make_field(2).modulus == ()
    assert make_field(25).modulus == (2, 0, 1)     # x^2 + 2


@pytest.mark.parametrize("q", [4, 8, 9, 27])
def test_frobenius(q):
    f = make_field(q)
    p = f.p
    for a in range(q):
        for b in range(q):
            assert f.pow(f.add(a, b), p) == f.add(f.pow(a, p), f.pow(b, p))


@pytest.mark.parametrize("q", [3, 4, 8, 9])
def test_generator_has_full_order(q):
    f = make_field(q)
    seen = set()
    x = 1
    for _ in range(q - 1):
        seen.add(x)
        x = f.mul(x, f.generator)
    assert x == 1 and len(seen) == q - 1


def test_pow_conventions():
    f = make_field(9)
    assert f.pow(0, 0) == 1
    assert f.pow(0, 5) == 0
    with pytest.raises(DivisionByZero):
        f.pow(0, -1)
    with pytest.raises(DivisionByZero):
        f.inv(0)
    for a in range(1, 9):
        assert f.pow(a, 8) == 1
        assert f.pow(a, -1) == f.inv(a)


def test_bad_sizes():
    with pytest.raises(NotPrimePower):
        make_field(6)
    with pytest.raises(NotPrimePower):
        make_field(1)
    with pytest.raises(NotPrimePower):
        make_field(12)
    with pytest.raises(CapExceeded):
        make_field(128)
    make_field(64)  # the cap itself is allowed


def test_bad_encodings():
    f = make_field(5)
    for bad in (-1, 5, 3.0, "3", True):
        with pytest.raises(BadEncoding):
            f.add(bad, 1)


def test_tables_are_numpy():
    f = make_field(8)
    assert isinstance(f.add_table, np.ndarray)
    assert f.add_table.shape == (8, 8)
    assert f.mul_table.shape == (8, 8)
    # the exp/log tables invert each other away from 0
    for a in range(1, 8):
        assert int(f.exp_table[int(f.log_table[a])]) == a


def _prime_power(q):
    p = next(d for d in range(2, q + 1) if q % d == 0)
    e, rest = 0, q
    while rest % p == 0:
        rest //= p
        e += 1
    return (p, e) if rest == 1 else None


PRIME_POWERS = [q for q in range(2, 65) if _prime_power(q)]


def _rem(a, f, p):
    """Remainder of the coefficient list a (x^k at index k) by the monic f."""
    a, top = list(a), len(f) - 1
    for i in range(len(a) - 1, top - 1, -1):
        c = a[i]
        for j, fj in enumerate(f):
            a[i - top + j] = (a[i - top + j] - c * fj) % p
    return a[:top]


def _monic(deg, p):
    return [list(low) + [1] for low in itertools.product(range(p), repeat=deg)]


def _irreducible(f, p):
    """Every monic g of degree 1..deg/2 leaves a nonzero remainder."""
    deg = len(f) - 1
    return all(any(_rem(f, g, p)) for k in range(1, deg // 2 + 1) for g in _monic(k, p))


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_tables_match_naive_reference(q):
    p, e = _prime_power(q)
    f = make_field(q)
    assert (f.q, f.p, f.e) == (q, p, e)
    if e == 1:
        assert f.modulus == ()
        modulus = [0, 1]  # F_p = F_p[x]/(x)
    else:
        # lex-smallest comparing the top coefficient first, by trial division
        modulus = min((g for g in _monic(e, p) if _irreducible(g, p)), key=lambda g: g[::-1])
        assert f.modulus == tuple(modulus)

    def digits(a):
        return [a // p**k % p for k in range(e)]

    def encode(coeffs):
        return sum(c * p**k for k, c in enumerate(coeffs))

    for a in range(q):
        for b in range(q):
            da, db = digits(a), digits(b)
            assert f.add_table[a, b] == encode([(x + y) % p for x, y in zip(da, db)])
            prod = [0] * (2 * e - 1)
            for i, x in enumerate(da):
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
            assert f.mul_table[a, b] == encode(_rem(prod, modulus, p))

    # linalg.matmul's tables: each element's digits, and multiplication by
    # b as the F_p-linear map digits(a) -> digits(a * b)
    assert f.digit_table.tolist() == [digits(a) for a in range(q)]
    by_matrix = np.einsum("aj,bji->abi", f.digit_table, f.mul_matrices) % p
    assert (by_matrix == f.digit_table[f.mul_table]).all()

    # the generator is the smallest element of full order, and exp/log
    # invert each other
    def order(g):
        x, n = g, 1
        while x != 1:
            x, n = int(f.mul_table[x, g]), n + 1
        return n

    assert all(order(g) < q - 1 for g in range(1, f.generator))
    powers = [1]
    for _ in range(q - 2):
        powers.append(int(f.mul_table[powers[-1], f.generator]))
    assert sorted(powers) == list(range(1, q))
    assert int(f.mul_table[powers[-1], f.generator]) == 1
    assert f.exp_table.tolist() == powers
    assert all(f.log_table[a] == k for k, a in enumerate(powers))

    # field axioms on the full q^3 cube
    add, mul = f.add_table.astype(np.int64), f.mul_table.astype(np.int64)
    idx = np.arange(q)
    a, b, c = idx[:, None, None], idx[None, :, None], idx[None, None, :]
    assert (add == add.T).all() and (mul == mul.T).all()
    assert (add[:, 0] == idx).all() and (mul[:, 1] == idx).all() and (mul[:, 0] == 0).all()
    assert (add[idx, f.neg_table] == 0).all()
    assert (mul[idx[1:], f.inv_table[1:]] == 1).all()
    assert (add[add[a, b], c] == add[a, add[b, c]]).all()
    assert (mul[mul[a, b], c] == mul[a, mul[b, c]]).all()
    assert (mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]).all()
