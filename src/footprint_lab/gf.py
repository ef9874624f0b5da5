"""Table-driven arithmetic for small finite fields F_q, q = p^e <= 64.

Elements are encoded as integers 0..q-1.  For prime q the encoding is the
residue itself; for q = p^e the base-p digits of the encoding are the
coefficients of a degree-<e polynomial over F_p (digit k = coefficient of
x^k), taken modulo the lexicographically smallest monic irreducible of
degree e.  Consequently 0 is the zero element and 1 the unit, and addition
in characteristic 2 is bitwise XOR of encodings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import BadEncoding, CapExceeded, DivisionByZero, NotPrimePower

FIELD_SIZE_CAP = 64


@dataclass(frozen=True, eq=False)
class FieldSpec:
    """Immutable description of F_q plus its operation tables."""

    q: int
    p: int
    e: int
    modulus: tuple[int, ...]  # coefficients c_0..c_e of the modulus, () when e == 1
    generator: int
    add_table: np.ndarray  # (q, q)
    mul_table: np.ndarray  # (q, q)
    neg_table: np.ndarray  # (q,)
    inv_table: np.ndarray  # (q,), entry 0 is a placeholder, never valid
    log_table: np.ndarray  # (q,), log of 0 is a placeholder
    exp_table: np.ndarray  # (q-1,), exp_table[k] = generator**k
    _pow_cache: dict = field(default_factory=dict, repr=False)

    def add(self, a: int, b: int) -> int:
        self.check(a), self.check(b)
        return int(self.add_table[a, b])

    def sub(self, a: int, b: int) -> int:
        self.check(a), self.check(b)
        return int(self.add_table[a, self.neg_table[b]])

    def neg(self, a: int) -> int:
        self.check(a)
        return int(self.neg_table[a])

    def mul(self, a: int, b: int) -> int:
        self.check(a), self.check(b)
        return int(self.mul_table[a, b])

    def inv(self, a: int) -> int:
        self.check(a)
        if a == 0:
            raise DivisionByZero(f"0 has no inverse in F_{self.q}")
        return int(self.inv_table[a])

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, k: int) -> int:
        """a**k with 0**0 = 1; negative k requires a != 0."""
        self.check(a)
        if a == 0:
            if k == 0:
                return 1
            if k < 0:
                raise DivisionByZero(f"0**{k} undefined in F_{self.q}")
            return 0
        return int(self.exp_table[(int(self.log_table[a]) * k) % (self.q - 1)])

    def check(self, a: int) -> None:
        if not isinstance(a, (int, np.integer)) or isinstance(a, bool) or not 0 <= a < self.q:
            raise BadEncoding(f"{a!r} is not an element encoding of F_{self.q}")

    def elements(self) -> list[int]:
        """All encodings in ascending order (0 first, then 1)."""
        return list(range(self.q))

    def pow_table(self, max_exp: int) -> np.ndarray:
        """(q, max_exp+1) table of a**k, with 0**0 = 1."""
        have = self._pow_cache.get("t")
        if have is not None and have.shape[1] > max_exp:
            return have[:, : max_exp + 1]
        t = np.ones((self.q, max_exp + 1), dtype=np.uint8)
        for k in range(1, max_exp + 1):
            t[:, k] = self.mul_table[t[:, k - 1], np.arange(self.q)]
        self._pow_cache["t"] = t
        return t


def _factor_prime_power(q: int) -> tuple[int, int]:
    if q < 2:
        raise NotPrimePower(f"{q} is not a prime power")
    for p in range(2, q + 1):
        if p * p > q and p < q:
            break
        if q % p == 0:
            e = 0
            n = q
            while n % p == 0:
                n //= p
                e += 1
            if n != 1:
                raise NotPrimePower(f"{q} is not a prime power")
            return p, e
    return q, 1  # q itself prime


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return tuple(out)

def _poly_mod(a: tuple[int, ...], mod: tuple[int, ...], p: int) -> tuple[int, ...]:
    # mod is monic
    a = list(a)
    dm = len(mod) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * mod[j]) % p
    return tuple(a[:dm])


def _monic_polys(deg: int, p: int):
    """Monic degree-deg polynomials over F_p, most significant coefficient varying slowest."""
    for n in range(p**deg):
        coeffs = tuple((n // p**k) % p for k in range(deg)) + (1,)
        yield coeffs


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for div in _monic_polys(d, p):
            if not any(_poly_mod(poly, div, p)):
                return False
    return True


def _smallest_irreducible(e: int, p: int) -> tuple[int, ...]:
    for cand in _monic_polys(e, p):
        if _is_irreducible(cand, p):
            return cand
    raise AssertionError("unreachable: irreducibles exist in every degree")


def _encode(coeffs: tuple[int, ...], p: int) -> int:
    return sum(c * p**k for k, c in enumerate(coeffs))


def _decode(a: int, p: int, e: int) -> tuple[int, ...]:
    return tuple((a // p**k) % p for k in range(e))


@lru_cache(maxsize=None)
def make_field(q: int) -> FieldSpec:
    """Build (and cache) the arithmetic tables for F_q.

    Raises NotPrimePower for composite non-prime-power sizes and
    CapExceeded for q above the supported cap.
    """
    p, e = _factor_prime_power(q)
    if q > FIELD_SIZE_CAP:
        raise CapExceeded(f"q = {q} exceeds the cap of {FIELD_SIZE_CAP}")

    idx = np.arange(q)
    if e == 1:
        modulus: tuple[int, ...] = ()
        add = (idx[:, None] + idx[None, :]) % q
        mul = (idx[:, None] * idx[None, :]) % q
    else:
        modulus = _smallest_irreducible(e, p)
        digits = np.array([_decode(a, p, e) for a in range(q)])  # (q, e)
        sums = (digits[:, None, :] + digits[None, :, :]) % p
        pows = p ** np.arange(e)
        add = (sums * pows).sum(axis=2)
        mul = np.zeros((q, q), dtype=np.int64)
        for a in range(q):
            pa = _decode(a, p, e)
            for b in range(a, q):
                prod = _poly_mod(_poly_mul(pa, _decode(b, p, e), p), modulus, p)
                mul[a, b] = mul[b, a] = _encode(prod, p)

    add = add.astype(np.uint8)
    mul = mul.astype(np.uint8)
    neg = np.array([int(np.nonzero(add[a] == 0)[0][0]) for a in range(q)], dtype=np.uint8)
    inv = np.zeros(q, dtype=np.uint8)
    for a in range(1, q):
        inv[a] = int(np.nonzero(mul[a] == 1)[0][0])

    generator = 0
    for g in range(1, q):
        x, order = g, 1
        while x != 1:
            x = int(mul[x, g])
            order += 1
        if order == q - 1:
            generator = g
            break

    exp = np.zeros(q - 1, dtype=np.uint8)
    log = np.zeros(q, dtype=np.int64)
    x = 1
    for k in range(q - 1):
        exp[k] = x
        log[x] = k
        x = int(mul[x, generator])

    return FieldSpec(q=q, p=p, e=e, modulus=modulus, generator=generator,
                     add_table=add, mul_table=mul, neg_table=neg, inv_table=inv,
                     log_table=log, exp_table=exp)

