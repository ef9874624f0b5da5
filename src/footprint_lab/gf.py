"""Table-driven arithmetic for small finite fields F_q, q = p^e <= 64.

Every field is built the same way, as F_p[x]/(f) with f monic of degree
e: an element is encoded as the integer 0..q-1 whose base-p digits are
its coefficients (digit k = coefficient of x^k), and f is the
lexicographically smallest monic irreducible of degree e, found as the
first candidate whose multiplication table has no zero divisors.  For
prime q (e = 1, f = x) the encoding is the residue itself.  Consequently
0 is the zero element and 1 the unit, and addition in characteristic 2
is bitwise XOR of encodings.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    digit_table: np.ndarray  # (q, e) float64, the base-p digits of each element
    mul_matrices: np.ndarray  # (q, e, e) float64, digits(a * b) = digits(a) @ mul_matrices[b] mod p

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


@lru_cache(maxsize=None)
def make_field(q: int) -> FieldSpec:
    """Build (and cache) the arithmetic tables for F_q = F_p[x]/(f).

    Every q = p^e takes the same path, prime fields included as e = 1.
    Elements are their base-p digit vectors, addition is digit-wise mod p
    and multiplication is the digit convolution reduced by a monic f of
    degree e.  f is the first monic candidate, in lex order of its
    coefficients from the top, whose multiplication table has no zero
    divisors: F_p[x]/(f) is a field exactly when f is irreducible, so the
    table itself proves it.  For e = 1 that is f = x, reported as ().

    Raises NotPrimePower for composite non-prime-power sizes and
    CapExceeded for q above the supported cap.
    """
    p, e = _factor_prime_power(q)
    if q > FIELD_SIZE_CAP:
        raise CapExceeded(f"q = {q} exceeds the cap of {FIELD_SIZE_CAP}")

    pows = p ** np.arange(e)
    digits = np.arange(q)[:, None] // pows % p  # (q, e), digit k = coefficient of x^k
    add = ((digits[:, None, :] + digits[None, :, :]) % p @ pows).astype(np.uint8)
    conv = np.zeros((q, q, 2 * e - 1), dtype=np.int64)  # digit convolution a * b
    for i in range(e):
        conv[:, :, i:i + e] += digits[:, None, i, None] * digits[None, :, :]
    for low in digits:  # candidate moduli f = x^e + sum_k low_k x^k, in lex order
        modulus = np.append(low, 1)
        prod = conv.copy()
        for k in range(2 * e - 2, e - 1, -1):  # cancel x^k with x^(k-e) * f
            prod[:, :, k - e:k + 1] -= prod[:, :, k, None] * modulus
        mul = (prod[:, :, :e] % p @ pows).astype(np.uint8)
        if (mul[1:, 1:] != 0).all():  # no zero divisors: f is irreducible
            break
    neg = np.argmax(add == 0, axis=1).astype(np.uint8)
    inv = np.argmax(mul == 1, axis=1).astype(np.uint8)  # row 0 has no 1: entry 0

    # the first element of order q - 1; each candidate overwrites the
    # powers it reaches, so the generator's walk leaves exp/log complete
    exp = np.zeros(q - 1, dtype=np.uint8)
    log = np.zeros(q, dtype=np.int64)
    for generator in range(1, q):
        x = 1
        for k in range(q - 1):
            exp[k], log[x] = x, k
            x = int(mul[x, generator])
            if x == 1:
                break
        if k == q - 2:
            break

    # multiplying by b is F_p-linear on digits: row j of b's matrix is the
    # digit vector of b * x^j
    mats = digits[mul[:, pows]]  # (q, e, e)

    return FieldSpec(q=q, p=p, e=e, modulus=tuple(modulus.tolist()) if e > 1 else (),
                     generator=generator, add_table=add, mul_table=mul, neg_table=neg,
                     inv_table=inv, log_table=log, exp_table=exp,
                     digit_table=digits.astype(np.float64), mul_matrices=mats.astype(np.float64))
