"""Exact arithmetic in small finite fields GF(p^e).

Elements are plain integers in [0, q) with q = p^e.  The integer
a = sum_j c_j p^j encodes the polynomial sum_j c_j x^j over GF(p), so
the base-p digits of a are its coefficients (little-endian, c_0 first).
0 and 1 encode the additive and multiplicative identities.

Every field fact follows from one rule.  Extension arithmetic reduces
modulo the first monic irreducible polynomial of degree e in base-p value
order, checked by trial division against all monic polynomials of degree
at most e // 2.  For q = 4, 8 and 16 the rule gives

    q = 4  : x^2 + x + 1
    q = 8  : x^3 + x + 1
    q = 16 : x^4 + x + 1

and the tests pin these, so serialized data and test vectors stay
reproducible.  The generator is the first element g = 1, 2, ... in value
order whose powers reach all q - 1 nonzero elements; that walk of powers
is both the primitivity test and the exp table.  Over GF(8) it is x
(encoded as the integer 2), with g^3 = g + 1.

Multiplication, inversion and powers go through exp/log tables, which is
why construction refuses q > 4096.  Fields are immutable and all
operations are pure, so instances can be shared freely across threads.
"""

from __future__ import annotations

import functools
from typing import Iterator, Sequence

__all__ = ["Field", "GF", "MAX_ORDER"]

MAX_ORDER = 4096


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n, by trial division, in increasing order."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ----------------------------------------------------------------------
# polynomial helpers over GF(p); coefficient tuples, little-endian

def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return out


def _poly_rem(a: Sequence[int], mod: Sequence[int], p: int) -> list[int]:
    # mod must be monic
    rem = list(a)
    dm = len(mod) - 1
    for i in range(len(rem) - 1, dm - 1, -1):
        c = rem[i]
        if c:
            rem[i] = 0
            for j in range(dm):
                rem[i - dm + j] = (rem[i - dm + j] - c * mod[j]) % p
    del rem[dm:]
    return rem


def _monic_polys(degree: int, p: int) -> Iterator[tuple[int, ...]]:
    # ascending base-p value order of the low coefficients
    for k in range(p**degree):
        coeffs = []
        v = k
        for _ in range(degree):
            coeffs.append(v % p)
            v //= p
        yield tuple(coeffs) + (1,)


def _is_irreducible(poly: Sequence[int], p: int) -> bool:
    # poly has degree at least 1; x, the first divisor tried, catches a zero constant term
    return all(any(_poly_rem(poly, div, p))
               for d in range(1, (len(poly) - 1) // 2 + 1) for div in _monic_polys(d, p))


def _find_modulus(p: int, e: int) -> tuple[int, ...]:
    return next(cand for cand in _monic_polys(e, p) if _is_irreducible(cand, p))


def _prime_power(q: int) -> tuple[int, int]:
    """(p, e) with p ** e == q; ValueError unless q is a prime power up to MAX_ORDER."""
    if q < 2:
        raise ValueError(f"field order must be at least 2, got {q}")
    # before trial division, whose cost grows with q
    if q > MAX_ORDER:
        raise ValueError(f"field order {q} exceeds the supported maximum {MAX_ORDER}")
    factors = _prime_factors(q)
    if len(factors) != 1:
        raise ValueError(f"{q} is not a prime power")
    p = factors[0]
    return p, next(e for e in range(1, q) if p**e == q)


# ----------------------------------------------------------------------

class Field:
    """Finite field GF(p^e) with table-based arithmetic.

    Use the module-level :func:`GF` factory so that equal parameters
    share one instance; structures built on top of a field compare the
    field objects of their operands and refuse mixed-field input.
    """

    __slots__ = ("p", "e", "q", "modulus", "generator", "_exp", "_log")

    def __init__(self, p: int, e: int = 1):
        if not isinstance(p, int) or p < 2:
            raise ValueError(f"characteristic must be prime, got {p!r}")
        if not isinstance(e, int) or e < 1:
            raise ValueError(f"extension degree must be a positive int, got {e!r}")
        # the order first: trial division of p and p ** e take time growing with p and e
        if p > MAX_ORDER or e >= MAX_ORDER.bit_length() or p**e > MAX_ORDER:
            raise ValueError(f"field order {p}^{e} exceeds the supported maximum {MAX_ORDER}")
        if _prime_factors(p) != [p]:
            raise ValueError(f"characteristic must be prime, got {p!r}")
        self.p = p
        self.e = e
        self.q = p**e
        self.modulus = _find_modulus(p, e)
        self._build_tables()

    # -- construction helpers ------------------------------------------

    def _raw_mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        prod = _poly_rem(_poly_mul(self.digits(a), self.digits(b), self.p),
                         self.modulus, self.p)
        return self.from_digits(prod)

    def _build_tables(self) -> None:
        # the first g in value order whose powers reach every nonzero element
        for g in range(1, self.q):
            exp = [1]
            x = g
            while x != 1:
                exp.append(x)
                x = self._raw_mul(x, g)
            if len(exp) == self.q - 1:
                break
        log = [-1] * self.q
        for i, x in enumerate(exp):
            log[x] = i
        self.generator = g
        self._exp = exp
        self._log = log

    # -- element checks and encoding -----------------------------------

    def _check(self, a: int) -> None:
        if not isinstance(a, int) or not 0 <= a < self.q:
            raise ValueError(f"{a!r} is not an element of {self!r}")

    def digits(self, a: int) -> list[int]:
        """Base-p digits of a, little-endian, length e."""
        out = []
        for _ in range(self.e):
            out.append(a % self.p)
            a //= self.p
        return out

    def from_digits(self, digits: Sequence[int]) -> int:
        v = 0
        for c in reversed(digits):
            v = v * self.p + c % self.p
        return v

    def elements(self) -> range:
        return range(self.q)

    # -- arithmetic ----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        if self.p == 2:
            return a ^ b
        if self.e == 1:
            return (a + b) % self.p
        return self.from_digits([x + y for x, y in zip(self.digits(a), self.digits(b))])

    def neg(self, a: int) -> int:
        self._check(a)
        if self.p == 2:
            return a
        if self.e == 1:
            return (-a) % self.p
        return self.from_digits([-x for x in self.digits(a)])

    def mul(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in {self!r}")
        return self._exp[(-self._log[a]) % (self.q - 1)]

    def pow(self, a: int, n: int) -> int:
        self._check(a)
        if a == 0:
            if n < 0:
                raise ZeroDivisionError(f"0 has no inverse in {self!r}")
            return 1 if n == 0 else 0
        return self._exp[(self._log[a] * n) % (self.q - 1)]

    def frobenius(self, a: int, i: int = 1) -> int:
        """Apply the Frobenius map i times: a -> a^(p^i), with i mod e."""
        return self.pow(a, self.p ** (i % self.e))

    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        return f"GF({self.q})"

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Field)
                and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus))

    def __hash__(self) -> int:
        return hash((self.p, self.e, self.modulus))


@functools.lru_cache(maxsize=None)
def GF(p: int, e: int = 1) -> Field:
    """Shared Field instance for GF(p^e)."""
    return Field(p, e)
