"""Exact arithmetic in small finite fields GF(p^e).

Elements are plain integers in [0, q) with q = p^e.  The integer
a = sum_j c_j p^j encodes the polynomial sum_j c_j x^j over GF(p), so
the base-p digits of a are its coefficients (little-endian, c_0 first).
0 and 1 encode the additive and multiplicative identities.

Extension arithmetic reduces modulo a fixed monic irreducible polynomial
of degree e.  Three small moduli are pinned so that serialized data and
test vectors stay reproducible:

    q = 4  : x^2 + x + 1
    q = 8  : x^3 + x + 1
    q = 16 : x^4 + x + 1

Every other (p, e) uses the first monic irreducible polynomial in
base-p value order.  Irreducibility is checked by trial division against
all monic polynomials of degree at most e // 2; the pinned moduli go
through the same check at construction time.

With the pinned q = 8 modulus the element x (encoded as the integer 2)
is a primitive element g satisfying g^3 = g + 1.

Multiplication, inversion and powers go through exp/log tables, which is
why construction refuses q > 4096.  Fields are immutable and all
operations are pure, so instances can be shared freely across threads.
"""

from __future__ import annotations

import functools
from typing import Iterator, Sequence

__all__ = ["Field", "GF", "MAX_ORDER"]

MAX_ORDER = 4096

# Pinned moduli as little-endian coefficient tuples (constant term first).
_PINNED_MODULI = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
}


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _prime_factors(n: int) -> list[int]:
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
    degree = len(poly) - 1
    if degree < 1 or poly[0] == 0 and degree > 1:
        # a zero constant term means x divides the polynomial
        return degree == 1
    for d in range(1, degree // 2 + 1):
        for div in _monic_polys(d, p):
            if not any(_poly_rem(poly, div, p)):
                return False
    return True


def _find_modulus(p: int, e: int) -> tuple[int, ...]:
    pinned = _PINNED_MODULI.get((p, e))
    if pinned is not None:
        return pinned
    if e == 1:
        return (0, 1)
    for cand in _monic_polys(e, p):
        if _is_irreducible(cand, p):
            return cand
    raise RuntimeError(f"no irreducible polynomial of degree {e} over GF({p})")


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
        if not _is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p!r}")
        q = p**e
        self.p = p
        self.e = e
        self.q = q
        self.modulus = _find_modulus(p, e)
        if e > 1 and not _is_irreducible(self.modulus, p):
            raise RuntimeError(f"modulus {self.modulus} is reducible over GF({p})")
        self.generator = self._find_generator()
        self._build_tables()

    # -- construction helpers ------------------------------------------

    def _raw_mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        prod = _poly_rem(_poly_mul(self.digits(a), self.digits(b), self.p),
                         self.modulus, self.p)
        return self.from_digits(prod)

    def _find_generator(self) -> int:
        if self.q == 2:
            return 1
        group = self.q - 1
        factors = _prime_factors(group)
        # prefer the element x itself when it generates the group
        candidates = []
        if self.e > 1:
            candidates.append(self.p)
        candidates.extend(v for v in range(2, self.q) if v != self.p or self.e == 1)
        for g in candidates:
            if all(self._raw_pow(g, group // f) != 1 for f in factors):
                return g
        raise RuntimeError(f"no primitive element found for GF({self.q})")

    def _raw_pow(self, a: int, n: int) -> int:
        out = 1
        base = a
        while n:
            if n & 1:
                out = self._raw_mul(out, base)
            base = self._raw_mul(base, base)
            n >>= 1
        return out

    def _build_tables(self) -> None:
        exp = [1] * (self.q - 1)
        log = [-1] * self.q
        log[1] = 0
        x = 1
        for i in range(1, self.q - 1):
            x = self._raw_mul(x, self.generator)
            exp[i] = x
            log[x] = i
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

    def nonzero(self) -> range:
        return range(1, self.q)

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
