"""Subspaces of F_q^m in canonical reduced-basis form.

A subspace is stored as its unique reduced basis: echelon rows with
strictly increasing pivot columns, pivot entries 1, and zeros elsewhere
in every pivot column.  Two subspaces are equal exactly when they
contain the same vectors, so the canonical basis (and the byte key
derived from it) supports hashing and exact deduplication.

Vectors are plain tuples of field elements (ints); the ambient dimension
m and the Field travel alongside them in the surrounding structures.
Inside, rows are held in a row format chosen once per field, by
_kernels: over GF(2) each row is one int (bit j = coordinate j) and the
pivots are the lowest set bits, over every other field rows are tuples.
A small kernel table per format (_BitRows, _TupleRows) holds everything
that depends on it, and every operation here, and the linear maps of
groupsearch, is written once over the table of its field.  The key and
the tuple rows of a subspace are views of its held rows, each built on
first use and kept.

The public matrix utilities (rank_of, solve, matmul, express) take
tuple rows and pass each one through the table's
checked pack, which checks its length and every entry, so a malformed
row or a value outside the field is a ValueError on every field.

Enumeration of d-dimensional subspaces generates reduced bases directly,
one pivot-column pattern at a time, filling the free entries in
row-major order.  No deduplication pass is needed and the yield order
coincides with ascending canonical-key order, because the key encodes
(q, m, dimension, pivot columns, free entries) in exactly that order.
"""

from __future__ import annotations

import bisect
import itertools
import struct
from typing import Iterable, Iterator, Optional, Sequence

from .gf import Field

__all__ = [
    "CapExceeded",
    "Subspace",
    "span",
    "subspaces",
    "zero_subspace",
    "full_space",
    "gaussian_binomial",
    "standard_basis_vector",
    "vec_add",
    "vec_scale",
    "vec_dot",
    "rank_of",
    "express",
    "solve",
    "matmul",
    "VECTOR_ENUM_CAP",
    "SUBSPACE_ENUM_CAP",
]

Vector = tuple[int, ...]

VECTOR_ENUM_CAP = 1 << 20
SUBSPACE_ENUM_CAP = 10**6
MAX_AMBIENT = 64

class CapExceeded(RuntimeError):
    """An enumeration or search would exceed its configured cap."""


# ----------------------------------------------------------------------
# vector helpers

def standard_basis_vector(m: int, i: int) -> Vector:
    return tuple(1 if j == i else 0 for j in range(m))


def vec_add(field: Field, u: Sequence[int], v: Sequence[int]) -> Vector:
    if field.p == 2:
        return tuple(x ^ y for x, y in zip(u, v, strict=True))
    return tuple(field.add(x, y) for x, y in zip(u, v, strict=True))


def vec_scale(field: Field, c: int, v: Sequence[int]) -> Vector:
    if c == 1:
        return tuple(v)
    if c == 0:
        return (0,) * len(v)
    return tuple(field.mul(c, x) for x in v)


def vec_dot(field: Field, u: Sequence[int], v: Sequence[int]) -> int:
    acc = 0
    for x, y in zip(u, v, strict=True):
        if x and y:
            acc = field.add(acc, field.mul(x, y))
    return acc


# ----------------------------------------------------------------------
# row-reduction kernels of GF(2) rows packed into ints

def _unpack(row: int, m: int) -> Vector:
    return tuple(_bit_bytes(row, m))


# byte j of entry i is bit j of i: turns packed rows into entry bytes
# eight bits at a time
_BIT_BYTES = tuple(bytes((i >> j) & 1 for j in range(8)) for i in range(256))


def _bit_bytes(row: int, m: int) -> bytes:
    """The m coordinates of a packed row, one byte each."""
    if m <= 8:
        return _BIT_BYTES[row][:m]
    return b"".join([_BIT_BYTES[(row >> s) & 255] for s in range(0, m, 8)])[:m]


def _matmul_bits(a: Iterable[int], b: Sequence[int]) -> list[int]:
    """Product of packed GF(2) matrices: row i XORs the rows b[j] over the set bits j of a[i]."""
    out = []
    for row in a:
        acc = 0
        while row:
            low = row & -row
            acc ^= b[low.bit_length() - 1]
            row ^= low
        out.append(acc)
    return out


def _echelon_bits(rows: Iterable[int]) -> dict[int, int]:
    """An echelon basis of packed GF(2) rows: lowest set bit -> its row."""
    piv: dict[int, int] = {}
    for r in rows:
        while r:
            low = r & -r
            b = piv.get(low)
            if b is None:
                piv[low] = r
                break
            r ^= b
    return piv


def _rref_bits(rows: Iterable[int]) -> list[int]:
    """Reduced echelon basis of packed GF(2) rows, sorted by pivot."""
    piv = _echelon_bits(rows)
    # clear the higher pivot columns of each row, highest pivot first
    reduced: list[tuple[int, int]] = []
    for low in sorted(piv, reverse=True):
        r = piv[low]
        for q, b in reduced:
            if r & q:
                r ^= b
        reduced.append((low, r))
    return [r for _, r in reversed(reduced)]


# the two-byte key entries of 0 and 1
_ENTRY_BYTES = (struct.pack(">H", 0), struct.pack(">H", 1))


def _make_key(q: int, m: int, rows: Sequence[Vector], pivots: Sequence[int]) -> bytes:
    parts = [struct.pack(">HBB", q, m, len(rows)), bytes(pivots)]
    pivset = set(pivots)
    for i, row in enumerate(rows):
        for j in range(pivots[i] + 1, m):
            if j not in pivset:
                parts.append(struct.pack(">H", row[j]))
    return b"".join(parts)


def _bits_key(m: int, bits: Sequence[int], pivots: Sequence[int]) -> bytes:
    """The _make_key bytes of the canonical GF(2) rows that bits pack."""
    pivmask = 0
    for p in pivots:
        pivmask |= 1 << p
    parts = [struct.pack(">HBB", 2, m, len(bits)), bytes(pivots)]
    for p, b in zip(pivots, bits):
        for j in range(p + 1, m):
            if not (pivmask >> j) & 1:
                parts.append(_ENTRY_BYTES[(b >> j) & 1])
    return b"".join(parts)


# ----------------------------------------------------------------------
# the two row formats
#
# A table holds every kernel that depends on the row format; rows in a
# table's own format are "held" rows.  pack checks a tuple row and
# holds it, unpack gives it back.  echelon(rows) is an echelon basis
# (its length is the rank), rref(rows) the reduced basis sorted by
# pivot, and reduce(echelon, x) the reduction of x against (pivot, row)
# pairs whose rows are 1 at their pivot and 0 at the pivots before; a
# canonical basis zipped with its pivots is such an echelon, so
# containment and residuals read against it.  join(left, right, m) puts
# two rows side by side and right(row, m) takes back the columns from m
# on, for the doubled-column reductions; dot(x, y) is the dot product of
# two rows.  span lists the vectors of a span and reduced_bases the
# reduced bases of every d-dimensional subspace, in canonical order.

class _BitRows:
    """GF(2) rows packed into ints, bit j holding coordinate j."""

    __slots__ = ("field",)

    echelon = staticmethod(_echelon_bits)
    rref = staticmethod(_rref_bits)
    matmul = staticmethod(_matmul_bits)
    unpack = staticmethod(_unpack)
    key = staticmethod(_bits_key)

    def __init__(self, field: Field):
        self.field = field

    def pack(self, row: Sequence[int], m: int) -> int:
        """row as one int, after checking it has m entries, each 0 or 1."""
        acc = 0
        bit = 1
        for x in row:
            if (x.__class__ is not int and not isinstance(x, int)) or not 0 <= x <= 1:
                raise ValueError(f"{x!r} is not an element of {self.field!r}")
            if x:
                acc |= bit
            bit <<= 1
        if bit >> m != 1:
            raise ValueError(f"{row!r} does not have length {m}")
        return acc

    @staticmethod
    def pivots(rows: Iterable[int]) -> tuple[int, ...]:
        return tuple([(b & -b).bit_length() - 1 for b in rows])

    @staticmethod
    def reduce(echelon: Iterable[tuple[int, int]], x: int) -> int:
        for p, b in echelon:
            if x >> p & 1:
                x ^= b
        return x

    @staticmethod
    def entry(x: int) -> Optional[tuple[int, int]]:
        """(pivot, x scaled to 1 there), or None for the zero row."""
        return ((x & -x).bit_length() - 1, x) if x else None

    @staticmethod
    def add(x: int, y: int) -> int:
        return x ^ y

    @staticmethod
    def zero(m: int) -> int:
        return 0

    @staticmethod
    def unit(m: int, i: int) -> int:
        return 1 << i

    @staticmethod
    def join(left: int, right: int, m: int) -> int:
        return left | right << m

    @staticmethod
    def right(row: int, m: int) -> int:
        return row >> m

    @staticmethod
    def dot(x: int, y: int) -> int:
        return (x & y).bit_count() & 1

    @staticmethod
    def span(basis: Sequence[int], m: int) -> list[int]:
        """Every vector of the span, in the order of Subspace.vectors."""
        out = [0]
        for b in reversed(basis):  # the last row varies fastest
            out += [x ^ b for x in out]
        return out

    @staticmethod
    def reduced_bases(m: int, d: int) -> Iterator[list[int]]:
        for pivots, free in _pivot_patterns(m, d):
            base = [1 << p for p in pivots]
            for values in itertools.product((0, 1), repeat=len(free)):
                rows = base[:]
                for (i, j), v in zip(free, values):
                    if v:
                        rows[i] |= 1 << j
                yield rows


class _TupleRows:
    """Rows as tuples of field elements, reduced with the field's arithmetic."""

    __slots__ = ("field",)

    def __init__(self, field: Field):
        self.field = field

    def pack(self, row: Sequence[int], m: int) -> Vector:
        """row as a tuple, after checking it has m entries, each in the field."""
        row = tuple(row)
        if len(row) != m:
            raise ValueError(f"{row!r} does not have length {m}")
        check = self.field._check
        for x in row:
            check(x)
        return row

    @staticmethod
    def unpack(row: Vector, m: int) -> Vector:
        return row

    @staticmethod
    def pivots(rows: Iterable[Vector]) -> tuple[int, ...]:
        return tuple([next(j for j, x in enumerate(r) if x) for r in rows])

    def rref(self, rows: Iterable[Sequence[int]]) -> list[Vector]:
        out: list[tuple[int, Vector]] = []  # (pivot, row), each reduced against the rest
        for row in rows:
            new = self.entry(self.reduce(out, tuple(row)))
            if new is not None:
                out = [(p, self.reduce([new], base)) for p, base in out]
                out.append(new)
        out.sort(key=lambda pair: pair[0])
        return [row for _, row in out]

    echelon = rref

    def reduce(self, echelon: Iterable[tuple[int, Vector]], x: Vector) -> Vector:
        field = self.field
        for p, b in echelon:
            if x[p]:
                c = field.neg(x[p])
                x = tuple([field.add(a, field.mul(c, y)) if y else a for a, y in zip(x, b)])
        return x

    def entry(self, x: Vector) -> Optional[tuple[int, Vector]]:
        """(pivot, x scaled to 1 there), or None for the zero row."""
        p = next((j for j, a in enumerate(x) if a), None)
        if p is None:
            return None
        inv = self.field.inv(x[p])
        return p, x if inv == 1 else tuple(self.field.mul(inv, a) for a in x)

    def add(self, x: Vector, y: Vector) -> Vector:
        return tuple(self.field.add(a, b) for a, b in zip(x, y))

    @staticmethod
    def zero(m: int) -> Vector:
        return (0,) * m

    unit = staticmethod(standard_basis_vector)

    @staticmethod
    def join(left: Vector, right: Vector, m: int) -> Vector:
        return left + right

    @staticmethod
    def right(row: Vector, m: int) -> Vector:
        return row[m:]

    def dot(self, x: Vector, y: Vector) -> int:
        return vec_dot(self.field, x, y)

    def matmul(self, a: Iterable[Vector], b: Sequence[Vector]) -> list[Vector]:
        field = self.field
        zero = (0,) * (len(b[0]) if b else 0)
        out = []
        for row in a:
            acc = zero
            for x, br in zip(row, b):
                if x:
                    acc = vec_add(field, acc, vec_scale(field, x, br))
            out.append(acc)
        return out

    def key(self, m: int, rows: Sequence[Vector], pivots: Sequence[int]) -> bytes:
        return _make_key(self.field.q, m, rows, pivots)

    def span(self, basis: Sequence[Vector], m: int) -> Iterator[Vector]:
        """Every vector of the span, in lexicographic order of coefficient tuples."""
        field = self.field
        for coeffs in itertools.product(range(field.q), repeat=len(basis)):
            v = (0,) * m
            for c, row in zip(coeffs, basis):
                if c:
                    v = vec_add(field, v, vec_scale(field, c, row))
            yield v

    def reduced_bases(self, m: int, d: int) -> Iterator[list[Vector]]:
        for pivots, free in _pivot_patterns(m, d):
            base = [[1 if j == p else 0 for j in range(m)] for p in pivots]
            for values in itertools.product(range(self.field.q), repeat=len(free)):
                rows = [list(r) for r in base]
                for (i, j), v in zip(free, values):
                    rows[i][j] = v
                yield [tuple(r) for r in rows]


_Kernels = _BitRows | _TupleRows
# keyed by the identity of the field, which its table keeps alive
_TABLES: dict[int, _Kernels] = {}


def _kernels(field: Field) -> _Kernels:
    """The kernel table of field's rows: the one place the row format is chosen."""
    try:
        return _TABLES[id(field)]
    except KeyError:
        table = _TABLES[id(field)] = _BitRows(field) if field.q == 2 else _TupleRows(field)
        return table


# ----------------------------------------------------------------------

class Subspace:
    """An immutable subspace of F_q^m held as its canonical basis.

    _basis is the canonical basis in the row format of _k, the kernel
    table of the field: its reduced rows, sorted by pivot.  rows is a
    tuple view of them and key their byte key, each built on first use
    (many sums are only compared, never keyed).  pivots and dim derive
    from the canonical basis.
    """

    __slots__ = ("field", "m", "pivots", "_k", "_basis", "_key", "_rows")

    def __new__(cls, field: Field, m: int, vectors: Iterable[Sequence[int]] = ()) -> "Subspace":
        _check_ambient(m)
        k = _kernels(field)
        return cls._canonical(k, m, k.rref([k.pack(v, m) for v in vectors]))

    @classmethod
    def _canonical(cls, k: _Kernels, m: int, basis: Iterable) -> "Subspace":
        """A subspace from held rows already reduced and sorted by pivot."""
        self = object.__new__(cls)
        self.field = k.field
        self.m = m
        self._k = k
        self._basis = basis = tuple(basis)
        self.pivots = k.pivots(basis)
        self._key = None
        self._rows = None
        return self

    def __reduce__(self) -> tuple:
        return Subspace, (self.field, self.m, self.rows)

    # ------------------------------------------------------------------

    @property
    def rows(self) -> tuple[Vector, ...]:
        """The canonical basis as tuple rows."""
        rows = self._rows
        if rows is None:
            m, unpack = self.m, self._k.unpack
            rows = self._rows = tuple([unpack(b, m) for b in self._basis])
        return rows

    @property
    def key(self) -> bytes:
        """The canonical byte key."""
        key = self._key
        if key is None:
            key = self._key = self._k.key(self.m, self._basis, self.pivots)
        return key

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Subspace) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        return f"<Subspace dim {self.dim} of F_{self.field.q}^{self.m}>"

    # ------------------------------------------------------------------

    def reduce(self, vector: Sequence[int]) -> Vector:
        """Residual of vector after elimination against the basis."""
        k, m = self._k, self.m
        return k.unpack(k.reduce(zip(self.pivots, self._basis), k.pack(vector, m)), m)

    def __contains__(self, vector: Sequence[int]) -> bool:
        return not any(self.reduce(vector))

    def __le__(self, other: "Subspace") -> bool:
        _require_same_space(self, other)
        return _echelon_holds(tuple(zip(other.pivots, other._basis)), self)

    def __add__(self, other: "Subspace") -> "Subspace":
        _require_same_space(self, other)
        k = self._k
        return Subspace._canonical(k, self.m, k.rref(self._basis + other._basis))

    def __and__(self, other: "Subspace") -> "Subspace":
        """Intersection, computed from a doubled-column block reduction."""
        _require_same_space(self, other)
        k, m = self._k, self.m
        join, zero = k.join, k.zero(m)
        combined = [join(b, b, m) for b in self._basis]
        combined.extend([join(b, zero, m) for b in other._basis])
        reduced = k.rref(combined)
        # the rows with no left half are the reduced tail of a reduced
        # basis, so their right halves are reduced already
        tail = bisect.bisect_left(k.pivots(reduced), m)
        return Subspace._canonical(k, m, [k.right(r, m) for r in reduced[tail:]])

    # ------------------------------------------------------------------

    def _span(self, cap: int = VECTOR_ENUM_CAP) -> Iterable:
        """All vectors as held rows, in the order of vectors()."""
        if self.field.q**self.dim > cap:
            raise CapExceeded(f"{self.field.q}^{self.dim} vectors exceed cap {cap}")
        return self._k.span(self._basis, self.m)

    def vectors(self, cap: int = VECTOR_ENUM_CAP) -> Iterator[Vector]:
        """All vectors, in lexicographic order of coefficient tuples."""
        k, m = self._k, self.m
        for v in self._span(cap):
            yield k.unpack(v, m)

    def subspaces(self, d: int) -> Iterator["Subspace"]:
        """All d-dimensional subspaces of this space."""
        if d < 0 or d > self.dim:
            return
        k, m = self._k, self.m
        # a reduced relative basis times a reduced basis is reduced:
        # row i has its pivot where rel[i] picks its pivot row, and
        # a zero in every other row's pivot column
        for rel in _reduced_bases(k, self.dim, d):
            yield Subspace._canonical(k, m, k.matmul(rel, self._basis))


def _check_ambient(m: int) -> None:
    if not isinstance(m, int) or m < 0:
        raise ValueError(f"ambient dimension must be a non-negative int, got {m!r}")
    if m > MAX_AMBIENT:
        raise ValueError(f"ambient dimension {m} exceeds the supported maximum {MAX_AMBIENT}")


def _require_same_space(a: "Subspace", b: "Subspace") -> None:
    if a.field is not b.field and a.field != b.field:
        raise ValueError(f"mixed fields: {a.field!r} and {b.field!r}")
    if a.m != b.m:
        raise ValueError(f"mixed ambient dimensions: {a.m} and {b.m}")


def _sum_dim(spaces: Sequence[Subspace]) -> int:
    """Dimension of the sum of subspaces of one ambient space."""
    return len(spaces[0]._k.echelon([b for u in spaces for b in u._basis]))


# A sum of subspaces is held as an echelon when it is only extended and
# tested: a list of the table's (pivot, row) pairs, in the form k.reduce
# takes, whose length is the dimension of the sum.

def _echelon_extend(echelon: list, space: Subspace) -> list:
    """A new echelon of the sum of echelon's span and space."""
    reduce, entry = space._k.reduce, space._k.entry
    out = list(echelon)
    for b in space._basis:
        new = entry(reduce(out, b))
        if new is not None:
            out.append(new)
    return out


def _echelon_holds(echelon: Sequence, space: Subspace) -> bool:
    """True when every canonical basis row of space reduces to zero
    against echelon, that is when space lies in its span."""
    reduce, zero = space._k.reduce, space._k.zero(space.m)
    for b in space._basis:
        if reduce(echelon, b) != zero:
            return False
    return True


def _echelon_space(field: Field, m: int, echelon: Sequence) -> Subspace:
    """The canonical Subspace that echelon spans in F_q^m."""
    k = _kernels(field)
    return Subspace._canonical(k, m, k.rref([row for _, row in echelon]))


# ----------------------------------------------------------------------
# construction and enumeration

def span(field: Field, m: int, vectors: Iterable[Sequence[int]] = ()) -> Subspace:
    """Subspace spanned by the given vectors (zero subspace when empty)."""
    return Subspace(field, m, vectors)


def zero_subspace(field: Field, m: int) -> Subspace:
    return Subspace(field, m, ())


def full_space(field: Field, m: int) -> Subspace:
    k = _kernels(field)
    return Subspace._canonical(k, m, [k.unit(m, i) for i in range(m)])


def gaussian_binomial(m: int, d: int, q: int) -> int:
    """Number of d-dimensional subspaces of an m-dimensional space over GF(q)."""
    if d < 0 or d > m:
        return 0
    num = den = 1
    for i in range(d):
        num *= q ** (m - i) - 1
        den *= q ** (d - i) - 1
    if num % den:
        raise RuntimeError(f"Gaussian binomial [{m} {d}]_{q}: {den} does not divide {num}")
    return num // den


def _pivot_patterns(m: int, d: int) -> Iterator[tuple[tuple[int, ...], list[tuple[int, int]]]]:
    """Each pivot-column pattern of a d-row reduced basis of F_q^m, with
    its free entries (row, column) in row-major order."""
    for pivots in itertools.combinations(range(m), d):
        pivset = set(pivots)
        yield pivots, [(i, j) for i in range(d) for j in range(pivots[i] + 1, m)
                       if j not in pivset]


def _reduced_bases(k: _Kernels, m: int, d: int) -> Iterator[list]:
    """Reduced-basis matrices of all d-dim subspaces of F_q^m, canonical order,
    in the table's row format."""
    count = gaussian_binomial(m, d, k.field.q)
    if count > SUBSPACE_ENUM_CAP:
        raise CapExceeded(f"{count} subspaces of dimension {d} exceed cap {SUBSPACE_ENUM_CAP}")
    return k.reduced_bases(m, d)


def subspaces(field: Field, m: int, d: int) -> Iterator[Subspace]:
    """All d-dimensional subspaces of F_q^m, in ascending canonical-key order."""
    if not 0 <= d <= m:
        raise ValueError(f"dimension {d} is not between 0 and {m}")
    _check_ambient(m)
    k = _kernels(field)
    for basis in _reduced_bases(k, m, d):
        yield Subspace._canonical(k, m, basis)


# ----------------------------------------------------------------------
# matrix utilities shared by the higher layers

def rank_of(field: Field, m: int, rows: Iterable[Sequence[int]]) -> int:
    k = _kernels(field)
    return len(k.echelon([k.pack(r, m) for r in rows]))


def express(field: Field, target: Sequence[int],
            generators: Sequence[Sequence[int]]) -> Optional[Vector]:
    """Coefficients writing target as a combination of the generators.

    Returns None when the target is outside their span.  Free choices are
    resolved to zero, so the result is deterministic.
    """
    k = _kernels(field)
    m, n = len(target), len(generators)
    pack, unit, join, reduce, entry = k.pack, k.unit, k.join, k.reduce, k.entry
    # each generator beside its unit coefficient vector, eliminated in
    # order; a dependent one leaves no pivot in the left half and is dropped
    echelon: list = []
    for i, row in enumerate(generators):
        new = entry(reduce(echelon, join(pack(row, m), unit(n, i), m)))
        if new[0] < m:
            echelon.append(new)
    # (target | 0) minus a combination of the generators leaves
    # (0 | -coefficients), dependent generators taking none
    x = reduce(echelon, join(pack(target, m), k.zero(n), m))
    pivot = entry(x)
    if pivot is not None and pivot[0] < m:
        return None
    return vec_scale(field, field.neg(1), k.unpack(k.right(x, m), n))


def _decoder(field: Field, m: int, rows: Sequence[Sequence[int]]) -> Optional[tuple[tuple, tuple]]:
    """(recover, checks) for the systems rows . x = b, or None unless rows span F_q^m.

    Both are held rows of length len(rows): recover[p] . rows = e_p, so
    x_p = recover[p] . b, and checks is a basis of the left kernel, so a
    solution exists exactly when every check . b is 0.
    """
    k, n = _kernels(field), len(rows)
    # (rows | I) has full row rank, so every reduced row is (c . rows | c),
    # and the first rank of them have their pivots in the left half
    reduced = k.rref([k.join(k.pack(row, m), k.unit(n, i), m) for i, row in enumerate(rows)])
    if bisect.bisect_left(k.pivots(reduced), m) < m:
        return None
    return (tuple([k.right(r, m) for r in reduced[:m]]),
            tuple([k.right(r, m) for r in reduced[m:]]))


def solve(field: Field, rows: Sequence[Sequence[int]], rhs: Sequence[int]) -> Optional[Vector]:
    """One solution x of the system rows . x = rhs, or None if inconsistent.

    Coordinates not pinned by a pivot are set to zero.
    """
    if len(rows) != len(rhs):
        raise ValueError("number of equations does not match right-hand side")
    if not rows:
        return ()
    k = _kernels(field)
    m = len(rows[0])
    # each row with its right-hand side appended, so pack also rejects a
    # row whose length is not m
    pack = k.pack
    reduced = k.rref([pack((*r, b), m + 1) for r, b in zip(rows, rhs)])
    pivots = k.pivots(reduced)
    if pivots and pivots[-1] == m:
        return None  # 0 = nonzero
    x = [0] * m
    # free variables are zero, other pivot columns are already cleared
    for p, row in zip(pivots, reduced):
        x[p] = k.unpack(row, m + 1)[m]
    return tuple(x)


def matmul(field: Field, a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> tuple[Vector, ...]:
    """Matrix product with rows as vectors: (a @ b)[i] = sum_j a[i][j] * b[j]."""
    k = _kernels(field)
    n, ncols = len(b), len(b[0]) if b else 0
    product = k.matmul([k.pack(r, n) for r in a], [k.pack(r, ncols) for r in b])
    return tuple([k.unpack(r, ncols) for r in product])
