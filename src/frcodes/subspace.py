"""Subspaces of F_q^m in canonical reduced-basis form.

A subspace is stored as its unique reduced basis: echelon rows with
strictly increasing pivot columns, pivot entries 1, and zeros elsewhere
in every pivot column.  Two subspaces are equal exactly when they
contain the same vectors, so the canonical basis (and the byte key
derived from it) supports hashing and exact deduplication.

Vectors are plain tuples of field elements (ints); the ambient dimension
m and the Field travel alongside them in the surrounding structures.
Over GF(2) the canonical form is packed: each reduced row is one int
(bit j = coordinate j), the pivots are the lowest set bits, and every
subspace operation runs on the ints without converting.  The key and
the tuple rows are views of the ints, each built on first use and kept.
Over other fields the rows are tuples and the kernels generic.  The
generic kernels also run at q = 2 when tests switch the packed ones off,
as the oracle the packed results are compared with.

The public matrix utilities (rank_of, solve, matmul, express,
left_kernel) take tuple rows and check every entry once on entry, so a
value outside the field is a ValueError on every path.

Enumeration of d-dimensional subspaces generates reduced bases directly,
one pivot-column pattern at a time, filling the free entries in
row-major order.  No deduplication pass is needed and the yield order
coincides with ascending canonical-key order, because the key encodes
(q, m, dimension, pivot columns, free entries) in exactly that order.
"""

from __future__ import annotations

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
    "left_kernel",
    "express",
    "solve",
    "matmul",
    "apply_matrix",
    "invert_matrix",
    "VECTOR_ENUM_CAP",
    "SUBSPACE_ENUM_CAP",
]

Vector = tuple[int, ...]

VECTOR_ENUM_CAP = 1 << 20
SUBSPACE_ENUM_CAP = 10**6
MAX_AMBIENT = 64

# Toggled by tests to force the generic kernels at q = 2.
_PACKED_KERNELS = True


class CapExceeded(RuntimeError):
    """An enumeration or search would exceed its configured cap."""


# ----------------------------------------------------------------------
# vector helpers

def standard_basis_vector(m: int, i: int) -> Vector:
    return tuple(1 if j == i else 0 for j in range(m))


def vec_add(field: Field, u: Sequence[int], v: Sequence[int]) -> Vector:
    if field.p == 2:
        return tuple(x ^ y for x, y in zip(u, v))
    return tuple(field.add(x, y) for x, y in zip(u, v))


def vec_scale(field: Field, c: int, v: Sequence[int]) -> Vector:
    if c == 1:
        return tuple(v)
    if c == 0:
        return (0,) * len(v)
    return tuple(field.mul(c, x) for x in v)


def vec_dot(field: Field, u: Sequence[int], v: Sequence[int]) -> int:
    acc = 0
    for x, y in zip(u, v):
        if x and y:
            acc = field.add(acc, field.mul(x, y))
    return acc


# ----------------------------------------------------------------------
# row-reduction kernels

def _pack(row: Sequence[int]) -> int:
    acc = 0
    for j, x in enumerate(row):
        if x:
            acc |= 1 << j
    return acc


def _pack_checked(field: Field, row: Sequence[int]) -> int:
    """A GF(2) row packed into one int, after checking each entry is 0 or 1."""
    acc = 0
    bit = 1
    for x in row:
        if (x.__class__ is not int and not isinstance(x, int)) or not 0 <= x <= 1:
            raise ValueError(f"{x!r} is not an element of {field!r}")
        if x:
            acc |= bit
        bit <<= 1
    return acc


def _check_entries(field: Field, rows: Iterable[Sequence[int]]) -> None:
    for row in rows:
        for x in row:
            field._check(x)


def _unpack(row: int, m: int) -> Vector:
    return tuple((row >> j) & 1 for j in range(m))


# byte j of entry i is bit j of i: turns packed rows into entry bytes
# eight bits at a time, as the keys of GF(2) linear maps need
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


def _rref_general(field: Field, rows: Iterable[Sequence[int]]) -> list[Vector]:
    """Reduced echelon basis over any supported field, sorted by pivot."""
    out: list[tuple[int, list[int]]] = []  # (pivot, row)
    for raw in rows:
        row = list(raw)
        for p, base in out:
            c = row[p]
            if c:
                row = [field.sub(x, field.mul(c, y)) for x, y in zip(row, base)]
        p = next((j for j, x in enumerate(row) if x), None)
        if p is None:
            continue
        inv = field.inv(row[p])
        if inv != 1:
            row = [field.mul(inv, x) for x in row]
        for k, (pk, base) in enumerate(out):
            c = base[p]
            if c:
                out[k] = (pk, [field.sub(x, field.mul(c, y)) for x, y in zip(base, row)])
        out.append((p, row))
    out.sort(key=lambda t: t[0])
    return [tuple(r) for _, r in out]


def _reduce_rows(field: Field, ncols: int, rows: Iterable[Sequence[int]]) -> list[Vector]:
    if field.q == 2 and _PACKED_KERNELS:
        packed = _rref_bits(_pack(r) for r in rows)
        return [_unpack(r, ncols) for r in packed]
    return _rref_general(field, rows)


# ----------------------------------------------------------------------

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


class Subspace:
    """An immutable subspace of F_q^m held as its canonical basis.

    Over GF(2) the basis is _bits, the reduced rows packed into ints and
    sorted by pivot; rows is a tuple view of them and key their byte
    key, each built on first use (many sums are only compared, never
    keyed).  Over other fields rows holds the reduced tuple rows and
    _bits is None.  pivots, dim and key derive from the canonical basis.
    """

    __slots__ = ("field", "m", "pivots", "_key", "_bits", "_rows")

    def __init__(self, field: Field, m: int, vectors: Iterable[Sequence[int]] = ()):
        vectors = [tuple(v) for v in vectors]
        _check_ambient(field, m, vectors)
        if field.q == 2 and _PACKED_KERNELS:
            self._set_bits(field, m, _rref_bits(_pack(v) for v in vectors))
        else:
            self._set_rows(field, m, _rref_general(field, vectors))

    @classmethod
    def _from_bits(cls, field: Field, m: int, bits: Sequence[int]) -> "Subspace":
        """A GF(2) subspace from packed rows already reduced and sorted."""
        self = object.__new__(cls)
        self._set_bits(field, m, bits)
        return self

    @classmethod
    def _make(cls, field: Field, m: int, canonical_rows: list[Vector]) -> "Subspace":
        self = object.__new__(cls)
        self._set_rows(field, m, canonical_rows)
        return self

    def _set_bits(self, field: Field, m: int, bits: Sequence[int]) -> None:
        self.field = field
        self.m = m
        self._bits = bits = tuple(bits)
        self.pivots = tuple([(b & -b).bit_length() - 1 for b in bits])
        self._key = None
        self._rows = None

    def _set_rows(self, field: Field, m: int, rows: Sequence[Vector]) -> None:
        if field.q == 2:
            # generic kernel results at q = 2 keep the packed canonical form
            self._set_bits(field, m, [_pack(r) for r in rows])
            self._rows = tuple(rows)
            return
        self.field = field
        self.m = m
        self._rows = tuple(rows)
        self.pivots = tuple(next(j for j, x in enumerate(r) if x) for r in rows)
        self._key = _make_key(field.q, m, self._rows, self.pivots)
        self._bits = None

    # ------------------------------------------------------------------

    @property
    def rows(self) -> tuple[Vector, ...]:
        """The canonical basis as tuple rows (a view of _bits over GF(2))."""
        rows = self._rows
        if rows is None:
            m = self.m
            rows = self._rows = tuple([_unpack(b, m) for b in self._bits])
        return rows

    @property
    def key(self) -> bytes:
        """The canonical byte key (from _bits over GF(2))."""
        key = self._key
        if key is None:
            key = self._key = _bits_key(self.m, self._bits, self.pivots)
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

    def _packed(self) -> bool:
        return self._bits is not None and _PACKED_KERNELS

    def _residual_bits(self, v: int) -> int:
        for p, b in zip(self.pivots, self._bits):
            if (v >> p) & 1:
                v ^= b
        return v

    def reduce(self, vector: Sequence[int]) -> Vector:
        """Residual of vector after elimination against the basis."""
        if len(vector) != self.m:
            raise ValueError(f"vector length {len(vector)} does not match ambient {self.m}")
        if self._packed():
            return _unpack(self._residual_bits(_pack_checked(self.field, vector)), self.m)
        field = self.field
        _check_entries(field, [vector])
        v = list(vector)
        for p, row in zip(self.pivots, self.rows):
            c = v[p]
            if c:
                v = [field.sub(x, field.mul(c, y)) for x, y in zip(v, row)]
        return tuple(v)

    def __contains__(self, vector: Sequence[int]) -> bool:
        return not any(self.reduce(vector))

    def __le__(self, other: "Subspace") -> bool:
        _require_same_space(self, other)
        if self._packed():
            return not any(map(other._residual_bits, self._bits))
        return all(row in other for row in self.rows)

    def __add__(self, other: "Subspace") -> "Subspace":
        _require_same_space(self, other)
        if self._packed():
            return Subspace._from_bits(self.field, self.m, _rref_bits(self._bits + other._bits))
        return Subspace._make(self.field, self.m,
                              _rref_general(self.field, self.rows + other.rows))

    def __and__(self, other: "Subspace") -> "Subspace":
        """Intersection, computed from a doubled-column block reduction."""
        _require_same_space(self, other)
        m = self.m
        if self._packed():
            combined = [b | b << m for b in self._bits]
            combined.extend(other._bits)
            low = (1 << m) - 1
            # the rows with no left half are the reduced tail of a
            # reduced basis, so their right halves are reduced already
            inter = [r >> m for r in _rref_bits(combined) if not r & low]
            return Subspace._from_bits(self.field, m, inter)
        combined = [row + row for row in self.rows]
        combined.extend(row + (0,) * m for row in other.rows)
        reduced = _rref_general(self.field, combined)
        inter = [row[m:] for row in reduced if not any(row[:m])]
        return Subspace._make(self.field, m, _rref_general(self.field, inter))

    # ------------------------------------------------------------------

    def vectors(self, cap: int = VECTOR_ENUM_CAP) -> Iterator[Vector]:
        """All vectors, in lexicographic order of coefficient tuples."""
        q = self.field.q
        if q**self.dim > cap:
            raise CapExceeded(f"{q}^{self.dim} vectors exceed cap {cap}")
        if self.dim == 0:
            yield (0,) * self.m
            return
        for coeffs in itertools.product(range(q), repeat=self.dim):
            v = (0,) * self.m
            for c, row in zip(coeffs, self.rows):
                if c:
                    v = vec_add(self.field, v, vec_scale(self.field, c, row))
            yield v

    def _packed_vectors(self) -> list[int]:
        """All vectors of a GF(2) space as packed ints, in the order of vectors()."""
        if 2**self.dim > VECTOR_ENUM_CAP:
            raise CapExceeded(f"2^{self.dim} vectors exceed cap {VECTOR_ENUM_CAP}")
        out = [0]
        for b in reversed(self._bits):  # the last row varies fastest
            out += [x ^ b for x in out]
        return out

    def subspaces(self, d: int, cap: int = SUBSPACE_ENUM_CAP) -> Iterator["Subspace"]:
        """All d-dimensional subspaces of this space."""
        if d < 0 or d > self.dim:
            return
        field, m = self.field, self.m
        if self._packed():
            # a reduced relative basis times a reduced basis is reduced:
            # row i has its pivot where rel[i] picks its pivot row, and
            # a zero in every other row's pivot column
            for rel in _iter_reduced_bases(field, self.dim, d, cap, packed=True):
                yield Subspace._from_bits(field, m, _matmul_bits(rel, self._bits))
            return
        for rel in _iter_reduced_bases(field, self.dim, d, cap):
            rows = []
            for coeffs in rel:
                v = (0,) * m
                for c, row in zip(coeffs, self.rows):
                    if c:
                        v = vec_add(field, v, vec_scale(field, c, row))
                rows.append(v)
            yield Subspace._make(field, m, _rref_general(field, rows))


def _check_ambient(field: Field, m: int, vectors: Sequence[Vector]) -> None:
    if not isinstance(m, int) or m < 0:
        raise ValueError(f"ambient dimension must be a non-negative int, got {m!r}")
    if m > MAX_AMBIENT:
        raise ValueError(f"ambient dimension {m} exceeds the supported maximum {MAX_AMBIENT}")
    for v in vectors:
        if len(v) != m:
            raise ValueError(f"vector {v!r} does not have ambient length {m}")
        for x in v:
            if not isinstance(x, int) or not 0 <= x < field.q:
                raise ValueError(f"coordinate {x!r} is not an element of {field!r}")


def _require_same_space(a: "Subspace", b: "Subspace") -> None:
    if a.field is not b.field and a.field != b.field:
        raise ValueError(f"mixed fields: {a.field!r} and {b.field!r}")
    if a.m != b.m:
        raise ValueError(f"mixed ambient dimensions: {a.m} and {b.m}")


def _sum_dim(spaces: Sequence[Subspace]) -> int:
    """Dimension of the sum of subspaces of one ambient space."""
    if spaces[0]._packed():
        return len(_echelon_bits([b for u in spaces for b in u._bits]))
    return len(_rref_general(spaces[0].field, [row for u in spaces for row in u.rows]))


# ----------------------------------------------------------------------
# construction and enumeration

def span(field: Field, m: int, vectors: Iterable[Sequence[int]] = ()) -> Subspace:
    """Subspace spanned by the given vectors (zero subspace when empty)."""
    return Subspace(field, m, vectors)


def zero_subspace(field: Field, m: int) -> Subspace:
    return Subspace(field, m, ())


def full_space(field: Field, m: int) -> Subspace:
    return Subspace._make(field, m, [standard_basis_vector(m, i) for i in range(m)])


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


def _iter_reduced_bases(field: Field, m: int, d: int, cap: int,
                        packed: bool = False) -> Iterator[list]:
    """Reduced-basis matrices of all d-dim subspaces of F_q^m, canonical order.

    Rows are tuples, or with packed=True (q = 2) ints.
    """
    q = field.q
    count = gaussian_binomial(m, d, q)
    if count > cap:
        raise CapExceeded(f"{count} subspaces of dimension {d} exceed cap {cap}")
    if d == 0:
        yield []
        return
    for pivots in itertools.combinations(range(m), d):
        pivset = set(pivots)
        free = [(i, j) for i in range(d) for j in range(pivots[i] + 1, m) if j not in pivset]
        if packed:
            base = [1 << p for p in pivots]
            for values in itertools.product((0, 1), repeat=len(free)):
                rows = base[:]
                for (i, j), v in zip(free, values):
                    if v:
                        rows[i] |= 1 << j
                yield rows
            continue
        base = []
        for i in range(d):
            row = [0] * m
            row[pivots[i]] = 1
            base.append(row)
        if not free:
            yield [tuple(r) for r in base]
            continue
        for values in itertools.product(range(q), repeat=len(free)):
            rows = [list(r) for r in base]
            for (i, j), v in zip(free, values):
                rows[i][j] = v
            yield [tuple(r) for r in rows]


def subspaces(field: Field, m: int, d: int, cap: int = SUBSPACE_ENUM_CAP) -> Iterator[Subspace]:
    """All d-dimensional subspaces of F_q^m, in ascending canonical-key order."""
    if not 0 <= d <= m:
        raise ValueError(f"dimension {d} is not between 0 and {m}")
    if m > MAX_AMBIENT:
        raise ValueError(f"ambient dimension {m} exceeds the supported maximum {MAX_AMBIENT}")
    if field.q == 2 and _PACKED_KERNELS:
        for bits in _iter_reduced_bases(field, m, d, cap, packed=True):
            yield Subspace._from_bits(field, m, bits)
        return
    for rows in _iter_reduced_bases(field, m, d, cap):
        yield Subspace._make(field, m, rows)


# ----------------------------------------------------------------------
# matrix utilities shared by the higher layers

def rank_of(field: Field, m: int, rows: Iterable[Sequence[int]]) -> int:
    if field.q == 2 and _PACKED_KERNELS:
        return len(_echelon_bits([_pack_checked(field, r) for r in rows]))
    rows = list(rows)
    _check_entries(field, rows)
    return len(_rref_general(field, rows))


def left_kernel(field: Field, m: int, rows: Sequence[Sequence[int]]) -> Subspace:
    """Space of coefficient vectors c with sum_i c_i * rows[i] = 0.

    The result lives in F_q^len(rows).
    """
    n = len(rows)
    pivots: list[tuple[int, Vector, Vector]] = []
    kernel: list[Vector] = []
    for i, raw in enumerate(rows):
        row = tuple(raw)
        if len(row) != m:
            raise ValueError(f"row of length {len(row)}, expected {m}")
        for a in row:
            field._check(a)
        coeff = tuple(1 if j == i else 0 for j in range(n))
        for p, prow, pcoeff in pivots:
            f = row[p]
            if f:
                row = tuple(field.sub(a, field.mul(f, b)) for a, b in zip(row, prow))
                coeff = tuple(field.sub(a, field.mul(f, b)) for a, b in zip(coeff, pcoeff))
        p = next((j for j, a in enumerate(row) if a), None)
        if p is None:
            # coeff still has a 1 in position i, so it is a nonzero relation
            kernel.append(coeff)
        else:
            inv = field.inv(row[p])
            if inv != 1:
                row = tuple(field.mul(inv, a) for a in row)
                coeff = tuple(field.mul(inv, a) for a in coeff)
            pivots.append((p, row, coeff))
    return Subspace(field, n, kernel)


def express(field: Field, target: Sequence[int],
            generators: Sequence[Sequence[int]]) -> Optional[Vector]:
    """Coefficients writing target as a combination of the generators.

    Returns None when the target is outside their span.  Free choices are
    resolved to zero, so the result is deterministic.
    """
    n = len(generators)
    if field.q == 2 and _PACKED_KERNELS:
        # the generic elimination on packed rows, coefficients as bitmasks
        basis: list[tuple[int, int, int]] = []
        for idx, g in enumerate(generators):
            v = _pack_checked(field, g)
            c = 1 << idx
            for p, bv, bc in basis:
                if (v >> p) & 1:
                    v ^= bv
                    c ^= bc
            if v:
                basis.append(((v & -v).bit_length() - 1, v, c))
        v = _pack_checked(field, target)
        coeffs = 0
        for p, bv, bc in basis:
            if (v >> p) & 1:
                v ^= bv
                coeffs ^= bc
        return None if v else _unpack(coeffs, n)
    _check_entries(field, [target, *generators])
    piv: dict[int, tuple[list[int], list[int]]] = {}
    for idx, g in enumerate(generators):
        v = list(g)
        c = [0] * n
        c[idx] = 1
        for p, (bv, bc) in piv.items():
            f = v[p]
            if f:
                v = [field.sub(x, field.mul(f, y)) for x, y in zip(v, bv)]
                c = [field.sub(x, field.mul(f, y)) for x, y in zip(c, bc)]
        p = next((j for j, x in enumerate(v) if x), None)
        if p is None:
            continue
        inv = field.inv(v[p])
        if inv != 1:
            v = [field.mul(inv, x) for x in v]
            c = [field.mul(inv, x) for x in c]
        piv[p] = (v, c)
    v = list(target)
    coeffs = [0] * n
    for p, (bv, bc) in piv.items():
        f = v[p]
        if f:
            v = [field.sub(x, field.mul(f, y)) for x, y in zip(v, bv)]
            coeffs = [field.add(x, field.mul(f, y)) for x, y in zip(coeffs, bc)]
    if any(v):
        return None
    return tuple(coeffs)


def solve(field: Field, rows: Sequence[Sequence[int]], rhs: Sequence[int]) -> Optional[Vector]:
    """One solution x of the system rows . x = rhs, or None if inconsistent.

    Coordinates not pinned by a pivot are set to zero.
    """
    if len(rows) != len(rhs):
        raise ValueError("number of equations does not match right-hand side")
    if not rows:
        return ()
    m = len(rows[0])
    if field.q == 2 and _PACKED_KERNELS:
        rhs_bits = _pack_checked(field, rhs)
        aug = [_pack_checked(field, r) | ((rhs_bits >> i) & 1) << m for i, r in enumerate(rows)]
        x = 0
        for row in _rref_bits(aug):
            if row == 1 << m:
                return None  # 0 = 1
            # free variables are zero, other pivot columns are already cleared
            x |= ((row >> m) & 1) << ((row & -row).bit_length() - 1)
        return _unpack(x, m)
    _check_entries(field, [*rows, rhs])
    aug = [tuple(r) + (b,) for r, b in zip(rows, rhs)]
    reduced = _rref_general(field, aug)
    x = [0] * m
    for row in reduced:
        p = next(j for j, v in enumerate(row) if v)
        if p == m:
            return None  # 0 = nonzero
        # free variables are zero, other pivot columns are already cleared
        x[p] = row[m]
    return tuple(x)


def matmul(field: Field, a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> tuple[Vector, ...]:
    """Matrix product with rows as vectors: (a @ b)[i] = sum_j a[i][j] * b[j]."""
    ncols = len(b[0]) if b else 0
    if field.q == 2 and _PACKED_KERNELS:
        product = _matmul_bits([_pack_checked(field, r) for r in a],
                               [_pack_checked(field, r) for r in b])
        return tuple(_unpack(r, ncols) for r in product)
    _check_entries(field, [*a, *b])
    out = []
    for row in a:
        acc = (0,) * ncols
        for x, br in zip(row, b):
            if x:
                acc = vec_add(field, acc, vec_scale(field, x, br))
        out.append(acc)
    return tuple(out)


def apply_matrix(field: Field, v: Sequence[int], mat: Sequence[Sequence[int]]) -> Vector:
    """Image of the row vector v under the matrix: sum_j v[j] * mat[j]."""
    return matmul(field, [v], mat)[0]


def invert_matrix(field: Field, rows: Sequence[Sequence[int]]) -> tuple[Vector, ...]:
    """Inverse of a square matrix given as rows; raises on singular input."""
    m = len(rows)
    aug = [tuple(r) + standard_basis_vector(m, i) for i, r in enumerate(rows)]
    reduced = _reduce_rows(field, 2 * m, aug)
    if len(reduced) != m or any(next(j for j, x in enumerate(r) if x) >= m for r in reduced):
        raise ValueError("matrix is singular")
    return tuple(r[m:] for r in reduced)
