"""Subspace tests: canonical form, set operations against brute-force oracles,
enumeration counts against the Gaussian binomial, packed vs generic kernels."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frcodes.subspace as sub
from frcodes.gf import GF
from frcodes.subspace import (
    CapExceeded,
    Subspace,
    express,
    full_space,
    gaussian_binomial,
    left_kernel,
    matmul,
    rank_of,
    solve,
    span,
    standard_basis_vector,
    subspaces,
    vec_add,
    vec_dot,
    vec_scale,
    zero_subspace,
)

F2 = GF(2)
F3 = GF(3)
F4 = GF(2, 2)
F8 = GF(2, 3)


def brute_vectors(space):
    """Vector set of a subspace, computed by closing the basis under the span."""
    field, m = space.field, space.m
    vecs = {(0,) * m}
    for coeffs in itertools.product(range(field.q), repeat=space.dim):
        v = (0,) * m
        for c, row in zip(coeffs, space.rows):
            v = vec_add(field, v, vec_scale(field, c, row))
        vecs.add(v)
    return vecs


def e(m, i):
    return standard_basis_vector(m, i)


# ----------------------------------------------------------------------
# canonical form and identity

def test_span_basics():
    s = span(F2, 4, [e(4, 0), (0, 0, 1, 1)])
    assert s.dim == 2
    assert s.rows == ((1, 0, 0, 0), (0, 0, 1, 1))
    assert (1, 0, 1, 1) in s
    assert (0, 1, 0, 0) not in s
    assert span(F2, 4, []).dim == 0
    assert zero_subspace(F2, 4).rows == ()
    assert full_space(F2, 4).dim == 4


def test_equality_iff_same_vectors_exhaustive():
    # over all pairs of subspaces of small ambients, equality of objects
    # coincides with equality of vector sets
    for field, m in [(F2, 4), (F3, 2), (F4, 2)]:
        all_subs = [s for d in range(m + 1) for s in subspaces(field, m, d)]
        vecsets = [frozenset(brute_vectors(s)) for s in all_subs]
        for i, a in enumerate(all_subs):
            for j, b in enumerate(all_subs):
                assert (a == b) == (vecsets[i] == vecsets[j])
                assert (a.key == b.key) == (vecsets[i] == vecsets[j])


def test_canonical_rows_independent_of_generating_set():
    rows = [(1, 1, 0, 0), (0, 1, 1, 0), (1, 0, 1, 0)]
    a = span(F2, 4, rows)
    b = span(F2, 4, [rows[2], rows[0], vec_add(F2, rows[0], rows[1])])
    assert a.rows == b.rows
    assert a.dim == 2  # the three generators are dependent


def test_pivots_strictly_increase():
    for s in subspaces(F3, 3, 2):
        assert list(s.pivots) == sorted(set(s.pivots))
        for p, row in zip(s.pivots, s.rows):
            assert row[p] == 1
            assert all(row[j] == 0 for j in range(p))


# ----------------------------------------------------------------------
# sum, intersection, membership against oracles

def _sample_spaces(field, m, rng, count):
    out = []
    for _ in range(count):
        d = rng.randrange(m + 1)
        vecs = [tuple(rng.randrange(field.q) for _ in range(m)) for _ in range(d)]
        out.append(span(field, m, vecs))
    return out


@pytest.mark.parametrize("field,m", [(F2, 4), (F3, 2), (F4, 2)])
def test_sum_intersect_exhaustive_small(field, m):
    all_subs = [s for d in range(m + 1) for s in subspaces(field, m, d)]
    for a in all_subs:
        va = brute_vectors(a)
        for b in all_subs:
            vb = brute_vectors(b)
            inter = a & b
            assert brute_vectors(inter) == va & vb
            total = a + b
            assert brute_vectors(total) == {vec_add(field, x, y) for x in va for y in vb}
            assert (a <= b) == va.issubset(vb)


@pytest.mark.parametrize("field,m", [(F2, 8), (F2, 10), (F3, 4), (F4, 3), (F8, 3), (GF(5), 4), (GF(7), 3), (GF(3, 2), 3)])
def test_sum_intersect_sampled(field, m):
    rng = random.Random(99)
    spaces = _sample_spaces(field, m, rng, 24)
    for a, b in itertools.combinations(spaces, 2):
        va, vb = brute_vectors(a), brute_vectors(b)
        assert brute_vectors(a & b) == va & vb
        total = a + b
        assert all(x in total for x in va) and all(y in total for y in vb)
        assert total.dim == a.dim + b.dim - (a & b).dim
        assert (a & b) <= a and (a & b) <= b and a <= total


def test_membership_matches_vector_set():
    rng = random.Random(5)
    for field, m in [(F2, 6), (F3, 3), (F8, 2)]:
        for s in _sample_spaces(field, m, rng, 10):
            vs = brute_vectors(s)
            for _ in range(50):
                v = tuple(rng.randrange(field.q) for _ in range(m))
                assert (v in s) == (v in vs)


def test_mixed_operands_rejected():
    a = span(F2, 3, [e(3, 0)])
    b = span(F3, 3, [e(3, 0)])
    c = span(F2, 4, [e(4, 0)])
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a & c
    with pytest.raises(ValueError):
        span(F2, 3, [(1, 0)])
    with pytest.raises(ValueError):
        span(F2, 3, [(0, 1, 2)])


# ----------------------------------------------------------------------
# enumeration

def test_vector_enumeration_order_and_count():
    s = span(F2, 3, [e(3, 0), e(3, 2)])
    out = list(s.vectors())
    assert out == [(0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1)]
    assert set(out) == brute_vectors(s)
    z = zero_subspace(F3, 2)
    assert list(z.vectors()) == [(0, 0)]


def test_vector_cap():
    s = full_space(F2, 24)
    with pytest.raises(CapExceeded):
        list(s.vectors(cap=1 << 20))


def test_gaussian_binomial_values():
    assert gaussian_binomial(5, 2, 2) == 155
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(4, 2, 3) == 130
    assert gaussian_binomial(2, 1, 4) == 5
    assert gaussian_binomial(3, 3, 2) == 1
    assert gaussian_binomial(3, 4, 2) == 0


def brute_count_subspaces(field, m, d):
    """Count d-dim subspaces by collecting spans of all d-tuples of vectors."""
    vecs = list(itertools.product(range(field.q), repeat=m))
    seen = set()
    for combo in itertools.combinations(vecs, d):
        s = span(field, m, combo)
        if s.dim == d:
            seen.add(s.key)
    return len(seen)


def test_enumeration_matches_brute_force_tiny():
    for field, m in [(F2, 3), (F2, 4), (F3, 2), (F4, 2)]:
        for d in range(m + 1):
            got = list(subspaces(field, m, d))
            assert len(got) == gaussian_binomial(m, d, field.q)
            assert len({s.key for s in got}) == len(got)
            if d <= 2 and field.q ** m <= 81:
                assert len(got) == brute_count_subspaces(field, m, d)


def test_enumeration_canonical_key_order():
    for field, m, d in [(F2, 5, 2), (F3, 3, 2), (F2, 4, 1)]:
        keys = [s.key for s in subspaces(field, m, d)]
        assert keys == sorted(keys)
        assert len(keys) == gaussian_binomial(m, d, field.q)


def test_enumeration_cap_and_errors():
    with pytest.raises(CapExceeded):
        list(subspaces(F2, 20, 10, cap=10**6))
    with pytest.raises(ValueError):
        list(subspaces(F2, 3, 4))
    with pytest.raises(ValueError):
        list(subspaces(F2, 3, -1))


def test_subspaces_within_a_space():
    host = span(F2, 5, [e(5, 0), e(5, 1), (0, 0, 1, 1, 0)])
    inner = list(host.subspaces(2))
    assert len(inner) == gaussian_binomial(3, 2, 2)
    assert len({s.key for s in inner}) == len(inner)
    for s in inner:
        assert s.dim == 2 and s <= host
    assert [s.key for s in host.subspaces(0)] == [zero_subspace(F2, 5).key]


# ----------------------------------------------------------------------
# packed vs generic kernels

def test_packed_and_generic_kernels_agree():
    rng = random.Random(1234)
    cases = []
    for m in (3, 5, 8):
        for _ in range(40):
            n = rng.randrange(1, m + 2)
            cases.append((m, [tuple(rng.randrange(2) for _ in range(m)) for _ in range(n)]))
    for m, rows in cases:
        packed = [sub._unpack(r, m) for r in sub._rref_bits(sub._pack(r) for r in rows)]
        generic = sub._rref_general(F2, rows)
        try:
            sub._PACKED_KERNELS = False
            a = span(F2, m, rows)
        finally:
            sub._PACKED_KERNELS = True
        assert packed == generic
        b = span(F2, m, rows)
        assert a.key == b.key and a.rows == b.rows


def test_bit_bytes_matches_unpack():
    # packed rows become entry bytes eight bits at a time, in one or
    # more chunks
    rng = random.Random(5)
    for m in range(65):
        for row in [0, (1 << m) - 1] + [rng.getrandbits(m) for _ in range(20)]:
            assert sub._bit_bytes(row, m) == bytes(sub._unpack(row, m))


def test_packed_and_generic_intersection_agree():
    rng = random.Random(77)
    spaces = _sample_spaces(F2, 6, rng, 12)
    for a, b in itertools.combinations(spaces, 2):
        fast = (a & b, a + b)
        try:
            sub._PACKED_KERNELS = False
            slow = (a & b, a + b)
        finally:
            sub._PACKED_KERNELS = True
        assert fast[0].rows == slow[0].rows
        assert fast[1].rows == slow[1].rows


# ----------------------------------------------------------------------
# linear-algebra utilities

def test_rank_of():
    assert rank_of(F2, 3, [(1, 1, 0), (0, 1, 1), (1, 0, 1)]) == 2
    assert rank_of(F3, 2, [(1, 2), (2, 1)]) == 1  # (2, 1) = 2 * (1, 2) mod 3
    assert rank_of(F3, 2, [(1, 2), (1, 1)]) == 2
    assert rank_of(F2, 4, []) == 0


def test_express_and_solve_roundtrip():
    rng = random.Random(31)
    for field, m in [(F2, 5), (F3, 3), (F8, 2)]:
        for _ in range(30):
            gens = [tuple(rng.randrange(field.q) for _ in range(m)) for _ in range(rng.randrange(1, m + 2))]
            coeffs = [rng.randrange(field.q) for _ in gens]
            target = (0,) * m
            for c, g in zip(coeffs, gens):
                target = vec_add(field, target, vec_scale(field, c, g))
            got = express(field, target, gens)
            assert got is not None
            rebuilt = (0,) * m
            for c, g in zip(got, gens):
                rebuilt = vec_add(field, rebuilt, vec_scale(field, c, g))
            assert rebuilt == target


def test_express_outside_span():
    assert express(F2, (0, 0, 1), [(1, 0, 0), (0, 1, 0)]) is None


def test_solve_consistent_and_inconsistent():
    rows = [(1, 1, 0), (0, 1, 1), (1, 0, 1)]
    # rows are dependent over GF(2); consistent rhs
    x = solve(F2, rows, (1, 1, 0))
    assert x is not None
    for r, b in zip(rows, (1, 1, 0)):
        assert vec_dot(F2, r, x) == b
    assert solve(F2, rows, (1, 1, 1)) is None
    # unique full-rank solve over GF(3)
    rows3 = [(1, 2), (2, 2)]
    x3 = solve(F3, rows3, (0, 1))
    for r, b in zip(rows3, (0, 1)):
        assert vec_dot(F3, r, x3) == b


def test_left_kernel_matches_bruteforce():
    rng = random.Random(17)
    for field, m, n in [(F2, 3, 4), (F2, 4, 3), (F3, 2, 3), (F4, 2, 2), (F2, 5, 6)]:
        for _ in range(20):
            rows = [tuple(rng.randrange(field.q) for _ in range(m)) for _ in range(n)]
            kernel = left_kernel(field, m, rows)
            expected = set()
            for c in itertools.product(range(field.q), repeat=n):
                total = (0,) * m
                for ci, r in zip(c, rows):
                    total = vec_add(field, total, vec_scale(field, ci, r))
                if not any(total):
                    expected.add(c)
            assert set(kernel.vectors()) == expected
            assert kernel.dim == n - rank_of(field, m, rows)


def test_left_kernel_edges():
    assert left_kernel(F2, 3, [(1, 0, 0), (0, 1, 0)]).dim == 0
    assert left_kernel(F2, 3, [(0, 0, 0)]).dim == 1
    with pytest.raises(ValueError):
        left_kernel(F2, 3, [(1, 0)])
    with pytest.raises(ValueError):
        left_kernel(F2, 2, [(1, 2)])


def test_matmul_and_inverse():
    rng = random.Random(8)
    for field, m in [(F2, 4), (F3, 3), (F4, 2)]:
        ident = tuple(standard_basis_vector(m, i) for i in range(m))
        found = 0
        while found < 10:
            rows = [tuple(rng.randrange(field.q) for _ in range(m)) for _ in range(m)]
            if rank_of(field, m, rows) != m:
                continue
            found += 1
            # the right half of the reduced echelon form of (rows | I)
            reduced = sub._rref_general(field, [r + e for r, e in zip(rows, ident)])
            inv = tuple(r[m:] for r in reduced)
            assert matmul(field, rows, inv) == ident
            assert matmul(field, inv, rows) == ident
            v = tuple(rng.randrange(field.q) for _ in range(m))
            assert matmul(field, matmul(field, [v], rows), inv) == (v,)


def test_out_of_field_entries_rejected():
    # every path checks the entries of its tuple input, the packed GF(2)
    # ones included, which once read any nonzero entry as 1
    ident = ((1, 0), (0, 1))
    calls = [
        lambda: rank_of(F2, 2, [(2, 0)]),
        lambda: solve(F2, [(1, 0)], [3]),
        lambda: solve(F2, [(1, 0.0)], [1]),
        lambda: matmul(F2, [(2, 1)], ident),
        lambda: matmul(F2, ident, [(1, 0), (0, -1)]),
        lambda: express(F2, (2, 0), [(1, 0)]),
        lambda: express(F2, (1, 0), [(1, True), ("1", 0)]),
        lambda: left_kernel(F2, 2, [(1, 2)]),
        lambda: span(F2, 2, [(1, 0)]).reduce((0, 2)),
        lambda: (3, 0) in span(F2, 2, [(1, 0)]),
        lambda: rank_of(F3, 2, [(1, 5)]),
        lambda: solve(F3, [(1, 0)], [3]),
        lambda: matmul(F4, [(4, 0)], ident),
        lambda: express(F3, (1, 0), [(1, 3)]),
    ]
    for packed in (True, False):
        try:
            sub._PACKED_KERNELS = packed
            for call in calls:
                with pytest.raises(ValueError, match="not an element"):
                    call()
        finally:
            sub._PACKED_KERNELS = True


def _generic(compute):
    """compute() with the generic kernels at q = 2, the packed ones' oracle."""
    try:
        sub._PACKED_KERNELS = False
        return compute()
    finally:
        sub._PACKED_KERNELS = True


def test_packed_keys_match_make_key():
    # every subspace of F_2^m for m <= 6, in enumeration order, then
    # random spans up to the largest ambient dimension
    for m in range(7):
        for d in range(m + 1):
            packed = list(subspaces(F2, m, d))
            generic = _generic(lambda: list(subspaces(F2, m, d)))
            assert [s.rows for s in packed] == [s.rows for s in generic]
            for s in packed:
                assert s.key == sub._make_key(2, m, s.rows, s.pivots)
    rng = random.Random(64)
    for trial in range(3000):
        m = rng.randrange(1, sub.MAX_AMBIENT + 1)
        vectors = [tuple(rng.randrange(2) for _ in range(m))
                   for _ in range(rng.randrange(0, 9))]
        s = span(F2, m, vectors)
        assert s.key == sub._make_key(2, m, s.rows, s.pivots)
        if trial % 10 == 0:
            assert s.rows == _generic(lambda: span(F2, m, vectors).rows)


@st.composite
def _generator_sets(draw):
    m = draw(st.integers(1, 6))
    vector = st.tuples(*[st.integers(0, 1)] * m)
    a = draw(st.lists(vector, max_size=m + 1))
    b = draw(st.lists(vector, max_size=m + 1))
    rhs = draw(st.lists(st.integers(0, 1), min_size=len(a), max_size=len(a)))
    return m, a, b, draw(vector), rhs


def _core_results(m, a, b, target, rhs):
    u, w = span(F2, m, a), span(F2, m, b)
    spaces = {"u": u, "w": w, "u+w": u + w, "u&w": u & w}
    for d in {1, u.dim - 1}:
        for i, s in enumerate(u.subspaces(d)):
            spaces[f"u{d}.{i}"] = s
    return {
        "spaces": {name: (s.rows, s.pivots, s.dim, s.key) for name, s in spaces.items()},
        "order": (u <= w, w <= u, u & w <= u, u <= u + w),
        "members": (target in u, u.reduce(target)),
        "express": (express(F2, target, a), express(F2, target, a + b)),
        "solve": solve(F2, a, rhs),
        "rank": (rank_of(F2, m, a), rank_of(F2, m, a + b)),
    }


@settings(max_examples=300, deadline=None)
@given(_generator_sets())
def test_packed_core_matches_generic(case):
    packed = _core_results(*case)
    generic = _generic(lambda: _core_results(*case))
    assert packed == generic
    m = case[0]
    for rows, pivots, _, key in generic["spaces"].values():
        assert key == sub._make_key(2, m, rows, pivots)
