"""Tests for linear map search, group closure and orbit codes."""

from __future__ import annotations

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frcodes import groupsearch
from frcodes import subspace as sub
from frcodes.fsc import emit_fsc, states_to_document
from frcodes.gf import GF
from frcodes.groupsearch import (
    BACKTRACK_CAP,
    GroupClosure,
    LinearMap,
    OrbitVerificationError,
    group_closure,
    orbit,
    orbit_code,
    stabilizer,
    symmetry_search,
    transition_maps,
)
from frcodes.storage import (
    CodeParams,
    RepairingCollection,
    StateSet,
    check_repair_property,
    exact_to_states,
)
from frcodes.subspace import (
    CapExceeded,
    express,
    full_space,
    matmul,
    span,
    standard_basis_vector,
    subspaces,
)

F2 = GF(2)
F3 = GF(3)


def e(m, i):
    return standard_basis_vector(m, i)


def e_sum(m, *idx):
    v = [0] * m
    for i in idx:
        v[i] = (v[i] + 1) % 2
    return tuple(v)


def invert_rows(field, rows):
    """The inverse matrix: the right half of the reduced echelon form of (rows | I)."""
    m = len(rows)
    reduced = sub._rref_general(field, [tuple(r) + e(m, i) for i, r in enumerate(rows)])
    return tuple(r[m:] for r in reduced)


def inverse(g):
    return LinearMap(g.field, g.m, invert_rows(g.field, g.rows))


def transition_maps_exhaustive(collection, newcomer, index, cap=BACKTRACK_CAP):
    """Scan of the full general linear group, an oracle for transition_maps.

    Enumerates every invertible matrix over GF(2) in ambient dimension
    at most five and keeps those carrying the members onto the variant
    that replaces the member at index by the newcomer.  Counts matrices
    against cap.
    """
    field = collection.field
    m = collection.m
    if field.q != 2 or m > 5:
        raise ValueError("exhaustive scan is limited to GF(2) and ambient dimension <= 5")
    variant = collection.replace(index, newcomer)
    target_keys = tuple(u.key for u in variant.spaces)
    counter = [0]
    found = {}
    all_vectors = list(full_space(field, m).vectors())
    rows = []

    def build():
        if len(rows) == m:
            counter[0] += 1
            if counter[0] > cap:
                raise CapExceeded(f"exhaustive scan exceeded {cap} matrices")
            mapping = LinearMap(field, m, tuple(rows))
            image_keys = tuple(sorted(mapping.apply(u).key for u in collection.spaces))
            if image_keys == target_keys:
                found.setdefault(mapping.key, mapping)
            return
        for v in all_vectors:
            if express(field, v, rows) is not None:
                continue
            rows.append(tuple(v))
            build()
            rows.pop()

    build()
    return tuple(found[k] for k in sorted(found))


def express_map_search(field, m, pairs, cap, counter):
    """The map search that re-expresses every row, an oracle for _constrained_images.

    Each row is written in the source rows so far with express, each
    candidate image checked against the image rows so far the same way,
    and each map built from the two bases by a matrix inverse and
    product.  It visits the same tree in the same order, so it yields
    the same matrices and counts the same nodes in counter[0].
    """
    constraint_rows = []
    for source, target in pairs:
        for v in source.rows:
            constraint_rows.append((v, target))
    for i in range(m):
        constraint_rows.append((e(m, i), None))
    src = []
    img = []

    def extend(pos):
        if pos == len(constraint_rows):
            if len(src) == m:
                yield matmul(field, invert_rows(field, src), img)
            return
        v, target = constraint_rows[pos]
        coeffs = express(field, v, src)
        if coeffs is not None:
            if target is not None:
                forced = tuple(matmul(field, [coeffs], img)[0]) if any(coeffs) else (0,) * m
                if forced not in target:
                    return
            yield from extend(pos + 1)
            return
        candidates = (target if target is not None else full_space(field, m)).vectors()
        for w in candidates:
            counter[0] += 1
            if counter[0] > cap:
                raise CapExceeded(f"map search exceeded {cap} nodes")
            if express(field, w, img) is not None:
                continue
            src.append(tuple(v))
            img.append(tuple(w))
            yield from extend(pos + 1)
            src.pop()
            img.pop()

    yield from extend(0)


@pytest.fixture(scope="module")
def rotation_code(exact_code_spaces):
    params, nodes = exact_code_spaces
    rotation = LinearMap(F2, 4, tuple(e(4, (i + 1) % 4) for i in range(4)))
    seed = RepairingCollection([nodes[1], nodes[2], nodes[3]])
    return params, nodes, rotation, seed


def test_linear_map_validation():
    with pytest.raises(ValueError):
        LinearMap(F2, 3, ((1, 0), (0, 1)))
    with pytest.raises(ValueError):
        LinearMap(F2, 2, ((1, 1), (1, 1)))
    with pytest.raises(ValueError):
        LinearMap(F2, 2, ((1, 2), (0, 1)))
    ident = LinearMap.identity(F2, 3)
    assert ident.apply_vector((1, 0, 1)) == (1, 0, 1)


def test_linear_map_action():
    f = LinearMap(F3, 2, ((1, 1), (0, 1)))
    g = LinearMap(F3, 2, ((2, 0), (0, 1)))
    for v in itertools.product(range(3), repeat=2):
        assert f.compose(g).apply_vector(v) == f.apply_vector(g.apply_vector(v))
    assert f.compose(inverse(f)) == LinearMap.identity(F3, 2)
    assert inverse(f).compose(f) == LinearMap.identity(F3, 2)
    line = span(F3, 2, [(1, 0)])
    assert f.apply(line) == span(F3, 2, [(1, 1)])
    with pytest.raises(ValueError):
        f.apply_vector((1, 0, 0))
    with pytest.raises(ValueError):
        f.apply(span(F3, 3, [(1, 0, 0)]))
    with pytest.raises(ValueError):
        f.compose(LinearMap.identity(F2, 2))


def test_transition_maps_identity_request(rotation_code):
    _, _, _, seed = rotation_code
    member = seed.spaces[0]
    maps = transition_maps(seed, member, 0)
    assert LinearMap.identity(F2, 4) in list(maps)
    target_keys = tuple(u.key for u in seed.spaces)
    for mapping in maps:
        assert tuple(sorted(mapping.apply(u).key for u in seed.spaces)) == target_keys


def test_transition_maps_dimension_mismatch(rotation_code):
    _, _, _, seed = rotation_code
    thin = span(F2, 4, [(1, 1, 1, 1)])
    assert transition_maps(seed, thin, 0) == ()


def test_transition_maps_matches_exhaustive():
    coll = RepairingCollection([
        span(F2, 3, [e(3, 0), e(3, 1)]),
        span(F2, 3, [e(3, 1), e(3, 2)]),
    ])
    newcomer = span(F2, 3, [e_sum(3, 0, 1), e(3, 2)])
    searched = transition_maps(coll, newcomer, 0)
    scanned = transition_maps_exhaustive(coll, newcomer, 0)
    assert [g.key for g in searched] == [g.key for g in scanned]
    assert len(searched) == 8
    with pytest.raises(CapExceeded):
        transition_maps_exhaustive(coll, newcomer, 0, cap=10)
    # the exhaustive scan refuses large ambients and other fields
    big = RepairingCollection([span(F2, 6, [e(6, 0)]), span(F2, 6, [e(6, 1)])])
    with pytest.raises(ValueError):
        transition_maps_exhaustive(big, span(F2, 6, [e(6, 2)]), 0)


def test_transition_maps_cap(rotation_code):
    _, nodes, _, seed = rotation_code
    with pytest.raises(CapExceeded):
        transition_maps(seed, nodes[0], 0, cap=5)


def test_stabilizer_matches_bruteforce():
    coll = RepairingCollection([
        span(F2, 3, [e(3, 0), e(3, 1)]),
        span(F2, 3, [e(3, 1), e(3, 2)]),
    ])
    newcomer = span(F2, 3, [e_sum(3, 0, 1), e(3, 2)])
    stab = stabilizer(coll, newcomer)
    member_keys = tuple(u.key for u in coll.spaces)
    expected = set()
    for rows in itertools.product(itertools.product(range(2), repeat=3), repeat=3):
        try:
            mapping = LinearMap(F2, 3, rows)
        except ValueError:
            continue
        images = tuple(sorted(mapping.apply(u).key for u in coll.spaces))
        if images == member_keys and mapping.apply(newcomer) == newcomer:
            expected.add(mapping.key)
    assert {g.key for g in stab.generators} == expected


def test_stabilizer_coordinate_axes():
    coll = RepairingCollection([span(F2, 3, [e(3, i)]) for i in range(3)])
    newcomer = span(F2, 3, [(1, 1, 1)])
    stab = stabilizer(coll, newcomer)
    for perm in itertools.permutations(range(3)):
        mat = tuple(e(3, perm[i]) for i in range(3))
        assert LinearMap(F2, 3, mat) in stab.generators
    assert stab.transitive


def test_stabilizer_generic_trivial():
    # a random state has no symmetry at all; pinned by the sampling seed
    planes = list(subspaces(F2, 4, 2))
    picks = random.Random(4).sample(planes, 4)
    stab = stabilizer(RepairingCollection(picks[:3]), picks[3])
    assert stab.order == 1
    assert not stab.transitive


def test_stabilizer_of_exact_seed(rotation_code):
    _, nodes, _, seed = rotation_code
    stab = stabilizer(seed, nodes[0])
    assert stab.order == 18
    assert stab.transitive
    # the stabilizer is closed under composition and inverse
    elements = set(stab.generators)
    for g in stab.generators:
        assert inverse(g) in elements
        for h in stab.generators:
            assert g.compose(h) in elements


def test_group_closure_basics(list_group):
    ident = LinearMap.identity(F2, 3)
    assert group_closure([ident]).order == 1
    swap = LinearMap(F2, 3, (e(3, 1), e(3, 0), e(3, 2)))
    pair = group_closure([swap])
    assert pair.order == 2
    assert pair.complete
    assert pair.elements == ()
    assert set(list_group(pair)) == {ident.key, swap.key}
    with pytest.raises(ValueError):
        group_closure([])
    with pytest.raises(ValueError):
        group_closure([ident, LinearMap.identity(F2, 4)])


def test_group_closure_cap_is_explicit(rotation_code):
    params, _, rotation, seed = rotation_code
    clipped = group_closure([rotation], cap=3)
    assert not clipped.complete
    assert clipped.elements == ()
    with pytest.raises(ValueError):
        clipped.order
    assert "exceeds 3" in clipped.describe()
    with pytest.raises(ValueError):
        orbit_code(clipped, orbit(clipped, seed), params)


def test_rotation_group_code(rotation_code, exact_code_spaces, list_group):
    params, nodes, rotation, seed = rotation_code
    for i in range(4):
        assert rotation.apply(nodes[i]) == nodes[(i + 1) % 4]
    group = group_closure([rotation])
    assert group.order == 4
    listed = list_group(group)
    for g in listed.values():
        for h in listed.values():
            assert g.compose(h).key in listed
    states = orbit_code(group, orbit(group, seed), params)
    exact = exact_to_states(nodes, params)
    assert {c.key for c in states} == {c.key for c in exact}
    assert states.verified
    assert seed in states


def test_orbit_code_singleton():
    # a full-space collection repairs to itself, so the identity orbit
    # is already a one-state code
    params = CodeParams(2, 4, 1, 3, 2, 1, 2)
    plane = full_space(F2, 2)
    seed = RepairingCollection([plane, plane, plane])
    group = group_closure([LinearMap.identity(F2, 2)])
    states = orbit_code(group, orbit(group, seed), params)
    assert len(states) == 1
    assert states.verified


def test_orbit_code_rejects_bad_inputs(rotation_code):
    params, nodes, rotation, seed = rotation_code
    clipped = group_closure([rotation], cap=3)
    with pytest.raises(ValueError):
        orbit_code(clipped, orbit(clipped, seed), params)
    # the stabilizer alone fixes the collection, and a single collection
    # cannot satisfy the repair property
    stab = stabilizer(seed, nodes[0])
    with pytest.raises(OrbitVerificationError, match="FAIL no valid newcomer"):
        orbit_code(stab, orbit(stab, seed), params)
    with pytest.raises(CapExceeded):
        orbit(group_closure([rotation]), seed, cap=2)
    assert len(orbit(group_closure([rotation]), seed, cap=4)) == 4


@pytest.fixture(scope="module")
def exact_search(rotation_code):
    params, nodes, _, seed = rotation_code
    return symmetry_search(seed, nodes[0], params, group_cap=30000, orbit_cap=2000)


def test_symmetry_search_exact_code(rotation_code, exact_code_spaces, exact_search):
    params, nodes, _, seed = rotation_code
    outcome = exact_search
    assert outcome.stabilizer.order == 18
    assert outcome.stabilizer.transitive
    assert len(outcome.candidates) == 36
    assert outcome.candidate_classes == ((0, 2),)
    sizes = [len(res.states) for res in outcome.results]
    assert sizes == sorted(sizes)
    exact_keys = {c.key for c in exact_to_states(nodes, params)}
    best = outcome.results[0]
    assert best.group.order == 4
    assert {c.key for c in best.states} == exact_keys
    for res in outcome.results:
        assert res.states.verified
        assert seed in res.states
    assert "verified" in outcome.render()


def test_orbit_code_records_moved_certificates(rotation_code, exact_search):
    # in the 10-state orbits every collection has two valid newcomers;
    # the seed records the first one of the ordinary search, and each
    # other member its tree generator applied to its parent's
    # certificate, which is not always the first one of the search.
    # The recorded newcomers are state lines of the written document,
    # so its sha256 pins the rule (under the first listed element in
    # key order all four documents read 74e9f168...)
    params, _, _, seed = rotation_code
    several = [res for res in exact_search.results if len(res.states) == 10]
    assert len(several) == 4
    moved = []
    digests = []
    for res in several:
        states = res.states
        full = StateSet(params, states.collections.values()).verify(all_newcomers=True)
        valid = {c.collection.key: c.valid_newcomers for c in full.checks}
        assert all(len(v) == 2 for v in valid.values())
        plain = StateSet(params, states.collections.values())
        plain.verify()
        walk = orbit(res.group, seed)
        assert set(walk) == set(states.witnesses)
        for key, (_, edge) in walk.items():
            newcomer = states.witnesses[key].newcomer
            if edge is None:
                assert key == seed.key
                assert newcomer == plain.witnesses[key].newcomer
            else:
                parent, g = edge
                assert newcomer == g.apply(states.witnesses[parent].newcomer)
            assert newcomer in valid[key]
            states.witnesses[key].verify(params)
        moved.append(sum(states.witnesses[key].newcomer != plain.witnesses[key].newcomer
                         for key in walk))
        text = emit_fsc(states_to_document(states))
        digests.append(hashlib.sha256(text.encode()).hexdigest())
    assert moved == [1, 1, 1, 2]
    assert digests == 3 * [
        "cbae01698e1e31d8baad36359bddadfc89aa44216fc7f0d8df06774c8e355d8b"] + [
        "7738f54f0bcead85c0469705ee43b8f836b7c6e30d1025f97072b4013d80bd63"]


def _partition_member(beta):
    F8 = GF(2, 3)
    rows = []
    for u in (2, 4):
        w = F8.mul(beta, u)
        rows.append((w & 1, (w >> 1) & 1, (w >> 2) & 1,
                     (u >> 1) & 1, (u >> 2) & 1))
    return span(F2, 5, rows)


@pytest.fixture(scope="module")
def partition_search():
    # the locality-3 seed over F_2^5 whose members multiply a common
    # plane by 0, 1 and a primitive element
    params = CodeParams(5, 4, 3, 3, 2, 1, 2)
    seed = RepairingCollection([_partition_member(0), _partition_member(1),
                                _partition_member(2)])
    newcomer = _partition_member(6)
    outcome = symmetry_search(seed, newcomer, params,
                              group_cap=5000, orbit_cap=500)
    return params, seed, outcome


def test_symmetry_search_partition_seed(partition_search):
    # the search recovers the order-168 symmetry group and its 56-state
    # orbit
    params, seed, outcome = partition_search
    assert outcome.stabilizer.order == 6
    assert outcome.stabilizer.transitive
    assert len(outcome.candidates) == 48
    assert outcome.candidate_classes == ((0, 8),)
    assert [(res.group.order, len(res.states)) for res in outcome.results] == \
        [(168, 56), (168, 56)]
    for res in outcome.results:
        assert res.states.verified
        assert seed in res.states


def test_orbit_code_matches_full_orbit_check(partition_search, list_group):
    # every complete closure the search meets: orbit_code, which searches
    # newcomers on the seed only and moves its certificate, must give the
    # verdict of the full repair check of the orbit under the listed group
    params, seed, outcome = partition_search
    closures = []
    for _, mapping in outcome.candidates:
        for generators in [(mapping,)] + [(t, mapping) for t in outcome.transitive_generators]:
            group = group_closure(generators, cap=5000)
            if group.complete:
                closures.append(group)
    assert len(closures) == 54
    passing = 0
    for group in closures:
        orbit_states = StateSet(params, {g.apply_collection(seed)
                                         for g in list_group(group).values()})
        oracle = check_repair_property(orbit_states)
        walk = orbit(group, seed, cap=500)
        assert set(walk) == set(orbit_states.collections)
        try:
            states = orbit_code(group, walk, params)
        except OrbitVerificationError:
            assert not oracle.ok
            continue
        assert oracle.ok
        passing += 1
        assert states.verified
        assert set(states.collections) == set(orbit_states.collections)
        checks = states.report.checks
        assert [c.collection.key for c in checks] == [c.collection.key for c in oracle.checks]
        assert all(c.ok for c in checks)
        assert set(states.witnesses) == set(orbit_states.collections)
        for check in checks:
            check.state.verify(params)
    assert passing >= 2


@pytest.mark.parametrize("caps", [{"backtrack_cap": 0}, {"group_cap": -1},
                                  {"orbit_cap": 0}])
def test_symmetry_search_rejects_caps_below_one(caps, monkeypatch):
    # a cap below 1 is bad input, refused before the stabilizer search
    def no_work(*args, **kwargs):
        raise AssertionError("the search started")

    monkeypatch.setattr(groupsearch, "stabilizer", no_work)
    params = CodeParams(5, 4, 3, 3, 2, 1, 2)
    seed = RepairingCollection([_partition_member(0), _partition_member(1),
                                _partition_member(2)])
    name = next(iter(caps))
    with pytest.raises(ValueError, match=f"{name} must be at least 1"):
        symmetry_search(seed, _partition_member(6), params, **caps)


def test_symmetry_search_rejects_seeds_of_wrong_dimension(rotation_code, monkeypatch):
    # three copies of a line (alpha = 2), or a line as the newcomer, is
    # bad input, refused before the stabilizer search
    def no_work(*args, **kwargs):
        raise AssertionError("the search started")

    monkeypatch.setattr(groupsearch, "stabilizer", no_work)
    params, nodes, _, seed = rotation_code
    line = span(F2, 4, [(1, 0, 0, 0)])
    for collection, newcomer in [(RepairingCollection([line] * 3), line), (seed, line)]:
        with pytest.raises(ValueError, match="dimension alpha = 2"):
            symmetry_search(collection, newcomer, params)


def test_symmetry_search_verifies_each_group_once(partition_search, monkeypatch,
                                                  list_group):
    # each of the 54 complete trials is walked once, and trials that
    # meet the same (group order, orbit) share one orbit_code run: 49
    # runs, since two of the 50 distinct groups (both of order 6) have
    # one orbit; the log is unchanged
    params, seed, outcome = partition_search
    groups = set()
    signatures = set()
    for _, mapping in outcome.candidates:
        for generators in [(mapping,)] + [(t, mapping) for t in outcome.transitive_generators]:
            group = group_closure(generators, cap=5000)
            if group.complete:
                groups.add(frozenset(list_group(group)))
                signatures.add((group.order, frozenset(orbit(group, seed, cap=500))))
    assert len(groups) == 50
    walks = []
    calls = []
    real_orbit = groupsearch.orbit
    real_code = groupsearch.orbit_code

    def counted_orbit(group, *args, **kwargs):
        walks.append(group)
        return real_orbit(group, *args, **kwargs)

    def counted_code(group, walk, params):
        calls.append((group.order, frozenset(walk)))
        return real_code(group, walk, params)

    monkeypatch.setattr(groupsearch, "orbit", counted_orbit)
    monkeypatch.setattr(groupsearch, "orbit_code", counted_code)
    again = symmetry_search(seed, _partition_member(6), params,
                            group_cap=5000, orbit_cap=500)
    assert len(walks) == 54
    assert len(calls) == len(set(calls)) == len(signatures) == 49
    assert again.log == outcome.log
    assert [res.states.collections.keys() for res in again.results] == \
        [res.states.collections.keys() for res in outcome.results]


def test_symmetry_search_skips_an_orbit_whose_verification_hits_a_cap(
        partition_search, monkeypatch):
    # a cap met while verifying an orbit (say by the enumeration of
    # obtainable spaces) skips that orbit, and every trial that meets the
    # same (group order, orbit), as the orbit cap does; the search goes on
    params, seed, outcome = partition_search
    real_check = groupsearch._check_collection
    raised = []

    def capped_check(states, collection):
        if not raised:
            raised.append(len(states))
            raise CapExceeded("obtainable spaces exceeded the cap")
        return real_check(states, collection)

    monkeypatch.setattr(groupsearch, "_check_collection", capped_check)
    again = symmetry_search(seed, _partition_member(6), params,
                            group_cap=5000, orbit_cap=500)
    assert raised
    assert len(again.log) == len(outcome.log)
    changed = [(old, new) for old, new in zip(outcome.log, again.log) if old != new]
    assert changed and changed[0][0] == outcome.log[2]
    for old, new in changed:
        fps = old.split(": ")[0]
        assert old == f"{fps}: group order 6, orbit fails verification"
        assert new == f"{fps}: group order 6, orbit exceeds 500, skipped"
    assert [res.states.collections.keys() for res in again.results] == \
        [res.states.collections.keys() for res in outcome.results]


def test_group_closure_composes_no_maps(monkeypatch, rotation_code):
    # the order comes from the stabilizer chain alone, within the cap
    # and past it
    from frcodes.partition_code import build_partition, _general_linear_generators

    def no_compose(self, other):
        raise AssertionError("group_closure composed two maps")

    gl52 = _general_linear_generators(build_partition())
    monkeypatch.setattr(LinearMap, "compose", no_compose)
    assert group_closure([rotation_code[2]]).order == 4
    assert group_closure(gl52, cap=10**7).order == 9_999_360
    assert not group_closure(gl52, cap=5000).complete


def test_walk_applies_each_generator_once_per_member(partition_search, monkeypatch):
    # the orbit of an order-168 trial group on the 56-state seed costs
    # one apply_collection per member and generator
    _, seed, outcome = partition_search
    group = outcome.results[0].group
    assert group.order == 168
    applied = []
    real = LinearMap.apply_collection

    def counted(self, collection):
        applied.append(self)
        return real(self, collection)

    monkeypatch.setattr(LinearMap, "apply_collection", counted)
    walk = orbit(group, seed, cap=500)
    assert len(walk) == 56
    assert len(group.generators) == 2
    assert len(applied) == len(walk) * len(group.generators) == 112


def test_stabilizer_check_is_an_error(monkeypatch):
    # a map search that returns a map moving the collection must be
    # caught by a check that also holds under python -O
    coll = RepairingCollection([span(F2, 3, [e(3, i)]) for i in range(3)])
    newcomer = span(F2, 3, [(1, 1, 1)])
    shear = LinearMap(F2, 3, ((1, 1, 0), e(3, 1), e(3, 2)))
    monkeypatch.setattr(groupsearch, "_search_maps", lambda *args: [shear])
    with pytest.raises(RuntimeError, match="permutes the members"):
        stabilizer(coll, newcomer)


def _gl_generators(field, m):
    cycle = LinearMap(field, m, tuple(e(m, (i + 1) % m) for i in range(m)))
    shear = LinearMap(field, m, ((1, 1) + (0,) * (m - 2),) + tuple(e(m, i) for i in range(1, m)))
    gens = [cycle, shear]
    if field.q > 2:
        gens.append(LinearMap(field, m, ((2,) + (0,) * (m - 1),) + tuple(e(m, i) for i in range(1, m))))
    return gens


def _product_by_hand(p, a, b):
    n = len(b[0])
    return tuple(tuple(sum(x * y[j] for x, y in zip(row, b)) % p for j in range(n)) for row in a)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=1, max_size=16))
def test_packed_compose_matches_generic_product(word):
    # over GF(2) compose multiplies packed rows; the generic kernels and
    # plain integer arithmetic must give the same matrix, which the
    # checking constructor accepts with the same key
    gens = _gl_generators(F2, 5)
    product = LinearMap.identity(F2, 5)
    rows = product.rows
    for i in word:
        g = gens[i % len(gens)]
        expected = _product_by_hand(2, rows, g.rows)
        try:
            sub._PACKED_KERNELS = False
            rows = matmul(F2, rows, g.rows)
        finally:
            sub._PACKED_KERNELS = True
        assert rows == expected
        product = g.compose(product)
    checked = LinearMap(F2, 5, rows)
    assert product.rows == checked.rows
    assert product.key == checked.key
    assert product == checked and hash(product) == hash(checked)
    assert product.compose(inverse(product)) == LinearMap.identity(F2, 5)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=1, max_size=12))
def test_generic_compose_matches_integer_product(word):
    gens = _gl_generators(F3, 3)
    product = LinearMap.identity(F3, 3)
    rows = product.rows
    for i in word:
        g = gens[i % len(gens)]
        rows = _product_by_hand(3, rows, g.rows)
        product = g.compose(product)
    checked = LinearMap(F3, 3, rows)
    assert product.rows == checked.rows
    assert product.key == checked.key
    assert product == checked
    assert inverse(product).compose(product) == LinearMap.identity(F3, 3)


_SMALL_GROUPS = [(F2, 3), (F2, 4), (F3, 2)]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, len(_SMALL_GROUPS) - 1),
       st.lists(st.lists(st.integers(0, 2), max_size=10), min_size=1, max_size=3))
def test_group_closure_lists_the_chain_order(list_group, which, words):
    # each generator is a word in generators of GL(3,2), GL(4,2) or
    # GL(2,3); the breadth-first listing must have the order of the
    # stabilizer chain, and a cap one below the order gives no order
    field, m = _SMALL_GROUPS[which]
    gens = _gl_generators(field, m)
    maps = []
    for word in words:
        g = LinearMap.identity(field, m)
        for i in word:
            g = gens[i % len(gens)].compose(g)
        maps.append(g)
    order = groupsearch._group_order(maps, 10**8)
    group = group_closure(maps, cap=order)
    assert group.complete
    assert group.elements == ()
    listed = list_group(group)
    assert len(listed) == group.order == order
    for g in maps:
        assert g.key in listed
    clipped = group_closure(maps, cap=order - 1)
    assert not clipped.complete


def test_chain_order_of_general_linear_groups():
    from frcodes.partition_code import build_partition, _general_linear_generators

    gl52 = _general_linear_generators(build_partition())
    assert groupsearch._group_order(gl52, 10**8) == 9_999_360
    expected = 1
    for i in range(5):
        expected *= 2**5 - 2**i
    assert expected == 9_999_360
    # a monomial map of determinant 2 and a shear generate GL(3,3)
    monomial = LinearMap(F3, 3, ((0, 2, 0), e(3, 2), e(3, 0)))
    shear = LinearMap(F3, 3, ((1, 1, 0), e(3, 1), e(3, 2)))
    assert groupsearch._group_order([monomial, shear], 10**8) == 26 * 24 * 18 == 11_232
    assert groupsearch._group_order([monomial, shear], 11_231) is None


def test_large_basis_orbit_decides_without_chain(monkeypatch):
    # e_0 has 31 images under GL(5,2): a cap of 30 is exceeded by that
    # orbit alone, before any Schreier-Sims work; a cap of 31 needs it
    from frcodes.partition_code import build_partition, _general_linear_generators

    gl52 = _general_linear_generators(build_partition())

    def no_chain(perms, cap):
        raise LookupError("chain reached")

    monkeypatch.setattr(groupsearch, "_chain_order", no_chain)
    clipped = group_closure(gl52, cap=30)
    assert not clipped.complete
    with pytest.raises(LookupError, match="chain reached"):
        group_closure(gl52, cap=31)


def test_listing_must_match_chain_order(monkeypatch, rotation_code, list_group):
    # the listing oracle catches a chain order that is too small or too
    # large for the four rotations
    _, _, rotation, _ = rotation_code
    assert len(list_group(group_closure([rotation]))) == 4
    for wrong in (3, 5):
        monkeypatch.setattr(groupsearch, "_chain_order", lambda perms, cap: wrong)
        with pytest.raises(AssertionError, match="chain order"):
            list_group(group_closure([rotation]))


def _random_invertible(rng, field, m):
    while True:
        rows = tuple(tuple(rng.randrange(field.q) for _ in range(m)) for _ in range(m))
        if sub.rank_of(field, m, rows) == m:
            return LinearMap(field, m, rows)


def test_packed_apply_matches_generic_image():
    # over GF(2) apply multiplies packed rows and reduces them; with the
    # packed kernels off it runs on tuple rows, and both give one image
    rng = random.Random(59)
    planes = list(subspaces(F2, 5, 2))
    assert len(planes) == 155
    for _ in range(20):
        g = _random_invertible(rng, F2, 5)
        packed = [g.apply(u) for u in planes]
        try:
            sub._PACKED_KERNELS = False
            generic = [g.apply(u) for u in planes]
        finally:
            sub._PACKED_KERNELS = True
        assert [u.key for u in packed] == [u.key for u in generic]
        assert [u.rows for u in packed] == [u.rows for u in generic]
        assert len({u.key for u in packed}) == 155


def _orbit_keys(collection, group):
    return {g.apply_collection(collection).key for g in group}


def test_transporter_matches_orbits_of_gl32():
    # every multiset of two lines or planes of F_2^3 against every other:
    # a map exists exactly when the target lies in the source's orbit
    # under all 168 elements of GL(3, 2), and a found map carries the
    # source onto the target
    gl32 = [LinearMap(F2, 3, rows)
            for rows in itertools.product(itertools.product(range(2), repeat=3), repeat=3)
            if sub.rank_of(F2, 3, rows) == 3]
    assert len(gl32) == 168
    spaces = list(subspaces(F2, 3, 1)) + list(subspaces(F2, 3, 2))
    collections = [RepairingCollection(pair)
                   for pair in itertools.combinations_with_replacement(spaces, 2)]
    assert len(collections) == 105
    sources = collections[::7]
    for source in sources:
        orbit = _orbit_keys(source, gl32)
        for target in collections:
            g = groupsearch._transporter(source, target, BACKTRACK_CAP)
            assert (g is not None) == (target.key in orbit)
            if g is not None:
                assert g.apply_collection(source) == target


def test_transporter_edge_cases(rotation_code):
    _, nodes, rotation, seed = rotation_code
    moved = rotation.apply_collection(seed)
    g = groupsearch._transporter(seed, moved, BACKTRACK_CAP)
    assert g.apply_collection(seed) == moved
    # other sizes, ambients and fields have no map at all
    assert groupsearch._transporter(seed, RepairingCollection(nodes), BACKTRACK_CAP) is None
    line3 = RepairingCollection([span(F3, 4, [e(4, 0)])] * 3)
    assert groupsearch._transporter(seed, line3, BACKTRACK_CAP) is None
    with pytest.raises(CapExceeded):
        groupsearch._transporter(seed, moved, 1)


def _random_subspace(rng, field, m):
    dim = rng.randrange(1, m + 1)
    return span(field, m, [tuple(rng.randrange(field.q) for _ in range(m))
                           for _ in range(dim)])


def _run_search(search, field, m, pairs, cap):
    # the matrices yielded before the end or the cap, the final node
    # count, and whether the cap stopped the search
    counter = [0]
    found = []
    try:
        for matrix in search(field, m, pairs, cap, counter):
            found.append(tuple(map(tuple, matrix)))
    except CapExceeded:
        return found, counter[0], True
    return found, counter[0], False


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.integers(1, 4), st.integers(0, 2**32),
       st.booleans())
def test_map_search_matches_express_oracle(q, m, seed, mismatched):
    # sources paired with their images under a random invertible map,
    # some of them replaced by random spaces when mismatched: the
    # incremental echelons give the oracle's maps in its order, its node
    # count, and its CapExceeded at every cap
    field = GF(q) if q != 4 else GF(2, 2)
    if q == 4 and m > 3:
        m = 3  # a free direction of F_4^4 branches 256 ways
    rng = random.Random(seed)
    sources = [_random_subspace(rng, field, m) for _ in range(rng.randrange(1, 4))]
    g = _random_invertible(rng, field, m)
    targets = [g.apply(u) for u in sources]
    if mismatched:
        targets = [_random_subspace(rng, field, m) if rng.random() < 0.5 else u
                   for u in targets]
    pairs = list(zip(sources, targets))
    modes = [True, False] if q == 2 else [True]
    for cap in (800, rng.randrange(1, 60)):
        expected = _run_search(express_map_search, field, m, pairs, cap)
        for packed in modes:
            try:
                sub._PACKED_KERNELS = packed
                got = _run_search(groupsearch._constrained_images, field, m, pairs, cap)
            finally:
                sub._PACKED_KERNELS = True
            assert got == expected
        found, nodes, capped = expected
        if not capped:
            assert mismatched or found
            # the cap is hit exactly one node short of the final count
            if nodes:
                assert _run_search(groupsearch._constrained_images, field, m, pairs,
                                   nodes - 1)[2]


def test_map_search_node_counts_are_pinned(partition_search):
    # node counts of the two map searches on the 56-state seed, read
    # from the express-based search: the least cap each one completes under
    _, seed, outcome = partition_search
    newcomer = _partition_member(6)
    assert stabilizer(seed, newcomer, cap=1536).order == outcome.stabilizer.order == 6
    assert len(transition_maps(seed, newcomer, 0, cap=1536)) == 48
    with pytest.raises(CapExceeded):
        stabilizer(seed, newcomer, cap=1535)
    with pytest.raises(CapExceeded):
        transition_maps(seed, newcomer, 0, cap=1535)
