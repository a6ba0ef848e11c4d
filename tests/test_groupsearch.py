"""Tests for linear map search, group closure and orbit codes."""

from __future__ import annotations

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frcodes import groupsearch, storage
from frcodes import subspace as sub
from frcodes.family import construct_good, family_state_space
from frcodes.fsc import emit_fsc, states_to_document
from frcodes.gf import GF
from frcodes.groupsearch import (
    BACKTRACK_CAP,
    LinearMap,
    OrbitVerificationError,
    group_closure,
    orbit,
    orbit_code,
    stabilizer,
    symmetry_search,
    transition_maps,
)
from frcodes.partition_code import (_STABILIZER_CHAIN, _is_clique, _plane_tables,
                                    max_collection_size)
from frcodes.storage import (
    CodeParams,
    RepairingCollection,
    StateSet,
    check_repair_property,
    find_repair_witness,
    valid_newcomers,
)
from frcodes.subspace import (
    CapExceeded,
    express,
    full_space,
    matmul,
    span,
    standard_basis_vector,
    subspaces,
    zero_subspace,
)
from oracles import (apply_collection, apply_vector, basis_image_map, exact_to_states,
                     identity_map)

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
    reduced = sub._TupleRows(field).rref([tuple(r) + e(m, i) for i, r in enumerate(rows)])
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


def test_linear_map_equality_follows_the_entries():
    f = LinearMap(F3, 2, ((1, 1), (0, 1)))
    twin = LinearMap(F3, 2, ((1, 1), (0, 1)))
    f._points[0] = "memo"
    assert f == twin and hash(f) == hash(twin) == hash((F3, 2, f.rows))
    assert f.compose(identity_map(F3, 2)) == twin
    assert f != LinearMap(F3, 2, ((1, 2), (0, 1)))
    assert f != LinearMap(F2, 2, ((1, 1), (0, 1)))
    assert len({f, twin, identity_map(F3, 2)}) == 2


def test_linear_map_keys_past_one_byte_per_entry():
    # over GF(257) an entry of 256 has no byte, so the key spells the
    # entries out, and maps that differ only there keep distinct keys
    F257 = GF(257)
    f = LinearMap(F257, 2, ((1, 256), (0, 1)))
    g = LinearMap(F257, 2, ((1, 1), (0, 1)))
    assert f.key != g.key and f != g and len({f, g}) == 2
    assert f.compose(g) == LinearMap(F257, 2, ((1, 0), (0, 1)))


def test_linear_map_action():
    f = LinearMap(F3, 2, ((1, 1), (0, 1)))
    g = LinearMap(F3, 2, ((2, 0), (0, 1)))
    for v in itertools.product(range(3), repeat=2):
        assert apply_vector(f.compose(g), v) == apply_vector(f, apply_vector(g, v))
    assert f.compose(inverse(f)) == identity_map(F3, 2)
    assert inverse(f).compose(f) == identity_map(F3, 2)
    line = span(F3, 2, [(1, 0)])
    assert f.apply(line) == span(F3, 2, [(1, 1)])
    with pytest.raises(ValueError):
        f.apply(span(F3, 3, [(1, 0, 0)]))
    with pytest.raises(ValueError):
        f.compose(identity_map(F2, 2))


def test_transition_maps_identity_request(rotation_code):
    _, _, _, seed = rotation_code
    member = seed.spaces[0]
    maps = transition_maps(seed, member, 0)
    assert identity_map(F2, 4) in list(maps)
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


def test_transition_maps_cap(rotation_code, monkeypatch):
    _, nodes, _, seed = rotation_code
    monkeypatch.setattr(groupsearch, "BACKTRACK_CAP", 5)
    with pytest.raises(CapExceeded):
        transition_maps(seed, nodes[0], 0)


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
    ident = identity_map(F2, 3)
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
        group_closure([ident, identity_map(F2, 4)])


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
    group = group_closure([identity_map(F2, 2)])
    states = orbit_code(group, orbit(group, seed), params)
    assert len(states) == 1
    assert states.verified


def test_moved_witness_keeps_duplicate_helpers_distinct():
    # the seed {P, P, Q} of F_2^3 with r = 3 is repaired by Q, and its one
    # helper set takes slices from both copies of P; the map swapping P
    # and Q carries it to {P, Q, Q}, whose moved witness must take its
    # slices from both copies of Q at distinct sorted positions
    params = CodeParams(m=3, n=4, k=2, r=3, alpha=2, beta=1, q=2)
    plane_p = span(F2, 3, [e(3, 0), e(3, 1)])
    plane_q = span(F2, 3, [e(3, 0), e(3, 2)])
    swap = LinearMap(F2, 3, (e(3, 0), e(3, 2), e(3, 1)))
    assert swap.apply(plane_p) == plane_q and swap.apply(plane_q) == plane_p
    seed = RepairingCollection([plane_p, plane_p, plane_q])
    group = group_closure([swap])
    walk = orbit(group, seed)
    assert len(walk) == 2
    states = orbit_code(group, walk, params)
    assert states.verified
    image = apply_collection(swap, seed)
    assert image == RepairingCollection([plane_p, plane_q, plane_q])
    for member in (seed, image):
        state = states.witnesses[member.key]
        assert state.newcomer == (plane_q if member == seed else plane_p)
        assert state.witness.repair_indices == (0, 1, 2)
        state.witness.verify(member, state.newcomer, params)
        assert find_repair_witness(member, state.newcomer, params) is not None
    moved = states.witnesses[image.key].witness
    assert [w <= plane_q for w in moved.repair_spaces].count(True) == 2
    # the seed's witness moved by the swap, with no certificate declared;
    # origins[p] is the seed member whose image sits at position p
    origins = sorted(range(3), key=lambda i: swap.apply(seed.spaces[i]).key)
    assert moved == groupsearch._moved_witness(
        {}, swap, origins, states.witnesses[seed.key].witness)
    assert not states.certificates
    # helper indices read off the first copy of each image would repeat
    # a member, which the witness check refuses
    first = tuple(image.spaces.index(image.spaces[i]) for i in moved.repair_indices)
    assert len(set(first)) < 3
    with pytest.raises(AssertionError, match="distinct"):
        storage.RepairWitness(first, moved.repair_spaces).verify(
            image, plane_p, params)


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


def test_symmetry_search_skips_an_orbit_past_its_cap(partition_search):
    # under an orbit cap of 55 the 56-state orbit of each order-168
    # group is cut off while it is walked, so nothing verifies
    params, seed, outcome = partition_search
    capped = symmetry_search(seed, _partition_member(6), params,
                             group_cap=5000, orbit_cap=55)
    assert capped.results == ()
    assert capped.candidates == outcome.candidates
    skipped = [line for line in capped.log if line.endswith("orbit exceeds 55, skipped")]
    assert skipped and all("group order 168," in line for line in skipped)
    assert not any("verified" in line for line in capped.log)


def _trial_groups(outcome, cap):
    # the complete closures of the trials of a search: each candidate
    # alone and with each transitive cyclic stabilizer generator
    for _, mapping in outcome.candidates:
        for generators in [(mapping,)] + [(t, mapping) for t in outcome.transitive_generators]:
            group = group_closure(generators, cap=cap)
            if group.complete:
                yield group


def test_orbit_code_matches_full_orbit_check(partition_search, list_group, monkeypatch):
    # every complete closure the search meets: orbit_code, which checks
    # the seed only and moves its newcomer and witness, must give the
    # verdict of the full repair check of the orbit under the listed
    # group, never search for a witness, and record for each member a
    # newcomer that the full check finds valid
    params, seed, outcome = partition_search

    def no_search(*args):
        raise AssertionError("orbit_code searched for a repair witness")

    monkeypatch.setattr(storage, "find_repair_witness", no_search)
    closures = list(_trial_groups(outcome, 5000))
    assert len(closures) == 54
    passing = 0
    for group in closures:
        orbit_states = StateSet(params, {apply_collection(g, seed)
                                         for g in list_group(group).values()})
        oracle = check_repair_property(orbit_states, all_newcomers=True)
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
        valid = {c.collection.key: c.valid_newcomers for c in oracle.checks}
        for check in checks:
            # the recorded witness is the moved one, checked on its own,
            # and the search, kept as the oracle, obtains the newcomer too
            state = states.witnesses[check.collection.key]
            state.witness.verify(check.collection, state.newcomer, params)
            assert find_repair_witness(check.collection, state.newcomer, params) is not None
            assert state.newcomer in valid[check.collection.key]
    assert passing >= 2


def test_orbit_code_checks_the_seed_alone(partition_search, monkeypatch):
    # the 56-state orbit is verified without the full repair check: the
    # seed's verdict and its moved states are the report
    params, seed, outcome = partition_search
    group = outcome.results[0].group

    def no_full_check(*args, **kwargs):
        raise AssertionError("orbit_code ran the full repair check")

    monkeypatch.setattr(storage, "check_repair_property", no_full_check)
    monkeypatch.setattr(StateSet, "verify", no_full_check)
    checked = []
    real_check = groupsearch._check_collection

    def counted_check(states, collection):
        checked.append(collection.key)
        return real_check(states, collection)

    monkeypatch.setattr(groupsearch, "_check_collection", counted_check)
    states = orbit_code(group, orbit(group, seed, cap=500), params)
    assert checked == [seed.key]
    assert len(states) == 56 and states.verified
    assert [c.collection.key for c in states.report.checks] == sorted(states.collections)
    assert set(states.witnesses) == set(states.collections)


@pytest.mark.parametrize("caps", [{"group_cap": -1}, {"orbit_cap": 0}])
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


def test_symmetry_search_rejects_a_seed_with_the_wrong_member_count(monkeypatch):
    # a seed of two members where the code has n - 1 = 3 is bad input,
    # refused before the stabilizer search
    def no_work(*args, **kwargs):
        raise AssertionError("the search started")

    monkeypatch.setattr(groupsearch, "stabilizer", no_work)
    params = CodeParams(5, 4, 3, 3, 2, 1, 2)
    seed = RepairingCollection([_partition_member(0), _partition_member(1)])
    with pytest.raises(ValueError, match="collection has 2 members, expected n-1 = 3"):
        symmetry_search(seed, _partition_member(6), params)


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
    # the 54 complete trials generate 50 distinct groups, and each is
    # walked once: the paired trials (t, m s), s in <t>, of one coset
    # share one walk; trials that meet the same (group order, orbit)
    # share one orbit_code run: 49 runs, since two of the 50 groups
    # (both of order 6) have one orbit; the log is unchanged
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
    assert len(walks) == len(groups) == 50
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
    gl52 = [basis_image_map(images) for images in _STABILIZER_CHAIN[0]]

    def no_compose(self, other):
        raise AssertionError("group_closure composed two maps")

    monkeypatch.setattr(LinearMap, "compose", no_compose)
    assert group_closure([rotation_code[2]]).order == 4
    assert group_closure(gl52, cap=10**7).order == 9_999_360
    assert not group_closure(gl52, cap=5000).complete


def test_walk_moves_each_distinct_space_once_per_generator(partition_search, monkeypatch):
    # the orbit of an order-168 trial group on the 56-state seed is made
    # of 8 distinct spaces, and the walk's image table applies each
    # generator once to each of them: 16 applications for 56 x 3 member
    # spaces and 2 generators
    _, seed, outcome = partition_search
    group = outcome.results[0].group
    assert group.order == 168
    applied = []
    real = LinearMap.apply

    def counted(self, space):
        applied.append((self.key, space.key))
        return real(self, space)

    monkeypatch.setattr(LinearMap, "apply", counted)
    walk = orbit(group, seed, cap=500)
    assert len(walk) == 56
    assert len(group.generators) == 2
    spaces = {u.key for member, _ in walk.values() for u in member.spaces}
    assert len(spaces) == 8
    assert len(applied) == len(set(applied)) == len(spaces) * len(group.generators) == 16
    # the walk agrees with moving whole collections by apply_collection
    monkeypatch.setattr(LinearMap, "apply", real)
    for member, edge in walk.values():
        if edge is not None:
            parent, g = edge
            assert apply_collection(g, walk[parent][0]) == member


def test_walk_builds_each_member_once(partition_search, monkeypatch):
    # 56 members moved by 2 generators make 112 moves, half of them onto
    # members already walked; only the 55 images met first are built
    _, seed, outcome = partition_search
    group = outcome.results[0].group
    built = []

    def counted(spaces):
        built.append(tuple(sorted(u.key for u in spaces)))
        return RepairingCollection(spaces)

    monkeypatch.setattr(groupsearch, "RepairingCollection", counted)
    walk = orbit(group, seed, cap=500)
    assert len(walk) == 56
    assert built == list(walk)[1:]


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
def test_packed_compose_matches_generic_product(tuple_rows, word):
    # over GF(2) compose multiplies packed rows; the tuple kernels and
    # plain integer arithmetic must give the same matrix, which the
    # checking constructor accepts with the same key
    gens = _gl_generators(F2, 5)
    product = identity_map(F2, 5)
    rows = product.rows
    for i in word:
        g = gens[i % len(gens)]
        expected = _product_by_hand(2, rows, g.rows)
        with tuple_rows(F2):
            rows = matmul(F2, rows, g.rows)
            generic = LinearMap(F2, 5, g.rows).compose(LinearMap(F2, 5, product.rows))
        assert rows == expected
        assert generic.rows == expected
        product = g.compose(product)
    checked = LinearMap(F2, 5, rows)
    assert product.rows == checked.rows
    assert product.key == checked.key
    assert product == checked and hash(product) == hash(checked)
    assert product.compose(inverse(product)) == identity_map(F2, 5)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=1, max_size=12))
def test_generic_compose_matches_integer_product(word):
    gens = _gl_generators(F3, 3)
    product = identity_map(F3, 3)
    rows = product.rows
    for i in word:
        g = gens[i % len(gens)]
        rows = _product_by_hand(3, rows, g.rows)
        product = g.compose(product)
    checked = LinearMap(F3, 3, rows)
    assert product.rows == checked.rows
    assert product.key == checked.key
    assert product == checked
    assert inverse(product).compose(product) == identity_map(F3, 3)


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
        g = identity_map(field, m)
        for i in word:
            g = gens[i % len(gens)].compose(g)
        maps.append(g)
    order = group_closure(maps, cap=10**8).order
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
    gl52 = [basis_image_map(images) for images in _STABILIZER_CHAIN[0]]
    assert group_closure(gl52, cap=10**8).order == 9_999_360
    expected = 1
    for i in range(5):
        expected *= 2**5 - 2**i
    assert expected == 9_999_360
    # a monomial map of determinant 2 and a shear generate GL(3,3)
    monomial = LinearMap(F3, 3, ((0, 2, 0), e(3, 2), e(3, 0)))
    shear = LinearMap(F3, 3, ((1, 1, 0), e(3, 1), e(3, 2)))
    assert group_closure([monomial, shear], cap=10**8).order == 26 * 24 * 18 == 11_232
    assert not group_closure([monomial, shear], cap=11_231).complete


def test_large_basis_orbit_decides_without_chain(monkeypatch):
    # e_0 has 31 images under GL(5,2): a cap of 30 is exceeded by that
    # orbit alone, before any Schreier-Sims work; a cap of 31 needs it
    gl52 = [basis_image_map(images) for images in _STABILIZER_CHAIN[0]]

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


def test_packed_apply_matches_generic_image(tuple_rows):
    # over GF(2) apply multiplies packed rows and reduces them; with the
    # tuple table chosen it runs on tuple rows, and both give one image
    rng = random.Random(59)
    planes = list(subspaces(F2, 5, 2))
    assert len(planes) == 155
    for _ in range(20):
        g = _random_invertible(rng, F2, 5)
        packed = [g.apply(u) for u in planes]
        with tuple_rows(F2):
            h = LinearMap(F2, 5, g.rows)
            generic = [h.apply(span(F2, 5, u.rows)) for u in planes]
        assert [u.key for u in packed] == [u.key for u in generic]
        assert [u.rows for u in packed] == [u.rows for u in generic]
        assert len({u.key for u in packed}) == 155


def _orbit_keys(collection, group):
    return {apply_collection(g, collection).key for g in group}


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
            g = groupsearch._transporter(source, target, BACKTRACK_CAP,
                                         groupsearch._traces(source.spaces))
            assert (g is not None) == (target.key in orbit)
            if g is not None:
                assert apply_collection(g, source) == target


def test_transporter_edge_cases(rotation_code):
    _, nodes, rotation, seed = rotation_code
    moved = apply_collection(rotation, seed)
    traces = groupsearch._traces(seed.spaces)
    g = groupsearch._transporter(seed, moved, BACKTRACK_CAP, traces)
    assert apply_collection(g, seed) == moved
    # other sizes, ambients and fields have no map at all
    assert groupsearch._transporter(seed, RepairingCollection(nodes), BACKTRACK_CAP,
                                    traces) is None
    line3 = RepairingCollection([span(F3, 4, [e(4, 0)])] * 3)
    assert groupsearch._transporter(seed, line3, BACKTRACK_CAP, traces) is None
    with pytest.raises(CapExceeded):
        groupsearch._transporter(seed, moved, 1, traces)


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
def test_map_search_matches_express_oracle(tuple_rows, q, m, seed, mismatched):
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
    for cap in (800, rng.randrange(1, 60)):
        expected = _run_search(express_map_search, field, m, pairs, cap)
        got = _run_search(groupsearch._constrained_images, field, m, pairs, cap)
        assert got == expected
        if q == 2:
            with tuple_rows(F2):
                held = [(span(field, m, a.rows), span(field, m, b.rows)) for a, b in pairs]
                got = _run_search(groupsearch._constrained_images, field, m, held, cap)
            assert got == expected
        found, nodes, capped = expected
        if not capped:
            assert mismatched or found
            # the cap is hit exactly one node short of the final count
            if nodes:
                assert _run_search(groupsearch._constrained_images, field, m, pairs,
                                   nodes - 1)[2]


def test_map_search_node_counts_are_pinned(partition_search, monkeypatch):
    # node counts of the two map searches on the 56-state seed, read
    # from the express-based search: the least cap each one completes under
    _, seed, outcome = partition_search
    newcomer = _partition_member(6)
    monkeypatch.setattr(groupsearch, "BACKTRACK_CAP", 1536)
    assert stabilizer(seed, newcomer).order == outcome.stabilizer.order == 6
    assert len(transition_maps(seed, newcomer, 0)) == 48
    monkeypatch.setattr(groupsearch, "BACKTRACK_CAP", 1535)
    with pytest.raises(CapExceeded):
        stabilizer(seed, newcomer)
    with pytest.raises(CapExceeded):
        transition_maps(seed, newcomer, 0)


def test_orbit_code_matches_full_check_over_gf3():
    # the (2, 1) family seed over GF(3) and its first valid newcomer:
    # every trial orbit within the caps, once per (group order, orbit)
    # as the search verifies them, gets the verdict of the full repair
    # check of its walked members, and each member's recorded newcomer
    # is one the full check finds valid
    good = construct_good(2, 1, 3)
    params = good.params
    seed = good.to_repairing_collection()
    newcomer = valid_newcomers(family_state_space(2, 1, 3), seed)[0]
    outcome = symmetry_search(seed, newcomer, params, group_cap=5000, orbit_cap=500)
    oracles: dict = {}
    verdicts = {}
    for group in _trial_groups(outcome, 5000):
        try:
            walk = orbit(group, seed, cap=500)
        except CapExceeded:
            continue
        members = frozenset(walk)
        if (group.order, members) in verdicts:
            continue
        if members not in oracles:
            plain = StateSet(params, (member for member, _ in walk.values()))
            oracles[members] = check_repair_property(plain, all_newcomers=True)
        full = oracles[members]
        try:
            states = orbit_code(group, walk, params)
        except OrbitVerificationError:
            verdicts[group.order, members] = False
            assert not full.ok
            continue
        verdicts[group.order, members] = True
        assert full.ok and states.verified
        valid = {c.collection.key: c.valid_newcomers for c in full.checks}
        for key, state in states.witnesses.items():
            assert state.newcomer in valid[key]
            state.verify(params)
    assert sum(verdicts.values()) == len(outcome.results) == 45
    assert not all(verdicts.values())
    # the log (727 lines, map fingerprints over GF(3)) and the first
    # code written out, pinned byte for byte
    assert hashlib.sha256(outcome.render().encode()).hexdigest() == \
        "82dd021763e5f01e9fa5e00adfd8db3fa8e81a6d756f65f82d2e1eafb70a98dd"
    text = emit_fsc(states_to_document(outcome.results[0].states))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "eab38d4647d25a196234556c4f2ac47cf05a1d4359c81817c2878d40bf5d4463"


def test_search_of_the_written_gf3_family_seed_pins_its_smallest_code(tmp_path, capsys):
    # the (2, 1) family seed over GF(3) with its first valid newcomer,
    # written as a one-collection document, searched by frcodes search:
    # the best result is the smallest verified code, 3 states, and the
    # written code passes the full repair check
    from frcodes import cli

    good = construct_good(2, 1, 3)
    params = good.params
    seed = good.to_repairing_collection()
    newcomer = valid_newcomers(family_state_space(2, 1, 3), seed)[0]
    states = StateSet(params, [seed])
    states.witnesses[seed.key] = storage.AdmissibleState(
        seed, newcomer, find_repair_witness(seed, newcomer, params))
    path, found = tmp_path / "seed213.fsc", tmp_path / "found213.fsc"
    path.write_text(emit_fsc(states_to_document(states)), encoding="utf-8")
    assert cli.main(["search", str(path), "--group-cap", "5000", "--orbit-cap", "500",
                     "--out", str(found)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2] == "best result: group order 3, 3 states"
    text = found.read_text(encoding="utf-8")
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "eab38d4647d25a196234556c4f2ac47cf05a1d4359c81817c2878d40bf5d4463"
    assert cli.main(["verify", str(found)]) == 0


def test_symmetry_search_finds_the_partition_code_from_the_family_seed(partition_model,
                                                                       partition_states):
    # from the (3, 1) family seed over GF(2), with each of its valid
    # newcomers, the search finds two codes, each a GL(5, 2) image of the
    # 56-state partition code: a map g carrying one partition collection
    # P onto one found collection, followed by some setwise stabilizer
    # element s of P, carries every partition state into the found set.
    # The 8 spaces of each found code are a maximum family, as the paper
    # claims: a family in the plane tables, as large as the maximum
    good = construct_good(3, 1, 2)
    params = good.params
    seed = good.to_repairing_collection()
    newcomers = valid_newcomers(family_state_space(3, 1, 2), seed)
    assert len(newcomers) == 8
    partition = list(partition_states)
    first = partition[0]
    stab = stabilizer(first, zero_subspace(F2, 5))
    assert stab.order == 48
    spaces = {u.key: u for c in partition for u in c.spaces}
    tables = _plane_tables(partition_model)
    index = {p.key: x for x, p in enumerate(tables.planes)}
    maximum = max_collection_size(partition_model)
    for newcomer in newcomers:
        outcome = symmetry_search(seed, newcomer, params, group_cap=5000, orbit_cap=500)
        assert len(outcome.results) == 2
        for res in outcome.results:
            found = res.states
            assert len(found) == 56 and res.group.order == 168
            family = sorted({index[u.key] for c in found for u in c.spaces})
            assert len(family) == maximum == 8
            assert _is_clique(tables, family)
            g = groupsearch._transporter(first, next(iter(found)), 10**5,
                                         groupsearch._traces(first.spaces))
            assert g is not None
            images = []
            for s in stab.generators:
                h = g.compose(s)
                table = {key: h.apply(u) for key, u in spaces.items()}
                images.append({RepairingCollection(table[u.key] for u in c.spaces).key
                               for c in partition})
            assert set(found.collections) in images


@pytest.mark.parametrize("which", ["seed56", "family213"])
def test_symmetry_search_shares_each_coset_outcome(which, monkeypatch, list_group):
    # the paired trials (t, m s), s in <t>, of one coset share the closure
    # and walk of the first of them: each trial's shared outcome has the
    # completeness, order and orbit keys of group_closure and orbit run
    # on fresh copies of its own generators, every trial class is closed
    # once, and each result keeps the generators of the trial that
    # verified it; on the 56-state seed the work is pinned
    if which == "seed56":
        params = CodeParams(5, 4, 3, 3, 2, 1, 2)
        seed = RepairingCollection([_partition_member(0), _partition_member(1),
                                    _partition_member(2)])
        newcomer = _partition_member(6)
    else:
        good = construct_good(2, 1, 3)
        params, seed = good.params, good.to_repairing_collection()
        newcomer = valid_newcomers(family_state_space(2, 1, 3), seed)[0]
    computed = []  # (generator keys, group), in the order closed
    walked = {}    # id(group) -> orbit keys, None past the orbit cap
    points = []
    real_closure, real_orbit = groupsearch.group_closure, groupsearch.orbit
    real_permutations = groupsearch._basis_permutations

    def counted_closure(generators, cap=groupsearch.GROUP_CAP):
        group = real_closure(generators, cap=cap)
        computed.append((tuple(g.key for g in generators), group))
        return group

    def counted_orbit(group, collection, cap=groupsearch.ORBIT_CAP):
        walked[id(group)] = None
        tree = real_orbit(group, collection, cap)
        walked[id(group)] = frozenset(tree)
        return tree

    def counted_permutations(generators, cap):
        # each point image is computed once, into its map's _points memo
        maps = {id(g): g for g in generators}.values()
        before = sum(len(g._points) for g in maps)
        perms = real_permutations(generators, cap)
        points.append(sum(len(g._points) for g in maps) - before)
        return perms

    monkeypatch.setattr(groupsearch, "group_closure", counted_closure)
    monkeypatch.setattr(groupsearch, "orbit", counted_orbit)
    monkeypatch.setattr(groupsearch, "_basis_permutations", counted_permutations)
    outcome = symmetry_search(seed, newcomer, params, group_cap=5000, orbit_cap=500)
    monkeypatch.undo()
    if which == "seed56":
        assert (len(computed), sum(points), len(walked)) == (64, 1062, 50)
    cyclic = {t.key: {s.key: s for s in list_group(group_closure([t])).values()}
              for t in outcome.transitive_generators}
    owners = set()
    for _, mapping in outcome.candidates:
        trials = [(mapping,)] + [(t, mapping) for t in outcome.transitive_generators]
        for generators in trials:
            if len(generators) == 1:
                coset = {(mapping.key,)}
            else:
                t = generators[0]
                coset = {(t.key, mapping.compose(s).key) for s in cyclic[t.key].values()}
            owner = [i for i, (keys, _) in enumerate(computed) if keys in coset]
            assert len(owner) == 1
            owners.add(owner[0])
            shared = computed[owner[0]][1]
            fresh = group_closure([LinearMap(g.field, g.m, g.rows) for g in generators],
                                  cap=5000)
            assert shared.complete == fresh.complete
            if not fresh.complete:
                assert id(shared) not in walked
                continue
            assert shared.order == fresh.order
            try:
                keys = frozenset(orbit(fresh, seed, cap=500))
            except CapExceeded:
                keys = None
            assert walked[id(shared)] == keys
    assert owners == set(range(len(computed)))
    assert outcome.results
    for res in outcome.results:
        keys = tuple(g.key for g in res.group.generators)
        assert any(group is res.group and k == keys for k, group in computed)
        assert res.transition is res.group.generators[-1]
        assert walked[id(res.group)] == frozenset(res.states.collections)
