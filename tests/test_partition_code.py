"""Tests for the partition model, its 56-state code and its symmetries."""

from __future__ import annotations

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frcodes import partition_code
from frcodes.gf import GF
from frcodes.groupsearch import LinearMap, orbit, orbit_code
from frcodes.partition_code import (
    _clique_search,
    _general_linear_generators,
    _plane_permutations,
    _plane_tables,
    _plane_zero_stabilizer_generators,
    build_partition,
    canonical_seed_state,
    code_states,
    compose_semilinear,
    enumerate_semilinear,
    label_action,
    max_collection_size,
    maximum_collections,
    partition_params,
    repair_label,
    semilinear_map,
    symmetry_group,
    unique_maximum_collection,
)
from frcodes.storage import RepairingCollection
from frcodes.subspace import full_space, span, standard_basis_vector, subspaces

F2 = GF(2)
F8 = GF(2, 3)


@pytest.fixture(scope="module")
def plane_tables(partition_model):
    return _plane_tables(partition_model)


@pytest.fixture(scope="module")
def maximum_witnesses(partition_model):
    """Every maximum family, from the exhaustive search without symmetry."""
    return maximum_collections(partition_model)


def _packed(v):
    return sum(1 << j for j, x in enumerate(v) if x)


def test_build_partition_shapes(partition_model):
    model = partition_model
    assert model.plane == (0, 2, 4, 6)
    assert model.member(0) == span(F2, 5, [standard_basis_vector(5, 3),
                                           standard_basis_vector(5, 4)])
    assert model.field_block == span(F2, 5, [standard_basis_vector(5, i)
                                             for i in range(3)])
    assert len(model.members) == 8
    for b in range(8):
        assert model.member(b).dim == 2
        assert model.label(model.member(b)) == b
    with pytest.raises(ValueError):
        model.member(8)
    with pytest.raises(ValueError):
        model.label(model.field_block)


def test_partition_covers_every_vector_once(partition_model):
    model = partition_model
    seen = {}
    for v in model.field_block.vectors():
        if any(v):
            seen[tuple(v)] = "field block"
    assert len(seen) == 7
    for b in range(8):
        count = 0
        for v in model.member(b).vectors():
            if any(v):
                assert tuple(v) not in seen
                seen[tuple(v)] = b
                count += 1
        assert count == 3
    universe = {tuple(v) for v in full_space(F2, 5).vectors() if any(v)}
    assert set(seen) == universe


def test_pairwise_trivial_and_triples_span(partition_model):
    model = partition_model
    pairs = list(itertools.combinations(model.members, 2))
    assert len(pairs) == 28
    for a, b in pairs:
        assert (a & b).dim == 0
    triples = list(itertools.combinations(model.members, 3))
    assert len(triples) == 56
    for a, b, c in triples:
        assert (a + b + c).dim == 5


def test_vector_embedding_roundtrip(partition_model):
    model = partition_model
    for w in range(8):
        for u in model.plane:
            vec = model.vector_of(w, u)
            assert model.parts_of(vec) == (w, u)
    with pytest.raises(ValueError):
        model.vector_of(1, 1)
    with pytest.raises(ValueError):
        model.parts_of((1, 0, 0))


def test_repair_label_worked_case():
    # for labels 0, 1 and the generator the products sum to the
    # generator itself, whose square root is its fourth power
    label = repair_label(0, 1, 2)
    assert label == 6
    assert F8.mul(label, label) == 2
    assert repair_label(1, 0, 2) == label
    assert repair_label(2, 1, 0) == label


def test_repair_label_exhaustive():
    for b, g, d in itertools.combinations(range(8), 3):
        label = repair_label(b, g, d)
        total = F8.add(F8.add(F8.mul(b, g), F8.mul(b, d)), F8.mul(g, d))
        assert F8.mul(label, label) == total
        assert label not in (b, g, d)
        for perm in itertools.permutations((b, g, d)):
            assert repair_label(*perm) == label
    with pytest.raises(ValueError):
        repair_label(1, 1, 2)
    with pytest.raises(ValueError):
        repair_label(0, 1, 8)


def test_code_states(partition_model, partition_states):
    model = partition_model
    states = partition_states
    assert len(states) == 56
    assert states.verified
    assert states.report.full
    for check in states.report.checks:
        assert check.spanning_ok
        assert len(check.valid_newcomers) == 1
    for b, g, d in itertools.combinations(range(8), 3):
        collection = RepairingCollection([model.member(b), model.member(g),
                                          model.member(d)])
        expected = model.member(repair_label(b, g, d))
        assert states.transitions[collection.key] == (expected,)
        witness = states.witnesses[collection.key]
        assert witness.newcomer == expected
        assert all(w.dim == 1 for w in witness.witness.repair_spaces)


def test_canonical_seed_state(partition_model):
    collection, newcomer = canonical_seed_state(partition_model)
    labels = sorted(partition_model.label(u) for u in collection.spaces)
    assert labels == [0, 1, 2]
    assert partition_model.label(newcomer) == 6


def test_semilinear_identity(partition_model):
    assert semilinear_map(1, 0, 0, partition_model) == LinearMap.identity(F2, 5)
    with pytest.raises(ValueError):
        semilinear_map(0, 3, 1, partition_model)
    assert semilinear_map(3, 5, 3, partition_model) == \
        semilinear_map(3, 5, 0, partition_model)


def test_semilinear_action_exhaustive(partition_model):
    model = partition_model
    pairs = enumerate_semilinear(model)
    assert len(pairs) == 168
    assert len({mapping.key for _, mapping in pairs}) == 168
    for (a, b, i), mapping in pairs:
        for beta in range(8):
            assert mapping.apply(model.member(beta)) == \
                model.member(label_action(a, b, i, beta))


def test_semilinear_composition_exhaustive(partition_model):
    model = partition_model
    pairs = enumerate_semilinear(model)
    by_params = {params: mapping for params, mapping in pairs}
    for (g, inner), (h, outer) in itertools.product(pairs, repeat=2):
        assert outer.compose(inner) == by_params[compose_semilinear(h, g)]
    with pytest.raises(ValueError):
        compose_semilinear((0, 1, 0), (1, 1, 0))
    with pytest.raises(ValueError):
        label_action(0, 1, 0, 3)


def test_label_transport(partition_model):
    # moving a whole state by a symmetry transports the newcomer label
    # by the same label map
    pairs = enumerate_semilinear(partition_model)
    for (a, b, i), _ in pairs:
        for bl, gl, dl in itertools.combinations(range(8), 3):
            moved = repair_label(label_action(a, b, i, bl),
                                 label_action(a, b, i, gl),
                                 label_action(a, b, i, dl))
            assert moved == label_action(a, b, i, repair_label(bl, gl, dl))


def test_symmetry_group(partition_model, partition_states, list_group):
    group = symmetry_group(partition_model)
    assert group.complete
    assert group.order == 168
    assert set(list_group(group)) == \
        {mapping.key for _, mapping in enumerate_semilinear(partition_model)}
    collection, _ = canonical_seed_state(partition_model)
    states = orbit_code(group, orbit(group, collection), partition_params())
    assert {c.key for c in states} == {c.key for c in partition_states}


def test_max_collection_size(partition_model):
    assert max_collection_size(partition_model) == 8


def test_max_collection_size_rejects_repeated_member(partition_model):
    members = partition_model.members
    broken = dataclasses.replace(partition_model, members=members[:7] + members[:1])
    with pytest.raises(RuntimeError, match="meet pairwise trivially"):
        max_collection_size(broken)


def test_max_collection_size_checks_transitivity(partition_model, monkeypatch):
    # the cycle alone moves plane 0 through at most five planes, so the
    # search through plane 0 would no longer stand for every plane
    generators = _general_linear_generators(partition_model)
    monkeypatch.setattr(partition_code, "_general_linear_generators",
                        lambda model: generators[:1])
    with pytest.raises(RuntimeError, match="transitive"):
        max_collection_size(partition_model)


def test_max_collection_size_checks_stabilizer_transitivity(partition_model, monkeypatch):
    # without the shear e2 -> e2 + e0 the maps keep span(e2, e3, e4)
    # and reach only 42 of the 112 planes disjoint from plane 0
    generators = _plane_zero_stabilizer_generators(partition_model)
    monkeypatch.setattr(partition_code, "_plane_zero_stabilizer_generators",
                        lambda model: generators[:-1])
    with pytest.raises(RuntimeError, match="transitive on the planes disjoint"):
        max_collection_size(partition_model)


def test_max_collection_size_checks_stabilizer_fixes_plane_zero(partition_model,
                                                                monkeypatch):
    # the cycle of GL(5, 2) moves plane 0, so it is no stabilizer generator
    generators = _plane_zero_stabilizer_generators(partition_model)
    cycle = _general_linear_generators(partition_model)[0]
    monkeypatch.setattr(partition_code, "_plane_zero_stabilizer_generators",
                        lambda model: generators[:-1] + [cycle])
    with pytest.raises(RuntimeError, match="fixes plane 0"):
        max_collection_size(partition_model)


def test_plane_tables_against_subspace_arithmetic(plane_tables):
    tables = plane_tables
    planes = tables.planes
    assert len(planes) == 155
    assert [p.key for p in planes] == sorted(p.key for p in planes)
    for x, plane in enumerate(planes):
        mask = sum(1 << _packed(v) for v in plane.vectors() if any(v))
        assert tables.index[mask] == x
        assert not tables.disjoint[x] >> x & 1
    for x, y in itertools.combinations(range(len(planes)), 2):
        trivial = (planes[x] & planes[y]).dim == 0
        assert bool(tables.disjoint[x] >> y & 1) == trivial
        assert bool(tables.disjoint[y] >> x & 1) == trivial
        if not trivial:
            assert tables.outside[x][y] == tables.outside[y][x] == 0
    pairs = [(x, y) for x in range(len(planes)) for y in range(len(planes))
             if tables.disjoint[x] >> y & 1]
    assert len(pairs) == 155 * 112
    for x, y in random.Random(1307).sample(pairs, 200):
        pair_span = planes[x] + planes[y]
        for d, plane in enumerate(planes):
            spans = (pair_span + plane).dim == 5
            assert bool(tables.outside[x][y] >> d & 1) == spans


def test_plane_permutations_match_linear_maps(partition_model, plane_tables):
    planes = plane_tables.planes
    index = {p.key: x for x, p in enumerate(planes)}
    generators = _general_linear_generators(partition_model)
    perms = _plane_permutations(plane_tables, generators)
    assert len(perms) == len(generators)
    for g, perm in zip(generators, perms):
        assert sorted(perm) == list(range(len(planes)))
        assert list(perm) == [index[g.apply(p).key] for p in planes]


def test_stabilizer_generators_fix_plane_zero(partition_model, plane_tables):
    planes = plane_tables.planes
    index = {p.key: x for x, p in enumerate(planes)}
    assert planes[0] == span(F2, 5, [standard_basis_vector(5, 0),
                                     standard_basis_vector(5, 1)])
    generators = _plane_zero_stabilizer_generators(partition_model)
    perms = _plane_permutations(plane_tables, generators)
    assert len(perms) == len(generators) == 5
    for g, perm in zip(generators, perms):
        assert list(perm) == [index[g.apply(p).key] for p in planes]
        assert g.apply(planes[0]) == planes[0]
        assert perm[0] == 0


def test_graph_family_is_not_extendable(partition_model):
    members = partition_model.members
    for a, b in itertools.combinations(members, 2):
        assert (a & b).dim == 0
    for a, b, c in itertools.combinations(members, 3):
        assert (a + b + c).dim == 5
    keys = {u.key for u in members}
    outsiders = [p for p in subspaces(F2, 5, 2) if p.key not in keys]
    assert len(outsiders) == 155 - 8
    for p in outsiders:
        meets = any((p & a).dim > 0 for a in members)
        inside = any((a + b + p).dim < 5
                     for a, b in itertools.combinations(members, 2))
        assert meets or inside


def test_fixed_plane_search_matches_exhaustive(plane_tables, maximum_witnesses):
    best, through_zero, _ = _clique_search(plane_tables, collect_all=True, fixed=(0,))
    assert best == 8
    keyed = {tuple(sorted(plane_tables.planes[x].key for x in w))
             for w in through_zero}
    zero = plane_tables.planes[0].key
    assert len(through_zero) == len(keyed) == 3072
    assert keyed == {w for w in maximum_witnesses if zero in w}
    # each family has 8 planes and each plane lies in equally many
    # families, so the count through one plane fixes the total
    assert 3072 * 155 == len(maximum_witnesses) * 8
    # plane 10 is the first plane disjoint from plane 0; each family
    # holds 28 pairs, spread evenly over the 8680 disjoint pairs
    disjoint = plane_tables.disjoint[0]
    assert (disjoint & -disjoint).bit_length() - 1 == 10
    best, through_both, _ = _clique_search(plane_tables, collect_all=True, fixed=(0, 10))
    assert best == 8
    keyed = {tuple(sorted(plane_tables.planes[x].key for x in w))
             for w in through_both}
    ten = plane_tables.planes[10].key
    assert len(through_both) == len(keyed) == 192
    assert keyed == {w for w in maximum_witnesses if zero in w and ten in w}
    assert 192 * 8680 == len(maximum_witnesses) * 28


def test_clique_search_node_counts(plane_tables):
    # the work count of the maximality search, by planes fixed
    for fixed, count in [((0,), 158200), ((0, 10), 6457)]:
        best, _, nodes = _clique_search(plane_tables, collect_all=False, fixed=fixed)
        assert (best, nodes) == (8, count)


@settings(max_examples=25, deadline=None)
@given(word=st.lists(st.integers(0, 1), max_size=40))
def test_linear_images_of_graph_family_are_maximum(partition_model, plane_tables,
                                                   maximum_witnesses, word):
    generators = _general_linear_generators(partition_model)
    family = list(partition_model.members)
    for letter in word:
        family = [generators[letter].apply(u) for u in family]
    index = {p.key: x for x, p in enumerate(plane_tables.planes)}
    image = [index[u.key] for u in family]
    assert len(set(image)) == 8
    for i, x in enumerate(image):
        for j, y in enumerate(image[:i]):
            assert plane_tables.disjoint[x] >> y & 1
            for z in image[:j]:
                assert plane_tables.outside[x][y] >> z & 1
    assert tuple(sorted(u.key for u in family)) in maximum_witnesses


def test_unique_maximum_collection(partition_model, maximum_witnesses):
    witnesses = maximum_witnesses
    assert len(witnesses) == 59520
    canonical = tuple(sorted(u.key for u in partition_model.members))
    assert canonical in witnesses
    assert unique_maximum_collection(partition_model, witnesses=witnesses)
    # the stabilizer of the family inside the full linear group has
    # exactly the symmetry group's order
    general_linear_order = 1
    for i in range(5):
        general_linear_order *= 2**5 - 2**i
    assert general_linear_order == 9999360
    assert len(witnesses) * 168 == general_linear_order


def test_unique_maximum_collection_orbit_cap(partition_model):
    with pytest.raises(RuntimeError, match="orbit exceeded 100 families"):
        unique_maximum_collection(partition_model, orbit_cap=100, witnesses=())
