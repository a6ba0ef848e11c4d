"""Tests for the partition model, its 56-state code and its symmetries."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frcodes import partition_code
from frcodes.fsc import emit_fsc, states_to_document
from frcodes.gf import GF
from frcodes.groupsearch import GROUP_CAP, GroupClosure, group_closure, orbit, orbit_code
from frcodes.partition_code import (
    _STABILIZER_CHAIN,
    _clique_search,
    _extensions,
    _orbit,
    _outside,
    _plane_permutations,
    _plane_tables,
    _symmetry_generators,
    build_partition,
    canonical_seed_state,
    code_states,
    max_collection_size,
    partition_params,
    repair_label,
)
from frcodes.storage import RepairingCollection, StateSet, _check_collection
from frcodes.subspace import full_space, span, standard_basis_vector, subspaces
from oracles import (
    basis_image_map,
    compose_semilinear,
    enumerate_semilinear,
    identity_map,
    label_action,
    label_of,
    maximum_collections,
    member_of,
    parts_of,
    semilinear_map,
    symmetry_group,
    vector_of,
)

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
    assert member_of(model, 0) == span(F2, 5, [standard_basis_vector(5, 3),
                                           standard_basis_vector(5, 4)])
    assert model.field_block == span(F2, 5, [standard_basis_vector(5, i)
                                             for i in range(3)])
    assert len(model.members) == 8
    for b in range(8):
        assert member_of(model, b).dim == 2
        assert label_of(model, member_of(model, b)) == b
    with pytest.raises(ValueError):
        member_of(model, 8)
    with pytest.raises(ValueError):
        label_of(model, model.field_block)


def test_partition_covers_every_vector_once(partition_model):
    model = partition_model
    seen = {}
    for v in model.field_block.vectors():
        if any(v):
            seen[tuple(v)] = "field block"
    assert len(seen) == 7
    for b in range(8):
        count = 0
        for v in member_of(model, b).vectors():
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
            vec = vector_of(model, w, u)
            assert parts_of(model, vec) == (w, u)
    with pytest.raises(ValueError):
        vector_of(model, 1, 1)
    with pytest.raises(ValueError):
        parts_of(model, (1, 0, 0))


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
        collection = RepairingCollection([member_of(model, b), member_of(model, g),
                                          member_of(model, d)])
        expected = member_of(model, repair_label(b, g, d))
        assert states.transitions[collection.key] == (expected,)
        witness = states.witnesses[collection.key]
        assert witness.newcomer == expected
        assert all(w.dim == 1 for w in witness.witness.repair_spaces)


def test_code_states_matches_the_full_check_of_every_collection(partition_model,
                                                                partition_states):
    # the oracle: the full all-newcomers repair check of each of the 56
    # collections, with no symmetry argument
    model = partition_model
    full = StateSet(partition_params(),
                    [RepairingCollection([model.members[b], model.members[g],
                                          model.members[d]])
                     for b, g, d in itertools.combinations(range(8), 3)])
    report = full.verify(all_newcomers=True)
    states = partition_states
    assert set(states.collections) == set(full.collections)
    assert states.transitions == full.transitions
    assert states.witnesses.keys() == full.witnesses.keys()
    for key, state in full.witnesses.items():
        assert states.witnesses[key].newcomer == state.newcomer
        assert states.witnesses[key].witness == state.witness
    assert states.report.render() == report.render()
    assert emit_fsc(states_to_document(states)) == emit_fsc(states_to_document(full))


def test_symmetry_generators_are_the_semilinear_maps(partition_model):
    alpha = partition_model.field8.generator
    assert _symmetry_generators(partition_model) == [
        semilinear_map(alpha, 0, 0, partition_model),
        semilinear_map(1, 1, 0, partition_model),
        semilinear_map(1, 0, 1, partition_model)]


# the cycle e0 -> e1 -> ... -> e4 -> e0 of GL(5, 2), which moves plane 0
_CYCLE = _STABILIZER_CHAIN[0][0]


def _odd_seed(model):
    # two graph spaces and the field block: every generator fixes the
    # block, so the orbit is that of the 28 pairs of graph spaces
    return (RepairingCollection([model.members[0], model.members[1], model.field_block]),
            model.members[6])


def _no_valid_newcomer(states, collection, all_newcomers=False):
    return _check_collection(states, collection, all_newcomers)._replace(valid_newcomers=())


CODE_STATE_FAULTS = {
    # the cycle sends the graph of 0, span(e3, e4), to span(e4, e0),
    # which meets the field block
    "generator off the family": (
        "_symmetry_generators",
        lambda model: _symmetry_generators(model) + [basis_image_map(_CYCLE)],
        "permutes the graph spaces"),
    # the shift alone generates the 8 translations x -> x + b, whose
    # orbit through the seed has fewer than 56 states; the order check
    # sees the group is too small before the orbit is walked
    "shift only": ("_symmetry_generators",
                   lambda model: _symmetry_generators(model)[1:2], "order 168"),
    "seed of 28": ("canonical_seed_state", _odd_seed, "has 56 collections"),
    "no seed newcomer": ("_check_collection", _no_valid_newcomer,
                         "seed's only valid newcomer"),
}


@pytest.mark.parametrize("name,replacement,message", CODE_STATE_FAULTS.values(),
                         ids=CODE_STATE_FAULTS.keys())
def test_code_states_checks_the_orbit_argument(partition_model, monkeypatch,
                                               name, replacement, message):
    monkeypatch.setattr(partition_code, name, replacement)
    with pytest.raises(RuntimeError, match=message):
        code_states(partition_model)


def test_code_states_checks_the_label_rule(partition_model):
    # swapping two graph spaces keeps the group, the orbit and the seed,
    # but the newcomers no longer carry the labels of the rule
    members = list(partition_model.members)
    members[3], members[5] = members[5], members[3]
    with pytest.raises(RuntimeError, match="graph of its repair label"):
        code_states(partition_model._replace(members=tuple(members)))


def test_canonical_seed_state(partition_model):
    collection, newcomer = canonical_seed_state(partition_model)
    labels = sorted(label_of(partition_model, u) for u in collection.spaces)
    assert labels == [0, 1, 2]
    assert label_of(partition_model, newcomer) == 6


def test_semilinear_identity(partition_model):
    assert semilinear_map(1, 0, 0, partition_model) == identity_map(F2, 5)
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
            assert mapping.apply(member_of(model, beta)) == \
                member_of(model, label_action(a, b, i, beta))


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
    broken = partition_model._replace(members=members[:7] + members[:1])
    with pytest.raises(RuntimeError, match="meet pairwise trivially"):
        max_collection_size(broken)


def _with_level(level, generators):
    chain = list(_STABILIZER_CHAIN)
    chain[level] = generators
    return tuple(chain)


CHAIN_FAULTS = {
    # the cycle alone moves plane 0 through at most five planes, so the
    # search through plane 0 would no longer stand for every plane
    "no GL shear": (_with_level(0, _STABILIZER_CHAIN[0][:-1]),
                    r"planes \[\] is transitive"),
    # without the shear e2 -> e2 + e0 the maps keep span(e2, e3, e4)
    # and reach only 42 of the 112 planes disjoint from plane 0
    "no plane-0 shear": (_with_level(1, _STABILIZER_CHAIN[1][:-1]),
                         r"planes \[0\] is transitive"),
    # without the shear c -> c + b0 the maps keep span(a0, a1, c) =
    # span(e0, e1, e2) and reach only 36 of the 72 planes that extend
    # planes 0 and 10
    "no pair shear": (_with_level(2, _STABILIZER_CHAIN[2][:-1]),
                      r"planes \[0, 10\] is transitive"),
    "cycle fixing plane 0": (_with_level(1, _STABILIZER_CHAIN[1] + (_CYCLE,)),
                             r"planes \[0\] fixes them"),
    "cycle fixing the pair": (_with_level(2, _STABILIZER_CHAIN[2] + (_CYCLE,)),
                              r"planes \[0, 10\] fixes them"),
    # e0, e1 -> e0 has rank 4: it sends plane 0 to a line
    "singular": (_with_level(0, _STABILIZER_CHAIN[0] + (((0,), (0,), (2,), (3,), (4,)),)),
                 r"planes \[\] is invertible"),
}


@pytest.mark.parametrize("chain,message", CHAIN_FAULTS.values(), ids=CHAIN_FAULTS.keys())
def test_max_collection_size_checks_each_chain_level(partition_model, monkeypatch,
                                                     chain, message):
    monkeypatch.setattr(partition_code, "_STABILIZER_CHAIN", chain)
    with pytest.raises(RuntimeError, match=message):
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
            assert _outside(tables, x, y) == _outside(tables, y, x) == 0
    pairs = [(x, y) for x in range(len(planes)) for y in range(len(planes))
             if tables.disjoint[x] >> y & 1]
    assert len(pairs) == 155 * 112
    for x, y in random.Random(1307).sample(pairs, 200):
        pair_span = planes[x] + planes[y]
        for d, plane in enumerate(planes):
            spans = (pair_span + plane).dim == 5
            assert bool(_outside(tables, x, y) >> d & 1) == spans


def test_plane_permutations_of_a_singular_map(plane_tables):
    # e0, e1 -> e0 kills e0 + e1, point 3, so exactly the 15 planes
    # through it have no plane as image
    perm, = _plane_permutations(plane_tables, [((0,), (0,), (2,), (3,), (4,))])
    through = {x for x, (a, b) in enumerate(plane_tables.bases) if 3 in (a, b, a ^ b)}
    assert len(through) == 15
    assert {x for x, y in enumerate(perm) if y is None} == through


def test_maximality_proof_runs_on_tuple_rows(plane_tables, tuple_rows):
    # the proof reads spaces only through their public rows, so a model
    # whose spaces hold tuple rows gives the same tables, and its plane
    # permutations agree with the linear maps on tuple rows
    generators = [images for level in _STABILIZER_CHAIN for images in level]
    with tuple_rows(F2):
        model = build_partition()
        assert max_collection_size(model) == 8
        tables = _plane_tables(model)
        index = {p.key: x for x, p in enumerate(tables.planes)}
        images = [[index[basis_image_map(g).apply(p).key] for p in tables.planes]
                  for g in generators]
    assert [p.key for p in tables.planes] == [p.key for p in plane_tables.planes]
    for name in ("bases", "index", "disjoint", "hyperplanes", "rest"):
        assert getattr(tables, name) == getattr(plane_tables, name)
    assert [list(perm) for perm in _plane_permutations(plane_tables, generators)] == images


@pytest.mark.parametrize("level,fixed,order", [(0, (), 9_999_360), (1, (0,), 64_512),
                                               (2, (0, 10), 576)])
def test_stabilizer_chain_level(plane_tables, level, fixed, order):
    # each level's maps fix the planes chosen before it, their group has
    # the order of the stabilizer, and it is transitive on the planes
    # that extend those planes, whose first is the next plane chosen:
    # orbit-stabilizer gives 9999360 = 155 * 64512 and 64512 = 112 * 576
    planes = plane_tables.planes
    index = {p.key: x for x, p in enumerate(planes)}
    assert planes[0] == span(F2, 5, [standard_basis_vector(5, 0),
                                     standard_basis_vector(5, 1)])
    assert planes[10] == span(F2, 5, [(1, 0, 0, 0, 1), (0, 1, 0, 1, 0)])
    generators = [basis_image_map(images) for images in _STABILIZER_CHAIN[level]]
    perms = _plane_permutations(plane_tables, _STABILIZER_CHAIN[level])
    for g, perm in zip(generators, perms):
        assert list(perm) == [index[g.apply(p).key] for p in planes]
        assert all(g.apply(planes[x]) == planes[x] for x in fixed)
    closure = group_closure(generators, cap=order)
    assert closure.complete and closure.order == order
    assert not group_closure(generators, cap=order - 1).complete
    extending = _extensions(plane_tables, fixed)
    assert {x for x in range(len(planes)) if extending >> x & 1} == {
        x for x, d in enumerate(planes)
        if all((d & planes[f]).dim == 0 for f in fixed)
        and all((planes[f] + planes[g] + d).dim == 5
                for f, g in itertools.combinations(fixed, 2))}
    count = extending.bit_count()
    assert count == (155, 112, 72)[level]
    assert order == count * (64_512, 576, 8)[level]
    start = (extending & -extending).bit_length() - 1
    assert start == (0, 10, 20)[level]
    assert _orbit(start, perms) == extending


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


def test_fixed_triple_search_matches_exhaustive(plane_tables, maximum_witnesses):
    best, through_three, _ = _clique_search(plane_tables, collect_all=True,
                                            fixed=(0, 10, 20))
    assert best == 8
    keys = [plane_tables.planes[x].key for x in (0, 10, 20)]
    keyed = {tuple(sorted(plane_tables.planes[x].key for x in w))
             for w in through_three}
    assert len(through_three) == len(keyed) == 16
    assert keyed == {w for w in maximum_witnesses if all(k in w for k in keys)}
    # each of the 192 families through planes 0 and 10 holds 6 of the 72
    # planes that extend them, and each of those lies in equally many
    assert _extensions(plane_tables, (0, 10)).bit_count() == 72
    assert 16 * 72 == 192 * 6


def test_clique_search_node_counts(plane_tables):
    # the work count of the maximality search, by planes fixed
    for fixed, count in [((0,), 158200), ((0, 10), 6457), ((0, 10, 20), 342)]:
        best, _, nodes = _clique_search(plane_tables, collect_all=False, fixed=fixed)
        assert (best, nodes) == (8, count)


@settings(max_examples=25, deadline=None)
@given(word=st.lists(st.integers(0, 1), max_size=40))
def test_linear_images_of_graph_family_are_maximum(partition_model, plane_tables,
                                                   maximum_witnesses, word):
    generators = [basis_image_map(images) for images in _STABILIZER_CHAIN[0]]
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
                assert _outside(plane_tables, x, y) >> z & 1
    assert tuple(sorted(u.key for u in family)) in maximum_witnesses


def test_unique_maximum_collection(partition_model, maximum_witnesses):
    witnesses = maximum_witnesses
    assert len(witnesses) == 59520
    canonical = tuple(sorted(u.key for u in partition_model.members))
    assert canonical in witnesses
    # they are exactly the images of the graph family under GL(5, 2),
    # walked as collections; the group order is not needed
    group = GroupClosure([basis_image_map(images) for images in _STABILIZER_CHAIN[0]],
                         None, GROUP_CAP)
    walked = orbit(group, RepairingCollection(partition_model.members), cap=10**5)
    assert set(walked) == set(witnesses)
    # the stabilizer of the family inside the full linear group has
    # exactly the symmetry group's order
    general_linear_order = 1
    for i in range(5):
        general_linear_order *= 2**5 - 2**i
    assert general_linear_order == 9999360
    assert len(witnesses) * 168 == general_linear_order
