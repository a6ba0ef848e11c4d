"""Tests for the storage model: collections, obtainability, repair checks."""

from __future__ import annotations

import itertools
import pathlib
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frcodes import storage
from frcodes.family import construct_good, family_state_space, random_walk
from frcodes.fsc import document_to_states, parse_fsc
from frcodes.gf import GF
from frcodes.storage import (
    ClosureError,
    CodeParams,
    RepairWitness,
    RepairingCollection,
    StateSet,
    _check_collection,
    _short_hash,
    check_repair_property,
    find_repair_witness,
    is_recovery_set,
    iter_obtainable,
    reachable_closure,
    valid_newcomers,
)
from frcodes.subspace import (
    CapExceeded,
    Subspace,
    _echelon_space,
    full_space,
    span,
    subspaces,
    zero_subspace,
)
from oracles import (all_valid_newcomers, exact_to_states, recovery_dimension,
                     recovery_set_by_sums, slice_sums)


def test_params_validation():
    CodeParams(m=4, n=4, k=2, r=3, alpha=2, beta=1, q=2)
    bad = [
        dict(m=0, n=4, k=2, r=3, alpha=2, beta=1, q=2),
        dict(m=4, n=1, k=1, r=1, alpha=2, beta=1, q=2),
        dict(m=4, n=4, k=5, r=3, alpha=2, beta=1, q=2),
        dict(m=4, n=4, k=2, r=4, alpha=2, beta=1, q=2),
        dict(m=4, n=4, k=2, r=3, alpha=5, beta=1, q=2),
        dict(m=4, n=4, k=2, r=3, alpha=2, beta=3, q=2),
        dict(m=4, n=4, k=2, r=3, alpha=2, beta=1, q=1),
    ]
    for kwargs in bad:
        with pytest.raises(ValueError):
            CodeParams(**kwargs)
    with pytest.raises(ValueError, match=re.escape(
            "invalid parameters CodeParams(m=0, n=4, k=2, r=3, alpha=2, beta=1, q=2): "
            "m must be positive")):
        CodeParams(0, 4, 2, 3, 2, 1, 2)


def test_params_have_no_unchecked_copy():
    # a NamedTuple's _replace or _make, or copy.replace's __replace__,
    # would build parameters without the checks
    params = CodeParams(m=4, n=4, k=2, r=3, alpha=2, beta=1, q=2)
    for name in ("_replace", "_make", "__replace__"):
        assert not hasattr(params, name)
    assert params == CodeParams(4, 4, 2, 3, 2, 1, 2)
    assert hash(params) == hash((4, 4, 2, 3, 2, 1, 2))


def test_params_rate(exact_code_spaces, functional_triple):
    params, _ = exact_code_spaces
    assert Fraction(params.m, params.n * params.alpha) == Fraction(1, 2)
    params5, _ = functional_triple
    assert Fraction(params5.m, params5.n * params5.alpha) == Fraction(5, 8)


def test_collection_is_sorted_multiset(exact_code_spaces):
    _, spaces = exact_code_spaces
    a = RepairingCollection([spaces[2], spaces[0], spaces[1]])
    b = RepairingCollection([spaces[1], spaces[2], spaces[0]])
    assert a == b
    assert a.key == b.key
    assert hash(a) == hash(b)
    assert list(a.spaces) == sorted(a.spaces, key=lambda s: s.key)
    # duplicates are kept, not collapsed
    c = RepairingCollection([spaces[0], spaces[0], spaces[1]])
    assert len(c) == 3
    assert c != RepairingCollection([spaces[0], spaces[1]])


def test_collection_rejects_mixed_members():
    field = GF(2)
    u = span(field, 4, [(1, 0, 0, 0)])
    v = span(field, 5, [(1, 0, 0, 0, 0)])
    w = span(GF(3), 4, [(1, 0, 0, 0)])
    with pytest.raises(ValueError):
        RepairingCollection([u, v])
    with pytest.raises(ValueError):
        RepairingCollection([u, w])
    with pytest.raises(ValueError):
        RepairingCollection([])


def test_collection_replace(exact_code_spaces):
    _, spaces = exact_code_spaces
    c = RepairingCollection(spaces[1:])
    for i in range(3):
        replaced = c.replace(i, spaces[0])
        assert spaces[0] in replaced.spaces
        assert len(replaced) == 3
        assert list(replaced.spaces) == sorted(replaced.spaces, key=lambda s: s.key)


def test_recovery_any_two_nodes(exact_code_spaces):
    params, spaces = exact_code_spaces
    for pair in itertools.combinations(spaces, 2):
        assert is_recovery_set(list(pair), params.m)
    for s in spaces:
        assert not is_recovery_set([s], params.m)
    assert recovery_dimension(spaces, params.m) == 2


def test_recovery_errors():
    field = GF(2)
    u = span(field, 4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    with pytest.raises(ValueError):
        is_recovery_set([u], 5)
    with pytest.raises(ValueError):
        recovery_dimension([u], 4)
    assert is_recovery_set([], 0)
    assert not is_recovery_set([], 3)
    # mixed spaces raise even after the first ones span
    with pytest.raises(ValueError):
        is_recovery_set([full_space(field, 4), span(field, 5, [(1, 0, 0, 0, 0)])], 4)
    with pytest.raises(ValueError):
        is_recovery_set([full_space(field, 2), full_space(GF(3), 2)], 2)


@st.composite
def _space_lists(draw):
    field = draw(st.sampled_from([GF(2), GF(3), GF(2, 2)]))
    m = draw(st.integers(0, 4))
    vector = st.tuples(*[st.integers(0, field.q - 1)] * m)
    space = st.lists(vector, max_size=m).map(lambda rows: span(field, m, rows))
    pool = draw(st.lists(space, min_size=1, max_size=4))
    # members drawn from a small pool, so some repeat
    return draw(st.lists(st.sampled_from(pool), max_size=4)), m


@settings(max_examples=200, deadline=None)
@given(_space_lists())
def test_recovery_set_matches_sums(case):
    spaces, m = case
    assert is_recovery_set(spaces, m) == recovery_set_by_sums(spaces, m)


def test_obtainable_from_identical_members():
    # all helpers expose the same full space, so the newcomer is forced
    field = GF(2)
    u = span(field, 3, [(1, 0, 0), (0, 1, 0)])
    params = CodeParams(m=3, n=4, k=2, r=3, alpha=2, beta=2, q=2)
    c = RepairingCollection([u, u, u])
    assert {cand for cand, _ in iter_obtainable(c, params)} == {u}


def test_obtainable_contains_documented_newcomer(functional_triple):
    params, spaces = functional_triple
    field = GF(2)
    c = RepairingCollection(spaces)
    # downloading the unit vector from each node lets the newcomer store
    # the pairwise sums e0+e1 and e0+e2
    target = span(field, 5, [(1, 1, 0, 0, 0), (1, 0, 1, 0, 0)])
    assert target in {cand for cand, _ in iter_obtainable(c, params)}
    witness = find_repair_witness(c, target, params)
    assert witness is not None
    witness.verify(c, target, params)


def test_obtainable_matches_bruteforce(exact_code_spaces):
    # independent oracle: collect spans of vector pairs drawn from each
    # slice sum instead of using the subspace enumerator
    params, spaces = exact_code_spaces
    field = GF(2)
    c = RepairingCollection(spaces[1:])
    expected = set()
    one_dim = [list(s.subspaces(1)) for s in c.spaces]
    for ws in itertools.product(*one_dim):
        total = zero_subspace(field, 4)
        for w in ws:
            total = total + w
        vecs = [v for v in total.vectors() if any(v)]
        for u, v in itertools.combinations(vecs, 2):
            cand = span(field, 4, [u, v])
            if cand.dim == params.alpha:
                expected.add(cand)
    assert {cand for cand, _ in iter_obtainable(c, params)} == expected


def test_witness_verify_rejects_bad_proofs(functional_triple):
    params, spaces = functional_triple
    field = GF(2)
    c = RepairingCollection(spaces)
    target = span(field, 5, [(1, 1, 0, 0, 0), (1, 0, 1, 0, 0)])
    # a slice that is not inside its claimed helper
    outside = None
    for v in ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0)):
        if v not in c.spaces[0]:
            outside = span(field, 5, [v])
            break
    assert outside is not None
    inside = [next(iter(s.subspaces(1))) for s in c.spaces]
    bad = RepairWitness((0, 1, 2), (outside, inside[1], inside[2]))
    with pytest.raises(AssertionError):
        bad.verify(c, target, params)
    # wrong helper count
    short = RepairWitness((0, 1), (inside[0], inside[1]))
    with pytest.raises(AssertionError):
        short.verify(c, target, params)
    # newcomer outside the slice sum
    far = span(field, 5, [(0, 0, 0, 1, 0), (0, 0, 0, 0, 1)])
    full = RepairWitness((0, 1, 2), tuple(inside))
    with pytest.raises(AssertionError):
        full.verify(c, far, params)
    # a helper used twice, whose two slices are inside it and obtain it,
    # and a helper past the last member: r helpers must be distinct members
    slices = tuple(c.spaces[0].subspaces(1))[:2]
    assert slices[0] + slices[1] == c.spaces[0]
    twice = RepairWitness((0, 0, 2), slices + (inside[2],))
    with pytest.raises(AssertionError, match="distinct"):
        twice.verify(c, c.spaces[0], params)
    past = RepairWitness((0, 1, 3), tuple(inside))
    with pytest.raises(AssertionError, match="distinct"):
        past.verify(c, target, params)


def test_find_repair_witness_negative():
    # an isolated space cannot be repaired from helpers confined to a
    # complementary plane
    field = GF(2)
    params = CodeParams(m=4, n=4, k=2, r=3, alpha=2, beta=1, q=2)
    helpers = [
        span(field, 4, [(0, 0, 1, 0), (0, 0, 0, 1)]),
        span(field, 4, [(0, 0, 1, 0), (0, 0, 1, 1)]),
        span(field, 4, [(0, 0, 0, 1), (0, 0, 1, 1)]),
    ]
    c = RepairingCollection(helpers)
    isolated = span(field, 4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    assert find_repair_witness(c, isolated, params) is None
    # a target of another ambient space or field is an error, not a miss
    for other in (span(field, 5, [(1, 0, 0, 0, 0)]), span(GF(3), 4, [(1, 0, 0, 0)])):
        with pytest.raises(ValueError, match="mixed"):
            find_repair_witness(c, other, params)


def test_exact_code_verifies(exact_code_spaces):
    params, spaces = exact_code_spaces
    states = exact_to_states(spaces, params)
    assert len(states) == 4
    report = states.verify()
    assert report.ok
    assert states.verified
    # the only valid newcomer for each collection is the dropped space
    valid = all_valid_newcomers(states)
    for i, s in enumerate(spaces):
        rest = RepairingCollection([t for j, t in enumerate(spaces) if j != i])
        check = next(c for c in report.checks if c.collection == rest)
        assert valid[rest.key] == (s,)
        check.state.verify(params)
        assert check.state.newcomer == s


def test_exact_to_states_errors(exact_code_spaces):
    params, spaces = exact_code_spaces
    field = GF(2)
    with pytest.raises(ValueError):
        exact_to_states(spaces[:3], params)
    thin = [span(field, 4, [(1, 0, 0, 0)])] + spaces[1:]
    with pytest.raises(ValueError):
        exact_to_states(thin, params)
    plane = span(field, 4, [(0, 0, 1, 0), (0, 0, 0, 1)])
    confined = [
        span(field, 4, [(1, 0, 0, 0), (0, 1, 0, 0)]),
        plane,
        plane,
        span(field, 4, [(0, 0, 1, 0), (0, 0, 1, 1)]),
    ]
    with pytest.raises(ValueError):
        exact_to_states(confined, params)


def test_missing_collection_breaks_repair(exact_code_spaces):
    # dropping one of the four collections leaves the rest unrepairable
    params, spaces = exact_code_spaces
    full = exact_to_states(spaces, params)
    partial = StateSet(params, list(full)[:3])
    report = partial.verify()
    assert not report.ok
    assert report.failures
    for check in report.failures:
        assert check.spanning_ok
        assert check.reason == "no valid newcomer"
    assert "FAIL" in report.render()


def test_spanning_failure_reported():
    field = GF(2)
    params = CodeParams(m=4, n=4, k=2, r=3, alpha=2, beta=2, q=2)
    u = span(field, 4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    states = StateSet(params, [RepairingCollection([u, u, u])])
    report = states.verify()
    assert not report.ok
    assert report.failures[0].reason == "no spanning k-subset"
    # the newcomer search itself succeeds: replacing u by u changes nothing
    assert report.failures[0].state is not None


def test_report_render_success(exact_code_spaces):
    params, spaces = exact_code_spaces
    states = exact_to_states(spaces, params)
    assert states.verify().render() == "collections checked: 4\nverdict: repair property holds"


def test_collection_check_takes_a_hint(exact_code_spaces, monkeypatch):
    # a declared newcomer (StateSet.certificates) is checked, never
    # searched for: a good one is the certificate, and a bad one fails
    # the collection with a reason that names it
    params, spaces = exact_code_spaces
    exact = exact_to_states(spaces, params)
    rest = RepairingCollection(spaces[1:])
    plain = _check_collection(exact, rest)
    assert plain.ok and plain.state.newcomer == spaces[0]

    def no_search(*args, **kwargs):
        raise AssertionError("a declared newcomer was searched for")

    # neither an enumeration nor a listing of completions
    monkeypatch.setattr(storage, "iter_obtainable", no_search)
    monkeypatch.setattr(StateSet, "_completions", no_search)
    declared = StateSet(params, exact, {rest.key: spaces[0]})
    good = _check_collection(declared, rest)
    assert good.ok and good.state == plain.state
    good.state.verify(params)
    # a member and a plane whose replacements leave the set; dimension 1
    bad_hints = [spaces[1], span(GF(2), 4, [(1, 1, 1, 1)]),
                 span(GF(2), 4, [(1, 1, 0, 0), (0, 0, 1, 1)])]
    # with two helpers, a plane that no repair reaches
    two = CodeParams(m=4, n=4, k=2, r=2, alpha=2, beta=1, q=2)
    lone = next(u for u in subspaces(GF(2), 4, 2) if find_repair_witness(rest, u, two) is None)
    for set_params, bad in [(params, u) for u in bad_hints] + [(two, lone)]:
        check = _check_collection(StateSet(set_params, exact, {rest.key: bad}), rest)
        assert check.spanning_ok and check.state is None and not check.ok
        assert check.declared == bad
        assert check.reason == f"declared newcomer {_short_hash(bad.key)} does not check"
    # every valid newcomer is always searched for, declared or not
    with pytest.raises(AssertionError, match="searched"):
        valid_newcomers(declared, rest)


def test_valid_newcomers_cached_and_direct(exact_code_spaces):
    # the set keeps no cache of newcomers: the direct answer is the same
    # before and after verify, and the same as a plain set's
    params, spaces = exact_code_spaces
    rest = RepairingCollection(spaces[1:])
    states = exact_to_states(spaces, params)
    direct = valid_newcomers(states, rest)
    assert direct == (spaces[0],)
    assert states.verify().ok
    assert valid_newcomers(states, rest) == direct
    assert all_valid_newcomers(states)[rest.key] == direct


def test_stateset_membership(exact_code_spaces):
    params, spaces = exact_code_spaces
    states = exact_to_states(spaces, params)
    rest = RepairingCollection(spaces[1:])
    assert rest in states
    assert rest.key in states
    listed = list(states)
    assert [c.key for c in listed] == sorted(c.key for c in listed)
    with pytest.raises(ValueError):
        StateSet(params, [RepairingCollection(spaces[:2])])
    params5 = CodeParams(m=5, n=4, k=3, r=3, alpha=2, beta=1, q=2)
    with pytest.raises(ValueError):
        StateSet(params5, [rest])


def test_iter_obtainable_cap(exact_code_spaces, monkeypatch):
    params, spaces = exact_code_spaces
    c = RepairingCollection(spaces[1:])
    monkeypatch.setattr(storage, "OBTAINABLE_CAP", 5)
    with pytest.raises(CapExceeded):
        list(iter_obtainable(c, params))


def test_iter_obtainable_too_few_members(exact_code_spaces):
    params, spaces = exact_code_spaces
    c = RepairingCollection(spaces[1:3])
    with pytest.raises(ValueError):
        next(iter_obtainable(c, params))
    with pytest.raises(ValueError):
        find_repair_witness(c, spaces[0], params)


def test_iter_obtainable_cap_counts_distinct_candidates(monkeypatch):
    # the (3, 1, 2) seed has 183 (repair, candidate) pairs but only 105
    # distinct candidates, and the cap is on the distinct ones
    good = construct_good(3, 1, 2)
    seed, params = good.to_repairing_collection(), good.params
    assert sum(1 for _ in _reference_obtainable(seed, params)) == 183
    monkeypatch.setattr(storage, "OBTAINABLE_CAP", 105)
    assert len(list(iter_obtainable(seed, params))) == 105
    monkeypatch.setattr(storage, "OBTAINABLE_CAP", 104)
    with pytest.raises(CapExceeded, match="distinct"):
        list(iter_obtainable(seed, params))


def _reference_obtainable(collection, params):
    """Every (newcomer, witness) pair of every (r, beta) repair, repeats
    included: the plain enumeration iter_obtainable deduplicates."""
    for indices in itertools.combinations(range(len(collection.spaces)), params.r):
        slice_choices = [list(collection.spaces[i].subspaces(params.beta)) for i in indices]
        for ws in itertools.product(*slice_choices):
            total = zero_subspace(collection.field, collection.m)
            for w in ws:
                total = total + w
            if total.dim < params.alpha:
                continue
            witness = RepairWitness(indices, tuple(ws))
            for cand in total.subspaces(params.alpha):
                yield cand, witness


def _assert_engine_matches_reference(states, collection, newcomers):
    params = states.params
    firsts = {}
    for cand, witness in _reference_obtainable(collection, params):
        firsts.setdefault(cand.key, (cand, witness))
    assert list(iter_obtainable(collection, params)) == list(firsts.values())
    # an alpha-space lies in a slice sum exactly when it is one of the
    # sum's candidates, so the first containing sum is the first appearance
    for cand, witness in firsts.values():
        assert find_repair_witness(collection, cand, params) == witness
    valid = [cand for cand, _ in firsts.values()
             if storage._replacements_inside(states.__contains__, collection, cand)]
    assert newcomers == tuple(sorted(valid, key=lambda u: u.key))


def test_engine_matches_reference_on_partition_code(partition_states):
    valid = all_valid_newcomers(partition_states)
    report = check_repair_property(partition_states)
    assert len(report.checks) == len(valid) == 56
    for check in report.checks:
        newcomers = valid[check.collection.key]
        assert check.ok == bool(newcomers)
        _assert_engine_matches_reference(partition_states, check.collection, newcomers)


@pytest.mark.parametrize("r, s, q, steps", [(3, 1, 2, 29), (2, 1, 3, 0)])
def test_engine_matches_reference_on_family_collections(r, s, q, steps):
    # the seed and the collections of a seeded random walk from it
    code = family_state_space(r, s, q)
    for good in random_walk(construct_good(r, s, q), steps, random.Random(7)):
        collection = good.to_repairing_collection()
        state, newcomers = storage._newcomer_search(code.params, code._stays,
                                                    collection, None, True)
        assert (state is not None) == bool(newcomers)
        _assert_engine_matches_reference(code, collection, newcomers)


def _replacements_built(states):
    # the replacement test that builds each replaced collection
    return lambda c, u: storage._replacements_inside(states.__contains__, c, u)


def _assert_lookup_matches_replacements(states, collections):
    # StateSet._stays answers from the completion index; every space the
    # set lists, and each collection's members, against building each
    # replaced collection and testing membership.  Returns the number of
    # spaces that stay
    built = _replacements_built(states)
    listed = {u.key: u for c in states for u in c.spaces}
    stays = 0
    for collection in collections:
        for u in {**listed, **{u.key: u for u in collection.spaces}}.values():
            want = built(collection, u)
            assert states._stays(collection, u) == want
            stays += want
    return stays


def _assert_completions_match_enumeration(states, collections):
    # the oracle of the completion search of a listed set: the engine
    # enumerating every obtainable space, testing each replaced collection
    # for membership
    built = _replacements_built(states)
    _assert_lookup_matches_replacements(states, collections)
    for collection in collections:
        want, valid = storage._newcomer_search(states.params, built, collection, None, True)
        # the certificate newcomer and its first-appearance witness
        assert _check_collection(states, collection).state == want
        assert valid_newcomers(states, collection) == valid


def test_completions_match_enumeration_on_partition_code(partition_states):
    plain = StateSet(partition_states.params, partition_states)
    _assert_completions_match_enumeration(plain, plain)


def test_completions_match_enumeration_on_search_orbits(monkeypatch):
    # every member of every orbit, passing or failing, that the search
    # on the 56-state seed verifies: 49 distinct (group order, orbit)
    # pairs, 650 collections
    from frcodes import groupsearch

    orbits = []

    class Recorded(StateSet):
        def __init__(self, *args):
            super().__init__(*args)
            orbits.append(self)

    data = pathlib.Path(__file__).parents[1] / "perfbench" / "data" / "seed56.fsc"
    doc = parse_fsc(data.read_text())
    name = sorted(doc.states)[0]
    seed = RepairingCollection([doc.subspaces[u] for u in doc.collections[name]])
    monkeypatch.setattr(groupsearch, "StateSet", Recorded)
    outcome = groupsearch.symmetry_search(seed, doc.subspaces[doc.states[name]], doc.params,
                                          group_cap=5000, orbit_cap=500)
    monkeypatch.undo()
    assert len(orbits) == 49 and len(outcome.results) == 2
    assert sum(len(states) for states in orbits) == 650
    for states in orbits:
        _assert_completions_match_enumeration(states, states)


def test_completions_match_enumeration_on_small_codes(exact_code_spaces):
    from frcodes.family import family_code

    params, spaces = exact_code_spaces
    exact = exact_to_states(spaces, params)
    _assert_completions_match_enumeration(exact, exact)
    # a collection outside the set, one with a repeated member, and the
    # set that lacks one drop-one collection
    other = span(GF(2), 4, [(1, 1, 0, 0), (0, 0, 1, 1)])
    outside = RepairingCollection([spaces[0], spaces[1], other])
    repeated = RepairingCollection([spaces[0], spaces[0], spaces[1]])
    _assert_completions_match_enumeration(exact, [outside, repeated])
    partial = StateSet(params, list(exact)[:3])
    _assert_completions_match_enumeration(partial, list(exact))
    # a set whose only collection repeats one member: the member itself
    # is its valid newcomer
    u = spaces[0]
    wide = CodeParams(m=4, n=4, k=2, r=3, alpha=2, beta=2, q=2)
    triple = StateSet(wide, [RepairingCollection([u, u, u])])
    _assert_completions_match_enumeration(triple, triple)
    assert valid_newcomers(triple, RepairingCollection([u, u, u])) == (u,)
    # every multiset of two lines of F_2^2: each line is a valid newcomer
    # of each pair of distinct lines, and all three lie in one slice sum
    lines = list(subspaces(GF(2), 2, 1))
    pairs = StateSet(CodeParams(m=2, n=3, k=2, r=2, alpha=1, beta=1, q=2),
                     map(RepairingCollection, itertools.combinations_with_replacement(lines, 2)))
    _assert_completions_match_enumeration(pairs, pairs)
    assert [len(valid_newcomers(pairs, c)) for c in pairs] == [1, 3, 3, 1, 3, 1]
    # on each pair of distinct lines, the last of its three valid
    # newcomers is not the certificate found without a declaration;
    # declared, it is the certificate, with the witness of its first repair
    for c in (c for c in pairs if c.spaces[0] != c.spaces[1]):
        *_, last = valid_newcomers(pairs, c)
        assert _check_collection(pairs, c).state.newcomer != last
        declared = StateSet(pairs.params, pairs, {c.key: last})
        check = _check_collection(declared, c)
        assert check.ok and check.state.newcomer == last
        assert check.state.witness == find_repair_witness(c, last, pairs.params)
    family = family_code(2, 1, 3)
    assert type(family) is StateSet
    _assert_completions_match_enumeration(family, family)


def test_lookup_matches_replacements_on_code56():
    # 5 of the 6 completions of each collection stay, and no other space
    code = _code56()
    assert _assert_lookup_matches_replacements(code, code) == 56 * 5


def test_listed_set_tests_only_completions(partition_states, monkeypatch):
    # a listed set never enumerates obtainable spaces; its valid
    # newcomers are among the 6 members its listed neighbours add
    plain = StateSet(partition_states.params, partition_states)

    def no_enumeration(*args, **kwargs):
        raise AssertionError("a listed set enumerated its candidates")

    monkeypatch.setattr(storage, "iter_obtainable", no_enumeration)
    for collection in plain:
        completions = list(plain._completions(collection))
        assert len(completions) == 6
        assert set(valid_newcomers(plain, collection)) <= set(completions)
        assert valid_newcomers(plain, collection) == (
            partition_states.witnesses[collection.key].newcomer,)


@st.composite
def _small_collections(draw):
    """A collection over GF(2), GF(3) or GF(4) with m <= 4, r <= 3 and
    beta <= alpha <= 2, its members drawn from a pool that may repeat
    them, and a few spaces of dimension at most alpha.  A pool space
    spans 0 to alpha drawn vectors, so a helper may lie below beta."""
    field = draw(st.sampled_from([GF(2), GF(3), GF(2, 2)]))
    alpha = draw(st.integers(1, 2))
    beta = draw(st.integers(1, alpha))
    m = draw(st.integers(alpha, 4))
    r = draw(st.integers(1, 3))
    size = draw(st.integers(r, 3 if r == 3 else 4))
    vector = st.tuples(*[st.integers(0, field.q - 1)] * m)
    space = st.lists(vector, min_size=alpha, max_size=alpha).map(
        lambda rows: span(field, m, rows))
    member = st.lists(vector, max_size=alpha).map(lambda rows: span(field, m, rows))
    pool = draw(st.lists(member, min_size=1, max_size=size))
    members = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
    params = CodeParams(m=m, n=size + 1, k=draw(st.integers(1, size + 1)), r=r,
                        alpha=alpha, beta=beta, q=field.q)
    return params, RepairingCollection(members), draw(st.lists(space, max_size=3))


def _oracle_obtainable(collection, params):
    firsts = {}
    for indices, ws, total in slice_sums(collection, params):
        if total.dim >= params.alpha:
            for cand in total.subspaces(params.alpha):
                firsts.setdefault(cand.key, (cand, RepairWitness(indices, ws)))
    return list(firsts.values())


def _oracle_newcomer_search(params, inside, collection, candidates, all_newcomers):
    # the certificate is the first held candidate, in canonical order, of
    # the first slice sum holding any; the valid newcomers are the
    # candidates held by some slice sum
    pending = {u.key: u for u in candidates
               if u.dim == params.alpha and storage._replacements_inside(inside, collection, u)}
    sums = list(slice_sums(collection, params))
    state = next((storage.AdmissibleState(collection, c, RepairWitness(indices, ws))
                  for indices, ws, total in sums if any(u <= total for u in pending.values())
                  for c in total.subspaces(params.alpha) if c.key in pending), None)
    valid = [u for u in pending.values() if any(u <= total for _, _, total in sums)]
    return state, tuple(sorted(valid, key=lambda u: u.key)) if all_newcomers else ()


@settings(max_examples=80, deadline=None)
@given(_small_collections(), st.data())
def test_echelon_slice_sums_match_subspace_sums(case, data):
    params, collection, spaces = case
    field, m = collection.field, collection.m
    want = list(slice_sums(collection, params))
    got = list(storage._slice_sums(collection, params))
    assert [(i, ws) for i, ws, _ in got] == [(i, ws) for i, ws, _ in want]
    for (_, _, echelon), (_, _, total) in zip(got, want):
        assert len(echelon) == total.dim
        assert _echelon_space(field, m, echelon) == total
    obtainable = _oracle_obtainable(collection, params)
    assert list(iter_obtainable(collection, params)) == obtainable
    # obtainable spaces, members, drawn spaces and the trivial spaces, in
    # an order that the certificate must not depend on
    picked = data.draw(st.lists(st.sampled_from(obtainable), max_size=6)) if obtainable else []
    candidates = data.draw(st.permutations(
        [u for u, _ in picked] + list(collection.spaces) + spaces
        + [zero_subspace(field, m), full_space(field, m)]))
    for target in candidates:
        assert find_repair_witness(collection, target, params) == next(
            (RepairWitness(i, ws) for i, ws, total in want if target <= total), None)
    # a membership test that admits every replacement by some candidates
    allowed = set()
    for u in candidates:
        if data.draw(st.booleans()):
            allowed.update(collection.replace(i, u).key for i in range(len(collection)))
    inside = lambda rc: rc.key in allowed  # noqa: E731
    stays = lambda c, u: storage._replacements_inside(inside, c, u)  # noqa: E731
    for all_newcomers in (False, True):
        assert storage._newcomer_search(params, stays, collection, candidates,
                                        all_newcomers) == _oracle_newcomer_search(
            params, inside, collection, candidates, all_newcomers)
    declared = (data.draw(st.sampled_from(candidates)),)
    for all_newcomers in (False, True):
        assert storage._newcomer_search(params, stays, collection, declared,
                                        all_newcomers) == _oracle_newcomer_search(
            params, inside, collection, declared, all_newcomers)


def _rank_test_cases(field):
    """(name, params, members) of collections in F_q^4 whose walks meet
    each edge of the rank test of _slice_sums."""
    e = field.q - 1  # neither 0 nor 1 over GF(3) and GF(4)

    def space(*rows):
        return span(field, 4, rows)

    a = space((1, 0, 0, 0), (0, 1, 0, 0))
    b = space((0, 0, 1, 0), (0, 0, 0, 1))
    c = space((1, 0, 1, 0), (0, 1, 0, e))
    d = space((1, 1, 0, 0), (0, 0, 1, e))
    # two more planes of the span of e1, e2, e3
    f, g = space((1, 0, 0, 0), (0, 0, 1, 0)), space((0, 1, e, 0), (1, 1, 0, 0))
    lines = space((1, 1, 1, 1)), space((1, e, 0, 1))

    def params(n, r, alpha, beta):
        return CodeParams(m=4, n=n, k=2, r=r, alpha=alpha, beta=beta, q=field.q)

    return [
        # the last slice is the whole helper
        ("beta equals alpha", params(4, 2, 2, 2), [a, f, g]),
        # a helper of dimension 1 has no 2-dimensional slice
        ("helpers below beta", params(5, 2, 2, 2), [a, lines[0], lines[1], f]),
        # no prefix: each helper alone
        ("one helper", params(4, 1, 1, 1), [a, b, c]),
        # 6 helper sets of 2 out of 4 members
        ("several helper sets", params(5, 2, 2, 1), [a, b, c, d]),
        ("repeated members", params(4, 2, 2, 1), [a, a, c]),
        ("one member thrice", params(4, 3, 2, 1), [c, c, c]),
    ]


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(2, 2)], ids=["GF2", "GF3", "GF4"])
def test_rank_test_matches_the_full_walk(field):
    # the sums of _slice_sums under targets are the last-helper blocks of
    # the full product walk (oracles.slice_sums) holding one, and
    # find_repair_witness and the listed newcomer search give the walk's
    # answers, for each target alone and for several
    m = 4
    for name, params, members in _rank_test_cases(field):
        collection = RepairingCollection(members)
        walk = list(slice_sums(collection, params))
        blocks = [list(block) for _, block in
                  itertools.groupby(walk, key=lambda s: (s[0], s[1][:-1]))]
        if name == "helpers below beta":
            # a line is the last helper of some helper set
            assert any(collection.spaces[i[-1]].dim < params.beta
                       for i in itertools.combinations(range(len(members)), params.r))
        # alpha-spaces some sum holds and none holds, the members and the
        # trivial spaces
        held = {c.key: c for *_, total in walk if total.dim >= params.alpha
                for c in total.subspaces(params.alpha)}
        missed = list(itertools.islice(
            (u for u in subspaces(field, m, params.alpha)
             if not any(u <= total for *_, total in walk)), 4))
        assert held and missed, name
        targets = (list(held.values())[:8] + missed + list(collection.spaces)
                   + [zero_subspace(field, m), full_space(field, m)])
        # the blocks holding each target
        holding = {t.key: {b for b, block in enumerate(blocks)
                           if any(t <= total for *_, total in block)} for t in targets}
        for chosen in [[t] for t in targets] + [targets]:
            hit = set().union(*(holding[t.key] for t in chosen))
            want = [s for b, block in enumerate(blocks) if b in hit for s in block]
            got = list(storage._slice_sums(collection, params, chosen))
            assert [(i, ws) for i, ws, _ in got] == [(i, ws) for i, ws, _ in want], name
            assert [_echelon_space(field, m, e) for *_, e in got] == [t for *_, t in want]
        for target in targets:
            assert find_repair_witness(collection, target, params) == next(
                (RepairWitness(i, ws) for i, ws, total in walk if target <= total), None)
        # every replacement inside: a listed candidate is valid when obtainable
        inside = lambda rc: True  # noqa: E731
        stays = lambda c, u: True  # noqa: E731
        for chosen in [targets, list(held.values()), missed, targets[:1], targets[8:9]]:
            for all_newcomers in (False, True):
                assert storage._newcomer_search(params, stays, collection, chosen,
                                                all_newcomers) == _oracle_newcomer_search(
                    params, inside, collection, chosen, all_newcomers), name


def _code56():
    data = pathlib.Path(__file__).parents[1] / "perfbench" / "data" / "code56.fsc"
    return document_to_states(parse_fsc(data.read_text()))


def _newcomers_and_witnesses(states):
    out = []
    for c in states:
        newcomers = valid_newcomers(states, c)
        out.append((newcomers, find_repair_witness(c, newcomers[0], states.params)))
    return out


def test_newcomer_work_builds_no_subspace_sums(monkeypatch):
    # the newcomers and first witnesses of every collection of the
    # 56-state code come from echelons of the slice sums: no Subspace
    # is summed or compared.  The echelons are extended 2,404 times (a
    # slice onto a prefix, the last helper or a target onto a prefix for
    # the rank test of _slice_sums) and tested for a candidate 3,357
    # times (a target against a prefix plus the last helper, or against
    # a slice sum); the whole walk made 3,354 and 7,608
    states = _code56()
    calls = {"__add__": 0, "__le__": 0, "_echelon_extend": 0, "_echelon_holds": 0}
    for name in ("__add__", "__le__"):
        def counted(self, other, name=name, method=getattr(Subspace, name)):
            calls[name] += 1
            return method(self, other)
        monkeypatch.setattr(Subspace, name, counted)
    for name in ("_echelon_extend", "_echelon_holds"):
        def counted(echelon, space, name=name, fn=getattr(storage, name)):
            calls[name] += 1
            return fn(echelon, space)
        monkeypatch.setattr(storage, name, counted)
    found = _newcomers_and_witnesses(states)
    assert len(found) == 56 and all(w is not None for _, w in found)
    assert calls == {"__add__": 0, "__le__": 0, "_echelon_extend": 2404, "_echelon_holds": 3357}


def test_newcomer_work_on_tuple_rows_matches_bit_rows(tuple_rows):
    bits = _newcomers_and_witnesses(_code56())
    with tuple_rows(GF(2)):
        tuples = _newcomers_and_witnesses(_code56())
    assert [n for n, _ in tuples] == [n for n, _ in bits]
    assert [w.repair_indices for _, w in tuples] == [w.repair_indices for _, w in bits]


def test_reachable_closure_recovers_exact_code(exact_code_spaces):
    params, spaces = exact_code_spaces
    known = {RepairingCollection([t for j, t in enumerate(spaces) if j != i]).key
             for i in range(4)}

    def admissible(members):
        return RepairingCollection(members).key in known

    seed = RepairingCollection(spaces[1:])
    states = reachable_closure(seed, params, admissible)
    assert len(states) == 4
    assert {c.key for c in states} == known
    assert states.verify().ok


def test_reachable_closure_errors(exact_code_spaces, monkeypatch):
    params, spaces = exact_code_spaces
    seed = RepairingCollection(spaces[1:])
    with pytest.raises(ValueError):
        reachable_closure(seed, params, lambda members: False)
    known = {RepairingCollection([t for j, t in enumerate(spaces) if j != i]).key
             for i in range(4)}
    monkeypatch.setattr(storage, "CLOSURE_CAP", 2)
    with pytest.raises(CapExceeded):
        reachable_closure(seed, params,
                          lambda members: RepairingCollection(members).key in known)


def test_closure_error_when_nothing_certifies(exact_code_spaces):
    # admitting only the seed leaves every newcomer invalid
    params, spaces = exact_code_spaces
    seed = RepairingCollection(spaces[1:])
    with pytest.raises(ClosureError):
        reachable_closure(seed, params,
                          lambda members: RepairingCollection(members) == seed)
