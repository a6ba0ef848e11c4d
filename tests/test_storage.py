"""Tests for the storage model: collections, obtainability, repair checks."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from frcodes import storage
from frcodes.family import construct_good, family_state_space, random_walk
from frcodes.gf import GF
from frcodes.storage import (
    AdmissibleState,
    ClosureError,
    CodeParams,
    RepairReport,
    RepairWitness,
    RepairingCollection,
    StateSet,
    _check_collection,
    _short_hash,
    check_repair_property,
    exact_to_states,
    find_repair_witness,
    is_recovery_set,
    iter_obtainable,
    reachable_closure,
    recovery_dimension,
    valid_newcomers,
)
from frcodes.subspace import CapExceeded, span, subspaces, zero_subspace


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


def test_params_rate(exact_code_spaces, functional_triple):
    params, _ = exact_code_spaces
    assert params.rate == Fraction(1, 2)
    params5, _ = functional_triple
    assert params5.rate == Fraction(5, 8)


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


def test_exact_code_verifies(exact_code_spaces):
    params, spaces = exact_code_spaces
    states = exact_to_states(spaces, params)
    assert len(states) == 4
    report = states.verify(all_newcomers=True)
    assert report.ok
    assert states.verified
    # the only valid newcomer for each collection is the dropped space
    for i, s in enumerate(spaces):
        rest = RepairingCollection([t for j, t in enumerate(spaces) if j != i])
        check = next(c for c in report.checks if c.collection == rest)
        assert check.valid_newcomers == (s,)
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
    report = states.verify(all_newcomers=True)
    text = report.render()
    assert "repair property holds" in text
    assert "min 1, max 1" in text


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

    # the one entry point of every newcomer search, listed or enumerated
    monkeypatch.setattr(storage, "_newcomer_search", no_search)
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
    # every valid newcomer is always searched for
    with pytest.raises(AssertionError, match="searched"):
        _check_collection(declared, rest, all_newcomers=True)


def test_valid_newcomers_cached_and_direct(exact_code_spaces):
    params, spaces = exact_code_spaces
    rest = RepairingCollection(spaces[1:])
    states = exact_to_states(spaces, params)
    direct = valid_newcomers(states, rest)
    assert direct == (spaces[0],)
    states.verify(all_newcomers=True)
    assert states.transitions is not None
    assert valid_newcomers(states, rest) == direct


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


def test_iter_obtainable_cap(exact_code_spaces):
    params, spaces = exact_code_spaces
    c = RepairingCollection(spaces[1:])
    with pytest.raises(CapExceeded):
        list(iter_obtainable(c, params, cap=5))


def test_iter_obtainable_too_few_members(exact_code_spaces):
    params, spaces = exact_code_spaces
    c = RepairingCollection(spaces[1:3])
    with pytest.raises(ValueError):
        next(iter_obtainable(c, params))
    with pytest.raises(ValueError):
        find_repair_witness(c, spaces[0], params)


def test_iter_obtainable_cap_counts_distinct_candidates():
    # the (3, 1, 2) seed has 183 (repair, candidate) pairs but only 105
    # distinct candidates, and the cap is on the distinct ones
    good = construct_good(3, 1, 2)
    seed, params = good.to_repairing_collection(), good.params
    assert sum(1 for _ in _reference_obtainable(seed, params)) == 183
    assert len(list(iter_obtainable(seed, params, cap=105))) == 105
    with pytest.raises(CapExceeded, match="distinct"):
        list(iter_obtainable(seed, params, cap=104))


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


def _assert_engine_matches_reference(states, collection, check):
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
    assert check.valid_newcomers == tuple(sorted(valid, key=lambda u: u.key))
    assert check.ok == bool(valid)


def test_engine_matches_reference_on_partition_code(partition_states):
    report = check_repair_property(partition_states, all_newcomers=True)
    assert len(report.checks) == 56
    for check in report.checks:
        _assert_engine_matches_reference(partition_states, check.collection, check)


@pytest.mark.parametrize("r, s, q, steps", [(3, 1, 2, 29), (2, 1, 3, 0)])
def test_engine_matches_reference_on_family_collections(r, s, q, steps):
    # the seed and the collections of a seeded random walk from it
    code = family_state_space(r, s, q)
    for good in random_walk(construct_good(r, s, q), steps, random.Random(7)):
        collection = good.to_repairing_collection()
        check = _check_collection(code, collection, all_newcomers=True)
        _assert_engine_matches_reference(code, collection, check)


class _Enumerated(StateSet):
    """The same listing with no completions, so its newcomers are found
    by enumerating every obtainable space: the oracle of the completion
    search of a listed set."""

    def _completions(self, collection):
        return None


def _assert_completions_match_enumeration(states, collections):
    enumerated = _Enumerated(states.params, states)
    assert len(enumerated) == len(states)
    for collection in collections:
        want = _check_collection(enumerated, collection, all_newcomers=True)
        first = _check_collection(states, collection)
        every = _check_collection(states, collection, all_newcomers=True)
        # the certificate newcomer and its first-appearance witness
        assert first.state == every.state == want.state
        assert every.valid_newcomers == want.valid_newcomers


def test_completions_match_enumeration_on_partition_code(partition_states):
    plain = StateSet(partition_states.params, partition_states)
    _assert_completions_match_enumeration(plain, plain)


def test_completions_match_enumeration_on_search_orbits(monkeypatch):
    # every member of every orbit, passing or failing, that the search
    # on the 56-state seed verifies: 49 distinct (group order, orbit)
    # pairs, 650 collections
    import pathlib

    from frcodes import groupsearch
    from frcodes.fsc import parse_fsc

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
    family = family_code(2, 1, 3)
    assert type(family) is StateSet
    _assert_completions_match_enumeration(family, family)


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
        assert valid_newcomers(plain, collection) == partition_states.transitions[collection.key]


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


def test_reachable_closure_errors(exact_code_spaces):
    params, spaces = exact_code_spaces
    seed = RepairingCollection(spaces[1:])
    with pytest.raises(ValueError):
        reachable_closure(seed, params, lambda members: False)
    known = {RepairingCollection([t for j, t in enumerate(spaces) if j != i]).key
             for i in range(4)}
    with pytest.raises(CapExceeded):
        reachable_closure(seed, params,
                          lambda members: RepairingCollection(members).key in known,
                          cap=2)


def test_closure_error_when_nothing_certifies(exact_code_spaces):
    # admitting only the seed leaves every newcomer invalid
    params, spaces = exact_code_spaces
    seed = RepairingCollection(spaces[1:])
    with pytest.raises(ClosureError):
        reachable_closure(seed, params,
                          lambda members: RepairingCollection(members) == seed)
