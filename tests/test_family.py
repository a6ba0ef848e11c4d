"""Tests for good collections, the MDS equivalence and the code family."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from frcodes.family import (
    GoodCollection,
    construct_good,
    cutset_bound,
    family_code,
    family_params,
    family_state_space,
    family_step,
    choose_repair_vectors,
    forbidden_traces,
    is_good,
    mds_check,
    mds_generator,
    message_dimension,
    random_walk,
)
from frcodes.gf import GF
from frcodes.storage import RepairingCollection, valid_newcomers
from frcodes.subspace import rank_of, span, subspaces, vec_add
from oracles import identity_map, repair_code, verify_replacement_equivalence

F2 = GF(2)
F3 = GF(3)
F4 = GF(2, 2)


def test_message_dimension_values():
    assert message_dimension(3, 1) == 5
    assert message_dimension(4, 2) == 9
    for r in range(1, 8):
        assert message_dimension(r, 0) == r
    # the same sum written out term by term
    for r in range(1, 11):
        for s in range(r):
            total = (r - s) * (s + 1) + sum(range(1, s + 1))
            assert message_dimension(r, s) == total
    with pytest.raises(ValueError):
        message_dimension(2, 2)
    with pytest.raises(ValueError):
        message_dimension(3, -1)


def test_family_params():
    p = family_params(3, 1, 2)
    assert (p.m, p.n, p.k, p.r, p.alpha, p.beta, p.q) == (5, 4, 3, 3, 2, 1, 2)
    assert Fraction(p.m, p.n * p.alpha) == Fraction(5, 8)


def test_rate_identity():
    for r in range(1, 11):
        for s in range(r):
            rate = Fraction(message_dimension(r, s), (r + 1) * (s + 1))
            assert rate == (Fraction(r) - Fraction(s, 2)) / (r + 1)


def test_cutset_bound():
    assert cutset_bound(3, 3, 2, 1) == 5
    assert cutset_bound(2, 3, 2, 2) == 4
    # with k > r the nodes past the r-th add nothing: 2 + 1 + 0 + 0 + 0
    assert cutset_bound(5, 2, 2, 1) == 3
    for r in range(1, 11):
        for s in range(r):
            assert cutset_bound(r, r, s + 1, 1) == message_dimension(r, s)
    with pytest.raises(ValueError):
        cutset_bound(0, 3, 2, 1)
    # beta > alpha is no code: a helper cannot send more than it stores
    with pytest.raises(ValueError, match="beta=2 exceeds alpha=1"):
        cutset_bound(3, 2, 1, 2)


def test_is_good_canonical_triple(functional_triple):
    _, spaces = functional_triple
    assert is_good(spaces, 3, 1)
    # two equal members collapse the pair span
    assert not is_good([spaces[0], spaces[0], spaces[1]], 3, 1)


def test_is_good_axes():
    for r in range(2, 5):
        axes = [span(F2, r, [tuple(1 if j == i else 0 for j in range(r))])
                for i in range(r)]
        assert is_good(axes, r, 0)


def test_is_good_spanning_failure(functional_triple):
    # pairwise trivial but the third member hides inside the first two
    _, spaces = functional_triple
    inside = span(F2, 5, [(1, 1, 0, 0, 0), (0, 0, 0, 1, 1)])
    assert not is_good([spaces[0], spaces[1], inside], 3, 1)


def test_is_good_validation(functional_triple):
    _, spaces = functional_triple
    with pytest.raises(ValueError):
        is_good(spaces[:2], 3, 1)
    with pytest.raises(ValueError):
        is_good([span(F2, 4, [(1, 0, 0, 0), (0, 1, 0, 0)])] * 3, 3, 1)
    thin = span(F2, 5, [(1, 0, 0, 0, 0)])
    with pytest.raises(ValueError):
        is_good([thin, spaces[1], spaces[2]], 3, 1)


def test_good_collection_type(functional_triple):
    _, spaces = functional_triple
    good = GoodCollection(3, 1, tuple(spaces))
    assert good.m == 5
    assert good.field == F2
    assert good.params == family_params(3, 1, 2)
    with pytest.raises(ValueError):
        GoodCollection(3, 1, (spaces[0], spaces[0], spaces[1]))
    # no copy method skips the goodness check
    for name in ("_replace", "_make", "__replace__"):
        assert not hasattr(good, name)


def test_repair_code_even_weight(functional_triple):
    _, spaces = functional_triple
    good = GoodCollection(3, 1, tuple(spaces))
    w = [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0)]
    target = span(F2, 5, [(1, 1, 0, 0, 0), (1, 0, 1, 0, 0)])
    code = repair_code(good, w, target)
    assert set(code.words) == {(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)}
    assert code.dim == 2
    assert code.min_distance == 2
    assert code.is_mds(2, 2)


def test_repair_code_degenerate_targets(functional_triple):
    _, spaces = functional_triple
    good = GoodCollection(3, 1, tuple(spaces))
    w = [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0)]
    # a weight-1 word shows up as soon as the target contains some w_i
    code = repair_code(good, w, span(F2, 5, [w[0], w[1]]))
    assert (1, 0, 0) in code.words
    assert code.min_distance == 1
    zero = repair_code(good, w, span(F2, 5, []))
    assert zero.words == ((0, 0, 0),)
    assert zero.dim == 0
    assert zero.min_distance == 0
    with pytest.raises(ValueError):
        repair_code(good, [(0, 0, 0, 1, 1)] + w[1:], span(F2, 5, []))


def test_mds_check():
    assert mds_check(F2, [(1, 0, 1), (0, 1, 1)], 3, 2)
    for field in (F2, F3):
        for r in range(2, 7):
            assert mds_check(field, [(1,) * r], r, 1)
    # dependent rows never qualify
    assert not mds_check(F2, [(1, 0, 1), (1, 0, 1)], 3, 2)
    with pytest.raises(ValueError):
        mds_check(F2, [(1, 0)], 3, 1)


def test_no_binary_4_2_mds():
    # exhausts every 2-dimensional code of length 4 over GF(2)
    for cand in subspaces(F2, 4, 2):
        assert not mds_check(F2, cand.rows, 4, 2)


def test_mds_generator_grid():
    cases = [
        (F2, 3, 2), (F2, 3, 1), (F2, 3, 3), (F2, 4, 3), (F2, 5, 4),
        (F3, 4, 2), (F3, 3, 2), (F4, 4, 2), (F4, 5, 3), (F4, 5, 2),
        (GF(5), 4, 2), (GF(5), 6, 3), (GF(7), 8, 4),
    ]
    for field, r, kdim in cases:
        gen = mds_generator(field, r, kdim)
        assert len(gen) == kdim
        assert mds_check(field, gen, r, kdim)
    with pytest.raises(ValueError):
        mds_generator(F2, 4, 2)
    with pytest.raises(ValueError):
        mds_generator(F2, 3, 4)


def test_construct_good_matches_canonical_triple(functional_triple):
    _, spaces = functional_triple
    good = construct_good(3, 1, 2)
    assert set(good.spaces) == set(spaces)


def test_construct_good_axes_base():
    good = construct_good(4, 0, 2)
    expected = {span(F2, 4, [tuple(1 if j == i else 0 for j in range(4))])
                for i in range(4)}
    assert set(good.spaces) == expected


def test_construct_good_larger_instances():
    for r, s, q in [(4, 1, 2), (4, 2, 4), (5, 2, 4), (4, 2, 3), (5, 1, 2)]:
        good = construct_good(r, s, q)
        assert is_good(good.spaces, r, s)
        assert good.m == message_dimension(r, s)
    with pytest.raises(ValueError):
        construct_good(3, 3, 2)
    with pytest.raises(ValueError):
        construct_good(3, 1, 6)


def test_family_step_documented_instance(functional_triple):
    # the first trace-avoiding choice is the unit vectors e0, e1, e2, and
    # the [3, 2, 2] parity code maps them to the space of pairwise sums,
    # whose replacements the oracle finds good
    _, spaces = functional_triple
    good = GoodCollection(3, 1, tuple(spaces))
    w = ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0))
    result = family_step(good)
    assert result.w == w
    assert result.generator == mds_generator(F2, 3, 2)
    assert verify_replacement_equivalence(good, w, result.newcomer)
    assert result.newcomer == span(F2, 5, [(1, 1, 0, 0, 0), (1, 0, 1, 0, 0)])
    assert len(result.replacements) == 3
    for i, replaced in enumerate(result.replacements):
        assert result.newcomer in replaced.spaces
        others = [u for u in replaced.spaces if u != result.newcomer]
        assert all(u in good.spaces for u in others)
    # the witness downloads one symbol per helper
    assert all(ws.dim == 1 for ws in result.witness.repair_spaces)


def test_family_step_deterministic(functional_triple):
    _, spaces = functional_triple
    good = GoodCollection(3, 1, tuple(spaces))
    a = family_step(good)
    b = family_step(good)
    assert a.w == b.w
    assert a.newcomer == b.newcomer


def test_family_step_rejects_bad_choices(functional_triple):
    # family_step makes its own choices; the choices it must avoid are
    # still rejected by the checks they fail: a vector off its member, a
    # vector inside the span of the other members, a non-MDS generator
    _, spaces = functional_triple
    good = GoodCollection(3, 1, tuple(spaces))
    traces = forbidden_traces(good)
    off_member = [(0, 0, 0, 1, 1), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0)]
    assert off_member[0] not in good.spaces[0]
    in_traces = [(0, 0, 0, 1, 0), (0, 0, 0, 0, 1), (0, 0, 0, 1, 1)]
    assert all(v in trace for v, trace in zip(in_traces, traces))
    for w in (off_member, in_traces):
        with pytest.raises(ValueError):
            verify_replacement_equivalence(good, w, span(F2, 5, w[:2]))
    assert not mds_check(F2, [(1, 0, 0), (0, 1, 0)], 3, 2)
    result = family_step(good, rng=random.Random(3))
    assert all(v in space and v not in trace
               for v, space, trace in zip(result.w, good.spaces, traces))
    assert mds_check(F2, result.generator, 3, 2)


def test_family_step_needs_existing_mds():
    # locality 4 at level 1 would need a [4,2,3] code over GF(2)
    good = construct_good(4, 1, 2)
    with pytest.raises(ValueError):
        family_step(good)


def test_choose_repair_vectors(functional_triple):
    _, spaces = functional_triple
    good = GoodCollection(3, 1, tuple(spaces))
    w = choose_repair_vectors(good)
    assert rank_of(F2, 5, w) == 3
    for v, u in zip(w, good.spaces):
        assert v in u
    rng = random.Random(11)
    for _ in range(20):
        wr = choose_repair_vectors(good, rng)
        assert rank_of(F2, 5, wr) == 3


def test_replacement_equivalence_exhaustive(functional_triple):
    # every trace-avoiding repair-vector choice and every candidate
    # newcomer in the canonical collection; both sides must agree
    # everywhere, and the valid newcomer per choice is the unique space
    # of pairwise sums
    _, spaces = functional_triple
    good = GoodCollection(3, 1, tuple(spaces))
    traces = forbidden_traces(good)
    options = [[v for v in u.vectors() if any(v) and v not in t]
               for u, t in zip(good.spaces, traces)]
    assert [len(o) for o in options] == [2, 2, 2]
    agreements = {True: 0, False: 0}
    for w in itertools.product(*options):
        hull = span(F2, 5, w)
        assert hull.dim == 3
        sums = span(F2, 5, [vec_add(F2, w[0], w[1]), vec_add(F2, w[0], w[2])])
        for target in hull.subspaces(2):
            verdict = verify_replacement_equivalence(good, w, target)
            agreements[verdict] += 1
            assert verdict == (target == sums)
    assert agreements[True] == 8
    assert agreements[False] == 48


def test_forbidden_traces(functional_triple):
    # each trace is the one nonzero vector of a member that the other
    # two members can also produce
    _, spaces = functional_triple
    good = GoodCollection(3, 1, tuple(spaces))
    traces = forbidden_traces(good)
    expected = [(0, 0, 0, 1, 0), (0, 0, 0, 0, 1), (0, 0, 0, 1, 1)]
    for t, u, v in zip(traces, good.spaces, expected):
        assert t.dim == 1
        assert v in t
        assert t <= u


def test_equivalence_needs_trace_avoidance(functional_triple):
    # with a repair vector on a trace, the coefficient code can be MDS
    # while a replacement still fails; the hypothesis is not redundant
    _, spaces = functional_triple
    good = GoodCollection(3, 1, tuple(spaces))
    w = [(0, 0, 0, 1, 0), (0, 0, 0, 0, 1), (0, 0, 1, 0, 0)]
    assert rank_of(F2, 5, w) == 3
    target = span(F2, 5, [vec_add(F2, w[0], w[1]), vec_add(F2, w[0], w[2])])
    code = repair_code(good, w, target)
    assert code.is_mds(2, 2)
    bad = [target, spaces[1], spaces[2]]
    assert not is_good(bad, 3, 1)
    with pytest.raises(ValueError):
        verify_replacement_equivalence(good, w, target)


def test_replacement_equivalence_specific_cases(functional_triple):
    _, spaces = functional_triple
    good = GoodCollection(3, 1, tuple(spaces))
    w = [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0)]
    assert verify_replacement_equivalence(
        good, w, span(F2, 5, [(1, 1, 0, 0, 0), (1, 0, 1, 0, 0)]))
    assert not verify_replacement_equivalence(good, w, span(F2, 5, [w[0], w[1]]))
    # repair vectors on the traces are outside the equivalence
    wd = [(0, 0, 0, 1, 0), (0, 0, 0, 0, 1), (0, 0, 0, 1, 1)]
    with pytest.raises(ValueError):
        verify_replacement_equivalence(good, wd, span(F2, 5, [wd[0], wd[1]]))
    with pytest.raises(ValueError):
        verify_replacement_equivalence(good, w, span(F2, 5, [w[0]]))
    with pytest.raises(ValueError):
        verify_replacement_equivalence(good, w, span(F2, 5, [(0, 0, 0, 1, 0),
                                                             (0, 0, 0, 0, 1)]))


def test_random_walk_stays_good():
    rng = random.Random(23)
    for r, s, q in [(3, 1, 2), (4, 2, 4), (5, 2, 4)]:
        start = construct_good(r, s, q)
        trail = random_walk(start, 25, rng)
        assert len(trail) == 26
        # each entry was validated on construction; spot-check anyway
        for stop in trail[::5]:
            assert is_good(stop.spaces, r, s)


def test_family_code_smallest_instance():
    # locality 2, level 1: every pair of distinct planes in F_2^3 is
    # good; the closure grows one certificate per collection, so it is
    # repair-closed without touching all 21 good pairs
    states = family_code(2, 1, 2)
    planes = list(subspaces(F2, 3, 2))
    assert len(planes) == 7
    good_keys = set()
    for a, b in itertools.combinations(planes, 2):
        if is_good([a, b], 2, 1):
            good_keys.add(RepairingCollection([a, b]).key)
    assert len(good_keys) == 21
    keys = {c.key for c in states}
    assert keys <= good_keys
    assert len(keys) == 9
    seed = construct_good(2, 1, 2).to_repairing_collection()
    assert seed.key in keys
    assert states.verify().ok


def test_family_state_space_membership(functional_triple):
    _, spaces = functional_triple
    code = family_state_space(3, 1, 2)
    seed = RepairingCollection(spaces)
    assert seed in code
    walked = random_walk(construct_good(3, 1, 2), 5, random.Random(3))[-1]
    assert walked.to_repairing_collection() in code
    bad = RepairingCollection([spaces[0], spaces[0], spaces[1]])
    assert bad not in code
    other = RepairingCollection(
        [span(F2, 4, [(1, 0, 0, 0), (0, 1, 0, 0)])] * 3)
    assert other not in code
    assert code.verify().ok
    newcomers = valid_newcomers(code, seed)
    assert newcomers
    for u in newcomers[:3]:
        assert is_good([u, spaces[1], spaces[2]], 3, 1)


def test_family_code_enumerates_all_good_triples():
    # the (3,1) code over GF(2): every good triple satisfies the repair
    # property constructively, via one validated repair step each
    vec_bits = {}
    planes = list(subspaces(F2, 5, 2))
    assert len(planes) == 155
    for sp in planes:
        mask = 0
        for v in sp.vectors():
            mask |= 1 << sum(b << i for i, b in enumerate(v))
        vec_bits[sp.key] = mask
    good_triples = 0
    rng = random.Random(41)
    sampled = 0
    for ia, ib, ic in itertools.combinations(range(155), 3):
        a, b, c = planes[ia], planes[ib], planes[ic]
        if vec_bits[a.key] & vec_bits[b.key] != 1:
            continue
        if vec_bits[a.key] & vec_bits[c.key] != 1:
            continue
        if vec_bits[b.key] & vec_bits[c.key] != 1:
            continue
        if rank_of(F2, 5, a.rows + b.rows + c.rows) != 5:
            continue
        good_triples += 1
        # full repair-step validation on a 1-in-64 sample
        if rng.randrange(64) == 0:
            sampled += 1
            good = GoodCollection(3, 1, (a, b, c))
            result = family_step(good)
            assert len(result.replacements) == 3
    assert good_triples == 208320
    assert sampled > 2500


def _gl_order(m, q):
    order = 1
    for i in range(m):
        order *= q**m - q**i
    return order


@pytest.mark.parametrize("r, s, q, stab_order, orbit", [
    # the good (3, 1) triples over GF(2) counted one by one above
    (3, 1, 2, 48, 208_320),
    # two distinct planes of F_3^3 are always good: C(13, 2) pairs
    (2, 1, 3, 144, 78),
])
def test_good_collections_form_one_orbit(r, s, q, stab_order, orbit):
    # the setwise stabilizer of the canonical collection (every map
    # fixes the zero space) has |GL(m, q)| / orbit elements, so the
    # orbit of the canonical collection is every good collection
    from frcodes.groupsearch import stabilizer
    from frcodes.subspace import zero_subspace

    seed = construct_good(r, s, q).to_repairing_collection()
    stab = stabilizer(seed, zero_subspace(seed.field, seed.m))
    assert stab.order == stab_order
    assert _gl_order(seed.m, q) == stab_order * orbit


def _direct(r, s, q, collection):
    # a fresh set has no orbit representative, so it searches
    fresh = family_state_space(r, s, q)
    found = valid_newcomers(fresh, collection)
    assert [rep.key for rep, *_ in fresh._orbits] == [collection.key]
    return found


def _along_edges(code, collections, direct):
    # valid_newcomers of each collection through one set; asking
    # `c in code` first caches the collection, so it is placed and a
    # later repair of it is placed along that repair edge.  Returns the
    # answers and the collections that repair no earlier one, by the
    # direct search's newcomers: those must be the set's representatives
    found, unreached = [], []
    repairs: dict[tuple[bytes, ...], set[bytes]] = {}
    for c in collections:
        key = c.key
        if not any(key[p] in repairs.get(key[:p] + key[p + 1:], ())
                   for p in range(len(key))):
            unreached.append(key)
        for p in range(len(key)):
            repairs.setdefault(key[:p] + key[p + 1:], set()).update(
                u.key for u in direct[key])
        assert c in code
        found.append(valid_newcomers(code, c))
    assert [rep.key for rep, *_ in code._orbits] == unreached
    return found, unreached


def test_transported_newcomers_match_direct_search():
    walk = [c.to_repairing_collection()
            for c in random_walk(construct_good(3, 1, 2), 29, random.Random(61))]
    trail = list({c.key: c for c in walk}.values())
    assert len(trail) > 20
    direct = {c.key: _direct(3, 1, 2, c) for c in trail}
    moved, unreached = _along_edges(family_state_space(3, 1, 2), trail, direct)
    # each collection of the walk is a repair of the one before it
    assert unreached == [trail[0].key]
    for collection, newcomers in zip(trail, moved):
        assert newcomers
        assert [u.key for u in newcomers] == [u.key for u in direct[collection.key]]


def test_transported_newcomers_match_direct_search_over_gf3():
    planes = list(subspaces(F3, 3, 2))
    assert len(planes) == 13
    code = family_state_space(2, 1, 3)
    seed = next(iter(code))
    # every pair of planes, breadth-first from the seed along repairs
    pairs, queued, direct = [seed], {seed.key}, {}
    for c in pairs:
        direct[c.key] = _direct(2, 1, 3, c)
        for u in direct[c.key]:
            for i in range(len(c)):
                repaired = c.replace(i, u)
                if repaired.key not in queued:
                    queued.add(repaired.key)
                    pairs.append(repaired)
    assert sorted(c.key for c in pairs) == sorted(
        RepairingCollection(pair).key for pair in itertools.combinations(planes, 2))
    moved, unreached = _along_edges(code, pairs, direct)
    assert unreached == [seed.key]
    for collection, newcomers in zip(pairs, moved):
        assert len(newcomers) == 9
        assert [u.key for u in newcomers] == [u.key for u in direct[collection.key]]


def test_transport_falls_back_to_search(monkeypatch):
    import frcodes.family as family_module
    from frcodes.subspace import CapExceeded

    trail = [c.to_repairing_collection()
             for c in random_walk(construct_good(3, 1, 2), 3, random.Random(5))]
    # a map search past its cap: every collection is searched directly
    def capped(*args):
        raise CapExceeded("map search exceeded")

    monkeypatch.setattr(family_module, "_transporter", capped)
    code = family_state_space(3, 1, 2)
    for c in trail:
        assert valid_newcomers(code, c) == _direct(3, 1, 2, c)
    assert [rep.key for rep, *_ in code._orbits] == [c.key for c in trail]


def test_plain_state_set_never_transports(monkeypatch):
    # the 56-state code as a plain StateSet: every call is a direct
    # search, and each state has its one newcomer, the certificate that
    # code_states moved along the orbit
    import frcodes.family as family_module
    from frcodes.partition_code import build_partition, code_states
    from frcodes.storage import StateSet

    def refuse(*args):
        raise AssertionError("a plain StateSet was transported")

    monkeypatch.setattr(family_module, "_transporter", refuse)
    states = code_states(build_partition())
    plain = StateSet(states.params, states)
    for collection in plain:
        assert valid_newcomers(plain, collection) == (states.witnesses[collection.key].newcomer,)


def test_family_soak_runs_one_direct_search(monkeypatch):
    from frcodes import storage
    from frcodes.simulator import dss_init, run_random

    code = family_state_space(3, 1, 2)
    code.verify()
    searches = []
    direct = storage.iter_obtainable

    def counted(*args, **kwargs):
        searches.append(args[0].key)
        return direct(*args, **kwargs)

    monkeypatch.setattr(storage, "iter_obtainable", counted)
    report = run_random(dss_init(code, (0, 1, 1, 1, 0), seed=88), 300)
    assert report.verdict == "ok"
    assert report.distinct_states > 150
    assert len(searches) == 1
    assert len(code._orbits) == 1


def _count_map_searches(monkeypatch):
    # the target key of every family._transporter call from now on
    import frcodes.family as family_module

    searches = []
    search = family_module._transporter

    def counted(*args):
        searches.append(args[1].key)
        return search(*args)

    monkeypatch.setattr(family_module, "_transporter", counted)
    return searches


def test_family_soak_searches_one_map_per_repair_edge(monkeypatch):
    # each collection the soak meets is a repair of one it met before,
    # so it is placed along that repair edge: one map search per
    # (representative, newcomer, member), not one per collection
    from frcodes.simulator import dss_init, run_random

    code = family_state_space(3, 1, 2)
    code.verify()
    searches = _count_map_searches(monkeypatch)
    report = run_random(dss_init(code, (0, 1, 1, 1, 0), seed=88), 300)
    assert report.verdict == "ok"
    assert report.distinct_states > 150
    assert len(code._orbits) == 1
    representative, newcomers, *_ = code._orbits[0]
    assert len(newcomers) * len(representative) == 24
    assert len(searches) == len(code._edges) <= 24


def test_family_soak_newcomers_match_direct_search():
    from frcodes.simulator import dss_init, run_random

    code = family_state_space(3, 1, 2)
    code.verify()
    state = dss_init(code, (1, 0, 1, 1, 0), seed=29)
    assert run_random(state, 300).verdict == "ok"
    assert len(code._orbits) == 1 and code._edges
    assert len(state.newcomer_cache) > 100
    for key, (newcomers, _) in state.newcomer_cache.items():
        direct = _direct(3, 1, 2, code.collections[key])
        assert [u.key for u in newcomers] == [u.key for u in direct]


def test_wrong_edge_map_falls_back_to_direct_search(monkeypatch):
    trail = [c.to_repairing_collection()
             for c in random_walk(construct_good(3, 1, 2), 12, random.Random(17))]
    code = family_state_space(3, 1, 2)
    assert trail[0] in code
    valid_newcomers(code, trail[0])
    representative, newcomers, *_ = code._orbits[0]
    # every edge claims the identity, which carries the representative
    # onto itself and not onto the repaired collection
    identity = identity_map(representative.field, representative.m)
    for j in range(len(newcomers)):
        for i in range(len(representative)):
            monkeypatch.setitem(code._edges, (0, j, i), (0, identity))
    failed = []
    place = code._place

    def checked(collection, orbit, g):
        placed = place(collection, orbit, g)
        if placed is None:
            failed.append(collection.key)
        return placed

    monkeypatch.setattr(code, "_place", checked)
    for c in trail[1:]:
        assert c in code
        assert valid_newcomers(code, c) == _direct(3, 1, 2, c)
    # the composite fails its check, so each collection placed along a
    # wrong edge is searched directly and becomes a representative
    assert failed[0] == trail[1].key
    assert [rep.key for rep, *_ in code._orbits] == [trail[0].key] + failed
