"""Acceptance gate: one timed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the lines; each
test also fails normally on any violated bound or wrong value.
"""

from __future__ import annotations

import itertools
import pathlib
import random
import time
from fractions import Fraction

from frcodes.family import (
    construct_good,
    cutset_bound,
    family_params,
    family_state_space,
    forbidden_traces,
    is_good,
    mds_check,
    message_dimension,
    random_walk,
    verify_replacement_equivalence,
)
from frcodes.fsc import document_to_states, parse_fsc
from frcodes.gf import GF
from frcodes.groupsearch import symmetry_search
from frcodes.partition_code import (
    build_partition,
    canonical_seed_state,
    code_states,
    compose_semilinear,
    enumerate_semilinear,
    max_collection_size,
    partition_params,
    repair_label,
)
from frcodes.simulator import dss_init, fail, repair, run_random
from frcodes.storage import recovery_dimension
from frcodes.subspace import (
    gaussian_binomial,
    rank_of,
    span,
    subspaces,
    vec_dot,
    zero_subspace,
)

DATA = pathlib.Path(__file__).parent / "data"


def _report(number: int, elapsed: float, budget: float) -> None:
    print(f"ACCEPTANCE {number} PASS ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget


def test_criterion_1_exact_code_fixture():
    # the fixture verifies as an exact-repair code, any two nodes
    # recover, and the documented three-symbol repair reproduces the
    # first node's stored pair for 100 seeded messages
    start = time.perf_counter()
    doc = parse_fsc((DATA / "example1.fsc").read_text())
    states = document_to_states(doc)
    assert len(states) == 4
    assert states.verify().ok
    spaces = [doc.subspaces[name] for name in ("U0", "U1", "U2", "U3")]
    assert recovery_dimension(spaces, 4) == 2
    field = GF(2)
    rng = random.Random(1)
    for _ in range(100):
        x = tuple(rng.randrange(2) for _ in range(4))
        downloads = [vec_dot(field, x, w)
                     for w in ((1, 0, 0, 1), (0, 0, 1, 0), (0, 0, 0, 1))]
        assert downloads == [x[0] ^ x[3], x[2], x[3]]
        stored = tuple(vec_dot(field, x, row) for row in spaces[0].rows)
        assert (downloads[0] ^ downloads[2], downloads[1] ^ downloads[2]) == stored
    # the simulator's repair of that node is forced back to its space
    x = (1, 0, 1, 1)
    state = dss_init(states, x)
    node = next(n for n in state.nodes if n.space == spaces[0])
    fail(state, node.id)
    transcript = repair(state)
    assert transcript.newcomer == spaces[0]
    assert node.stored == (x[0], x[2] ^ x[3])
    _report(1, time.perf_counter() - start, 1.0)


def test_criterion_2_family_construction_and_equivalence():
    # the constructed collection is good, a 1000-step seeded walk stays
    # good, and the replacement equivalence holds for every admissible
    # repair-vector choice and every candidate newcomer
    start = time.perf_counter()
    collection = construct_good(3, 1, 2)
    assert is_good(list(collection.spaces), 3, 1)
    trail = random_walk(collection, 1000, random.Random(7))
    assert len(trail) == 1001
    for visited in (trail[0], trail[500], trail[-1]):
        assert is_good(list(visited.spaces), 3, 1)
    traces = forbidden_traces(collection)
    options = []
    for member, trace in zip(collection.spaces, traces):
        options.append([v for v in member.vectors()
                        if any(v) and v not in trace])
    checked = 0
    for w in itertools.product(*options):
        if rank_of(collection.field, collection.m, w) != 3:
            continue
        whole = span(collection.field, collection.m, w)
        for target in whole.subspaces(2):
            verify_replacement_equivalence(collection, w, target)
            checked += 1
    assert checked == 56
    _report(2, time.perf_counter() - start, 60.0)


def test_criterion_3_dimension_rate_identities():
    # message dimension meets the download bound with equality and the
    # rate has the closed form (2r - s) / (2r + 2), for all r <= 10
    start = time.perf_counter()
    for r in range(1, 11):
        for s in range(0, r):
            m = message_dimension(r, s)
            assert m == cutset_bound(r, r, s + 1, 1)
            params = family_params(r, s, 2)
            assert params.rate == Fraction(2 * r - s, 2 * (r + 1))
    _report(3, time.perf_counter() - start, 1.0)


def test_criterion_4_partition_code():
    # the eight planes and the field block tile the nonzero vectors,
    # pairs meet trivially, triples span, and each of the 56 states has
    # exactly one valid newcomer given by the closed-form label
    start = time.perf_counter()
    model = build_partition()
    field = model.base
    everything = set()
    parts = [model.field_block] + [model.members[b] for b in range(8)]
    sizes = []
    for part in parts:
        vectors = {v for v in part.vectors() if any(v)}
        assert everything.isdisjoint(vectors)
        everything.update(vectors)
        sizes.append(len(vectors))
    assert sizes == [7] + [3] * 8
    assert len(everything) == 31
    members = [model.members[b] for b in range(8)]
    for a, b in itertools.combinations(members, 2):
        assert (a & b).dim == 0
    for triple in itertools.combinations(members, 3):
        total = zero_subspace(field, model.m)
        for space in triple:
            total = total + space
        assert total.dim == 5
    states = code_states(model)
    assert len(states) == 56
    for collection in states:
        choices = states.transitions[collection.key]
        assert len(choices) == 1
        labels = [model.label(space) for space in collection.spaces]
        expected = repair_label(*labels)
        assert choices[0] == model.members[expected]
        assert expected not in labels
        total = model.field8.frobenius(expected, 1)  # square of the label
        beta, gamma, delta = labels
        f8 = model.field8
        combination = f8.add(f8.add(f8.mul(beta, gamma), f8.mul(beta, delta)),
                             f8.mul(gamma, delta))
        assert total == combination
    _report(4, time.perf_counter() - start, 5.0)


def test_criterion_5_group_action():
    # all 168 semilinear maps are invertible, compose according to the
    # parameter law, and permute the planes by their labels
    start = time.perf_counter()
    model = build_partition()
    maps = enumerate_semilinear(model)
    assert len(maps) == 168
    by_params = {params: mapping for params, mapping in maps}
    assert len(by_params) == 168
    for (p1, m1), (p2, m2) in itertools.product(maps, maps):
        composed = m1.compose(m2)  # apply m2 first
        assert composed == by_params[compose_semilinear(p1, p2)]
    from frcodes.partition_code import label_action
    for params, mapping in maps:
        a, b, i = params
        for beta in range(8):
            image = mapping.apply(model.members[beta])
            assert image == model.members[label_action(a, b, i, beta)]
    _report(5, time.perf_counter() - start, 30.0)


def test_criterion_6_symmetry_search_pipeline():
    # searching from the canonical seed state recovers a group of order
    # 168 whose orbit is exactly the 56-state code; the number of
    # candidate transition classes is reported against the expected 8
    start = time.perf_counter()
    model = build_partition()
    states = code_states(model)
    collection, newcomer = canonical_seed_state(model)
    outcome = symmetry_search(collection, newcomer, partition_params(),
                              group_cap=5000, orbit_cap=500)
    assert outcome.results, outcome.render()
    canonical = set(states.collections)
    matching = []
    for result in outcome.results:
        assert result.group.order == 168
        assert len(result.states) == 56
        assert result.states.verify().ok
        if set(result.states.collections) == canonical:
            matching.append(result)
    assert matching, "no searched orbit reproduces the 56-state code"
    classes = sum(count for _, count in outcome.candidate_classes)
    note = "matches" if classes == 8 else "MISMATCH with"
    print(f"  candidate transition classes: {classes} ({note} the documented 8)")
    _report(6, time.perf_counter() - start, 600.0)


def test_criterion_7_maximality():
    # no collection of pairwise-trivially-meeting planes with spanning
    # triples exceeds the eight of the partition
    start = time.perf_counter()
    model = build_partition()
    assert max_collection_size(model) == 8
    _report(7, time.perf_counter() - start, 600.0)


def test_criterion_8_simulator_soak():
    # a thousand strict fail/repair/recover cycles on both codes: no
    # integrity failures, exactly three downloaded symbols per repair,
    # and identical seeds give byte-identical reports and transcripts
    start = time.perf_counter()
    from frcodes.cli import _render_transcripts

    model = build_partition()
    states = code_states(model)
    runs = []
    for _ in range(2):
        state = dss_init(states, (1, 0, 1, 1, 0), seed=42)
        runs.append(run_random(state, 1000))
    for report in runs:
        assert report.verdict == "ok"
        assert report.downloads == 1000 * 3
        assert all(t.total_download == 3 for t in report.transcripts)
    assert runs[0].render() == runs[1].render()
    assert _render_transcripts(runs[0].transcripts) == \
        _render_transcripts(runs[1].transcripts)

    lazy_runs = []
    for _ in range(2):
        code = family_state_space(3, 1, 2)
        code.verify()
        state = dss_init(code, (1, 1, 0, 1, 0), seed=42)
        lazy_runs.append(run_random(state, 1000))
    for report in lazy_runs:
        assert report.verdict == "ok"
        assert report.downloads == 1000 * 3
        assert all(t.total_download == 3 for t in report.transcripts)
    assert lazy_runs[0].render() == lazy_runs[1].render()
    _report(8, time.perf_counter() - start, 120.0)


def test_criterion_9_oracle_equivalence():
    # intersections, subspace counts and minimum distances agree with
    # brute-force vector-set computations on every small field
    start = time.perf_counter()
    cases = [(p, e, m) for p, e in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                    (2, 3), (3, 2))
             for m in range(1, 11) if (p ** e) ** m <= 1024]
    assert (2, 1, 10) in cases and (3, 2, 3) in cases
    rng = random.Random(11)
    for p, e, m in cases:
        field = GF(p, e)
        q = field.q
        # intersections against explicit vector sets
        for _ in range(4):
            a = span(field, m, [tuple(rng.randrange(q) for _ in range(m))
                                for _ in range(2)])
            b = span(field, m, [tuple(rng.randrange(q) for _ in range(m))
                                for _ in range(2)])
            meet = a & b
            assert set(meet.vectors()) == set(a.vectors()) & set(b.vectors())
        # enumeration counts against spans of explicit vector pairs
        if q ** m <= 128 and m >= 2:
            enumerated = {s.key for s in subspaces(field, m, 2)}
            assert len(enumerated) == gaussian_binomial(m, 2, q)
            nonzero = [v for v in
                       itertools.product(range(q), repeat=m) if any(v)]
            brute = {span(field, m, [u, v]).key
                     for u, v in itertools.combinations(nonzero, 2)
                     if rank_of(field, m, [u, v]) == 2}
            assert brute == enumerated
    # minimum distance of seeded codes, two independent ways
    for trial in range(20):
        field = GF(2) if trial % 2 == 0 else GF(3)
        q = field.q
        n, k = 5, 2
        rows = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(k)]
        if rank_of(field, n, rows) != k:
            continue
        words = span(field, n, rows).vectors()
        distance = min(sum(1 for a in w if a) for w in words if any(w))
        assert mds_check(field, rows, n, k, d_target=distance)
        assert not mds_check(field, rows, n, k, d_target=distance + 1)
    _report(9, time.perf_counter() - start, 120.0)
