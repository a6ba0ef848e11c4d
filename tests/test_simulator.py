"""Simulator semantics: storage, repair traffic, recovery, random runs."""

from __future__ import annotations

import collections
import hashlib
import itertools
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

import frcodes
from frcodes import cli
from frcodes.fsc import document_to_states, parse_fsc
from frcodes.gf import GF
from frcodes.simulator import (
    CorruptStateError,
    RecoveryError,
    collect,
    dss_init,
    fail,
    repair,
    run_random,
)
from frcodes.storage import (
    RepairingCollection,
    RepairWitness,
    find_repair_witness,
    is_recovery_set,
    valid_newcomers,
)
from frcodes.subspace import express, span, vec_dot
from oracles import exact_to_states, label_of, run_random_by_collect


@pytest.fixture(scope="module")
def exact_code(exact_code_spaces):
    params, spaces = exact_code_spaces
    code = exact_to_states(spaces, params)
    assert code.verify().ok
    return params, spaces, code


def node_with_space(state, space):
    matches = [node for node in state.nodes if node.space == space]
    assert len(matches) == 1
    return matches[0]


class TestInit:
    def test_initial_configuration(self, exact_code):
        params, spaces, code = exact_code
        x = (1, 0, 1, 1)
        state = dss_init(code, x, seed=7)
        assert len(state.nodes) == params.n
        assert all(node.alive for node in state.nodes)
        # the four nodes carry exactly the four original spaces
        held = sorted(node.space.key for node in state.nodes)
        assert held == sorted(s.key for s in spaces)
        assert state.message == x
        assert len(state.log) == 1

    def test_stored_symbols(self, exact_code):
        _, spaces, code = exact_code
        field = GF(2)
        x = (1, 1, 0, 1)
        state = dss_init(code, x)
        # the node holding <e_0, e_2+e_3> stores exactly x_0 and x_2+x_3
        node = node_with_space(state, spaces[0])
        assert node.space.rows == ((1, 0, 0, 0), (0, 0, 1, 1))
        assert node.stored == (x[0], x[2] ^ x[3])
        # every node stores the inner products with its canonical basis
        for node in state.nodes:
            expect = tuple(vec_dot(field, x, row) for row in node.space.rows)
            assert node.stored == expect

    def test_rejects_unverified_code(self, exact_code_spaces):
        params, spaces = exact_code_spaces
        fresh = exact_to_states(spaces, params)
        with pytest.raises(ValueError, match="verified"):
            dss_init(fresh, (0, 0, 0, 0))

    def test_rejects_bad_message(self, exact_code):
        _, _, code = exact_code
        with pytest.raises(ValueError, match="length"):
            dss_init(code, (1, 0, 1))
        with pytest.raises(ValueError):
            dss_init(code, (1, 0, 1, 2))


class TestRepair:
    def test_documented_repair_values(self, exact_code):
        params, spaces, code = exact_code
        field = GF(2)
        # repairing the <e_0, e_2+e_3> node: the survivors serve
        # x_0+x_3, x_2 and x_3, and those three symbols rebuild both
        # stored coordinates of the newcomer
        x = (1, 1, 0, 1)
        w_rows = [(1, 0, 0, 1), (0, 0, 1, 0), (0, 0, 0, 1)]
        downloads = [vec_dot(field, x, w) for w in w_rows]
        assert downloads == [x[0] ^ x[3], x[2], x[3]]
        survivors = sorted(spaces[1:], key=lambda s: s.key)
        indices = tuple(survivors.index(spaces[i]) for i in (1, 2, 3))
        witness = RepairWitness(indices, tuple(
            span(field, 4, [w]) for w in w_rows))
        witness.verify(RepairingCollection(survivors), spaces[0], params)
        # the three downloads rebuild both stored symbols of the newcomer
        assert downloads[0] ^ downloads[2] == x[0]
        assert downloads[1] ^ downloads[2] == x[2] ^ x[3]

    def test_repair_is_exact_here(self, exact_code):
        _, spaces, code = exact_code
        x = (1, 0, 1, 1)
        state = dss_init(code, x, seed=3)
        for i in range(4):
            node = node_with_space(state, spaces[i])
            before_space = node.space
            before_stored = node.stored
            fail(state, node.id)
            transcript = repair(state)
            assert transcript.failed_id == node.id
            assert node.space == before_space
            assert node.stored == before_stored
            assert transcript.newcomer == before_space
            assert transcript.total_download == 3
            assert len(transcript.shares) == 3
            for share in transcript.shares:
                helper = state.nodes[share.helper_id]
                assert share.repair_space <= helper.space
                assert share.repair_space.dim == 1
                assert len(share.downloads) == 1
                # the download is a combination of the helper's stored symbols
                for row, symbol in zip(share.combination, share.downloads):
                    assert vec_dot(GF(2), row, helper.stored) == symbol

    def test_repair_requires_failure(self, exact_code):
        _, _, code = exact_code
        state = dss_init(code, (0, 1, 0, 1))
        with pytest.raises(ValueError, match="no node has failed"):
            repair(state)
        fail(state, 2)
        repair(state)

    def test_single_failure_only(self, exact_code):
        _, _, code = exact_code
        state = dss_init(code, (0, 1, 0, 1))
        fail(state, 0)
        with pytest.raises(ValueError, match="already failed"):
            fail(state, 1)
        with pytest.raises(ValueError, match="no node"):
            fail(state, 9)

    def test_corrupt_state_detected(self, exact_code):
        _, _, code = exact_code
        state = dss_init(code, (1, 1, 1, 1), strict=False)
        foreign = span(GF(2), 4, [(1, 0, 0, 0), (0, 1, 0, 0)])
        state.nodes[0].space = foreign
        fail(state, 3)
        with pytest.raises(CorruptStateError):
            repair(state)

    @pytest.mark.parametrize("strict", [True, False])
    def test_left_node_set_outside_the_code_detected(self, exact_code, strict, monkeypatch):
        # a repeated repair finds its survivors and plan memoized; once its
        # configuration is forgotten and the code admits nothing more, the
        # leave-one-out check of the node set it leaves fails, in either mode
        from frcodes import storage

        _, _, code = exact_code
        state = dss_init(code, (1, 1, 1, 1), strict=strict)
        fail(state, 0)
        repair(state)
        fail(state, 0)
        state.configurations.clear()
        monkeypatch.setattr(storage.StateSet, "__contains__", lambda self, collection: False)
        with pytest.raises(CorruptStateError, match="repair event 1 of node 0: without node 0 "):
            repair(state)
        assert state.configurations == {}


class TestCollect:
    def test_every_pair_recovers(self, exact_code):
        _, _, code = exact_code
        x = (1, 0, 0, 1)
        state = dss_init(code, x)
        for i in range(4):
            for j in range(i + 1, 4):
                assert collect(state, [i, j]) == x

    def test_single_node_insufficient(self, exact_code):
        _, _, code = exact_code
        state = dss_init(code, (1, 0, 0, 1))
        with pytest.raises(RecoveryError, match="insufficient"):
            collect(state, [0])

    def test_repeated_node_id(self, exact_code):
        # a repeated node adds only dependent equations; its key appears
        # twice in the decoder's key
        _, _, code = exact_code
        x = (1, 0, 1, 1)
        state = dss_init(code, x)
        assert collect(state, [2, 0, 2]) == x
        key = tuple(sorted(state.nodes[i].space.key for i in (0, 2, 2)))
        assert state.decoders[key] is not None
        with pytest.raises(RecoveryError, match="span only 2 of 4 dimensions"):
            collect(state, [1, 1])

    def test_collect_validates_nodes(self, exact_code):
        _, _, code = exact_code
        state = dss_init(code, (1, 0, 0, 1))
        with pytest.raises(ValueError, match="no node"):
            collect(state, [0, 7])
        fail(state, 1)
        with pytest.raises(ValueError, match="failed"):
            collect(state, [0, 1])


class TestRuns:
    def test_deterministic_reports(self, exact_code):
        _, _, code = exact_code
        x = (1, 1, 0, 1)
        first = run_random(dss_init(code, x, seed=11), 25)
        second = run_random(dss_init(code, x, seed=11), 25)
        assert first.render() == second.render()
        assert first.verdict == "ok"
        assert first.downloads == 25 * 3
        assert 1 <= first.distinct_states <= 4

    def test_zero_steps(self, exact_code):
        _, _, code = exact_code
        report = run_random(dss_init(code, (0, 0, 0, 0), seed=1), 0)
        assert report.steps == 0
        assert report.downloads == 0
        assert report.verdict == "ok"
        assert len(report.log) == 1

    def test_zero_message(self, exact_code):
        _, _, code = exact_code
        state = dss_init(code, (0, 0, 0, 0), seed=2)
        assert all(node.stored == (0, 0) for node in state.nodes)
        report = run_random(state, 10)
        assert report.verdict == "ok"
        assert all(node.stored == (0, 0) for node in state.nodes)

    def test_fast_mode(self, exact_code):
        _, _, code = exact_code
        state = dss_init(code, (1, 0, 1, 0), seed=9, strict=False)
        report = run_random(state, 15)
        assert report.verdict == "ok"


class TestPartitionCode:
    def test_forced_newcomer_label(self, partition_model, partition_states):
        from frcodes.partition_code import repair_label

        x = (1, 0, 1, 1, 0)
        state = dss_init(partition_states, x, seed=4)
        fail(state, 2)
        survivors = [n for n in state.nodes if n.id != 2]
        labels = [label_of(partition_model, n.space) for n in survivors]
        transcript = repair(state)
        expect = repair_label(*labels)
        assert label_of(partition_model, transcript.newcomer) == expect

    def test_run(self, partition_states):
        x = (1, 0, 1, 1, 0)
        report = run_random(dss_init(partition_states, x, seed=21), 30)
        assert report.verdict == "ok"
        assert report.downloads == 30 * 3
        assert report.distinct_states <= 56

    def test_witness_found_once_per_pair(self, partition_states, monkeypatch):
        # the repair witness of a (collection, newcomer) pair is computed
        # once; every event still uses the witness a fresh search finds
        from frcodes import simulator

        pairs = []

        def counted(collection, target, params):
            pairs.append((collection.key, target.key))
            return find_repair_witness(collection, target, params)

        monkeypatch.setattr(simulator, "find_repair_witness", counted)
        x = (0, 1, 1, 0, 1)
        report = run_random(dss_init(partition_states, x, seed=8), 120)
        assert report.verdict == "ok"
        assert len(pairs) == len(set(pairs)) < 120
        params = partition_states.params
        for transcript in report.transcripts:
            collection = partition_states.collections[transcript.collection_key]
            fresh = find_repair_witness(collection, transcript.newcomer, params)
            assert tuple(share.repair_space for share in transcript.shares) \
                == fresh.repair_spaces


class TestCorruptRecovery:
    """A flipped stored symbol that no repair reads before a recovery does.

    Recovery from k spanning nodes solves more equations than unknowns,
    so the flip can leave them without a solution: that ends the run
    with verdict FAILED, like a corrupt repair, not with an exception.
    """

    @staticmethod
    def flipped_run(code, seed, column, strict):
        x = (1, 0, 1, 1, 0)
        state = dss_init(code, x, seed=seed, strict=strict)
        assert run_random(state, 5).verdict == "ok"
        node = state.nodes[0]
        stored = list(node.stored)
        stored[column] ^= 1
        node.stored = tuple(stored)
        return run_random(state, 20)

    @pytest.mark.parametrize("seed, column, strict", [(28, 0, True), (23, 1, True),
                                                      (0, 0, False), (20, 1, False)])
    def test_inconsistent_symbols_end_the_run(self, partition_states, seed, column, strict):
        report = self.flipped_run(partition_states, seed, column, strict)
        assert report.verdict == "FAILED"
        last = report.log[-1]
        assert last.startswith("corrupt state: nodes [")
        assert last.endswith("span the space but their stored symbols give no solution")

    def test_inconsistent_symbols_over_gf3_end_the_run(self):
        # the same over the tuple rows of GF(3): two planes of F_3^3 give
        # four equations in three unknowns
        from frcodes.family import family_state_space

        code = family_state_space(2, 1, 3)
        code.verify()
        state = dss_init(code, (1, 2, 0), seed=2)
        assert run_random(state, 5).verdict == "ok"
        node = state.nodes[0]
        node.stored = (node.stored[0], (node.stored[1] + 1) % 3)
        report = run_random(state, 20)
        assert report.verdict == "FAILED"
        assert report.log[-1] == ("corrupt state: nodes [0, 1] span the space but "
                                  "their stored symbols give no solution")

    def test_collect_names_the_nodes(self, partition_states):
        # three planes of F_2^5 give six equations in five unknowns, so
        # flipping a symbol of a row that the others determine leaves the
        # system without a solution
        state = dss_init(partition_states, (1, 0, 1, 1, 0), seed=3)
        ids = next(combo for combo in itertools.combinations(range(4), 3)
                   if is_recovery_set([state.nodes[i].space for i in combo], 5))
        assert collect(state, ids) == state.message
        errors = []
        for i in ids:
            node = state.nodes[i]
            kept = node.stored
            for column in range(len(kept)):
                node.stored = kept[:column] + (kept[column] ^ 1,) + kept[column + 1:]
                try:
                    collect(state, ids)
                except CorruptStateError as err:
                    errors.append(str(err))
            node.stored = kept
        assert errors
        assert set(errors) == {f"nodes {list(ids)} span the space but their stored "
                               "symbols give no solution"}


class TestFamilyCode:
    def test_lazy_set_run(self):
        from frcodes.family import family_state_space, is_good

        code = family_state_space(3, 1, 2)
        code.verify()
        x = (1, 1, 0, 1, 0)
        state = dss_init(code, x, seed=13)
        report = run_random(state, 40)
        assert report.verdict == "ok"
        assert report.downloads == 40 * 3
        # every node space is still part of a good collection
        for node in state.nodes:
            others = [n.space for n in state.nodes if n.id != node.id]
            assert is_good(others, 3, 1)

    def test_randomized_newcomer_choice(self):
        from frcodes.family import family_state_space

        code = family_state_space(3, 1, 2)
        code.verify()
        state = dss_init(code, (1, 0, 0, 1, 1), seed=6)
        fail(state, 0)
        survivors = [n for n in state.nodes if n.id != 0]
        collection = RepairingCollection([n.space for n in survivors])
        choices = valid_newcomers(code, collection)
        transcript = repair(state, randomize=True)
        assert transcript.newcomer in choices

    def test_seeded_family_runs_are_pinned(self):
        # sha256 digests of two seeded runs on the (3, 1) family code,
        # recorded when every newcomer tuple came from a direct search:
        # moved newcomers must give the same choices in the same order
        from frcodes.family import family_state_space

        code = family_state_space(3, 1, 2)
        code.verify()
        soak = run_random(dss_init(code, (1, 0, 1, 1, 0), seed=2026), 300)
        assert soak.verdict == "ok"
        assert hashlib.sha256(soak.render().encode()).hexdigest() == \
            "5cdfe41fcb80dab7b7770ecfbc9896220fc007b89dca95b647f29350b6f7b2ec"
        # randomized repairs draw from the whole newcomer tuple
        code = family_state_space(3, 1, 2)
        code.verify()
        state = dss_init(code, (0, 1, 1, 0, 1), seed=4049)
        for _ in range(200):
            fail(state, state.rng.randrange(len(state.nodes)))
            repair(state, randomize=True)
        assert hashlib.sha256("\n".join(state.log).encode()).hexdigest() == \
            "2a556745f54cc32d0b8446f1095e1ca55068ac305abe0b682b7a6806aa706b40"

    @pytest.mark.parametrize("q, digest", [
        (3, "915c6fe0dbc62b31486734d869faf8ee58a195278db7bcfe87deac7f375f25f0"),
        (4, "d252e2b7f553e226106e346c7b59eed7e8a57041978c04c0922b469d11486dcf"),
    ])
    def test_seeded_larger_field_runs_are_pinned(self, q, digest):
        # the tuple-row path: strict runs on the (2, 1) family code over
        # GF(3) and GF(4), pinned by the sha256 of the report
        from frcodes.family import family_state_space

        code = family_state_space(2, 1, q)
        code.verify()
        x = tuple((i + 1) % q for i in range(code.params.m))
        report = run_random(dss_init(code, x, seed=7), 200)
        assert report.verdict == "ok"
        assert hashlib.sha256(report.render().encode()).hexdigest() == digest


def soak_against_oracle(code, x, seed, steps, monkeypatch):
    """Run steps single-event runs, checking each against a direct computation.

    Each share's combination and each rebuilt symbol are recomputed by
    a fresh express, and every k-subset of every configuration visited
    must have a memoized decoder, None exactly when is_recovery_set
    fails.  express may run only when a (collection, newcomer) pair is
    met for the first time, at most alpha times: once per newcomer basis
    row, since the helper combinations are read at the helpers' pivots.
    Returns the final state.
    """
    from frcodes import simulator

    calls = []

    def counted(field, target, generators):
        calls.append(target)
        return express(field, target, generators)

    monkeypatch.setattr(simulator, "express", counted)
    params = code.params
    state = dss_init(code, x, seed=seed)
    field = state.field
    pairs = set()
    configurations = set()
    subsets = set()
    for _ in range(steps):
        before = len(calls)
        report = run_random(state, 1)
        assert report.verdict == "ok"
        (transcript,) = report.transcripts
        pair = (transcript.collection_key, transcript.newcomer.key)
        spent = len(calls) - before
        if pair in pairs:
            assert spent == 0
        else:
            assert spent <= params.alpha
            pairs.add(pair)
        flat_rows = []
        flat_downloads = []
        for share in transcript.shares:
            helper = state.nodes[share.helper_id]
            assert share.combination == tuple(
                express(field, w_row, helper.space.rows)
                for w_row in share.repair_space.rows)
            flat_rows.extend(share.repair_space.rows)
            flat_downloads.extend(share.downloads)
        assert transcript.new_stored == tuple(
            vec_dot(field, express(field, row, flat_rows), flat_downloads)
            for row in transcript.newcomer.rows)
        configurations.add(tuple(sorted(node.space.key for node in state.nodes)))
        for combo in itertools.combinations(state.nodes, params.k):
            key = tuple(sorted(node.space.key for node in combo))
            subsets.add(key)
            spans = is_recovery_set([node.space for node in combo], params.m)
            assert (state.decoders[key] is not None) == spans
    # the memos grow only with distinct configurations
    assert sum(len(plans) for _, plans in state.newcomer_cache.values()) == len(pairs)
    assert set(state.configurations) == configurations
    assert set(state.decoders) == subsets
    # single-event runs continue the generator: one run gives the same log
    whole = run_random(dss_init(code, x, seed=seed), steps)
    assert whole.log == tuple(state.log)
    return state


class TestWorkCounts:
    """The main phase of the benchmark soaks reduces once per node multiset.

    With the message and seed of each soak's first process (perfbench
    seed 1, index 0), in strict mode: no solve, vec_dot or rank_of call,
    one decoder per distinct sorted key tuple of a node subset, and one
    sort of the n nodes (_configuration) per event.  A repair plan takes
    the witness the code holds, so find_repair_witness runs only for the
    family's representatives.
    """

    @staticmethod
    def count_calls(bindings, monkeypatch):
        """A counter of the calls to each (owner, name) binding."""
        calls = collections.Counter()
        for owner, name in bindings:
            def counted(*args, name=name, fn=getattr(owner, name), **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)
        return calls

    def counted_run(self, code, x, seed, steps, monkeypatch):
        from frcodes import family, simulator, subspace

        state = dss_init(code, x, seed=seed)
        calls = self.count_calls(
            [(module, name) for module in (subspace, simulator)
             for name in ("solve", "vec_dot", "rank_of", "_decoder")
             if hasattr(module, name)]
            + [(simulator, "_configuration"), (simulator, "find_repair_witness"),
               (family, "find_repair_witness")], monkeypatch)
        assert run_random(state, steps).verdict == "ok"
        return state, calls

    def test_soak56_counts(self, partition_states, monkeypatch):
        state, calls = self.counted_run(partition_states, (0, 1, 0, 1, 0), 1351038068,
                                        500, monkeypatch)
        assert calls == {"_decoder": 56, "_configuration": 500}
        assert len(state.decoders) == 56

    def test_soak56_warm_run_does_only_dot_products(self, monkeypatch):
        # the code56 benchmark input, verified as frcodes simulate does: a
        # second run on the same state meets only the 56 configurations of
        # the first, so it builds and looks up no collection and finds no
        # newcomer, witness or decoder.  A recovery reads its subset's
        # decoder from the configuration's table, not through collect
        from frcodes import simulator, storage

        state = dss_init(code56(), (0, 1, 0, 1, 0), seed=1351038068)
        calls = self.count_calls(
            [(storage.RepairingCollection, "__init__"), (storage.StateSet, "__contains__"),
             (simulator, "valid_newcomers"), (simulator, "find_repair_witness"),
             (simulator, "collect"), (simulator, "_node_decoder"), (simulator, "_decoder")],
            monkeypatch)
        assert run_random(state, 500).verdict == "ok"
        # a collection per new survivor key (56) and per leave-one-out
        # admission (4 for each of the 56 configurations), and none per
        # newcomer search, whose replacements are looked up in the code's
        # completion index; k-subset decoders are looked up once per
        # (configuration, k-subset), when its table is built.  Each plan
        # takes the witness verify() recorded, so no witness is searched
        assert calls == {"__init__": 280, "__contains__": 280, "valid_newcomers": 56,
                         "_node_decoder": 224, "_decoder": 56}
        assert calls["find_repair_witness"] == 0
        calls.clear()
        assert run_random(state, 500).verdict == "ok"
        assert calls == {}

    def test_soak_family_counts(self, monkeypatch):
        from frcodes.family import family_state_space

        code = family_state_space(3, 1, 2)
        code.verify()
        state, calls = self.counted_run(code, (1, 1, 1, 1, 1), 2037067407, 300,
                                        monkeypatch)
        # one witness search per (orbit, newcomer) the placed plans meet;
        # every other plan moves its representative's witness
        assert calls == {"_decoder": 574, "_configuration": 300, "find_repair_witness": 8}
        assert len(state.decoders) == 574


def code56():
    """The benchmark's 56-state code, verified as frcodes simulate does."""
    data = pathlib.Path(__file__).parents[1] / "perfbench" / "data" / "code56.fsc"
    code = document_to_states(parse_fsc(data.read_text(encoding="utf-8")))
    code.verify()
    return code


@pytest.fixture(scope="module")
def loop_codes():
    from frcodes.family import family_state_space

    codes = {"code56": code56()}
    for q in (3, 4):
        codes[f"family21{q}"] = code = family_state_space(2, 1, q)
        code.verify()
    return codes


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("name", ["code56", "family213", "family214"])
def test_run_random_matches_the_loop_by_collect(loop_codes, name, strict):
    # the memoized event loop against one built from fail, repair,
    # collect and is_recovery_set, on one pair of states: a cold run, a
    # warm one, one after randomized repairs spread the configurations
    # (the family codes run on tuple rows), and one after a stored
    # symbol is flipped, whose failure line names the nodes that caught it
    code = loop_codes[name]
    q = code.params.q
    x = tuple((3 * i + 1) % q for i in range(code.params.m))
    states = [dss_init(code, x, seed=12, strict=strict) for _ in range(2)]
    for phase in ("cold", "warm", "spread", "flipped"):
        for state in states:
            if phase == "spread":
                for _ in range(60):
                    fail(state, state.rng.randrange(len(state.nodes)))
                    repair(state, randomize=True)
            if phase == "flipped":
                # a node the next event does not fail
                victim = random.Random()
                victim.setstate(state.rng.getstate())
                node = state.nodes[(victim.randrange(len(state.nodes)) + 1) % len(state.nodes)]
                node.stored = ((node.stored[0] + 1) % q,) + node.stored[1:]
        report = run_random(states[0], 100)
        assert report == run_random_by_collect(states[1], 100)
        assert report.verdict == ("FAILED" if phase == "flipped" else "ok")


class TestWarmTables:
    """Warm configuration tables and held rows follow every node change."""

    @pytest.mark.parametrize("strict", [True, False])
    def test_space_swapped_after_warm_run_is_caught(self, loop_codes, strict):
        # after a run that met every configuration, a node the next event
        # does not fail gets a space outside the code: the next repair
        # must find its survivors outside the code, not a table entry
        state = dss_init(loop_codes["code56"], (0, 1, 0, 1, 0), seed=1351038068,
                         strict=strict)
        assert run_random(state, 500).verdict == "ok"
        upcoming = random.Random()
        upcoming.setstate(state.rng.getstate())
        node = state.nodes[(upcoming.randrange(len(state.nodes)) + 1) % len(state.nodes)]
        foreign = span(GF(2), 5, [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0)])
        assert not any(foreign.key in key for key in state.configurations)
        node.space = foreign
        report = run_random(state, 1)
        assert report.verdict == "FAILED"
        assert report.log[-1].startswith("corrupt state: repair event 500 of node ")
        assert report.log[-1].endswith("the survivors form no admissible collection")

    @pytest.mark.parametrize("name, outside", [("code56", 2), ("family213", 3)])
    def test_bad_stored_symbols_raise_at_assignment(self, loop_codes, name, outside):
        # GF(2) bit rows and GF(3) tuple rows: the held row is packed when
        # stored is assigned, so a symbol outside the field or a row of
        # the wrong length raises there and leaves the node as it was
        code = loop_codes[name]
        q = code.params.q
        x = tuple((3 * i + 1) % q for i in range(code.params.m))
        state = dss_init(code, x, seed=3)
        node = state.nodes[0]
        kept, held = node.stored, node.held
        for symbols in [(outside,) + kept[1:], kept[:-1] + (-1,), kept + (0,), kept[1:]]:
            with pytest.raises(ValueError):
                node.stored = symbols
            assert (node.stored, node.held) == (kept, held)
        assert run_random(state, 20).verdict == "ok"


class TestMemos:
    def test_partition_soak_matches_oracle(self, partition_states, monkeypatch):
        state = soak_against_oracle(partition_states, (1, 0, 1, 1, 0), 31, 300,
                                    monkeypatch)
        assert len(state.newcomer_cache) <= 56

    def test_family_soak_matches_oracle(self, monkeypatch):
        from frcodes.family import family_state_space

        code = family_state_space(3, 1, 2)
        code.verify()
        soak_against_oracle(code, (0, 1, 1, 0, 1), 32, 300, monkeypatch)


    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_plan_combinations_match_express(self, partition_states, q):
        # the 56-state code over GF(2), and the (2, 1) family codes over
        # GF(3) and GF(4) on tuple rows: every plan a seeded run builds
        # holds the combinations express finds in each helper's basis
        from frcodes.family import family_state_space
        from frcodes.subspace import _kernels

        code = partition_states if q == 2 else family_state_space(2, 1, q)
        code.verify()
        x = tuple((i + 1) % q for i in range(code.params.m))
        state = dss_init(code, x, seed=5)
        assert run_random(state, 200).verdict == "ok"
        field = state.field
        pack = _kernels(field).pack
        plans = [(key, plan) for key, (_, by_newcomer) in state.newcomer_cache.items()
                 for plan in by_newcomer.values()]
        assert plans
        for key, plan in plans:
            collection = code.collections[key]
            for position, repair_space, combination, held in plan.helpers:
                helper = collection.spaces[position]
                assert combination == tuple(express(field, row, helper.rows)
                                            for row in repair_space.rows)
                assert held == tuple(pack(coeffs, helper.dim) for coeffs in combination)


class TestHeldWitnesses:
    """Repair plans take the witness the code holds, not a fresh search."""

    @pytest.mark.parametrize("mode", ["strict", "fast", "randomize"])
    @pytest.mark.parametrize("r, s, q", [(3, 1, 2), (2, 1, 3), (2, 1, 4)])
    def test_family_repairs_match_a_fresh_witness_search(self, r, s, q, mode):
        # every repair of a family code, whose plan moves a
        # representative's witness, serves the slices that a fresh
        # find_repair_witness on the survivors finds
        from frcodes.family import family_state_space

        self.check_against_fresh_witnesses(family_state_space(r, s, q), q, mode)

    def test_plain_family_code_repairs_match_a_fresh_witness_search(self, monkeypatch):
        # family_code is a plain StateSet holding one witness per
        # collection; 3 of its 9 collections have several valid
        # newcomers, so a random newcomer without a held witness makes
        # the plan search for one
        from frcodes import simulator
        from frcodes.family import family_code

        searched = []

        def counted(*args):
            searched.append(args)
            return find_repair_witness(*args)

        monkeypatch.setattr(simulator, "find_repair_witness", counted)
        self.check_against_fresh_witnesses(family_code(2, 1, 3), 3, "randomize")
        assert searched

    @staticmethod
    def check_against_fresh_witnesses(code, q, mode):
        code.verify()
        params = code.params
        x = tuple((2 * i + 1) % q for i in range(params.m))
        state = dss_init(code, x, seed=11, strict=mode != "fast")
        if mode == "randomize":
            transcripts = []
            for _ in range(150):
                fail(state, state.rng.randrange(len(state.nodes)))
                transcripts.append(repair(state, randomize=True))
        else:
            report = run_random(state, 150)
            assert report.verdict == "ok"
            transcripts = report.transcripts
        for transcript in transcripts:
            collection = code.collections[transcript.collection_key]
            fresh = find_repair_witness(collection, transcript.newcomer, params)
            assert tuple(share.repair_space for share in transcript.shares) \
                == fresh.repair_spaces

    def test_planted_witness_outside_its_helper_is_refused(self):
        # a recorded witness whose first slice leaves its helper: the plan
        # check raises before any symbol moves, so no repair completes
        from frcodes.storage import AdmissibleState
        from frcodes.subspace import full_space

        code = code56()
        state = dss_init(code, (0, 1, 0, 1, 0), seed=5)
        fail(state, 0)
        collection = RepairingCollection([node.space for node in state.nodes[1:]])
        newcomer = valid_newcomers(code, collection)[0]
        held = code.witnesses[collection.key]
        assert held.newcomer == newcomer
        helper = collection.spaces[held.witness.repair_indices[0]]
        outside = next(w for w in full_space(state.field, 5).subspaces(1) if not w <= helper)
        code.witnesses[collection.key] = AdmissibleState(collection, newcomer, RepairWitness(
            held.witness.repair_indices, (outside,) + held.witness.repair_spaces[1:]))
        log = list(state.log)
        with pytest.raises(RuntimeError, match="lies in its helper"):
            repair(state)
        assert not state.nodes[0].alive
        assert state.log == log
        assert not state.newcomer_cache[collection.key][1]

    def test_tampered_rebuild_rows_are_caught(self):
        # a memoized plan whose rebuild rows are swapped rebuilds the
        # newcomer's symbols in the wrong order; strict mode refuses them
        state = dss_init(code56(), (1, 0, 1, 1, 0), seed=3)
        fail(state, 0)
        first = repair(state)
        assert first.new_stored[0] != first.new_stored[1]
        _, plans = state.newcomer_cache[first.collection_key]
        plan = plans[first.newcomer.key]
        plans[first.newcomer.key] = plan._replace(rebuild=plan.rebuild[::-1])
        fail(state, 0)
        with pytest.raises(CorruptStateError, match="a rebuilt symbol disagrees"):
            repair(state)


def tampered_after_warm_up(x=(1, 0, 1, 1, 0), seed=41, warm=100):
    """Flip a stored symbol after warm memos; the run must still catch it.

    Two identical systems run warm strict events on the 56-state code.
    One runs a probe event, which shows a helper symbol the next repair
    combines and that its plan is memoized; the other gets that symbol
    flipped and runs on.
    """
    from frcodes.partition_code import build_partition, code_states

    code = code_states(build_partition())
    probe = dss_init(code, x, seed=seed)
    state = dss_init(code, x, seed=seed)
    warm_ups = [run_random(probe, warm).verdict, run_random(state, warm).verdict]
    upcoming = run_random(probe, 1).transcripts[0]
    share = upcoming.shares[0]
    column = next(j for j, c in enumerate(share.combination[0]) if c)
    _, plans = state.newcomer_cache.get(upcoming.collection_key, ((), {}))
    helper = state.nodes[share.helper_id]
    stored = list(helper.stored)
    stored[column] ^= 1
    helper.stored = tuple(stored)
    report = run_random(state, warm)
    return {"optimize": sys.flags.optimize, "helper": helper.id, "warm_ups": warm_ups,
            "warm_plan": upcoming.newcomer.key in plans,
            "verdict": report.verdict, "log": list(report.log)}


EXAMPLE = pathlib.Path(__file__).parent / "data" / "example1.fsc"


def example_code():
    # also runs under python -O, where an assert would not verify
    code = document_to_states(parse_fsc(EXAMPLE.read_text(encoding="utf-8")))
    code.verify()
    return code


def corrupted_state(code, x, seed, strict=True):
    """A fresh system with one stored symbol flipped that its first repair reads.

    An uncorrupted run from the same seed shows which helper symbols the
    first repair combines; one with a nonzero coefficient is flipped.
    """
    probe = run_random(dss_init(code, x, seed=seed), 1)
    share = probe.transcripts[0].shares[0]
    column = next(j for j, c in enumerate(share.combination[0]) if c)
    state = dss_init(code, x, seed=seed, strict=strict)
    helper = state.nodes[share.helper_id]
    stored = list(helper.stored)
    stored[column] ^= 1
    helper.stored = tuple(stored)
    return state, share.helper_id


def corrupted_run(x=(1, 0, 1, 1), seed=7):
    state, helper = corrupted_state(example_code(), x, seed)
    report = run_random(state, 1)
    return {"optimize": sys.flags.optimize, "helper": helper,
            "verdict": report.verdict, "log": list(report.log)}


class TestStrictChecks:
    def check_report(self, outcome):
        assert outcome["verdict"] == "FAILED"
        last = outcome["log"][-1]
        assert last.startswith("corrupt state: repair event 0 of node ")
        assert f"helper node {outcome['helper']} served a symbol" in last
        assert not any("integrity failure" in line for line in outcome["log"])

    def test_corrupt_helper_caught_at_repair(self):
        self.check_report(corrupted_run())

    @staticmethod
    def run_optimized(name):
        # asserts are stripped under -O; the strict checks must not be
        src = str(pathlib.Path(frcodes.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src, str(pathlib.Path(__file__).parent)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        script = ("import json, test_simulator; "
                  f"print(json.dumps(test_simulator.{name}()))")
        done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outcome = json.loads(done.stdout)
        assert outcome["optimize"] == 1
        return outcome

    def test_corrupt_helper_caught_under_optimize(self):
        self.check_report(self.run_optimized("corrupted_run"))

    def check_tampered(self, outcome):
        assert outcome["warm_ups"] == ["ok", "ok"]
        assert outcome["warm_plan"]
        assert outcome["verdict"] == "FAILED"
        last = outcome["log"][-1]
        assert last.startswith("corrupt state: repair event ")
        assert f"helper node {outcome['helper']} served a symbol" in last

    def test_tamper_after_warm_up_caught(self):
        self.check_tampered(tampered_after_warm_up())

    def test_tamper_after_warm_up_caught_under_optimize(self):
        self.check_tampered(self.run_optimized("tampered_after_warm_up"))

    def test_cli_exits_2_on_corrupt_state(self, monkeypatch, capsys):
        monkeypatch.setattr(
            cli, "dss_init",
            lambda code, x, seed, strict: corrupted_state(code, x, seed, strict)[0])
        assert cli.main(["simulate", str(EXAMPLE), "--data", "1011",
                         "--steps", "1", "--seed", "7"]) == 2
        out = capsys.readouterr().out
        assert "integrity: FAILED" in out
        assert "corrupt state: repair event 0 of node" in out
