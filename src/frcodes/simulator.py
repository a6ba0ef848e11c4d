"""Operational storage semantics on top of a verified state set.

A simulated system keeps n nodes, each holding the inner products of
the stored message with its subspace's canonical basis.  Failing a node
and repairing it walks the state set: the survivors form a repairing
collection, a valid newcomer is chosen, each helper computes and serves
exactly beta symbols from its own stored data, and the newcomer's
symbols are rebuilt as combinations of the downloads alone.  Long
seeded random runs check, after every repair, that every spanning
choice of nodes still recovers the original message and that every
repair moved exactly the promised number of symbols.  The checks are
explicit errors, not asserts, so they hold under python -O as well.

The linear algebra of an event depends only on the node spaces, so it
is done once per distinct configuration, keyed by canonical subspace
keys: the valid newcomers and a repair plan (the witness with each
helper's combination rows, the newcomer's rebuild rows and log label)
per sorted key tuple of the survivors and newcomer key, a decoder
(recovery and check rows from one reduction) per sorted key tuple of a
node subset, and, per sorted key tuple of all n nodes, the leave-one-out
admission and a recovery table of the spanning k-subsets, as positions
in the sorted nodes, with their decoders.  A warm event reads its
tables and does its dot products.  A new plan takes the witness the
code holds (StateSet._witness), else runs find_repair_witness, and
checks it.  Each node also holds its stored symbols as a held row,
packed and checked on every assignment.  No memo holds stored data:
every download, rebuilt symbol and recovery is computed from the held
rows on every event and, in strict mode, checked against the message.
A helper's combination rows are the repair rows read at the helper's
pivots, where its canonical basis is the identity; only the rebuild
rows are found by express.
"""

from __future__ import annotations

import itertools
import operator
import random
from typing import NamedTuple, Optional, Sequence

from .storage import (
    CodeParams,
    RepairingCollection,
    StateSet,
    _require,
    _short_hash,
    find_repair_witness,
    valid_newcomers,
)
from .subspace import Subspace, Vector, _decoder, _kernels, express, rank_of

__all__ = [
    "Node",
    "HelperShare",
    "RepairTranscript",
    "DssState",
    "RunReport",
    "CorruptStateError",
    "RecoveryError",
    "dss_init",
    "fail",
    "repair",
    "collect",
    "run_random",
]


class CorruptStateError(RuntimeError):
    """The live nodes no longer match the code or the stored message.

    Raised when the survivors form no collection of the code, when a
    repair leaves a node set outside the code, when the stored symbols
    of spanning nodes are inconsistent and, in strict mode, when a
    download or a rebuilt symbol disagrees with the message.
    """


class RecoveryError(RuntimeError):
    """The selected nodes do not hold enough information to recover."""


class Node:
    """One storage node: a subspace, the symbols stored for its basis rows, and their held row."""

    __slots__ = ("id", "space", "_stored", "held", "alive")

    def __init__(self, id: int, space: Subspace, stored: tuple[int, ...]):
        self.id = id
        self.space = space
        self.stored = stored
        self.alive = True

    @property
    def stored(self) -> tuple[int, ...]:
        return self._stored

    @stored.setter
    def stored(self, symbols: Sequence[int]) -> None:
        symbols = tuple(symbols)
        self.held, self._stored = self.space._k.pack(symbols, self.space.dim), symbols


class HelperShare(NamedTuple):
    """What one helper contributed to a repair.

    The combination rows express the repair space's basis in the
    helper's basis, so each downloaded symbol is a combination of the
    helper's stored symbols only.
    """

    helper_id: int
    repair_space: Subspace
    combination: tuple[tuple[int, ...], ...]
    downloads: tuple[int, ...]


class RepairTranscript(NamedTuple):
    """Full record of one repair event."""

    failed_id: int
    helper_ids: tuple[int, ...]
    shares: tuple[HelperShare, ...]
    collection_key: tuple[bytes, ...]
    newcomer: Subspace
    newcomer_basis: tuple[tuple[int, ...], ...]
    new_stored: tuple[int, ...]

    @property
    def total_download(self) -> int:
        return sum(len(share.downloads) for share in self.shares)


class DssState:
    """A running system: parameters, code, nodes, message and event log.

    Every repair checks that the node set it leaves is in the code.
    strict mode checks every download and rebuilt symbol against the
    message, and checks recovery from every spanning subset after each
    random step; fast mode skips the symbol checks and samples one
    subset.

    Three memos, each keyed by canonical subspace keys and growing only
    with distinct configurations: newcomer_cache maps a collection key
    to its valid newcomers and to the repair plans built so far, by
    newcomer key; decoders maps the sorted key tuple of a node subset
    to its recovery and check rows, or None when it does not span;
    configurations maps the sorted key tuple of all n nodes, once every
    leave-one-out collection is found in the code, to its spanning
    k-subsets of sorted positions, in combinations order, each with its
    decoder, or to None until run_random first recovers from it.
    held_message is the message packed once, as a held row; _configured,
    the last repair's sorted nodes and key tuple.
    """

    __slots__ = ("params", "code", "nodes", "message", "seed", "strict", "rng", "log",
                 "newcomer_cache", "decoders", "configurations", "held_message", "_configured")

    def __init__(self, params: CodeParams, code: StateSet, nodes: list[Node],
                 message: tuple[int, ...], seed: int, strict: bool, rng: random.Random):
        self.params = params
        self.code = code
        self.nodes = nodes
        self.message = message
        self.seed = seed
        self.strict = strict
        self.rng = rng
        self.log = []
        self.newcomer_cache = {}
        self.decoders = {}
        self.configurations = {}
        self.held_message = _kernels(self.field).pack(message, params.m)
        self._configured = ()

    @property
    def field(self):
        return self.nodes[0].space.field

    @property
    def failed_node(self) -> Optional[Node]:
        down = [node for node in self.nodes if not node.alive]
        return down[0] if down else None


def dss_init(code: StateSet, x: Sequence[int], seed: int = 0,
             strict: bool = True) -> DssState:
    """Start a system holding x, in a deterministic initial configuration.

    The initial nodes are the members of the least collection verified
    with a newcomer witness, plus that recorded newcomer; each node
    stores the inner products of x with its canonical basis rows.  Only
    a verified code is accepted.
    """
    if not code.verified:
        raise ValueError("code must be verified before simulation")
    if not code.witnesses:
        raise ValueError("no verified collection to start from: the code is empty")
    params = code.params
    first = code.collections[min(code.witnesses)]
    x = tuple(x)
    if len(x) != params.m:
        raise ValueError(f"message length {len(x)} does not match ambient {params.m}")
    held = _kernels(first.field).pack(x, params.m)
    newcomer = code.witnesses[first.key].newcomer
    spaces = list(first.spaces) + [newcomer]
    nodes = [Node(i, space, tuple([space._k.dot(held, b) for b in space._basis]))
             for i, space in enumerate(spaces)]
    state = DssState(params, code, nodes, x, seed, strict, random.Random(seed))
    state.log.append(
        f"init: {params.n} nodes, collection {_short_hash(b''.join(first.key))}, "
        f"newcomer {_short_hash(newcomer.key)}")
    return state


def fail(state: DssState, node_id: int) -> None:
    """Mark one node as failed; only one failure may be outstanding."""
    if not 0 <= node_id < len(state.nodes):
        raise ValueError(f"no node {node_id}")
    current = state.failed_node
    if current is not None:
        raise ValueError(f"node {current.id} is already failed")
    state.nodes[node_id].alive = False
    state.log.append(f"fail: node {node_id}")


_by_space = operator.attrgetter("space.key", "id")


def _survivor_collection(state: DssState, survivors: list[Node],
                         failed_id: int) -> RepairingCollection:
    collection = RepairingCollection([node.space for node in survivors])
    if collection not in state.code:
        raise CorruptStateError(
            f"{_event(state, failed_id)}: the survivors form no admissible collection")
    return collection


def _event(state: DssState, failed_id: int) -> str:
    # the running repair, numbered from 0 like the events of a transcript
    done = sum(1 for line in state.log if line.startswith("repair:"))
    return f"repair event {done} of node {failed_id}"


class _RepairPlan(NamedTuple):
    """The linear maps of one (collection, newcomer) repair.

    helpers holds, per helper of the repair witness, its sorted position
    in the collection, its repair space and the combination rows (the
    repair basis read at the helper's pivots), as tuples and as held
    rows; rebuild holds the held rows, found by express, that write each
    newcomer basis row over the concatenated repair rows; label is the
    newcomer's short hash for the log line.
    """

    helpers: tuple[tuple[int, Subspace, tuple[Vector, ...], tuple], ...]
    rebuild: tuple
    label: str


def _repair_plan(code: StateSet, collection: RepairingCollection,
                 newcomer: Subspace) -> _RepairPlan:
    witness = (code._witness(collection, newcomer)
               or find_repair_witness(collection, newcomer, code.params))
    _require(witness is not None, "a valid newcomer has a repair witness")
    field = collection.field
    k = _kernels(field)
    helpers = []
    flat_rows: list[Vector] = []
    for position, repair_space in zip(witness.repair_indices, witness.repair_spaces):
        helper = collection.spaces[position]
        combination = tuple([tuple([w_row[p] for p in helper.pivots])
                             for w_row in repair_space.rows])
        held = tuple([k.pack(coeffs, helper.dim) for coeffs in combination])
        _require(k.matmul(held, helper._basis) == list(repair_space._basis),
                 "a repair space lies in its helper's space")
        helpers.append((position, repair_space, combination, held))
        flat_rows.extend(repair_space.rows)
    rebuild = []
    for basis_row in newcomer.rows:
        coeffs = express(field, basis_row, flat_rows)
        _require(coeffs is not None, "the newcomer lies in the span of the downloads")
        rebuild.append(k.pack(coeffs, len(coeffs)))
    return _RepairPlan(tuple(helpers), tuple(rebuild), _short_hash(newcomer.key))


def repair(state: DssState, randomize: bool = False) -> RepairTranscript:
    """Repair the failed node from the other n-1 by beta-symbol downloads.

    The survivors must form a collection of the code; the newcomer is
    the least valid newcomer, or a seeded-random one when randomize is
    set.  Helpers compute their downloads from stored symbols only, and
    the newcomer's symbols are rebuilt from the downloads alone; in
    strict mode both are checked against the message.
    """
    failed = state.failed_node
    if failed is None:
        raise ValueError("no node has failed")
    ordered = sorted([node for node in state.nodes if node is not failed], key=_by_space)
    _require(all(node.alive for node in ordered), "every survivor is alive")
    key = tuple([node.space.key for node in ordered])
    collection = None
    cached = state.newcomer_cache.get(key)
    if cached is None:
        collection = _survivor_collection(state, ordered, failed.id)
        cached = state.newcomer_cache[key] = (valid_newcomers(state.code, collection), {})
    choices, plans = cached
    _require(bool(choices), "a verified code offers a newcomer")
    newcomer = state.rng.choice(choices) if randomize else choices[0]
    plan = plans.get(newcomer.key)
    if plan is None:
        plan = plans[newcomer.key] = _repair_plan(
            state.code, collection or _survivor_collection(state, ordered, failed.id), newcomer)
    k = _kernels(state.field)
    shares = []
    flat_downloads: list[int] = []
    for position, repair_space, combination, held in plan.helpers:
        helper = ordered[position]
        downloads = tuple([k.dot(coeffs, helper.held) for coeffs in held])
        if state.strict and any(symbol != k.dot(state.held_message, w_row)
                                for w_row, symbol in zip(repair_space._basis, downloads)):
            raise CorruptStateError(
                f"{_event(state, failed.id)}: helper node {helper.id} served "
                "a symbol that disagrees with the message")
        shares.append(HelperShare(helper.id, repair_space, combination, downloads))
        flat_downloads.extend(downloads)
    downloaded = len(flat_downloads)
    received = k.pack(flat_downloads, downloaded)
    new_stored = tuple([k.dot(coeffs, received) for coeffs in plan.rebuild])
    if state.strict and any(symbol != k.dot(state.held_message, basis_row)
                            for basis_row, symbol in zip(newcomer._basis, new_stored)):
        raise CorruptStateError(
            f"{_event(state, failed.id)}: a rebuilt symbol disagrees with the message")
    failed.space = newcomer
    failed.stored = new_stored
    failed.alive = True
    transcript = RepairTranscript(
        failed.id, tuple(share.helper_id for share in shares), tuple(shares),
        key, newcomer, newcomer.rows, new_stored)
    _require(downloaded == state.params.r * state.params.beta,
             "a repair downloads r * beta symbols")
    # the node set left must be in the code, checked once per configuration
    state._configured = _configuration(state, failed.id)
    state.log.append(
        f"repair: node {failed.id} <- helpers "
        f"{','.join(str(i) for i in transcript.helper_ids)}, "
        f"newcomer {plan.label}, downloaded {downloaded}")
    return transcript


def _configuration(state: DssState, failed_id: int) -> tuple[list[Node], tuple[bytes, ...]]:
    # the nodes sorted by _by_space and their key tuple, entered in
    # state.configurations once every leave-one-out collection is in the code
    ordered = sorted(state.nodes, key=_by_space)
    key = tuple([node.space.key for node in ordered])
    if key not in state.configurations:
        for node in state.nodes:
            others = RepairingCollection([o.space for o in state.nodes if o is not node])
            if others not in state.code:
                raise CorruptStateError(
                    f"{_event(state, failed_id)}: without node {node.id} the "
                    "nodes form no collection of the code")
        state.configurations[key] = None
    return ordered, key


def _node_decoder(state: DssState, nodes: Sequence[Node]) -> Optional[tuple]:
    # one reduction per multiset of node spaces; nodes come sorted by _by_space,
    # so their rows follow the key tuple, a repeated node once per naming
    key = tuple([node.space.key for node in nodes])
    if key not in state.decoders:
        rows = [row for node in nodes for row in node.space.rows]
        state.decoders[key] = _decoder(state.field, state.params.m, rows)
    return state.decoders[key]


def collect(state: DssState, node_ids: Sequence[int]) -> tuple[int, ...]:
    """Recover the message from the stored symbols of the chosen nodes.

    Raises RecoveryError when the nodes do not span, and
    CorruptStateError when they span but their stored symbols admit no
    message.
    """
    params = state.params
    nodes = []
    for node_id in node_ids:
        if not 0 <= node_id < len(state.nodes):
            raise ValueError(f"no node {node_id}")
        node = state.nodes[node_id]
        if not node.alive:
            raise ValueError(f"node {node_id} is failed")
        nodes.append(node)
    nodes.sort(key=_by_space)
    decoder = _node_decoder(state, nodes)
    if decoder is None:
        rank = rank_of(state.field, params.m, [r for node in nodes for r in node.space.rows])
        raise RecoveryError(
            f"nodes {list(node_ids)} span only {rank} of {params.m} dimensions; "
            "insufficient to recover")
    return _recover(state, nodes, decoder, node_ids)


def _recover(state: DssState, nodes: Sequence[Node], decoder: tuple,
             node_ids: Sequence[int]) -> tuple[int, ...]:
    # the message from the held rows of nodes sorted as their decoder's rows
    recover, checks = decoder
    k = _kernels(state.field)
    rhs, width = nodes[0].held, nodes[0].space.dim
    for node in nodes[1:]:
        rhs, width = k.join(rhs, node.held, width), width + node.space.dim
    if any(k.dot(check, rhs) for check in checks):
        raise CorruptStateError(
            f"nodes {list(node_ids)} span the space but their stored symbols "
            "give no solution")
    return tuple([k.dot(row, rhs) for row in recover])


class RunReport(NamedTuple):
    """Outcome of a random failure/repair/collect run."""

    steps: int
    seed: int
    distinct_states: int
    downloads: int
    verdict: str
    log: tuple[str, ...]
    transcripts: tuple[RepairTranscript, ...] = ()

    def render(self) -> str:
        lines = [
            f"run: {self.steps} steps, seed {self.seed}",
            f"states visited: {self.distinct_states}",
            f"downloads: {self.downloads} symbols",
            f"integrity: {self.verdict}",
            "--- log ---",
        ]
        lines.extend(self.log)
        return "\n".join(lines)


def run_random(state: DssState, steps: int) -> RunReport:
    """Cycle random failures, repairs and recoveries, checking integrity.

    Each step fails a uniformly random node, repairs it, and recovers
    the message from spanning node subsets: every spanning subset of
    size k in strict mode, one seeded choice otherwise.  A repair that
    finds the state corrupt, a recovery from inconsistent stored
    symbols, or a recovery that misses the message, ends the run with
    verdict FAILED and a log line that says where.
    Identical seeds give identical reports.
    """
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    visited: set[tuple[bytes, ...]] = set()
    transcripts: list[RepairTranscript] = []
    downloads = 0

    def failed(line: str) -> RunReport:
        state.log.append(line)
        return RunReport(steps, state.seed, len(visited), downloads,
                         "FAILED", tuple(state.log), tuple(transcripts))

    for _ in range(steps):
        victim = state.rng.randrange(len(state.nodes))
        fail(state, victim)
        try:
            transcript = repair(state)
        except CorruptStateError as err:
            return failed(f"corrupt state: {err}")
        transcripts.append(transcript)
        visited.add(transcript.collection_key)
        downloads += transcript.total_download
        ordered, key = state._configured
        table = state.configurations[key]
        if table is None:
            combos = itertools.combinations(range(len(ordered)), state.params.k)
            table = state.configurations[key] = tuple([
                (subset, decoder) for subset in combos
                if (decoder := _node_decoder(state, [ordered[p] for p in subset])) is not None])
        # the spanning subsets by node ids, in the order of combinations(range(n), k)
        spanning = sorted([(tuple(sorted([ordered[p].id for p in subset])), subset, decoder)
                           for subset, decoder in table])
        _require(bool(spanning), "some k nodes span after a verified repair")
        for ids, subset, decoder in spanning if state.strict else [state.rng.choice(spanning)]:
            try:
                recovered = _recover(state, [ordered[p] for p in subset], decoder, ids)
            except CorruptStateError as err:
                return failed(f"corrupt state: {err}")
            if recovered != state.message:
                return failed(f"integrity failure at nodes {ids}")
    return RunReport(steps, state.seed, len(visited), downloads, "ok",
                     tuple(state.log), tuple(transcripts))
