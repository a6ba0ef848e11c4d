"""Functional-repair storage model built on collections of subspaces.

A code with parameters (m; n, k, r, alpha, beta) keeps the data vector
x in F_q^m spread over n nodes; node i stores the inner products of x
with a basis of an alpha-dimensional subspace U_i.  Any k node spaces
must jointly span F_q^m so that x can be recovered.  When a node fails,
each of r helper nodes exposes a beta-dimensional slice W_i of its
space, and the newcomer adopts an alpha-dimensional space inside
W_1 + ... + W_r.  A space obtained this way is called (r, beta)
obtainable from the survivors.

The admissible configurations are modelled as a set A of (n-1)-member
space collections (multisets): A satisfies the repair property when for
every collection in A there is at least one obtainable newcomer space U
such that replacing any single member by U lands inside A again, and
every collection contains a spanning k-subset.  `check_repair_property`
verifies exactly that, recording one witness per collection (or, on
request, every valid newcomer); `frcodes verify` runs it on every
collection.  An orbit of a symmetry group (`groupsearch.orbit_code`) is
checked at its seed alone, and its other members take the seed's
verdict.

One engine, `_newcomer_search`, decides which newcomers of a collection
are valid, given the membership test and the candidates to try:
- the completions of a listed A: replacing a member of C by a valid
  newcomer gives a member of A, so only those are tested for
  obtainability;
- a newcomer declared for the collection, a certificate that is checked
  alone and is the verdict;
- for a set whose membership is a predicate, every space that
  `iter_obtainable` enumerates.
The repair check, `valid_newcomers` and `reachable_closure` all ask it.
Only the two enumerations have a cap: `iter_obtainable` stops at
OBTAINABLE_CAP distinct candidates of one collection, `reachable_closure`
at CLOSURE_CAP collections.

Each slice sum W_1 + ... + W_r is held as a subspace echelon, extended
one slice at a time along the repairs, and a candidate lies in it when
its basis reduces to zero against it.  A canonical Subspace of a sum is
built in two places only: in `iter_obtainable`, for a sum of dimension
at least alpha whose subspaces it enumerates, and in `_newcomer_search`,
to order several pending candidates that first land in the same sum.

Collections are multisets: members are kept sorted by canonical key and
duplicates are significant.  All verification routines are pure
functions of immutable inputs and safe to call concurrently;
:class:`StateSet` only caches their results.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .gf import Field
from .subspace import (CapExceeded, Subspace, _echelon_extend, _echelon_holds, _echelon_space,
                       _require_same_space, _sum_dim, zero_subspace)

__all__ = [
    "CodeParams",
    "RepairingCollection",
    "RepairWitness",
    "AdmissibleState",
    "StateSet",
    "CollectionCheck",
    "RepairReport",
    "ClosureError",
    "is_recovery_set",
    "iter_obtainable",
    "find_repair_witness",
    "valid_newcomers",
    "check_repair_property",
    "reachable_closure",
    "OBTAINABLE_CAP",
]

OBTAINABLE_CAP = 10**5
CLOSURE_CAP = 100_000


class CodeParams:
    """Parameters (m; n, k, r, alpha, beta) of a functional-repair code."""

    __slots__ = ("m", "n", "k", "r", "alpha", "beta", "q")

    def __init__(self, m: int, n: int, k: int, r: int, alpha: int, beta: int, q: int):
        for name, value in zip(self.__slots__, (m, n, k, r, alpha, beta, q)):
            object.__setattr__(self, name, value)
        checks = [
            (m >= 1, "m must be positive"),
            (n >= 2, "n must be at least 2"),
            (1 <= k <= n, "k must satisfy 1 <= k <= n"),
            (1 <= r <= n - 1, "r must satisfy 1 <= r <= n - 1"),
            (1 <= alpha <= m, "alpha must satisfy 1 <= alpha <= m"),
            (1 <= beta <= alpha, "beta must satisfy 1 <= beta <= alpha"),
            (q >= 2, "q must be a field order"),
        ]
        for ok, msg in checks:
            if not ok:
                raise ValueError(f"invalid parameters {self}: {msg}")

    def __setattr__(self, name, value):
        raise AttributeError(f"CodeParams is immutable: cannot assign {name}")

    def __reduce__(self):
        # copies and unpickled records pass the checks again
        return CodeParams, self._values()

    def _values(self) -> tuple:
        return (self.m, self.n, self.k, self.r, self.alpha, self.beta, self.q)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CodeParams) and self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"CodeParams({fields})"


class RepairingCollection:
    """A multiset of n-1 node spaces, identified by sorted member keys."""

    __slots__ = ("spaces", "key")

    def __init__(self, spaces: Iterable[Subspace]):
        spaces = sorted(spaces, key=lambda s: s.key)
        if not spaces:
            raise ValueError("a repairing collection needs at least one member")
        first = spaces[0]
        for s in spaces[1:]:
            if s.field != first.field or s.m != first.m:
                raise ValueError("collection members live in different spaces")
        self.spaces = tuple(spaces)
        self.key = tuple(s.key for s in self.spaces)

    @property
    def field(self) -> Field:
        return self.spaces[0].field

    @property
    def m(self) -> int:
        return self.spaces[0].m

    def replace(self, index: int, newcomer: Subspace) -> "RepairingCollection":
        """Collection with the member at the given sorted position replaced."""
        members = list(self.spaces)
        members[index] = newcomer
        return RepairingCollection(members)

    def __len__(self) -> int:
        return len(self.spaces)

    def __iter__(self) -> Iterator[Subspace]:
        return iter(self.spaces)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RepairingCollection) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        dims = ",".join(str(s.dim) for s in self.spaces)
        return f"<Collection of {len(self.spaces)} spaces (dims {dims})>"


class RepairWitness(NamedTuple):
    """Proof that a newcomer space is (r, beta) obtainable.

    repair_indices point into the sorted member tuple of the collection;
    repair_spaces[i] is the beta-dimensional slice taken from that member.
    """

    repair_indices: tuple[int, ...]
    repair_spaces: tuple[Subspace, ...]

    def verify(self, collection: RepairingCollection, newcomer: Subspace,
               params: CodeParams) -> None:
        if len(self.repair_indices) != params.r or len(self.repair_spaces) != params.r:
            raise AssertionError("witness does not use exactly r helpers")
        if (len(set(self.repair_indices)) != params.r
                or not all(0 <= idx < len(collection.spaces) for idx in self.repair_indices)):
            raise AssertionError("witness helpers are not distinct members")
        total = zero_subspace(collection.field, collection.m)
        for idx, w in zip(self.repair_indices, self.repair_spaces):
            if w.dim != params.beta:
                raise AssertionError("repair space has wrong dimension")
            if not w <= collection.spaces[idx]:
                raise AssertionError("repair space is not inside its helper")
            total = total + w
        if not newcomer <= total:
            raise AssertionError("newcomer is not inside the sum of repair spaces")


class AdmissibleState(NamedTuple):
    """A collection together with a newcomer and its obtainability witness."""

    collection: RepairingCollection
    newcomer: Subspace
    witness: RepairWitness

    def verify(self, params: CodeParams) -> None:
        self.witness.verify(self.collection, self.newcomer, params)


# ----------------------------------------------------------------------
# recovery

def is_recovery_set(spaces: Sequence[Subspace], m: int) -> bool:
    """True when the spaces jointly span the full m-dimensional space."""
    if not spaces:
        return m == 0
    for s in spaces:
        if s.m != m:
            raise ValueError(f"ambient mismatch: {s.m} != {m}")
        _require_same_space(spaces[0], s)
    return _sum_dim(spaces) == m


# ----------------------------------------------------------------------
# obtainable newcomer spaces

def _slice_sums(collection: RepairingCollection, params: CodeParams
                ) -> Iterator[tuple[tuple[int, ...], tuple[Subspace, ...], list]]:
    """(indices, beta-slices, a subspace echelon of their sum, whose length
    is its dimension) of each (r, beta) repair, in the order of
    iter_obtainable; ValueError when there are fewer than r members."""
    n1 = len(collection.spaces)
    if params.r > n1:
        raise ValueError(f"r={params.r} helpers but only {n1} members")
    for indices in itertools.combinations(range(n1), params.r):
        slice_choices = [list(collection.spaces[i].subspaces(params.beta)) for i in indices]
        # product advances the last slice fastest, so the echelons of the
        # slices before the first changed one carry over
        sums: list[list] = [[]]
        previous: tuple[Subspace, ...] = ()
        for ws in itertools.product(*slice_choices):
            kept = 0
            while kept < len(previous) and ws[kept] is previous[kept]:
                kept += 1
            del sums[kept + 1:]
            for w in ws[kept:]:
                sums.append(_echelon_extend(sums[-1], w))
            previous = ws
            yield indices, ws, sums[-1]


def iter_obtainable(collection: RepairingCollection,
                    params: CodeParams) -> Iterator[tuple[Subspace, RepairWitness]]:
    """Each newcomer obtainable by an (r, beta) repair, once, with a witness.

    Deterministic order: repair sets by ascending index tuples, repair
    slices by canonical enumeration within each helper, candidate spaces
    by canonical enumeration within each slice sum.  A slice sum of
    dimension at least alpha is made a canonical Subspace to enumerate
    its candidates.  A newcomer reached by several repairs comes once,
    with the witness of its first appearance; CapExceeded is raised past
    OBTAINABLE_CAP distinct candidates.  Every newcomer search here calls it by its
    module-level name.
    """
    seen: set[bytes] = set()
    for indices, ws, total in _slice_sums(collection, params):
        if len(total) < params.alpha:
            continue
        witness = RepairWitness(indices, ws)
        for cand in _echelon_space(collection.field, collection.m,
                                   total).subspaces(params.alpha):
            if cand.key in seen:
                continue
            if len(seen) >= OBTAINABLE_CAP:
                raise CapExceeded(f"more than {OBTAINABLE_CAP} distinct candidate "
                                  "newcomers for one collection")
            seen.add(cand.key)
            yield cand, witness


def find_repair_witness(collection: RepairingCollection, target: Subspace,
                        params: CodeParams) -> Optional[RepairWitness]:
    """First witness showing the target is obtainable, or None.

    The first repair in the order of iter_obtainable whose slice sum
    contains the target; candidate spaces are never generated.  Raises
    ValueError when the collection has fewer than r members or the
    target lives in another space.
    """
    _require_same_space(target, collection.spaces[0])
    return next((RepairWitness(indices, ws)
                 for indices, ws, total in _slice_sums(collection, params)
                 if _echelon_holds(total, target)), None)


# ----------------------------------------------------------------------
# state sets and the repair property

class CollectionCheck(NamedTuple):
    """Verification record for one collection."""

    collection: RepairingCollection
    spanning_ok: bool
    state: Optional[AdmissibleState]
    valid_newcomers: Optional[tuple[Subspace, ...]] = None
    declared: Optional[Subspace] = None

    @property
    def ok(self) -> bool:
        return self.spanning_ok and self.state is not None

    @property
    def reason(self) -> str:
        if not self.spanning_ok:
            return "no spanning k-subset"
        if self.state is None and self.declared is not None:
            return f"declared newcomer {_short_hash(self.declared.key)} does not check"
        if self.state is None:
            return "no valid newcomer"
        return "ok"


class RepairReport(NamedTuple):
    """Outcome of checking the repair property over a whole state set."""

    params: CodeParams
    checks: list[CollectionCheck]
    full: bool

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> list[CollectionCheck]:
        return [c for c in self.checks if not c.ok]

    def render(self) -> str:
        lines = [f"collections checked: {len(self.checks)}"]
        bad = self.failures
        if bad:
            lines.append(f"failures: {len(bad)}")
            for c in bad[:20]:
                lines.append(f"  FAIL {c.reason}: {_short_hash(b''.join(c.collection.key))}")
        else:
            lines.append("verdict: repair property holds")
            if self.full:
                counts = sorted(len(c.valid_newcomers) for c in self.checks)
                if counts:
                    lines.append(f"valid newcomers per collection: min {counts[0]}, max {counts[-1]}")
        return "\n".join(lines)


def _require(holds: bool, claim: str) -> None:
    # internal invariants must hold under python -O as well, so they raise a RuntimeError
    if not holds:
        raise RuntimeError(f"internal check failed: {claim}")


def _short_hash(data: bytes) -> str:
    """The first 12 hex digits of the SHA-256 of data, for logs and reports."""
    # imported on first use: hashlib loads OpenSSL, a few milliseconds of
    # every command's start-up that only reports and logs need
    import hashlib
    return hashlib.sha256(data).hexdigest()[:12]


class StateSet:
    """A keyed set of repairing collections, with cached verification.

    certificates maps a collection key to its declared newcomer, such as
    a state line of a document or a pick of reachable_closure.  The
    repair check of that collection checks the declared newcomer alone
    and takes the result as the verdict.  verify() runs the full check;
    groupsearch.orbit_code records an orbit's report from its seed's
    verdict instead, and the full check stays the oracle of its tests.
    _completions gives the newcomer engine its candidates, _newcomers
    answers valid_newcomers and _witness the simulator's repair plans.
    """

    def __init__(self, params: CodeParams, collections: Iterable[RepairingCollection],
                 certificates: Optional[dict[tuple[bytes, ...], Subspace]] = None):
        self.params = params
        self.collections: dict[tuple[bytes, ...], RepairingCollection] = {}
        # each collection minus one member -> the removed members, by key
        self._completion_index: dict[tuple[bytes, ...], dict[bytes, Subspace]] = {}
        for c in collections:
            if len(c.spaces) != params.n - 1:
                raise ValueError(
                    f"collection has {len(c.spaces)} members, expected n-1 = {params.n - 1}")
            if c.field.q != params.q or c.m != params.m:
                raise ValueError("collection does not match the code parameters")
            self.collections[c.key] = c
            for i, u in enumerate(c.spaces):
                self._completion_index.setdefault(c.key[:i] + c.key[i + 1:], {})[u.key] = u
        self.report: Optional[RepairReport] = None
        self.transitions: Optional[dict[tuple[bytes, ...], tuple[Subspace, ...]]] = None
        self.witnesses: dict[tuple[bytes, ...], AdmissibleState] = {}
        self.certificates = dict(certificates or {})

    def __len__(self) -> int:
        return len(self.collections)

    def __contains__(self, item) -> bool:
        key = item.key if isinstance(item, RepairingCollection) else item
        return key in self.collections

    def __iter__(self) -> Iterator[RepairingCollection]:
        for key in sorted(self.collections):
            yield self.collections[key]

    @property
    def verified(self) -> bool:
        return self.report is not None and self.report.ok

    def verify(self, all_newcomers: bool = False) -> RepairReport:
        """Run (and cache) the repair-property check over this set."""
        if self.report is None or (all_newcomers and not self.report.full):
            self._record(check_repair_property(self, all_newcomers=all_newcomers))
        return self.report

    def _record(self, report: RepairReport) -> None:
        """Cache a report of this set: its witnesses, and with a full
        report every collection's valid newcomers."""
        self.report = report
        if report.full:
            self.transitions = {c.collection.key: c.valid_newcomers for c in report.checks}
        for c in report.checks:
            if c.state is not None:
                self.witnesses[c.collection.key] = c.state

    def _completions(self, collection: RepairingCollection) -> Optional[Iterable[Subspace]]:
        """The listed spaces U with collection.replace(0, U) in the set, of
        which every valid newcomer is one; None for a set whose listing is
        not its whole membership, whose newcomers are enumerated instead."""
        return self._completion_index.get(collection.key[1:], {}).values()

    def _newcomers(self, collection: RepairingCollection) -> tuple[Subspace, ...]:
        """The valid newcomers of a collection, from the cache of a full
        report or else from the newcomer engine."""
        if self.transitions is not None and collection.key in self.transitions:
            return self.transitions[collection.key]
        return _newcomer_search(self.params, self.__contains__, collection,
                                self._completions(collection), True)[1]

    def _witness(self, collection: RepairingCollection,
                 newcomer: Subspace) -> Optional[RepairWitness]:
        """The witness a report recorded with this newcomer, else None."""
        state = self.witnesses.get(collection.key)
        return state.witness if state and state.newcomer.key == newcomer.key else None


def _has_spanning_subset(collection: RepairingCollection, params: CodeParams) -> bool:
    for combo in itertools.combinations(collection.spaces, params.k):
        if is_recovery_set(list(combo), params.m):
            return True
    return False


def _replacements_inside(inside: Callable[[RepairingCollection], bool],
                         collection: RepairingCollection, cand: Subspace) -> bool:
    """True when every single-member replacement by cand satisfies inside."""
    for i in range(len(collection.spaces)):
        if i > 0 and collection.spaces[i].key == collection.spaces[i - 1].key:
            continue  # duplicate member, same replaced collection
        if not inside(collection.replace(i, cand)):
            return False
    return True


def _newcomer_search(params: CodeParams, inside: Callable[[RepairingCollection], bool],
                     collection: RepairingCollection,
                     candidates: Optional[Iterable[Subspace]], all_newcomers: bool
                     ) -> tuple[Optional[AdmissibleState], tuple[Subspace, ...]]:
    """The certificate of a collection and, with all_newcomers, its valid
    newcomers sorted by key (else an empty tuple).

    A valid newcomer is obtainable and has every replacement inside.
    The certificate is the first one in the order of iter_obtainable,
    with the witness of its first appearance.  Listed candidates (a
    set's completions, or one declared newcomer) are tested by dimension
    and replacements first, then placed in one pass over the slice sums;
    candidates=None tests the newcomers of iter_obtainable in turn.
    """
    state = None
    valid: list[Subspace] = []
    if candidates is None:
        for cand, witness in iter_obtainable(collection, params):
            if _replacements_inside(inside, collection, cand):
                if state is None:
                    state = AdmissibleState(collection, cand, witness)
                if not all_newcomers:
                    break
                valid.append(cand)
    else:
        pending = {u.key: u for u in candidates
                   if u.dim == params.alpha and _replacements_inside(inside, collection, u)}
        for indices, ws, total in _slice_sums(collection, params) if pending else ():
            held = [u for u in pending.values() if _echelon_holds(total, u)]
            if not held:
                continue
            if state is None:
                # the first held candidate in the slice sum's canonical order
                first = held[0] if len(held) == 1 else next(
                    c for c in _echelon_space(collection.field, collection.m,
                                              total).subspaces(params.alpha)
                    if c in held)
                state = AdmissibleState(collection, first, RepairWitness(indices, ws))
                if not all_newcomers:
                    break
            valid.extend(pending.pop(u.key) for u in held)
            if not pending:
                break
    return state, tuple(sorted(valid, key=lambda u: u.key))


def _check_collection(states: StateSet, collection: RepairingCollection,
                      all_newcomers: bool = False) -> CollectionCheck:
    """The repair-property record of one collection of the state set.

    A newcomer declared in states.certificates is the engine's only
    candidate, so it is the certificate or the collection fails, naming
    it.  Otherwise, and whenever every valid newcomer is wanted, the
    candidates are the set's completions.  check_repair_property calls
    it on every collection; groupsearch.orbit_code on an orbit's seed
    alone, whose verdict the other members take.
    """
    params = states.params
    spanning = _has_spanning_subset(collection, params)
    declared = None if all_newcomers else states.certificates.get(collection.key)
    candidates = states._completions(collection) if declared is None else (declared,)
    state, valid = _newcomer_search(params, states.__contains__, collection, candidates,
                                    all_newcomers)
    if state is not None:
        state.verify(params)
    return CollectionCheck(collection, spanning, state, valid if all_newcomers else None,
                           declared)


def check_repair_property(states: StateSet, all_newcomers: bool = False) -> RepairReport:
    """Verify the repair property of a state set.

    For every collection, finds a newcomer whose every single-member
    replacement stays inside the set, and checks that some k members
    span.  With all_newcomers=True the full set of valid newcomers is
    recorded instead of stopping at the first witness.  A collection
    with a declared newcomer (StateSet.certificates) is decided by that
    newcomer alone.  A predicate set enumerates through iter_obtainable,
    whose cap raises CapExceeded.
    """
    checks = [_check_collection(states, states.collections[key], all_newcomers)
              for key in sorted(states.collections)]
    return RepairReport(states.params, checks, all_newcomers)


def valid_newcomers(states: StateSet, collection: RepairingCollection) -> tuple[Subspace, ...]:
    """All obtainable newcomers whose replacements stay inside the set,
    sorted by canonical key: the answer of states._newcomers, which a
    set with a symmetry may give by moving another collection's answer.
    """
    return states._newcomers(collection)


# ----------------------------------------------------------------------
# closures

class ClosureError(RuntimeError):
    """A reachable closure could not certify one of its collections."""


def reachable_closure(seed: RepairingCollection, params: CodeParams,
                      admissible: Callable[[Sequence[Subspace]], bool]) -> StateSet:
    """A repair-closed set containing the seed, inside a predicate.

    Breadth-first: for each pending collection the newcomer engine finds
    the first obtainable newcomer whose every replacement is already
    found or satisfies the predicate; it is taken as the collection's
    certificate, and the replaced collections join the set, up to
    CLOSURE_CAP collections.  Only that one certificate is expanded per collection,
    so the result can be much smaller than the full predicate-admissible
    set.  The result carries each pick as its certificate, so verify()
    checks the picks without enumerating.  A pick is also the first
    valid newcomer of the result: every earlier candidate has a
    replacement outside the predicate, hence outside the result.
    """
    if not admissible(seed.spaces):
        raise ValueError("the seed collection does not satisfy the predicate")
    found: dict[tuple[bytes, ...], RepairingCollection] = {seed.key: seed}
    picks: dict[tuple[bytes, ...], Subspace] = {}
    queue = [seed]
    qi = 0
    while qi < len(queue):
        collection = queue[qi]
        qi += 1
        state, _ = _newcomer_search(params, lambda rc: rc.key in found or admissible(rc.spaces),
                                    collection, None, False)
        if state is None:
            raise ClosureError(
                f"no certifying newcomer for collection {_short_hash(b''.join(collection.key))}")
        picks[collection.key] = cand = state.newcomer
        for i in range(len(collection.spaces)):
            rc = collection.replace(i, cand)
            if rc.key not in found:
                if len(found) >= CLOSURE_CAP:
                    raise CapExceeded(f"reachable closure exceeded cap {CLOSURE_CAP}")
                found[rc.key] = rc
                queue.append(rc)
    return StateSet(params, found.values(), picks)
