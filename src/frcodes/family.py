"""A family of functional-repair codes built from good collections.

For r > s >= 0 the family has parameters (m; n, k, r, alpha, beta) =
(m; r+1, r, r, s+1, 1) with message dimension

    m = (r - s)(s + 1) + s + (s - 1) + ... + 1.

A collection of r spaces of dimension s+1 in F_q^m is called (r, s) good
when the span of any r-s+j of them has dimension
(r-s)(s+1) + s + ... + (s+1-j), for every j = 0..s.  Good collections
are the admissible repairing collections of the family.

Repair hinges on an equivalence: pick a vector w_i in each member,
avoiding the part of that member covered by the span of the others (see
`forbidden_traces`), and a candidate newcomer U inside the span of the
w_i; let C be the set of coefficient vectors c with sum_j c_j w_j in U.
Then every one-member replacement by U is again good exactly when the
w_i are independent and C is an [r, s+1, r-s] MDS code.  The avoidance
hypothesis is essential: without it there are choices whose code is MDS
while a replacement still fails (the newcomer can meet an unreplaced
member in a vector the w_i never see).  `family_step` uses the forward
direction, with its own choice of the w_i and of the MDS code, to
produce newcomers that provably preserve goodness, and
`construct_good` bootstraps a good collection recursively from
coordinate axes.  The tests check both sides of the equivalence against
each other.

The parameters meet the storage cutset bound with equality, which
`cutset_bound` makes checkable.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, NamedTuple, Optional, Sequence

from .gf import GF, Field, _prime_power
from .groupsearch import LinearMap, _moved_witness, _traces, _transporter
from .storage import (
    CodeParams,
    RepairWitness,
    RepairingCollection,
    StateSet,
    _newcomer_search,
    _replacements_inside,
    _require,
    find_repair_witness,
    reachable_closure,
)
from .subspace import (
    CapExceeded,
    Subspace,
    Vector,
    _sum_dim,
    matmul,
    rank_of,
    span,
    subspaces,
)

__all__ = [
    "message_dimension",
    "family_params",
    "is_good",
    "GoodCollection",
    "mds_check",
    "mds_generator",
    "NoMDSCodeError",
    "forbidden_traces",
    "construct_good",
    "StepResult",
    "family_step",
    "random_walk",
    "cutset_bound",
    "family_code",
    "family_state_space",
    "GoodCollectionSet",
    "CODEWORD_CAP",
]


CODEWORD_CAP = 1 << 16
MDS_SEARCH_CAP = 10**5
# backtracking nodes of one map search from an orbit representative
TRANSPORT_CAP = 10**4


def message_dimension(r: int, s: int) -> int:
    """Ambient dimension of the family code for locality r and level s."""
    if not (isinstance(r, int) and isinstance(s, int)):
        raise ValueError(f"parameters must be integers, got {r!r}, {s!r}")
    if not r > s >= 0:
        raise ValueError(f"need r > s >= 0, got r={r}, s={s}")
    return (r - s) * (s + 1) + s * (s + 1) // 2


def family_params(r: int, s: int, q: int) -> CodeParams:
    """Full parameter set (m; n, k, r, alpha, beta) of the family member."""
    m = message_dimension(r, s)
    return CodeParams(m=m, n=r + 1, k=r, r=r, alpha=s + 1, beta=1, q=q)


def _span_dim_target(r: int, s: int, j: int) -> int:
    return (r - s) * (s + 1) + sum(s - t for t in range(j))


def is_good(spaces: Sequence[Subspace], r: int, s: int) -> bool:
    """Whether r spaces of dimension s+1 form an (r, s) good collection."""
    m = message_dimension(r, s)
    if len(spaces) != r:
        raise ValueError(f"expected {r} spaces, got {len(spaces)}")
    for u in spaces:
        if u.m != m:
            raise ValueError(f"space in ambient dimension {u.m}, expected {m}")
        if u.dim != s + 1:
            raise ValueError(f"space of dimension {u.dim}, expected {s + 1}")
        if u.field != spaces[0].field:
            raise ValueError("spaces live over different fields")
    for j in range(s + 1):
        target = _span_dim_target(r, s, j)
        for combo in itertools.combinations(spaces, r - s + j):
            if _sum_dim(combo) != target:
                return False
    return True


class GoodCollection:
    """An (r, s) good collection, validated on construction.

    Member order is preserved: repair choices index into it.
    """

    __slots__ = ("r", "s", "spaces")

    def __init__(self, r: int, s: int, spaces: tuple[Subspace, ...]):
        if not is_good(spaces, r, s):
            raise ValueError(f"the {r} spaces are not ({r},{s}) good")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "spaces", spaces)

    def __setattr__(self, name, value):
        raise AttributeError(f"GoodCollection is immutable: cannot assign {name}")

    def __reduce__(self):
        return GoodCollection, (self.r, self.s, self.spaces)

    @property
    def field(self) -> Field:
        return self.spaces[0].field

    @property
    def m(self) -> int:
        return self.spaces[0].m

    @property
    def params(self) -> CodeParams:
        return family_params(self.r, self.s, self.field.q)

    def to_repairing_collection(self) -> RepairingCollection:
        return RepairingCollection(self.spaces)


def _min_weight(words: Iterable[Vector]) -> int:
    best = 0
    for w in words:
        weight = sum(1 for a in w if a)
        if weight and (best == 0 or weight < best):
            best = weight
    return best


def mds_check(field: Field, generator: Sequence[Sequence[int]], r: int, kdim: int) -> bool:
    """Whether the generator spans an [r, kdim, r-kdim+1] MDS code.

    The minimum distance is computed exhaustively over all q^kdim
    codewords; no algebraic shortcut.
    """
    rows = [tuple(row) for row in generator]
    for row in rows:
        if len(row) != r:
            raise ValueError(f"generator row of length {len(row)}, expected {r}")
    if len(rows) != kdim or rank_of(field, r, rows) != kdim:
        return False
    return _min_weight(span(field, r, rows).vectors(CODEWORD_CAP)) == r - kdim + 1


class NoMDSCodeError(ValueError):
    """No MDS code of the asked length and dimension exists over the field."""


def mds_generator(field: Field, r: int, kdim: int) -> tuple[Vector, ...]:
    """Canonical generator of an [r, kdim, r-kdim+1] MDS code over the field.

    Identity, repetition and single-parity codes are hardwired; otherwise
    a (possibly extended) Reed-Solomon generator is used when the field
    is large enough, and a last-resort exhaustive search covers the rest.
    Raises when no MDS code exists within the cap.
    """
    if not 1 <= kdim <= r:
        raise ValueError(f"need 1 <= kdim <= r, got kdim={kdim}, r={r}")
    q = field.q

    def power(x: int, i: int) -> int:
        if i == 0:
            return 1
        return field.pow(x, i) if x else 0

    rows: Optional[tuple[Vector, ...]] = None
    if kdim == r:
        rows = tuple(tuple(1 if j == i else 0 for j in range(r)) for i in range(r))
    elif kdim == 1:
        rows = ((1,) * r,)
    elif kdim == r - 1:
        minus = field.neg(1)
        rows = tuple(tuple(1 if j == i else (minus if j == r - 1 else 0)
                           for j in range(r)) for i in range(r - 1))
    elif q >= r:
        points = list(field.elements())[:r]
        rows = tuple(tuple(power(x, i) for x in points) for i in range(kdim))
    elif q == r - 1:
        # all q evaluation points plus the point at infinity
        points = list(field.elements())
        rows = tuple(tuple(power(x, i) for x in points) + (1 if i == kdim - 1 else 0,)
                     for i in range(kdim))
    else:
        count = 0
        for cand in subspaces(field, r, kdim):
            count += 1
            if count > MDS_SEARCH_CAP:
                raise CapExceeded(f"MDS search visited more than {MDS_SEARCH_CAP} candidates")
            if mds_check(field, cand.rows, r, kdim):
                rows = cand.rows
                break
        if rows is None:
            raise NoMDSCodeError(f"no [{r},{kdim},{r - kdim + 1}] MDS code over GF({q})")
    _require(mds_check(field, rows, r, kdim),
             f"the canonical [{r},{kdim}] generator is MDS over GF({q})")
    return rows


def forbidden_traces(collection: GoodCollection) -> tuple[Subspace, ...]:
    """For each member, its intersection with the span of the others.

    Repair vectors must avoid these traces (an s-dimensional slice of
    each member): a vector in the trace is also reachable through the
    other members, and newcomers built over it can silently keep a
    nontrivial intersection with an unreplaced member.
    """
    return _traces(collection.spaces)


def construct_good(r: int, s: int, q: int) -> GoodCollection:
    """Build an (r, s) good collection deterministically.

    Recursion on s: the base s = 0 is the coordinate axes of F_q^r, and
    each step embeds the previous collection in r-s extra coordinates
    and adjoins one new generator per member, drawn from the columns of
    a canonical [r, r-s] MDS generator so that any r-s of them are
    independent.
    """
    m = message_dimension(r, s)
    field = GF(*_prime_power(q))
    rows_per_space: list[list[Vector]] = [[] for _ in range(r)]
    # base: 1-dimensional axes in F^r, occupying the first r coordinates
    for i in range(r):
        rows_per_space[i].append(tuple(1 if j == i else 0 for j in range(m)))
    offset = r
    for level in range(1, s + 1):
        block = r - level
        gen = mds_generator(field, r, block)
        for i in range(r):
            column = tuple(gen[t][i] for t in range(block))
            rows_per_space[i].append(
                (0,) * offset + column + (0,) * (m - offset - block))
        offset += block
    _require(offset == m, "the levels fill the message dimension")
    spaces = tuple(span(field, m, rows) for rows in rows_per_space)
    return GoodCollection(r, s, spaces)


class StepResult(NamedTuple):
    """One repair move: newcomer, its witness and the r replaced collections."""

    collection: GoodCollection
    w: tuple[Vector, ...]
    generator: tuple[Vector, ...]
    newcomer: Subspace
    replacements: tuple[GoodCollection, ...]
    witness: RepairWitness


def choose_repair_vectors(collection: GoodCollection,
                          rng: Optional[random.Random] = None) -> tuple[Vector, ...]:
    """An independent, trace-avoiding choice of one vector per member.

    Deterministic without an rng (first choice in enumeration order that
    stays independent, found by backtracking); uniformly random with
    retries otherwise.  Goodness guarantees a choice exists.
    """
    field = collection.field
    m = collection.m
    r = collection.r
    traces = forbidden_traces(collection)
    options = [[v for v in u.vectors() if any(v) and v not in t]
               for u, t in zip(collection.spaces, traces)]
    if rng is not None:
        while True:
            picked = [opts[rng.randrange(len(opts))] for opts in options]
            if rank_of(field, m, picked) == r:
                return tuple(picked)
    chosen: list[Vector] = []

    def extend(i: int) -> bool:
        if i == r:
            return True
        for v in options[i]:
            chosen.append(v)
            if rank_of(field, m, chosen) == i + 1 and extend(i + 1):
                return True
            chosen.pop()
        return False

    _require(extend(0), "a good collection has independent repair vectors")
    return tuple(chosen)


def family_step(collection: GoodCollection,
                rng: Optional[random.Random] = None) -> StepResult:
    """Produce a newcomer preserving goodness, with all r replacements.

    The hypotheses of the forward direction hold by construction:
    mds_generator gives a checked [r, s+1, r-s] MDS generator (or raises
    when the field has none), and choose_repair_vectors independent
    repair vectors w off the forbidden traces.  The newcomer is the
    image of the MDS coefficient code under c -> sum_j c_j w_j; the
    replaced collections are validated on construction.  The witness
    records the one-dimensional repair space spanned by w_i inside
    member i.
    """
    r, s = collection.r, collection.s
    field = collection.field
    m = collection.m
    generator = mds_generator(field, r, s + 1)
    w = choose_repair_vectors(collection, rng)
    newcomer = span(field, m, matmul(field, generator, w))
    _require(newcomer.dim == s + 1, "the newcomer has dimension s + 1")
    replacements = []
    for i in range(r):
        members = list(collection.spaces)
        members[i] = newcomer
        replacements.append(GoodCollection(r, s, tuple(members)))
    repairing = collection.to_repairing_collection()
    order = {u.key: i for i, u in enumerate(repairing.spaces)}
    pairs = sorted((order[collection.spaces[i].key], i) for i in range(r))
    witness = RepairWitness(tuple(p for p, _ in pairs),
                            tuple(span(field, m, [w[i]]) for _, i in pairs))
    witness.verify(repairing, newcomer, collection.params)
    return StepResult(collection, w, generator, newcomer, tuple(replacements), witness)


def random_walk(collection: GoodCollection, steps: int,
                rng: random.Random) -> list[GoodCollection]:
    """Iterate seeded repair steps; every visited collection is validated.

    Returns the trajectory including the start, length steps + 1.
    """
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    trail = [collection]
    current = collection
    for _ in range(steps):
        result = family_step(current, rng=rng)
        current = result.replacements[rng.randrange(len(result.replacements))]
        trail.append(current)
    return trail


def cutset_bound(k: int, r: int, alpha: int, beta: int) -> int:
    """Storage capacity bound: sum of min(alpha, max(0, r-i) beta) for i < k."""
    if min(k, r, alpha, beta) < 1:
        raise ValueError("all parameters must be positive")
    if beta > alpha:
        raise ValueError(f"beta={beta} exceeds alpha={alpha}")
    return sum(min(alpha, max(0, r - i) * beta) for i in range(k))


# ----------------------------------------------------------------------
# the family as a storage code

def family_code(r: int, s: int, q: int) -> StateSet:
    """Materialized reachable closure of the family code from its seed.

    Every collection the closure adds is good, and every collection gets
    a certifying newcomer during the search.  Sizes grow quickly;
    storage.CLOSURE_CAP guards against runaway enumeration.
    """
    params = family_params(r, s, q)
    seed = construct_good(r, s, q).to_repairing_collection()

    def admissible(members: Sequence[Subspace]) -> bool:
        return is_good(list(members), r, s)

    return reachable_closure(seed, params, admissible)


class GoodCollectionSet(StateSet):
    """The family code with membership decided by the goodness predicate.

    The explicit collection dict only caches members seen so far (it
    always holds the canonical seed); membership tests cover the whole
    code.  verify() certifies the repair property for the cached
    members, testing replacements against the full predicate (_stays
    builds each replaced collection) and enumerating newcomers (the
    listing has no StateSet._completions).

    Goodness is a set of rank conditions on sums of members, so every
    invertible map g carries the code onto itself, and the (r, beta)
    repairs of C onto those of gC: the valid newcomers of gC are g
    applied to those of C.  So _newcomers, which answers
    valid_newcomers, keeps representatives R, each with the newcomers
    N_j the engine found for it and its member traces (computed once,
    for every transport from it), and answers a collection C with some
    map g, g(R) = C, by the moved newcomers sorted by key, the tuple the
    engine would give.

    Each collection so answered that is in the collection cache gets a
    placement: its orbit, g (None for R itself), which member R_i each
    of its members comes from and which N_j each of its newcomers is.
    Placements are indexed under each key of the collection less one
    member, like StateSet's completions, so they grow with the
    collection cache and no faster.  A collection C' met by a repair of
    a placed C, replacing g(R_i) by g(N_j), is placed along that repair
    edge: with h mapping some representative onto R with R_i replaced
    by N_j, g after h carries that representative onto C'.  h is found
    by a map search once per edge (orbit, j, i) and cached, and the
    composite is checked by moving the representative's members.  When
    no edge applies, or its map search finds no map or passes its cap,
    or the composite fails its check, the engine enumerates the
    newcomers and the collection becomes a new representative, even
    when it lies in the orbit of an earlier one.  _witness gives g(N_j)
    R's witness for N_j, searched once per (orbit, j) and moved by g.
    """

    def __init__(self, r: int, s: int, q: int):
        self.r = r
        self.s = s
        seed = construct_good(r, s, q)
        super().__init__(seed.params, [seed.to_repairing_collection()])
        # R, its newcomers N_j, its member traces, j -> R's witness for N_j
        self._orbits: list[tuple[RepairingCollection, tuple[Subspace, ...],
                                 tuple[Subspace, ...], dict[int, RepairWitness]]] = []
        # each placed collection minus one member -> the removed member's
        # key -> ((orbit, g, member origins, newcomer key -> j), position)
        self._placements: dict[tuple[bytes, ...], dict[bytes, tuple]] = {}
        # (orbit, newcomer j, member i) -> (orbit, map h) of the edge
        self._edges: dict[tuple[int, int, int], tuple[int, LinearMap]] = {}

    def _completions(self, collection: RepairingCollection) -> None:
        return None

    def _stays(self, collection: RepairingCollection, cand: Subspace) -> bool:
        return _replacements_inside(self.__contains__, collection, cand)

    def _transport(self, collection: RepairingCollection) -> Optional[tuple[int, LinearMap]]:
        # the first representative some map carries onto the collection
        for orbit, (representative, _, traces, _) in enumerate(self._orbits):
            try:
                g = _transporter(representative, collection, TRANSPORT_CAP, traces)
            except CapExceeded:
                return None
            if g is not None:
                return orbit, g
        return None

    def _place(self, collection: RepairingCollection, orbit: int,
               g: Optional[LinearMap]) -> Optional[tuple[Subspace, ...]]:
        """The newcomers of the collection when g carries the orbit's
        representative onto it, else None; records the placement."""
        representative, newcomers, *_ = self._orbits[orbit]
        members = (representative.spaces if g is None
                   else [g.apply(u) for u in representative.spaces])
        origins = sorted(range(len(members)), key=lambda t: members[t].key)
        if tuple(members[t].key for t in origins) != collection.key:
            return None
        moved = newcomers if g is None else [g.apply(u) for u in newcomers]
        key = collection.key
        if key in self.collections:
            placement = (orbit, g, origins, {u.key: j for j, u in enumerate(moved)})
            for p, member in enumerate(key):
                self._placements.setdefault(key[:p] + key[p + 1:], {})[member] = (
                    placement, p)
        return tuple(sorted(moved, key=lambda u: u.key))

    def _place_by_edge(self, collection: RepairingCollection) -> Optional[tuple[Subspace, ...]]:
        # the first placed collection that a repair edge leads from
        key = collection.key
        for p, member in enumerate(key):
            for (orbit, g, origins, moved), q in self._placements.get(
                    key[:p] + key[p + 1:], {}).values():
                j = moved.get(member)
                if j is None:
                    continue
                i = origins[q]
                edge = self._edges.get((orbit, j, i))
                if edge is None:
                    representative, newcomers, *_ = self._orbits[orbit]
                    edge = self._transport(representative.replace(i, newcomers[j]))
                    if edge is None:
                        return None
                    self._edges[(orbit, j, i)] = edge
                target, h = edge
                return self._place(collection, target, h if g is None else g.compose(h))
        return None

    def _newcomers(self, collection: RepairingCollection) -> tuple[Subspace, ...]:
        newcomers = self._place_by_edge(collection)
        if newcomers is not None:
            return newcomers
        _, newcomers = _newcomer_search(self.params, self._stays, collection, None, True)
        self._orbits.append((collection, newcomers, _traces(collection.spaces), {}))
        self._place(collection, len(self._orbits) - 1, None)
        return newcomers

    def _witness(self, collection: RepairingCollection,
                 newcomer: Subspace) -> Optional[RepairWitness]:
        placed = self._placements.get(collection.key[1:], {}).get(collection.key[0])
        if placed is None or newcomer.key not in placed[0][3]:
            return None
        (orbit, g, origins, moved), _ = placed
        representative, newcomers, _, witnesses = self._orbits[orbit]
        j = moved[newcomer.key]
        if j not in witnesses:
            witnesses[j] = find_repair_witness(representative, newcomers[j], self.params)
        return witnesses[j] if g is None else _moved_witness({}, g, origins, witnesses[j])

    def __contains__(self, item) -> bool:
        if super().__contains__(item):
            return True
        if not isinstance(item, RepairingCollection):
            return False
        if item.field.q != self.params.q or item.m != self.params.m:
            return False
        try:
            good = is_good(list(item.spaces), self.r, self.s)
        except ValueError:
            return False
        if good:
            self.collections[item.key] = item
        return good


def family_state_space(r: int, s: int, q: int) -> GoodCollectionSet:
    """The family code as a lazily-enumerated state set."""
    return GoodCollectionSet(r, s, q)
