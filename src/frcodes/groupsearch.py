"""Storage codes generated by linear symmetries of a single state.

A repairing collection whose repaired variants are all linear images of
itself generates a code for free: if a group of invertible maps contains,
for every member, a map carrying the collection onto the variant with
that member replaced, then the orbit of the collection under the group
is closed under repair.  This module finds such transition maps by
constrained backtracking over basis images, decides the orders of the
groups they generate, walks orbits, and verifies each resulting state
set at its seed rather than trusting the construction.  The
backtracking keeps echelons of the partial map's graph rows (v | g(v))
and image rows, so each forced image or independence test costs one
reduction.

Verification uses the symmetry too.  A map g of the group carries the
repair slices, their sums and the spanning subsets of a collection C to
those of gC, and the orbit onto itself, so the repair property holds at
gC exactly when it holds at C.  The repair check therefore runs on the
seed alone and every member takes its verdict: a failing seed fails the
whole orbit, and a passing seed's newcomer N and its repair witness are
moved by g to each member gC, as the proof that member records.  The
full check of every member (storage.check_repair_property, and
`frcodes verify` of a written code) stays independent of this argument
and is the oracle of the tests.

No group is listed.  A linear map that fixes a basis is the identity,
so a group acts faithfully on the union of the orbits of the standard
basis vectors; a deterministic Schreier-Sims run on these permutations
builds a stabilizer chain whose basic orbit lengths multiply to the
group order (Seress, Permutation Group Algorithms, ch. 4).  At every
stage that product is a lower bound on the order, so a group larger
than the cap is recognised as soon as the product passes it.  An orbit
is walked breadth-first under the generators alone, and its spanning
tree moves the seed's newcomer and witness to each member along the
tree edges.  The group acts on spaces and a collection is a multiset of
them (Kerber, Applied Finite Group Actions), so each walk keeps a table
of the images of the distinct spaces it meets under each generator: an
orbit of collections built from a few spaces costs a few applications.
Trials that generate one group by construction, a candidate paired with
a transitive cyclic stabilizer generator and the rest of its coset,
are closed and walked once per search.

Searches are exact but bounded: the backtracking node count, the group
order, and the orbit size each have a cap, and hitting one is reported
explicitly instead of silently truncating the result.
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple, Optional, Sequence

from .gf import Field
from .storage import (
    AdmissibleState,
    CodeParams,
    CollectionCheck,
    RepairReport,
    RepairWitness,
    RepairingCollection,
    StateSet,
    _check_collection,
    _require,
    _short_hash,
)
from .subspace import (
    CapExceeded,
    Subspace,
    _kernels,
    express,  # unused here; kept importable for tracers that wrap every binding
    full_space,
    rank_of,
    vec_scale,
    zero_subspace,
)

__all__ = [
    "BACKTRACK_CAP",
    "GROUP_CAP",
    "ORBIT_CAP",
    "LinearMap",
    "GroupClosure",
    "OrbitVerificationError",
    "SearchResult",
    "SearchOutcome",
    "transition_maps",
    "stabilizer",
    "group_closure",
    "orbit",
    "orbit_code",
    "symmetry_search",
]

BACKTRACK_CAP = 10**7
GROUP_CAP = 10**6
ORBIT_CAP = 10**5


class LinearMap:
    """An invertible linear map of F_q^m, acting on row vectors.

    The matrix is stored as rows; a vector v maps to v times the matrix,
    and a subspace maps to the span of its basis images.  Maps are
    hashable and compare by matrix entries, so they can live in sets and
    serve as group elements.  The byte key of the entries is computed
    once, and _matrix holds the rows in the row format of the field's
    kernel table _k, on which products run.  _points is a private memo
    of the images of held rows under the map, filled on first use by
    _basis_permutations, so a map shared by many trial groups moves each
    point once.
    """

    __slots__ = ("field", "m", "rows", "key", "_k", "_matrix", "_points")

    def __init__(self, field: Field, m: int, rows: tuple[tuple[int, ...], ...]) -> None:
        if len(rows) != m:
            raise ValueError(f"matrix must be {m}x{m}")
        # rank_of checks the length and the entries of every row
        if rank_of(field, m, rows) != m:
            raise ValueError("matrix is singular")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "m", m)
        k = _kernels(field)
        self._store(k, [k.pack(r, m) for r in rows])

    @classmethod
    def _trusted(cls, k, m: int, matrix: Sequence) -> "LinearMap":
        """A map from held rows, without the checks of the public constructor.

        For matrices invertible by construction, such as products of maps.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "field", k.field)
        object.__setattr__(self, "m", m)
        self._store(k, matrix)
        return self

    def _store(self, k, matrix: Sequence) -> None:
        m, unpack = self.m, k.unpack
        rows = tuple([unpack(r, m) for r in matrix])
        if self.field.q <= 256:
            key = b"".join(map(bytes, rows))
        else:
            key = b",".join(str(a).encode() for row in rows for a in row)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "_k", k)
        object.__setattr__(self, "_matrix", tuple(matrix))
        object.__setattr__(self, "_points", {})

    def apply(self, space: Subspace) -> Subspace:
        if space.field != self.field:
            raise ValueError("subspace is over a different field")
        if space.m != self.m:
            raise ValueError(f"subspace ambient {space.m} does not match map ambient {self.m}")
        k = self._k
        return Subspace._canonical(k, self.m, k.rref(k.matmul(space._basis, self._matrix)))

    def compose(self, other: "LinearMap") -> "LinearMap":
        """The map applying other first, then this one."""
        if (other.field is not self.field and other.field != self.field) or other.m != self.m:
            raise ValueError("maps act on different spaces")
        k = self._k
        return LinearMap._trusted(k, self.m, k.matmul(other._matrix, self._matrix))

    def __setattr__(self, name, value):
        raise AttributeError(f"LinearMap is immutable: cannot assign {name}")

    def __reduce__(self):
        return LinearMap, (self.field, self.m, self.rows)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, LinearMap)
                and (self.field, self.m, self.rows) == (other.field, other.m, other.rows))

    def __hash__(self) -> int:
        return hash((self.field, self.m, self.rows))

    def __repr__(self) -> str:
        return f"<LinearMap {_short_hash(self.key)} on F_{self.field.q}^{self.m}>"


class GroupClosure:
    """A group of linear maps given by its generators.

    order is the group order, read from a stabilizer chain (or counted,
    for a stabilizer, whose generators are all its elements); when it
    exceeds the cap, complete is False and order refuses to answer, so a
    group whose size is unknown can never pass for one that is known.
    """

    def __init__(self, generators: Sequence[LinearMap], order: Optional[int], cap: int,
                 transitive: Optional[bool] = None):
        if not generators:
            raise ValueError("a group needs at least one generator")
        self.field = generators[0].field
        self.m = generators[0].m
        self.generators = tuple(generators)
        # nothing is listed; kept only for perfbench/tracer.py, whose
        # groupsearch.group_elements metric reads len(group.elements)
        self.elements = ()
        self.complete = order is not None
        self.cap = cap
        self.transitive = transitive
        self._order = order

    @property
    def order(self) -> int:
        if self._order is None:
            raise ValueError(f"group order exceeds cap {self.cap}; closure is incomplete")
        return self._order

    def describe(self) -> str:
        if self.complete:
            return f"group of order {self._order}"
        return f"group order exceeds {self.cap}"

    def __repr__(self) -> str:
        return f"<GroupClosure {self.describe()}>"


class OrbitVerificationError(RuntimeError):
    """The orbit of a seed collection failed the repair property.

    Orbits are admissible only under hypotheses on the seed state and
    its maps; a failure is evidence those hypotheses do not hold for the
    given input, and the report names the failing collections.
    """


def _assignments(sources: Sequence[Subspace],
                 targets: Sequence[Subspace]) -> Iterator[tuple[Subspace, ...]]:
    # distinct dimension-compatible bijections source position -> target,
    # deduplicated by the assigned target key tuple (targets can repeat)
    seen = set()
    for perm in itertools.permutations(range(len(targets))):
        if any(sources[i].dim != targets[j].dim for i, j in enumerate(perm)):
            continue
        sig = tuple(targets[j].key for j in perm)
        if sig in seen:
            continue
        seen.add(sig)
        yield tuple(targets[j] for j in perm)


def _constrained_images(field: Field, m: int, pairs: Sequence[tuple[Subspace, Subspace]],
                        cap: int, counter: list[int]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Backtrack over images of an adapted basis, one pair constraint at a time.

    Yields the matrices (row j is g(e_j)) of the invertible maps g taking
    every basis row of each source into its paired target.  The partial
    map is two echelons pushed and popped with the search: its graph rows
    (v | g(v)), pivots in the source half, and its image rows.  Reducing
    (v | 0) against the graph rows leaves the forced image -g(v) in the
    image half when the source half vanishes, which only prunes; else v
    branches over target vectors w with a non-zero residual against the
    image rows.  The standard basis tail, with free images, forces every
    e_j at a leaf.  counter[0] counts candidate nodes against cap.  Rows
    are in the row format of the field's kernel table, the image half
    joined to the right of the source half.
    """
    k = _kernels(field)
    reduce, entry, join = k.reduce, k.entry, k.join
    full = full_space(field, m)
    zero = k.zero(m)
    minus_one = field.neg(1)

    def image(x) -> tuple[int, ...]:
        # -g(v), read from the image half of a reduced (v | 0)
        return vec_scale(field, minus_one, k.unpack(k.right(x, m), m))

    # (v | 0), the target's rows in the image half (None: no constraint),
    # the space of candidate images
    rows = [(join(v, zero, m),
             [(p + m, join(zero, w, m)) for p, w in zip(target.pivots, target._basis)],
             target)
            for source, target in pairs for v in source._basis]
    rows += [(join(v, zero, m), None, full) for v in full._basis]
    graph: list = []
    images: list = []

    def extend(pos: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if pos == len(rows):
            # the standard basis tail guarantees a spanning source side
            if len(graph) == m:
                yield tuple(image(reduce(graph, u)) for u, _, _ in rows[-m:])
            return
        v, target_rows, target = rows[pos]
        x = reduce(graph, v)
        # x is non-zero: the partial map is injective
        if entry(x)[0] >= m:
            if target_rows is None or entry(reduce(target_rows, x)) is None:
                yield from extend(pos + 1)
            return
        for w in target._span():
            counter[0] += 1
            if counter[0] > cap:
                raise CapExceeded(f"map search exceeded {cap} nodes")
            residual = entry(reduce(images, w))
            if residual is None:
                continue
            images.append(residual)
            graph.append(entry(k.add(x, join(zero, w, m))))
            yield from extend(pos + 1)
            graph.pop()
            images.pop()

    yield from extend(0)


def _iter_maps(field: Field, m: int, sources: Sequence[Subspace],
               assignment_iter: Iterator[tuple[Subspace, ...]],
               cap: int) -> Iterator[LinearMap]:
    """Maps carrying each source onto its assigned target, repeats included.

    One node counter spans all assignments, so a caller that stops at
    the first map pays only for the nodes before it.
    """
    counter = [0]
    for targets in assignment_iter:
        pairs = list(zip(sources, targets))
        for matrix in _constrained_images(field, m, pairs, cap, counter):
            yield LinearMap(field, m, matrix)


def _search_maps(field: Field, m: int, sources: Sequence[Subspace],
                 assignment_iter: Iterator[tuple[Subspace, ...]],
                 cap: int) -> list[LinearMap]:
    found = {g.key: g for g in _iter_maps(field, m, sources, assignment_iter, cap)}
    return [found[k] for k in sorted(found)]


def _traces(spaces: Sequence[Subspace]) -> tuple[Subspace, ...]:
    # each member's meet with the sum of the other members
    return tuple(u & sum(spaces[:i] + spaces[i + 1:], zero_subspace(u.field, u.m))
                 for i, u in enumerate(spaces))


def _transporter(source: RepairingCollection, target: RepairingCollection,
                 cap: int, traces: tuple[Subspace, ...]) -> Optional[LinearMap]:
    """Some invertible map g with g(source) = target, or None if there is none.

    The search of transition_maps, stopped at the first map.  A map
    carrying members onto members carries each member's trace (its meet
    with the other members' sum) along too, so the traces are
    constrained first; that forces most later basis images.  traces are
    the _traces of the source, which a caller that transports one source
    often computes once.  Raises CapExceeded past cap backtracking nodes.
    """
    if (source.field != target.field or source.m != target.m
            or len(source) != len(target)):
        return None
    target_traces = {v.key: t for v, t in zip(target.spaces, _traces(target.spaces))}

    def assignments() -> Iterator[tuple[Subspace, ...]]:
        for targets in _assignments(source.spaces, target.spaces):
            moved = tuple(target_traces[v.key] for v in targets)
            if all(a.dim == b.dim for a, b in zip(traces, moved)):
                yield moved + targets

    return next(_iter_maps(source.field, source.m, traces + source.spaces,
                           assignments(), cap), None)


def transition_maps(collection: RepairingCollection, newcomer: Subspace,
                    index: int) -> tuple[LinearMap, ...]:
    """All invertible maps carrying the collection onto a repaired variant.

    The variant replaces the member at index (into the sorted member
    tuple) by the newcomer.  A map qualifies when the multiset of member
    images equals the variant's members exactly.  The search runs over
    dimension-compatible member bijections and then backtracking over
    basis images inside the assigned targets; the result is
    deduplicated and sorted by matrix key.  Raises CapExceeded past
    BACKTRACK_CAP backtracking nodes.

    A map g carries repair slices, their sums and rank conditions from a
    collection to its image, so whatever they decide (obtainable
    newcomers, goodness, the repair property) moves along g.
    """
    field = collection.field
    m = collection.m
    variant = collection.replace(index, newcomer)
    sources = collection.spaces
    maps = _search_maps(field, m, sources,
                        _assignments(sources, variant.spaces), BACKTRACK_CAP)
    target_keys = tuple(u.key for u in variant.spaces)
    for mapping in maps:
        image_keys = tuple(sorted(mapping.apply(u).key for u in sources))
        _require(image_keys == target_keys,
                 "a transition map carries the members onto the variant's members")
    return tuple(maps)


def _walk(start, generators: Sequence[LinearMap], move, cap: int,
          build=lambda image: image) -> dict:
    """The orbit of start under the generators, walked breadth-first.

    Maps each point's key to (point, edge), in the order met: edge is
    None at start, else (parent key, g) for the first move(g, parent)
    that reached the point.  move(g, point) gives the image's key and
    the parts that build turns into the image, which is built only when
    its key is new.  Each point is moved once by each generator.
    Raises CapExceeded when the orbit has more than cap points.
    """
    tree = {start.key: (start, None)}
    queue = [start]
    for point in queue:
        for g in generators:
            key, parts = move(g, point)
            if key not in tree:
                if len(tree) >= cap:
                    raise CapExceeded(f"orbit exceeded {cap} points")
                image = build(parts)
                tree[key] = (image, (point.key, g))
                queue.append(image)
    return tree


def _moved_space(g: LinearMap, space: Subspace) -> tuple[bytes, Subspace]:
    image = g.apply(space)
    return image.key, image


def _orbit_of_first_member(maps: Sequence[LinearMap],
                           collection: RepairingCollection) -> bool:
    # do maps permuting the members reach every member from the first one
    spaces = collection.spaces
    reached = _walk(spaces[0], maps, _moved_space, len(spaces))
    return reached.keys() == {u.key for u in spaces}


def stabilizer(collection: RepairingCollection, newcomer: Subspace) -> GroupClosure:
    """All invertible maps fixing the collection setwise and the newcomer.

    The result is a full group (the set of such maps is closed under
    composition and inverse), reported as a complete GroupClosure whose
    transitive flag records whether the induced permutation action
    reaches every member of the collection from the first one.

    With the zero space as newcomer this is the setwise stabilizer of
    the collection, whose orbit under GL(m, q) has |GL(m, q)| / order
    members.  Raises CapExceeded past BACKTRACK_CAP backtracking nodes.
    """
    field = collection.field
    m = collection.m
    if newcomer.field != field or newcomer.m != m:
        raise ValueError("newcomer does not live in the collection's ambient space")
    sources = tuple(collection.spaces) + (newcomer,)

    def assignments() -> Iterator[tuple[Subspace, ...]]:
        for member_targets in _assignments(collection.spaces, collection.spaces):
            yield member_targets + (newcomer,)

    maps = _search_maps(field, m, sources, assignments(), BACKTRACK_CAP)
    member_keys = tuple(u.key for u in collection.spaces)
    for mapping in maps:
        image_keys = tuple(sorted(mapping.apply(u).key for u in collection.spaces))
        _require(image_keys == member_keys,
                 "a stabilizer element permutes the members of the collection")
        _require(mapping.apply(newcomer) == newcomer,
                 "a stabilizer element fixes the newcomer")
    transitive = _orbit_of_first_member(maps, collection)
    return GroupClosure(maps, len(maps), BACKTRACK_CAP, transitive=transitive)


def _basis_permutations(generators: Sequence[LinearMap],
                        cap: int) -> Optional[list[tuple[int, ...]]]:
    """The generators as permutations of the basis-vector orbits.

    Points are the images of the standard basis vectors under the
    generated group, numbered in breadth-first order; a map fixing them
    all fixes a basis, so the action is faithful.  An orbit is no larger
    than the group, so one orbit of more than cap points means the group
    order exceeds cap, and None is returned without further work.  Each
    point image is read from the generator's _points memo, computed as a
    held-row product only the first time any group asks that map for it;
    the numbering stays the group's own.
    """
    index: dict = {}
    points: list = []
    images: list[list] = [[] for _ in generators]
    for start in full_space(generators[0].field, generators[0].m)._basis:
        if start in index:
            continue
        first = len(points)
        index[start] = first
        points.append(start)
        position = first
        while position < len(points):
            x = points[position]
            position += 1
            for g, row in zip(generators, images):
                y = g._points.get(x)
                if y is None:
                    y = g._points[x] = g._k.matmul([x], g._matrix)[0]
                row.append(y)
                if y not in index:
                    if len(points) - first >= cap:
                        return None
                    index[y] = len(points)
                    points.append(y)
    return [tuple(index[y] for y in row) for row in images]


def _chain_order(perms: Sequence[tuple[int, ...]], cap: int) -> Optional[int]:
    """Order of the permutation group generated by perms, or None past cap.

    A deterministic Schreier-Sims: level i holds a base point, the strong
    generators fixing the earlier base points, and the orbit of its base
    point under them with a transversal (an element carrying the base
    point to each orbit point, and its inverse).  Each Schreier generator
    of a level is sifted through the levels below it, and a non-trivial
    residue becomes a new strong generator.  The orbit of level i under
    its strong generators lies inside the orbit under the full stabilizer
    of the earlier base points, so the product of the orbit lengths never
    exceeds the group order, and None is returned as soon as it passes
    cap.  When every Schreier generator sifts to the identity the chain
    is complete and the product is the group order.  Transversal entries
    are only ever added, so a Schreier generator that sifted once stays
    settled.
    """
    n = len(perms[0])
    identity = tuple(range(n))
    base: list[int] = []
    strong: list[list[tuple[int, ...]]] = []
    orbits: list[dict[int, tuple[tuple[int, ...], tuple[int, ...]]]] = []
    settled: list[set[tuple[int, int]]] = []

    def times(p: tuple[int, ...], r: tuple[int, ...]) -> tuple[int, ...]:
        # p first, then r
        return tuple([r[x] for x in p])

    def transversal_entry(w: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        inverse = [0] * n
        for x, y in enumerate(w):
            inverse[y] = x
        return w, tuple(inverse)

    def sift(g: tuple[int, ...], level: int) -> tuple[tuple[int, ...], int]:
        # divide g by transversal entries from level on; returns the
        # residue and the first level whose orbit misses its base image
        for i in range(level, len(base)):
            entry = orbits[i].get(g[base[i]])
            if entry is None:
                return g, i
            g = times(g, entry[1])
        return g, len(base)

    def add_strong(h: tuple[int, ...], low: int, high: int) -> None:
        # h fixes base[:high]; it joins the levels low..high, whose
        # orbits are extended, never recomputed
        if high == len(base):
            base.append(next(x for x in range(n) if h[x] != x))
            strong.append([])
            orbits.append({base[-1]: (identity, identity)})
            settled.append(set())
        for i in range(low, high + 1):
            gens = strong[i]
            gens.append(h)
            orbit = orbits[i]
            fresh = []
            for x in list(orbit):
                y = h[x]
                if y not in orbit:
                    orbit[y] = transversal_entry(times(orbit[x][0], h))
                    fresh.append(y)
            for x in fresh:
                u = orbit[x][0]
                for s in gens:
                    y = s[x]
                    if y not in orbit:
                        orbit[y] = transversal_entry(times(u, s))
                        fresh.append(y)

    def order() -> int:
        total = 1
        for orbit in orbits:
            total *= len(orbit)
        return total

    for p in perms:
        h, j = sift(p, 0)
        if h != identity:
            add_strong(h, 0, j)
            if order() > cap:
                return None
    i = len(base) - 1
    while i >= 0:
        orbit, gens, done = orbits[i], strong[i], settled[i]
        grown = None
        for x in list(orbit):
            u = orbit[x][0]
            for k, s in enumerate(gens):
                if (x, k) in done:
                    continue
                done.add((x, k))
                h, j = sift(times(times(u, s), orbit[s[x]][1]), i + 1)
                if h != identity:
                    add_strong(h, i + 1, j)
                    grown = j
                    break
            if grown is not None:
                break
        if grown is None:
            i -= 1
            continue
        if order() > cap:
            return None
        i = grown
    total = order()
    return total if total <= cap else None


def group_closure(generators: Sequence[LinearMap], cap: int = GROUP_CAP) -> GroupClosure:
    """The group the generators generate, with its order when within cap.

    Nothing is listed or multiplied.  The order comes from a stabilizer
    chain of the group's faithful action on the orbits of the standard
    basis vectors, and a group larger than cap gives an incomplete
    closure, whose order property refuses to answer.  Orbits under the
    group are walked from the generators by orbit.
    """
    if not generators:
        raise ValueError("a group needs at least one generator")
    field = generators[0].field
    m = generators[0].m
    for g in generators:
        if g.field != field or g.m != m:
            raise ValueError("generators act on different spaces")
    perms = _basis_permutations(generators, cap)
    order = None if perms is None else _chain_order(perms, cap)
    return GroupClosure(generators, order, cap)


def _image(images: dict, g: LinearMap, space: Subspace) -> Subspace:
    # g(space), applied once per (generator, space) of one table
    key = (g.key, space.key)
    image = images.get(key)
    if image is None:
        image = images[key] = g.apply(space)
    return image


def orbit(group: GroupClosure, seed: RepairingCollection,
          cap: int = ORBIT_CAP) -> dict:
    """The orbit of the seed collection, walked under the group's generators.

    Maps each member's key to (member, edge) in breadth-first order,
    the seed first: edge is (parent key, generator g) with g(parent) the
    member, None at the seed.  Each member is moved by each generator
    through a table of the walk, so LinearMap.apply runs once per
    generator and distinct space met, not once per member space; an
    image collection is built only when its sorted member keys are new.
    Raises CapExceeded past cap members.
    """
    images: dict = {}

    def move(g: LinearMap, collection: RepairingCollection
             ) -> tuple[tuple[bytes, ...], list[Subspace]]:
        spaces = [_image(images, g, u) for u in collection.spaces]
        return tuple(sorted(u.key for u in spaces)), spaces

    return _walk(seed, group.generators, move, cap, RepairingCollection)


def _moved_witness(images: dict, g: LinearMap, origins: Sequence[int],
                   witness: RepairWitness) -> RepairWitness:
    """The witness carried from a collection P to g(P): each slice moved
    by g, each helper index i the position p of g(P_i) in g(P), where
    origins[p] = i, so equal members keep distinct positions."""
    position = {i: p for p, i in enumerate(origins)}
    pairs = sorted(((position[i], _image(images, g, w))
                    for i, w in zip(witness.repair_indices, witness.repair_spaces)),
                   key=lambda pair: pair[0])
    return RepairWitness(tuple(p for p, _ in pairs), tuple(w for _, w in pairs))


def orbit_code(group: GroupClosure, walk: dict, params: CodeParams) -> StateSet:
    """The walked orbit of a seed collection under the group, verified at
    its seed.

    walk is orbit(group, seed).  The repair property is invariant under
    the group: a map g of it carries repair slices, their sums and
    spanning subsets of C to those of gC, and the orbit onto itself, so
    every member has the seed's verdict.  The seed alone is checked, in
    full.  If it fails, the whole orbit fails.  If it passes with
    newcomer N and repair witness W, each other member gP, reached from
    its parent P along a tree edge g, takes the parent's admissible
    state moved by g: the newcomer's image, and the witness with its
    slices moved and its helper indices re-sorted (see _moved_witness).
    A table of images per orbit applies g once per distinct space; no
    member other than the seed is checked or searched.

    The returned set carries a report with one passing check per member
    in key order, and the moved states as its witnesses.  The seed's
    recorded newcomer is the first valid one of the ordinary search;
    every other member's is its moved one, which need not be the first
    valid newcomer of the ordinary search when a collection has several.
    A failing seed raises OrbitVerificationError carrying its report:
    the orbit construction only yields admissible sets under hypotheses
    on the seed, so a failure indicts the input, and nothing unverified
    is ever returned.
    """
    if not group.complete:
        raise ValueError("cannot take the orbit of an incomplete group closure")
    states = StateSet(params, (member for member, _ in walk.values()))
    _require(len(states) <= group.order, "the orbit is no larger than the group")
    seed = next(iter(walk.values()))[0]
    seed_check = _check_collection(states, seed)
    if not seed_check.ok:
        raise OrbitVerificationError(
            "orbit fails the repair property; the seed state does not meet "
            "the hypotheses:\n" + RepairReport(params, [seed_check]).render()
            + f"\nthe group carries the failure to all {len(states)} collections "
            "of the orbit")
    images: dict = {}
    moved = {seed.key: seed_check.state}
    for key, (member, edge) in walk.items():
        if edge is not None:
            parent, g = edge
            state = moved[parent]
            origins = sorted(range(len(member)),
                             key=lambda i: _image(images, g, state.collection.spaces[i]).key)
            moved[key] = AdmissibleState(
                member, _image(images, g, state.newcomer),
                _moved_witness(images, g, origins, state.witness))
    checks = [CollectionCheck(moved[key].collection, True, moved[key]) for key in sorted(moved)]
    states._record(RepairReport(params, checks))
    return states


class SearchResult(NamedTuple):
    """One verified code found by symmetry_search."""

    transition: LinearMap
    group: GroupClosure
    states: StateSet


class SearchOutcome(NamedTuple):
    """Everything a symmetry search saw: stabilizer, candidates, successes.

    candidate_classes pairs each index with the number of classes of its
    candidate maps modulo the stabilizer S: with g every g s (s in S)
    carries the collection onto the same variant, so the maps are a
    union of right cosets gS, and the class count is their number over
    the order of S, the natural size of the candidate list.
    """

    stabilizer: GroupClosure
    transitive_generators: tuple[LinearMap, ...]
    candidates: tuple[tuple[int, LinearMap], ...]
    candidate_classes: tuple[tuple[int, int], ...]
    results: tuple[SearchResult, ...]
    log: tuple[str, ...]

    def render(self) -> str:
        return "\n".join(self.log)


def _cyclic_transitive_generators(stab: GroupClosure, collection: RepairingCollection
                                  ) -> tuple[tuple[LinearMap, tuple[LinearMap, ...]], ...]:
    # one representative generator per distinct transitive cyclic
    # subgroup of the stabilizer, smallest subgroups first, each with the
    # subgroup's elements, listed as its powers
    subgroups: dict[frozenset, tuple[LinearMap, tuple[LinearMap, ...]]] = {}
    for g in stab.generators:
        if not _orbit_of_first_member([g], collection):
            continue
        power = g
        powers = {g.key: g}
        while True:
            power = power.compose(g)
            if power.key in powers:
                break
            powers[power.key] = power
        signature = frozenset(powers)
        best = subgroups.get(signature)
        if best is None or g.key < best[0].key:
            subgroups[signature] = (g, tuple(powers.values()))
    return tuple(sorted(subgroups.values(), key=lambda item: (len(item[1]), item[0].key)))


def symmetry_search(collection: RepairingCollection, newcomer: Subspace,
                    params: CodeParams, *, group_cap: int = GROUP_CAP,
                    orbit_cap: int = ORBIT_CAP) -> SearchOutcome:
    """Search for small group-generated codes seeded at one repair state.

    Computes the stabilizer of (collection, newcomer); when its action
    on the members is transitive a single transition map suffices, so
    only replacements of the first member are tried, otherwise every
    index is.  Each candidate map is tried alone and together with each
    transitive cyclic stabilizer subgroup.  The paired trials (t, m s),
    s in <t>, of one coset generate one group, and the maps m s, the
    stabilizer element applied first, are all candidates: the first of
    them is closed and walked, and the others share its outcome while
    logging their own lines.  The orbit of every trial group whose order
    is within group_cap is walked under the trial's generators and
    verified once per distinct (group order, orbit): trials that meet
    the same pair share the outcome, and a verified code is reported
    once, with the generators of the trial that verified it.  The
    verified codes are returned sorted by state count, then group order.
    A group whose order exceeds group_cap, or whose orbit exceeds
    orbit_cap or meets an enumeration cap while it is verified, is
    logged and skipped, so callers should size the caps to the instance
    they search.  A cap below 1, a seed without n-1 members, or a member
    or newcomer whose dimension is not alpha raises ValueError before any
    work.
    """
    for name, cap in (("group_cap", group_cap), ("orbit_cap", orbit_cap)):
        if cap < 1:
            raise ValueError(f"{name} must be at least 1, got {cap}")
    if len(collection.spaces) != params.n - 1:
        raise ValueError(f"collection has {len(collection.spaces)} members, "
                         f"expected n-1 = {params.n - 1}")
    if any(u.dim != params.alpha for u in collection.spaces + (newcomer,)):
        raise ValueError("the seed's members and newcomer must have dimension "
                         f"alpha = {params.alpha}")
    stab = stabilizer(collection, newcomer)
    cyclic = _cyclic_transitive_generators(stab, collection)
    indices = [0] if stab.transitive else list(range(len(collection.spaces)))
    log: list[str] = [
        f"stabilizer order {stab.order}, "
        f"{'transitive' if stab.transitive else 'not transitive'} on members",
    ]
    candidates: list[tuple[int, LinearMap]] = []
    candidate_classes: list[tuple[int, int]] = []
    results: list[SearchResult] = []
    # one orbit_code run per (group order, orbit keys): None once the
    # orbit verified and was reported, else the line its failure logs
    outcomes: dict[tuple[int, frozenset], Optional[str]] = {}
    # the line each later trial (t, m s) of a computed coset logs, by
    # generator keys: None when it logs nothing
    cosets: dict[tuple[bytes, bytes], Optional[str]] = {}

    def trial(generators: tuple[LinearMap, ...], mapping: LinearMap,
              fps: str) -> Optional[str]:
        # closes and walks one trial group and verifies its orbit if new;
        # returns the line the later trials of its coset log (None: none)
        group = group_closure(generators, cap=group_cap)
        if not group.complete:
            return f"{group.describe()}, skipped"
        try:
            walk = orbit(group, collection, orbit_cap)
        except CapExceeded:
            return f"group order {group.order}, orbit exceeds {orbit_cap}, skipped"
        signature = (group.order, frozenset(walk))
        if signature not in outcomes:
            try:
                states = orbit_code(group, walk, params)
            except OrbitVerificationError:
                outcomes[signature] = f"group order {group.order}, orbit fails verification"
            except CapExceeded:
                outcomes[signature] = (f"group order {group.order}, "
                                       f"orbit exceeds {orbit_cap}, skipped")
            else:
                outcomes[signature] = None
                log.append(f"  <{fps}>: group order {group.order}, "
                           f"orbit {len(states)}, verified")
                results.append(SearchResult(mapping, group, states))
        return outcomes[signature]

    for index in indices:
        found = transition_maps(collection, newcomer, index)
        _require(len(found) % stab.order == 0,
                 "the candidate maps are a union of cosets of the stabilizer")
        classes = len(found) // stab.order
        candidate_classes.append((index, classes))
        log.append(f"index {index}: {len(found)} candidate maps in "
                   f"{classes} classes modulo the stabilizer")
        for mapping in found:
            candidates.append((index, mapping))
            trials = [((mapping,), ())] + [((t, mapping), powers) for t, powers in cyclic]
            for generators, powers in trials:
                fps = "+".join(_short_hash(g.key) for g in generators)
                keys = tuple(g.key for g in generators)
                if keys in cosets:
                    line = cosets[keys]
                else:
                    line = trial(generators, mapping, fps)
                    # <t, m> = <t, m s> for s in <t>, and m s, with the
                    # stabilizer element s applied first, is a candidate
                    for s in powers:
                        cosets[keys[0], mapping.compose(s).key] = line
                if line is not None:
                    log.append(f"  <{fps}>: {line}")
    results.sort(key=lambda res: (len(res.states), res.group.order,
                                  res.transition.key))
    return SearchOutcome(stab, tuple(t for t, _ in cyclic), tuple(candidates),
                         tuple(candidate_classes), tuple(results), tuple(log))
