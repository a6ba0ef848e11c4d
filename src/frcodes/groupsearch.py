"""Storage codes generated by linear symmetries of a single state.

A repairing collection whose repaired variants are all linear images of
itself generates a code for free: if a group of invertible maps contains,
for every member, a map carrying the collection onto the variant with
that member replaced, then the orbit of the collection under the group
is closed under repair.  This module finds such transition maps by
constrained backtracking over basis images, decides the orders of the
groups they generate, walks orbits, and verifies the resulting state
sets rather than trusting the construction.  The backtracking keeps
echelons of the partial map's graph rows (v | g(v)) and image rows, so
each forced image or independence test costs one reduction.

Verification uses the symmetry too.  A map g of the group carries the
repair slices, their sums and the spanning subsets of a collection C to
those of gC, and the orbit onto itself, so the repair property holds at
gC exactly when it holds at C.  The newcomer search therefore runs on
the seed alone: a failing seed fails the whole orbit, and a passing
seed's newcomer N is moved to g(N) at each member gC, where it is
checked for real (obtainable, replacements inside the orbit, a spanning
k-subset).  A moved certificate that does not check sends its member to
the ordinary search.

No group is listed.  A linear map that fixes a basis is the identity,
so a group acts faithfully on the union of the orbits of the standard
basis vectors; a deterministic Schreier-Sims run on these permutations
builds a stabilizer chain whose basic orbit lengths multiply to the
group order (Seress, Permutation Group Algorithms, ch. 4).  At every
stage that product is a lower bound on the order, so a group larger
than the cap is recognised as soon as the product passes it.  An orbit
is walked breadth-first under the generators alone, one image per
member and generator, and its spanning tree moves the seed's newcomer
to each member along the tree edges.

Searches are exact but bounded: the backtracking node count, the group
order, and the orbit size each have a cap, and hitting one is reported
explicitly instead of silently truncating the result.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from typing import Iterator, Optional, Sequence

from .gf import Field
from .storage import (
    CodeParams,
    RepairReport,
    RepairingCollection,
    StateSet,
    _check_collection,
    _short_hash,
)
from .subspace import (
    CapExceeded,
    Subspace,
    _bit_bytes,
    _matmul_bits,
    _pack,
    _rref_bits,
    _unpack,
    express,  # unused here; kept importable for tracers that wrap every binding
    full_space,
    matmul,
    rank_of,
    span,
    standard_basis_vector,
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


def _require(holds: bool, claim: str) -> None:
    # the checks below guard internal constructions and must hold under
    # python -O as well, so they raise a RuntimeError
    if not holds:
        raise RuntimeError(f"group search check failed: {claim}")


@dataclass(frozen=True)
class LinearMap:
    """An invertible linear map of F_q^m, acting on row vectors.

    The matrix is stored as rows; a vector v maps to v times the matrix,
    and a subspace maps to the span of its basis images.  Maps are
    hashable and compare by matrix entries, so they can live in sets and
    serve as group elements.  The byte key of the entries is computed
    once; over GF(2) the rows are also kept packed, one int per row, so
    products run on the packed kernel.
    """

    field: Field
    m: int
    rows: tuple[tuple[int, ...], ...]
    key: bytes = dc_field(init=False, repr=False, compare=False)
    _bits: Optional[tuple[int, ...]] = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        rows = tuple(tuple(r) for r in self.rows)
        if len(rows) != self.m or any(len(r) != self.m for r in rows):
            raise ValueError(f"matrix must be {self.m}x{self.m}")
        for r in rows:
            for a in r:
                self.field._check(a)
        if rank_of(self.field, self.m, rows) != self.m:
            raise ValueError("matrix is singular")
        self._store(rows, None)

    @classmethod
    def _trusted(cls, field: Field, m: int, rows: Optional[tuple] = None,
                 bits: Optional[Sequence[int]] = None) -> "LinearMap":
        """A map built without the checks of the public constructor.

        For matrices invertible by construction, such as products of
        maps, whose entries are field elements already.
        Give the rows, or over GF(2) the packed rows alone.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "m", m)
        self._store(rows, bits)
        return self

    def _store(self, rows: Optional[tuple], bits: Optional[Sequence[int]]) -> None:
        if bits is not None:
            chunks = [_bit_bytes(r, self.m) for r in bits]
            key = b"".join(chunks)
            rows = tuple(map(tuple, chunks))
        else:
            if self.field.q == 2:
                bits = [_pack(r) for r in rows]
            if self.field.q <= 256:
                key = bytes(a for row in rows for a in row)
            else:
                key = b",".join(str(a).encode() for row in rows for a in row)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "_bits", None if bits is None else tuple(bits))

    @classmethod
    def identity(cls, field: Field, m: int) -> "LinearMap":
        return cls(field, m, tuple(standard_basis_vector(m, i) for i in range(m)))

    def apply_vector(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.m:
            raise ValueError(f"vector length {len(v)} does not match ambient {self.m}")
        return matmul(self.field, [v], self.rows)[0]

    def apply(self, space: Subspace) -> Subspace:
        if space.field != self.field:
            raise ValueError("subspace is over a different field")
        if space.m != self.m:
            raise ValueError(f"subspace ambient {space.m} does not match map ambient {self.m}")
        if self._bits is not None and space._packed():
            return Subspace._from_bits(self.field, self.m,
                                       _rref_bits(_matmul_bits(space._bits, self._bits)))
        return span(self.field, self.m, matmul(self.field, space.rows, self.rows))

    def apply_collection(self, collection: RepairingCollection) -> RepairingCollection:
        return RepairingCollection([self.apply(u) for u in collection.spaces])

    def compose(self, other: "LinearMap") -> "LinearMap":
        """The map applying other first, then this one."""
        if (other.field is not self.field and other.field != self.field) or other.m != self.m:
            raise ValueError("maps act on different spaces")
        if self._bits is not None:
            return LinearMap._trusted(self.field, self.m,
                                      bits=_matmul_bits(other._bits, self._bits))
        return LinearMap._trusted(self.field, self.m,
                                  matmul(self.field, other.rows, self.rows))

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
    e_j at a leaf.  counter[0] counts candidate nodes against cap.  Over
    GF(2) rows are packed ints (image bits shifted by m), else tuples.
    """
    full = full_space(field, m)
    # the field branch: echelon entries are (pivot column, row with a 1 there)
    if full._packed():
        def lift(space: Subspace, shift: int) -> list:
            return [b << shift for b in space._bits]

        def reduce(echelon: list, x: int) -> int:
            for p, b in echelon:
                if x >> p & 1:
                    x ^= b
            return x

        def entry(x: int) -> Optional[tuple[int, int]]:
            return ((x & -x).bit_length() - 1, x) if x else None

        def add_image(x: int, w: int) -> int:
            return x ^ w << m

        def image(x: int) -> tuple[int, ...]:
            return _unpack(x >> m, m)  # -g(v) = g(v) over GF(2)

        candidates = Subspace._packed_vectors
    else:
        pad = (0,) * m

        def lift(space: Subspace, shift: int) -> list:
            return [pad[:shift] + row + pad[shift:] for row in space.rows]

        def reduce(echelon: list, x: tuple) -> tuple:
            for p, b in echelon:
                if x[p]:
                    c = field.neg(x[p])
                    x = tuple([field.add(a, field.mul(c, y)) if y else a for a, y in zip(x, b)])
            return x

        def entry(x: tuple) -> Optional[tuple[int, tuple]]:
            p = next((j for j, a in enumerate(x) if a), None)
            if p is None:
                return None
            inv = field.inv(x[p])
            return p, x if inv == 1 else tuple(field.mul(inv, a) for a in x)

        def add_image(x: tuple, w: tuple) -> tuple:
            return x[:m] + tuple(field.add(a, b) for a, b in zip(x[m:], w))

        def image(x: tuple) -> tuple[int, ...]:
            return tuple(field.neg(a) for a in x[m:])

        candidates = Subspace.vectors

    # (v | 0), the target's rows in the image half (None: no constraint),
    # the space of candidate images
    rows = [(v, list(zip([p + m for p in target.pivots], lift(target, m))), target)
            for source, target in pairs for v in lift(source, 0)]
    rows += [(v, None, full) for v in lift(full, 0)]
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
        for w in candidates(target):
            counter[0] += 1
            if counter[0] > cap:
                raise CapExceeded(f"map search exceeded {cap} nodes")
            residual = entry(reduce(images, w))
            if residual is None:
                continue
            images.append(residual)
            graph.append(entry(add_image(x, w)))
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
                 cap: int, source_traces: Optional[tuple[Subspace, ...]] = None
                 ) -> Optional[LinearMap]:
    """Some invertible map g with g(source) = target, or None if there is none.

    The search of transition_maps, stopped at the first map.  A map
    carrying members onto members carries each member's trace (its meet
    with the other members' sum) along too, so the traces are
    constrained first; that forces most later basis images.  A caller
    that transports one source often passes its _traces once computed.
    Raises CapExceeded past cap backtracking nodes.
    """
    if (source.field != target.field or source.m != target.m
            or len(source) != len(target)):
        return None
    traces = source_traces if source_traces is not None else _traces(source.spaces)
    target_traces = {v.key: t for v, t in zip(target.spaces, _traces(target.spaces))}

    def assignments() -> Iterator[tuple[Subspace, ...]]:
        for targets in _assignments(source.spaces, target.spaces):
            moved = tuple(target_traces[v.key] for v in targets)
            if all(a.dim == b.dim for a, b in zip(traces, moved)):
                yield moved + targets

    return next(_iter_maps(source.field, source.m, traces + source.spaces,
                           assignments(), cap), None)


def transition_maps(collection: RepairingCollection, newcomer: Subspace,
                    index: int, cap: int = BACKTRACK_CAP) -> tuple[LinearMap, ...]:
    """All invertible maps carrying the collection onto a repaired variant.

    The variant replaces the member at index (into the sorted member
    tuple) by the newcomer.  A map qualifies when the multiset of member
    images equals the variant's members exactly.  The search runs over
    dimension-compatible member bijections and then backtracking over
    basis images inside the assigned targets; the result is
    deduplicated and sorted by matrix key.  Raises CapExceeded past cap
    backtracking nodes.

    A map g carries repair slices, their sums and rank conditions from a
    collection to its image, so whatever they decide (obtainable
    newcomers, goodness, the repair property) moves along g.
    """
    field = collection.field
    m = collection.m
    variant = collection.replace(index, newcomer)
    sources = collection.spaces
    maps = _search_maps(field, m, sources,
                        _assignments(sources, variant.spaces), cap)
    target_keys = tuple(u.key for u in variant.spaces)
    for mapping in maps:
        image_keys = tuple(sorted(mapping.apply(u).key for u in sources))
        _require(image_keys == target_keys,
                 "a transition map carries the members onto the variant's members")
    return tuple(maps)


def _walk(start, generators: Sequence[LinearMap], move, cap: int) -> dict:
    """The orbit of start under the generators, walked breadth-first.

    Maps each point's key to (point, edge), in the order met: edge is
    None at start, else (parent key, g) for the first move(g, parent)
    that reached the point.  Each point is moved once by each generator.
    Raises CapExceeded when the orbit has more than cap points.
    """
    tree = {start.key: (start, None)}
    queue = [start]
    for point in queue:
        for g in generators:
            image = move(g, point)
            if image.key not in tree:
                if len(tree) >= cap:
                    raise CapExceeded(f"orbit exceeded {cap} points")
                tree[image.key] = (image, (point.key, g))
                queue.append(image)
    return tree


def _orbit_of_first_member(maps: Sequence[LinearMap],
                           collection: RepairingCollection) -> bool:
    # do maps permuting the members reach every member from the first one
    spaces = collection.spaces
    reached = _walk(spaces[0], maps, LinearMap.apply, len(spaces))
    return reached.keys() == {u.key for u in spaces}


def stabilizer(collection: RepairingCollection, newcomer: Subspace,
               cap: int = BACKTRACK_CAP) -> GroupClosure:
    """All invertible maps fixing the collection setwise and the newcomer.

    The result is a full group (the set of such maps is closed under
    composition and inverse), reported as a complete GroupClosure whose
    transitive flag records whether the induced permutation action
    reaches every member of the collection from the first one.

    With the zero space as newcomer this is the setwise stabilizer of
    the collection, whose orbit under GL(m, q) has |GL(m, q)| / order
    members.
    """
    field = collection.field
    m = collection.m
    if newcomer.field != field or newcomer.m != m:
        raise ValueError("newcomer does not live in the collection's ambient space")
    sources = tuple(collection.spaces) + (newcomer,)

    def assignments() -> Iterator[tuple[Subspace, ...]]:
        for member_targets in _assignments(collection.spaces, collection.spaces):
            yield member_targets + (newcomer,)

    maps = _search_maps(field, m, sources, assignments(), cap)
    member_keys = tuple(u.key for u in collection.spaces)
    for mapping in maps:
        image_keys = tuple(sorted(mapping.apply(u).key for u in collection.spaces))
        _require(image_keys == member_keys,
                 "a stabilizer element permutes the members of the collection")
        _require(mapping.apply(newcomer) == newcomer,
                 "a stabilizer element fixes the newcomer")
    transitive = _orbit_of_first_member(maps, collection)
    return GroupClosure(maps, len(maps), cap, transitive=transitive)


def _point_images(mapping: LinearMap, points: Sequence) -> list:
    """Images of points under the map: packed ints over GF(2), vectors otherwise.

    A packed point's image XORs the packed rows that its set bits name.
    """
    if mapping._bits is not None:
        return _matmul_bits(points, mapping._bits)
    return [mapping.apply_vector(v) for v in points]


def _basis_permutations(generators: Sequence[LinearMap],
                        cap: int) -> Optional[list[tuple[int, ...]]]:
    """The generators as permutations of the basis-vector orbits.

    Points are the images of the standard basis vectors under the
    generated group, numbered in breadth-first order; a map fixing them
    all fixes a basis, so the action is faithful.  An orbit is no larger
    than the group, so one orbit of more than cap points means the group
    order exceeds cap, and None is returned without further work.
    """
    m = generators[0].m
    if generators[0]._bits is not None:
        basis = [1 << i for i in range(m)]
    else:
        basis = [standard_basis_vector(m, i) for i in range(m)]
    index: dict = {}
    points: list = []
    images: list[list] = [[] for _ in generators]
    for start in basis:
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
                y = _point_images(g, [x])[0]
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


def _group_order(generators: Sequence[LinearMap], cap: int) -> Optional[int]:
    """The order of the group the maps generate, or None when it exceeds cap."""
    perms = _basis_permutations(generators, cap)
    if perms is None:
        return None
    return _chain_order(perms, cap)


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
    return GroupClosure(generators, _group_order(generators, cap), cap)


def orbit(group: GroupClosure, seed: RepairingCollection,
          cap: int = ORBIT_CAP) -> dict:
    """The orbit of the seed collection, walked under the group's generators.

    Maps each member's key to (member, edge) in breadth-first order,
    the seed first: edge is (parent key, generator g) with g(parent) the
    member, None at the seed.  That is one apply_collection per member
    and generator.  Raises CapExceeded past cap members.
    """
    return _walk(seed, group.generators, LinearMap.apply_collection, cap)


def orbit_code(group: GroupClosure, walk: dict, params: CodeParams) -> StateSet:
    """The walked orbit of a seed collection under the group, verified.

    walk is orbit(group, seed).  The repair property is invariant under
    the group: a map g of it carries repair slices, their sums and
    spanning subsets of C to those of gC, and the orbit onto itself, so
    every member has the seed's verdict.  The search for an obtainable
    newcomer therefore runs on the seed first.  If the seed fails, the
    whole orbit fails.  If it passes with newcomer N, the set takes N as
    the seed's certificate, and each other member gP, reached from its
    parent P along a tree edge g, the parent's certificate moved by g,
    so each certificate is N moved along the member's tree path.
    StateSet.verify() checks each one with no search: a repair witness
    is found for it, all its replacements must stay in the orbit, some
    k members must span, and the witness is verified.

    The returned set carries the report and the witnesses of verify().
    The seed's recorded newcomer is the first valid one of the ordinary
    search; every other member's is its moved certificate, which need
    not be the first valid newcomer of the ordinary search when a
    collection has several.  A verification failure raises
    OrbitVerificationError carrying the report: the orbit construction
    only yields admissible sets under hypotheses on the seed, so a
    failure indicts the input, and nothing unverified is ever returned.
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
            "the hypotheses:\n" + RepairReport(params, [seed_check], False).render()
            + f"\nthe group carries the failure to all {len(states)} collections "
            "of the orbit")
    certificates = {}
    for key, (_, edge) in walk.items():
        if edge is None:
            certificates[key] = seed_check.state.newcomer
        else:
            parent, g = edge
            certificates[key] = g.apply(certificates[parent])
    states.certificates = certificates
    report = states.verify()
    if not report.ok:
        raise OrbitVerificationError(
            "orbit fails the repair property; the seed state does not meet "
            "the hypotheses:\n" + report.render())
    return states


@dataclass(frozen=True, eq=False)
class SearchResult:
    """One verified code found by symmetry_search."""

    transition: LinearMap
    group: GroupClosure
    states: StateSet


@dataclass(frozen=True, eq=False)
class SearchOutcome:
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


def _cyclic_transitive_generators(stab: GroupClosure,
                                  collection: RepairingCollection) -> tuple[LinearMap, ...]:
    # one representative generator per distinct transitive cyclic
    # subgroup of the stabilizer, smallest subgroups first
    subgroups: dict[frozenset, tuple[int, LinearMap]] = {}
    for g in stab.generators:
        if not _orbit_of_first_member([g], collection):
            continue
        power = g
        members = {g.key}
        while True:
            power = power.compose(g)
            if power.key in members:
                break
            members.add(power.key)
        signature = frozenset(members)
        best = subgroups.get(signature)
        if best is None or g.key < best[1].key:
            subgroups[signature] = (len(members), g)
    ranked = sorted(subgroups.values(), key=lambda item: (item[0], item[1].key))
    return tuple(g for _, g in ranked)


def symmetry_search(collection: RepairingCollection, newcomer: Subspace,
                    params: CodeParams, *, backtrack_cap: int = BACKTRACK_CAP,
                    group_cap: int = GROUP_CAP,
                    orbit_cap: int = ORBIT_CAP) -> SearchOutcome:
    """Search for small group-generated codes seeded at one repair state.

    Computes the stabilizer of (collection, newcomer); when its action
    on the members is transitive a single transition map suffices, so
    only replacements of the first member are tried, otherwise every
    index is.  Each candidate map is tried alone and together with each
    transitive cyclic stabilizer subgroup.  The orbit of every trial
    whose group order is within group_cap is walked under the trial's
    generators and verified once per distinct (group order, orbit):
    trials that meet the same pair share the outcome, and a verified
    code is reported once.  The verified codes are returned sorted by
    state count, then group order.  A group whose order exceeds
    group_cap, or whose orbit exceeds orbit_cap or meets an enumeration
    cap while it is verified, is logged and skipped, so callers should
    size the caps to the instance they search.  A cap below 1, or a
    member or newcomer whose dimension is not alpha, raises ValueError
    before any work.
    """
    for name, cap in (("backtrack_cap", backtrack_cap), ("group_cap", group_cap),
                      ("orbit_cap", orbit_cap)):
        if cap < 1:
            raise ValueError(f"{name} must be at least 1, got {cap}")
    if any(u.dim != params.alpha for u in collection.spaces + (newcomer,)):
        raise ValueError("the seed's members and newcomer must have dimension "
                         f"alpha = {params.alpha}")
    stab = stabilizer(collection, newcomer, cap=backtrack_cap)
    transitive_gens = _cyclic_transitive_generators(stab, collection)
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
    for index in indices:
        found = transition_maps(collection, newcomer, index, cap=backtrack_cap)
        _require(len(found) % stab.order == 0,
                 "the candidate maps are a union of cosets of the stabilizer")
        classes = len(found) // stab.order
        candidate_classes.append((index, classes))
        log.append(f"index {index}: {len(found)} candidate maps in "
                   f"{classes} classes modulo the stabilizer")
        for mapping in found:
            candidates.append((index, mapping))
            trials: list[tuple[LinearMap, ...]] = [(mapping,)]
            trials.extend((t, mapping) for t in transitive_gens)
            for generators in trials:
                fps = "+".join(_short_hash(g.key) for g in generators)
                group = group_closure(generators, cap=group_cap)
                if not group.complete:
                    log.append(f"  <{fps}>: {group.describe()}, skipped")
                    continue
                try:
                    walk = orbit(group, collection, orbit_cap)
                except CapExceeded:
                    log.append(f"  <{fps}>: group order {group.order}, "
                               f"orbit exceeds {orbit_cap}, skipped")
                    continue
                signature = (group.order, frozenset(walk))
                if signature in outcomes:
                    if outcomes[signature] is not None:
                        log.append(f"  <{fps}>: {outcomes[signature]}")
                    continue
                try:
                    states = orbit_code(group, walk, params)
                except OrbitVerificationError:
                    outcomes[signature] = (f"group order {group.order}, "
                                           "orbit fails verification")
                    log.append(f"  <{fps}>: {outcomes[signature]}")
                    continue
                except CapExceeded:
                    outcomes[signature] = (f"group order {group.order}, "
                                           f"orbit exceeds {orbit_cap}, skipped")
                    log.append(f"  <{fps}>: {outcomes[signature]}")
                    continue
                outcomes[signature] = None
                log.append(f"  <{fps}>: group order {group.order}, "
                           f"orbit {len(states)}, verified")
                results.append(SearchResult(mapping, group, states))
    results.sort(key=lambda res: (len(res.states), res.group.order,
                                  res.transition.key))
    return SearchOutcome(stab, transitive_gens, tuple(candidates),
                         tuple(candidate_classes), tuple(results), tuple(log))
