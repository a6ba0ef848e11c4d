"""An explicit 56-state storage code built from a vector space partition.

The ambient space F_2^5 is split as a direct sum of a 3-coordinate block
carrying a copy of GF(8) and a 2-coordinate block carrying a fixed plane
inside it.  For every scalar b of GF(8) the graph of multiplication by b
on that plane is a 2-dimensional subspace, and the eight graphs together
with the field block partition the 31 nonzero vectors into 7 + 8 x 3.
Any two graphs meet trivially and any three span the whole space, so
every 3-subset of graphs is a repairing collection; each has exactly one
valid newcomer, again a graph, whose scalar label is a closed-form
function of the three labels.  The resulting 56 states form a
functional-repair code whose symmetry group has order 168, and eight is
the largest any such family of planes in F_2^5 can be.

This module keeps the model, the code with its canonical seed state,
the three semilinear maps that generate the symmetry group, and the
maximality proof.  The code is built as the orbit of the seed state
under that group, with one repair check and one search of the valid
newcomers at the seed.  All 168 maps, the valid newcomers of each of
the 56 states, and the exhaustive list of all maximum families are
built and checked in the test suite (tests/oracles.py).
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Optional, Sequence

from .gf import GF, Field
from .groupsearch import LinearMap, group_closure, orbit, orbit_code
from .storage import CodeParams, RepairingCollection, StateSet, _require, valid_newcomers
from .subspace import Subspace, full_space, span, standard_basis_vector, subspaces

__all__ = [
    "PartitionModel",
    "build_partition",
    "repair_label",
    "code_states",
    "partition_params",
    "canonical_seed_state",
    "max_collection_size",
]


def partition_params() -> CodeParams:
    """Code parameters realized by the partition construction."""
    return CodeParams(5, 4, 3, 3, 2, 1, 2)


class PartitionModel(NamedTuple):
    """The fixed coordinates, the plane, and the eight graph spaces.

    Vectors are (w, u) pairs: the first three coordinates hold a GF(8)
    value w in the polynomial basis and the last two hold an element u
    of the plane in its own basis.  members[b] is the graph of
    multiplication by b.
    """

    base: Field
    field8: Field
    m: int
    plane: tuple[int, ...]
    field_block: Subspace
    members: tuple[Subspace, ...]


def _vector(field8: Field, w: int, u: int) -> tuple[int, ...]:
    # the coordinates of the pair (w, u), u on the plane
    return tuple(field8.digits(w)) + tuple(field8.digits(u)[1:])


def _graph_space(base: Field, field8: Field, plane: Sequence[int], scalar: int) -> Subspace:
    return span(base, 5, [_vector(field8, field8.mul(scalar, u), u) for u in plane if u])


def build_partition() -> PartitionModel:
    """Construct the model and verify every claimed property exhaustively.

    The checks cover the shape of each member, the 7 + 8 x 3 partition
    of the nonzero vectors, trivial pairwise intersections, and the
    spanning of all 56 triples.  The construction is fully determined,
    so a failure here is an internal error, not bad input.
    """
    base = GF(2)
    field8 = GF(2, 3)
    alpha = field8.generator
    plane = (0, alpha, field8.mul(alpha, alpha),
             field8.add(alpha, field8.mul(alpha, alpha)))
    members = tuple(_graph_space(base, field8, plane, b) for b in field8.elements())
    field_block = span(base, 5, [standard_basis_vector(5, i) for i in range(3)])
    model = PartitionModel(base, field8, 5, plane, field_block, members)

    _require(model.members[0] == span(base, 5, [standard_basis_vector(5, 3),
                                                standard_basis_vector(5, 4)]),
             "the graph of 0 is the plane of the last two coordinates")
    _require(field_block.dim == 3, "the field block has dimension 3")
    _require(all(u.dim == 2 for u in members), "every graph space is a plane")
    _require(len({u.key for u in members}) == 8, "the eight graph spaces are distinct")
    covered = {tuple(v) for v in field_block.vectors() if any(v)}
    _require(len(covered) == 7, "the field block has 7 nonzero vectors")
    for u in members:
        part = {tuple(v) for v in u.vectors() if any(v)}
        _require(len(part) == 3, "every graph space has 3 nonzero vectors")
        _require(not covered & part, "the parts of the partition are disjoint")
        covered |= part
    everything = {tuple(v) for v in full_space(base, 5).vectors() if any(v)}
    _require(covered == everything, "the parts cover every nonzero vector")
    _require(all((a & b).dim == 0 for a, b in itertools.combinations(members, 2)),
             "the graph spaces meet pairwise trivially")
    _require(all((a + b + c).dim == 5 for a, b, c in itertools.combinations(members, 3)),
             "every three graph spaces span the whole space")
    return model


def repair_label(beta: int, gamma: int, delta: int) -> int:
    """The unique newcomer label for the collection with the given labels.

    The label is the square root of beta*gamma + beta*delta +
    gamma*delta, taken in GF(8) where squaring is a bijection and the
    root is the double Frobenius.  The result never coincides with any
    of the three inputs, which is what makes the newcomer a fresh
    member.
    """
    field8 = GF(2, 3)
    for x in (beta, gamma, delta):
        field8._check(x)
    if len({beta, gamma, delta}) != 3:
        raise ValueError(f"labels {beta}, {gamma}, {delta} must be distinct")
    total = field8.add(field8.add(field8.mul(beta, gamma), field8.mul(beta, delta)),
                       field8.mul(gamma, delta))
    label = field8.frobenius(total, 2)
    _require(label not in (beta, gamma, delta), "the newcomer label is fresh")
    return label


def _symmetry_generators(model: PartitionModel) -> list[LinearMap]:
    # the semilinear maps (w, u) -> (a*w^(2^i) + b*u^(2^i), u^(2^i)) for
    # (a, b, i) = (alpha, 0, 0), (1, 1, 0) and (1, 0, 1): scaling, shift
    # and Frobenius, which carry the graph of x to that of a*x^(2^i) + b.
    # The rows are the images of the three field coordinates and of the
    # plane's basis alpha, alpha^2; the plane is closed under Frobenius
    field8 = model.field8
    maps = []
    for a, b, i in ((field8.generator, 0, 0), (1, 1, 0), (1, 0, 1)):
        rows = [_vector(field8, field8.mul(a, field8.frobenius(1 << j, i)), 0)
                for j in range(3)]
        for u in model.plane[1:3]:
            twisted = field8.frobenius(u, i)
            rows.append(_vector(field8, field8.mul(b, twisted), twisted))
        maps.append(LinearMap(model.base, model.m, tuple(rows)))
    return maps


def code_states(model: Optional[PartitionModel] = None) -> StateSet:
    """All 56 states of the code, verified with their unique newcomers.

    The collections are the 3-subsets of the graph spaces, one orbit of
    the canonical seed state under the group of order 168 that scaling,
    shift and Frobenius generate.  Only the seed is searched: its
    repair check in groupsearch.orbit_code, and valid_newcomers, which
    must list exactly one valid newcomer, the certificate.  A map of the
    group permutes the graph spaces, hence the state set, so it carries
    the valid newcomers of C one-to-one onto those of its image: each
    collection's only newcomer is the seed's, moved along the orbit by
    orbit_code, and it must be the graph of the closed-form label.  A
    failed check raises RuntimeError; the valid newcomers of all 56
    collections of a plain listed set are the oracle of the tests.
    """
    if model is None:
        model = build_partition()
    generators = _symmetry_generators(model)
    keys = {u.key for u in model.members}
    _require(all(g.apply(u).key in keys for g in generators for u in model.members),
             "every symmetry generator permutes the graph spaces")
    group = group_closure(generators)
    _require(group.complete and group.order == 168, "the symmetry group has order 168")
    seed, _ = canonical_seed_state(model)
    walk = orbit(group, seed)
    _require(len(walk) == 56, "the orbit of the seed state has 56 collections")
    states = orbit_code(group, walk, partition_params())
    _require(valid_newcomers(states, seed) == (states.witnesses[seed.key].newcomer,),
             "the seed's only valid newcomer is the one the orbit moves")
    for b, g, d in itertools.combinations(range(8), 3):
        key = RepairingCollection([model.members[b], model.members[g],
                                   model.members[d]]).key
        state = states.witnesses.get(key)
        _require(state is not None
                 and state.newcomer == model.members[repair_label(b, g, d)],
                 "each collection's only newcomer is the graph of its repair label")
    return states


def canonical_seed_state(model: Optional[PartitionModel] = None,
                         ) -> tuple[RepairingCollection, Subspace]:
    """The seed state used by searches: labels 0, 1, alpha and their newcomer."""
    if model is None:
        model = build_partition()
    alpha = model.field8.generator
    collection = RepairingCollection([model.members[0], model.members[1],
                                      model.members[alpha]])
    return collection, model.members[repair_label(0, 1, alpha)]


def _point(row: Sequence[int]) -> int:
    # a vector of F_2^5 as a point of this module's numbering: bit j
    # holds coordinate j
    return sum(x << j for j, x in enumerate(row))


def _vector_mask(a: int, b: int) -> int:
    # the three nonzero vectors of the plane with basis points a, b, as
    # bits of a 2^m-bit mask; the mask identifies the plane
    return (1 << a) | (1 << b) | (1 << (a ^ b))


class _PlaneTables(NamedTuple):
    """The planes of F_2^5 as indices, with the bitsets of the clique search.

    planes is in ascending canonical-key order, and a plane's index is
    its position there; bases[x] holds the points of the canonical rows
    of plane x, and index maps the vector mask of a plane back to its
    index.  Bit y of disjoint[x] is set when planes x and y meet
    trivially.  Hyperplane f, for a nonzero functional f, holds the
    points v for which f & v has even weight; bit f of hyperplanes[x] is
    set for each of the 7 hyperplanes that contain plane x, and rest
    maps that single bit to the bitset of the planes outside hyperplane
    f.  Two disjoint planes span a 4-space, which is the one hyperplane
    they share, so a third plane spans F_2^5 with them exactly when it
    lies outside it; _outside reads that row for a pair.
    """

    planes: tuple[Subspace, ...]
    bases: tuple[tuple[int, ...], ...]
    index: dict[int, int]
    disjoint: tuple[int, ...]
    hyperplanes: tuple[int, ...]
    rest: dict[int, int]


def _plane_tables(model: PartitionModel) -> _PlaneTables:
    planes = tuple(subspaces(model.base, model.m, 2))
    everything = (1 << len(planes)) - 1
    bases = tuple(tuple(_point(row) for row in u.rows) for u in planes)
    points = 1 << model.m
    # through[v]: the 15 planes through point v; odd[v]: the functionals
    # f for which f & v has odd weight, linear in v
    through = [0] * points
    odd = [0]
    for j in range(model.m):
        column = sum(1 << f for f in range(points) if f >> j & 1)
        odd += [w ^ column for w in odd]
    functionals = (1 << points) - 2
    disjoint = []
    hyperplanes = []
    for x, (a, b) in enumerate(bases):
        for v in (a, b, a ^ b):
            through[v] |= 1 << x
    for a, b in bases:
        disjoint.append(everything & ~(through[a] | through[b] | through[a ^ b]))
        hyperplanes.append(functionals & ~(odd[a] | odd[b]))
    rest = {}
    for f in range(1, points):
        outside = 0
        for v in range(points):
            if odd[v] >> f & 1:
                outside |= through[v]
        rest[1 << f] = outside
    index = {_vector_mask(a, b): x for x, (a, b) in enumerate(bases)}
    return _PlaneTables(planes, bases, index, tuple(disjoint), tuple(hyperplanes), rest)


def _outside(tables: _PlaneTables, x: int, y: int) -> int:
    # for disjoint planes x and y, the bitset of the planes d for which
    # x, y and d span F_2^5; 0 for every other pair, whose hyperplane
    # masks share three or seven bits
    return tables.rest.get(tables.hyperplanes[x] & tables.hyperplanes[y], 0)


def _extensions(tables: _PlaneTables, family: Sequence[int]) -> int:
    # the bitset of the planes d that extend family: d meets every member
    # trivially and spans F_2^5 with every pair of members
    extending = (1 << len(tables.planes)) - 1
    for i, x in enumerate(family):
        extending &= tables.disjoint[x]
        for y in family[:i]:
            extending &= _outside(tables, x, y)
    return extending


def _clique_search(tables: _PlaneTables, collect_all: bool,
                   fixed: Sequence[int] = (),
                   ) -> tuple[int, list[tuple[int, ...]], int]:
    # maximum families of planes with trivial pairwise intersections and
    # all triples spanning, by branch and bound over plane-index bitsets;
    # only the families containing the fixed planes, which must form a
    # family themselves (unchecked), are searched.  Returns the best
    # size, the witnesses as tuples of plane indices (without
    # collect_all only the first family of the best size) and the
    # number of nodes visited.
    disjoint, hyperplanes, rest = tables.disjoint, tables.hyperplanes, tables.rest
    best_size = 0
    witnesses: list[tuple[int, ...]] = []
    chosen = list(fixed)
    nodes = 0

    def extend(candidates: int) -> None:
        nonlocal best_size, witnesses, nodes
        nodes += 1
        size = len(chosen)
        if size > best_size:
            best_size = size
            witnesses = [tuple(chosen)]
        elif collect_all and size == best_size and size > 0:
            witnesses.append(tuple(chosen))
        while candidates:
            room = size + candidates.bit_count()
            if room < best_size or (room == best_size and not collect_all):
                return
            low = candidates & -candidates
            candidates ^= low
            c = low.bit_length() - 1
            # adding c introduces the pairs (x, c); a later plane stays
            # viable if it avoids c and escapes the span of each new
            # pair, the hyperplane that x and c share
            narrowed = candidates & disjoint[c]
            h = hyperplanes[c]
            for x in chosen:
                narrowed &= rest[h & hyperplanes[x]]
            chosen.append(c)
            extend(narrowed)
            chosen.pop()

    extend(_extensions(tables, fixed))
    return best_size, witnesses, nodes


def _member_indices(tables: _PlaneTables, model: PartitionModel) -> list[int]:
    out = []
    for u in model.members:
        _require(u.dim == 2, "every graph space is a plane")
        out.append(tables.index[_vector_mask(*map(_point, u.rows))])
    return out


def _is_clique(tables: _PlaneTables, family: Sequence[int]) -> bool:
    return all(_extensions(tables, family[:i]) >> x & 1 for i, x in enumerate(family))


# a chain of stabilizers in GL(5, 2), one level per fixed plane, as
# generators given by the images of e0..e4 as sets of basis indices.
# Level 0 generates GL(5, 2): the cycle e0 -> e1 -> ... -> e4 -> e0 and
# the shear e0 -> e0 + e1.  Level 1 generates the stabilizer of plane 0
# = span(e0, e1): GL(2, 2) on e0, e1, GL(3, 2) on e2, e3, e4, and the
# shear e2 -> e2 + e0.  Level 2 generates the stabilizer of plane 0 and
# plane 10 = span(e0 + e4, e1 + e3), order 576 = 6 * 6 * 16.  In the
# basis a0 = e0, a1 = e1, b0 = e0 + e4, b1 = e1 + e3, c = e2 they are
# the swap and a transvection of a0, a1, the same of b0, b1, and the
# shears c -> c + a0 and c -> c + b0
_STABILIZER_CHAIN = (
    (((1,), (2,), (3,), (4,), (0,)),
     ((0, 1), (1,), (2,), (3,), (4,))),
    (((1,), (0,), (2,), (3,), (4,)),
     ((0, 1), (1,), (2,), (3,), (4,)),
     ((0,), (1,), (3,), (4,), (2,)),
     ((0,), (1,), (2, 3), (3,), (4,)),
     ((0,), (1,), (0, 2), (3,), (4,))),
    (((1,), (0,), (2,), (0, 1, 3), (0, 1, 4)),
     ((0, 1), (1,), (2,), (3,), (1, 4)),
     ((0,), (1,), (2,), (0, 1, 4), (0, 1, 3)),
     ((0,), (1,), (2,), (3,), (1, 3, 4)),
     ((0,), (1,), (0, 2), (3,), (4,)),
     ((0,), (1,), (0, 2, 4), (3,), (4,))),
)


def _plane_permutations(tables: _PlaneTables,
                        generators: Sequence[Sequence[Sequence[int]]],
                        ) -> list[tuple[Optional[int], ...]]:
    # the map of plane indices induced by each generator, given as the
    # images of e0..e4 as sets of basis indices: the images of all 2^m
    # points are XORed together from the m basis images.  A plane whose
    # image is no plane maps to None, which only a singular map can give
    perms = []
    for images in generators:
        image = [0]
        for basis in images:
            p = sum(1 << j for j in basis)
            image += [v ^ p for v in image]
        perms.append(tuple(tables.index.get(_vector_mask(image[a], image[b]))
                           for a, b in tables.bases))
    return perms


def _orbit(start: int, perms: Sequence[tuple[int, ...]]) -> int:
    # the orbit of a plane index under the group that the generator
    # permutations generate, as a bitset
    orbit = 1 << start
    frontier = [start]
    while frontier:
        x = frontier.pop()
        for perm in perms:
            y = perm[x]
            if not orbit >> y & 1:
                orbit |= 1 << y
                frontier.append(y)
    return orbit


def _first(mask: int) -> int:
    # the lowest index in a nonzero bitset
    return (mask & -mask).bit_length() - 1


def max_collection_size(model: Optional[PartitionModel] = None) -> int:
    """Largest family of planes that pairwise meet trivially and triple-span.

    An invertible linear map of F_2^5 keeps the dimensions of
    intersections and spans, so GL(5, 2) carries such families to
    families of the same size.  The proof walks a chain of three
    stabilizers, starting from GL(5, 2) itself with no plane fixed.  At
    each level the group fixes the planes chosen so far and is
    transitive on the planes that extend them (disjoint from each and
    outside the span of each pair), so every family that holds the
    chosen planes and one more is the image of one that also holds the
    first extending plane, which is chosen next.  That gives plane 0 =
    span(e0, e1), the first in canonical key order, then plane 10, the
    first plane disjoint from it, then plane 20, the first of the 72
    planes that extend both.  The graph spaces are a family of eight, so
    the branch-and-bound only searches the families through those three
    planes.  Each level's claims are checked, not assumed: every
    generator is invertible, every generator fixes the chosen planes,
    and the orbit of the next plane under the generators is exactly the
    planes that extend the chosen ones.  The graph spaces must pass the
    pairwise and triple checks in subspace arithmetic, form a family in
    the bitset tables of the search, and be no larger than the returned
    maximum.  A failed check raises RuntimeError.
    """
    if model is None:
        model = build_partition()
    _require(all((a & b).dim == 0 for a, b in itertools.combinations(model.members, 2)),
             "the graph spaces meet pairwise trivially")
    _require(all((a + b + c).dim == 5
                 for a, b, c in itertools.combinations(model.members, 3)),
             "every three graph spaces span the whole space")
    tables = _plane_tables(model)
    family = _member_indices(tables, model)
    _require(len(family) >= 8 and _is_clique(tables, family),
             "the graph spaces are a family of at least 8 planes in the search tables")
    fixed: list[int] = []
    for generators in _STABILIZER_CHAIN:
        perms = _plane_permutations(tables, generators)
        _require(all(None not in perm for perm in perms),
                 f"every generator of the stabilizer of planes {fixed} is invertible")
        _require(all(perm[x] == x for perm in perms for x in fixed),
                 f"every generator of the stabilizer of planes {fixed} fixes them")
        extending = _extensions(tables, fixed)
        start = _first(extending)
        _require(_orbit(start, perms) == extending,
                 f"the stabilizer of planes {fixed} is transitive on the planes "
                 "that extend them")
        fixed.append(start)
    best, _, _ = _clique_search(tables, collect_all=False, fixed=fixed)
    _require(best >= len(family), "the maximum is at least the number of graph spaces")
    return best
