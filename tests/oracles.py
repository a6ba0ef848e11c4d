"""Test-only constructions: the labels and semilinear maps of the partition
code, the exhaustive list of maximum families, the recovery dimension, the
recovery test, repair-slice sums built as canonical subspaces, the
simulator's event loop built from its public calls, the identity map, a
map of F_2^5 from a table of basis images, the action of a map on
vectors and collections, the state set of an exact-repair code, and both
sides of the family's replacement equivalence with the coefficient code
found by brute force.

The program never runs these; tests use them as independent oracles.
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple, Optional, Sequence

from frcodes.family import GoodCollection, _repair_vectors, is_good
from frcodes.gf import GF, Field
from frcodes.groupsearch import GroupClosure, LinearMap, group_closure
from frcodes.partition_code import PartitionModel, _outside, _plane_tables
from frcodes.simulator import CorruptStateError, DssState, RunReport, collect, fail, repair
from frcodes.storage import (CodeParams, RepairingCollection, StateSet, find_repair_witness,
                             is_recovery_set)
from frcodes.subspace import (Subspace, Vector, matmul, rank_of, span, standard_basis_vector,
                              zero_subspace)

F8 = GF(2, 3)


def identity_map(field: Field, m: int) -> LinearMap:
    """The identity map of F_q^m."""
    return LinearMap(field, m, tuple(standard_basis_vector(m, i) for i in range(m)))


def basis_image_map(images: Sequence[Sequence[int]]) -> LinearMap:
    """The map of F_2^5 that sends e_i to the sum of e_j over j in images[i].

    The generators of partition_code._STABILIZER_CHAIN are such tables.
    """
    return LinearMap(GF(2), 5, tuple(tuple(int(j in image) for j in range(5))
                                     for image in images))


def apply_vector(g: LinearMap, v: Sequence[int]) -> Vector:
    """g(v): the row vector v times the matrix of g."""
    return matmul(g.field, [v], g.rows)[0]


def apply_collection(g: LinearMap, collection: RepairingCollection) -> RepairingCollection:
    """The collection of the images of the members under g."""
    return RepairingCollection([g.apply(u) for u in collection.spaces])


def exact_to_states(node_spaces: Sequence[Subspace], params: CodeParams) -> StateSet:
    """State set of an exact-repair code: all collections that drop one node.

    Requires each node space to be (r, beta) obtainable from the others,
    which is exactly the exact-repair property.
    """
    if len(node_spaces) != params.n:
        raise ValueError(f"expected n = {params.n} node spaces, got {len(node_spaces)}")
    for s in node_spaces:
        if s.dim != params.alpha:
            raise ValueError(f"node space of dimension {s.dim}, expected alpha = {params.alpha}")
    collections = []
    for i in range(len(node_spaces)):
        rest = RepairingCollection([s for j, s in enumerate(node_spaces) if j != i])
        if find_repair_witness(rest, node_spaces[i], params) is None:
            raise ValueError(f"node space {i} is not obtainable from the remaining nodes")
        collections.append(rest)
    return StateSet(params, collections)


class RepairCode(NamedTuple):
    """The coefficient code C = {c : sum_j c_j w_j lands in the newcomer}."""

    field: Field
    r: int
    words: tuple[Vector, ...]
    generator: tuple[Vector, ...]
    dim: int
    min_distance: int

    def is_mds(self, kdim: int, distance: int) -> bool:
        return self.dim == kdim and self.min_distance == distance


def repair_code(collection: GoodCollection, w: Sequence[Sequence[int]],
                target: Subspace) -> RepairCode:
    """C = {c in F^r : sum_j c_j w_j in target}, by testing each of the
    q^r coefficient vectors c; its words are in lexicographic order."""
    r = collection.r
    field = collection.field
    if len(w) != r:
        raise ValueError(f"expected {r} repair vectors, got {len(w)}")
    for i, v in enumerate(w):
        if tuple(v) not in collection.spaces[i]:
            raise ValueError(f"repair vector {i} is not in its member space")
    if target.field != field or target.m != collection.m:
        raise ValueError("target space does not match the collection's ambient")
    words = tuple(c for c in itertools.product(field.elements(), repeat=r)
                  if matmul(field, [c], w)[0] in target)
    code = span(field, r, words)
    weights = [sum(1 for a in c if a) for c in words if any(c)]
    return RepairCode(field, r, words, code.rows, code.dim, min(weights, default=0))


def verify_replacement_equivalence(collection: GoodCollection,
                                   w: Sequence[Sequence[int]],
                                   target: Subspace) -> bool:
    """Evaluate both sides of the replacement equivalence and compare.

    Side one replaces each member by the target in turn and checks
    goodness; side two checks independence of the w and the MDS property
    of the coefficient code.  The w_i must stay off the forbidden
    traces; that hypothesis is what makes the two sides agree.  A
    disagreement raises instead of returning.
    """
    r, s = collection.r, collection.s
    field = collection.field
    w = _repair_vectors(collection, w)
    if target.dim != s + 1:
        raise ValueError(f"newcomer of dimension {target.dim}, expected {s + 1}")
    if not target <= span(field, collection.m, w):
        raise ValueError("newcomer is not inside the span of the repair vectors")
    replaced_good = all(
        is_good(collection.spaces[:i] + (target,) + collection.spaces[i + 1:], r, s)
        for i in range(r))
    code = repair_code(collection, w, target)
    independent = rank_of(field, collection.m, w) == r
    code_good = independent and code.is_mds(s + 1, r - s)
    if replaced_good != code_good:
        raise RuntimeError(
            f"replacement equivalence violated: replacements good = {replaced_good}, "
            f"independent w and MDS code = {code_good} (w = {w})")
    return replaced_good


def member_of(model: PartitionModel, label: int) -> Subspace:
    """The graph space of multiplication by a GF(8) label."""
    model.field8._check(label)
    return model.members[label]


def label_of(model: PartitionModel, space: Subspace) -> int:
    """The GF(8) label of a graph space; ValueError for any other space."""
    for b, u in enumerate(model.members):
        if u == space:
            return b
    raise ValueError("subspace is not one of the graph spaces")


def vector_of(model: PartitionModel, w: int, u: int) -> tuple[int, ...]:
    """Coordinates of the pair (w, u); u must lie on the plane."""
    model.field8._check(w)
    if u not in model.plane:
        raise ValueError(f"{u} is not on the plane")
    return tuple(model.field8.digits(w)) + tuple(model.field8.digits(u)[1:])


def parts_of(model: PartitionModel, vector: Sequence[int]) -> tuple[int, int]:
    """The (w, u) pair behind a coordinate vector."""
    if len(vector) != model.m:
        raise ValueError(f"vector length {len(vector)} does not match ambient {model.m}")
    return (model.field8.from_digits(list(vector[:3])),
            model.field8.from_digits([0] + list(vector[3:])))


def label_action(a: int, b: int, i: int, beta: int) -> int:
    """Image of a label under the map x -> a * x^(2^i) + b."""
    for x in (a, b, beta):
        F8._check(x)
    if a == 0:
        raise ValueError("the scale must be nonzero")
    return F8.add(F8.mul(a, F8.frobenius(beta, i % 3)), b)


def compose_semilinear(outer: tuple[int, int, int],
                       inner: tuple[int, int, int]) -> tuple[int, int, int]:
    """Parameters of the composite map: inner first, then outer.

    Substituting a*x^(2^i) + b into c*x^(2^j) + d gives the scale
    c * a^(2^j), the shift c * b^(2^j) + d, and the twist i + j mod 3.
    """
    c, d, j = outer
    a, b, i = inner
    for x in (a, b, c, d):
        F8._check(x)
    if a == 0 or c == 0:
        raise ValueError("the scale must be nonzero")
    return (F8.mul(c, F8.frobenius(a, j % 3)),
            F8.add(F8.mul(c, F8.frobenius(b, j % 3)), d), (i + j) % 3)


def semilinear_map(a: int, b: int, i: int, model: PartitionModel) -> LinearMap:
    """The invertible map (w, u) -> (a*w^(2^i) + b*u^(2^i), u^(2^i)).

    Frobenius twists are GF(2)-linear and the plane is closed under
    them, so the map is a 5x5 matrix over GF(2) in the fixed
    coordinates.  It carries the graph of multiplication by x to the
    graph of multiplication by a*x^(2^i) + b.
    """
    field8 = model.field8
    field8._check(a)
    field8._check(b)
    if a == 0:
        raise ValueError("the scale must be nonzero")
    units = [field8.from_digits([int(t == j) for t in range(3)]) for j in range(3)]
    rows = [vector_of(model, field8.mul(a, field8.frobenius(w, i % 3)), 0) for w in units]
    for u in model.plane[1:3]:
        twisted = field8.frobenius(u, i % 3)
        rows.append(vector_of(model, field8.mul(b, twisted), twisted))
    return LinearMap(model.base, model.m, tuple(rows))


def enumerate_semilinear(model: PartitionModel,
                         ) -> tuple[tuple[tuple[int, int, int], LinearMap], ...]:
    """All 168 parameterized maps, as (parameters, map) pairs."""
    return tuple(((a, b, i), semilinear_map(a, b, i, model))
                 for a in range(1, model.field8.q)
                 for b in model.field8.elements() for i in range(3))


def symmetry_group(model: PartitionModel) -> GroupClosure:
    """The full symmetry group, generated by scaling, shift and Frobenius."""
    alpha = model.field8.generator
    return group_closure([semilinear_map(alpha, 0, 0, model),
                          semilinear_map(1, 1, 0, model),
                          semilinear_map(1, 0, 1, model)])


def maximum_collections(model: PartitionModel) -> tuple[tuple[bytes, ...], ...]:
    """Every maximum family, as sorted tuples of subspace keys.

    A branch and bound over all 155 planes with no symmetry reduction,
    written apart from partition_code._clique_search.  Each plane's row
    of the _outside bitsets is built once, so narrowing the candidates
    by a new pair is one index, and a child too small to reach the best
    size is not entered.
    """
    tables = _plane_tables(model)
    count = len(tables.planes)
    disjoint = tables.disjoint
    outside = [[_outside(tables, x, y) for y in range(count)] for x in range(count)]
    best = 0
    families: list[tuple[int, ...]] = []
    chosen: list[int] = []

    def extend(candidates: int) -> None:
        nonlocal best, families
        size = len(chosen)
        if size > best:
            best, families = size, []
        if size == best:
            families.append(tuple(chosen))
        while candidates and size + candidates.bit_count() >= best:
            low = candidates & -candidates
            candidates ^= low
            c = low.bit_length() - 1
            narrowed = candidates & disjoint[c]
            row = outside[c]
            for x in chosen:
                narrowed &= row[x]
            if size + 1 + narrowed.bit_count() >= best:
                chosen.append(c)
                extend(narrowed)
                chosen.pop()

    extend((1 << count) - 1)
    return tuple(sorted(tuple(sorted(tables.planes[x].key for x in w)) for w in families))


def recovery_set_by_sums(spaces: Sequence[Subspace], m: int) -> bool:
    """is_recovery_set by adding the spaces one at a time as canonical
    subspaces, stopping once the sum is F_q^m."""
    if not spaces:
        return m == 0
    total = zero_subspace(spaces[0].field, m)
    for s in spaces:
        if s.m != m:
            raise ValueError(f"ambient mismatch: {s.m} != {m}")
        total = total + s
        if total.dim == m:
            return True
    return total.dim == m


def recovery_dimension(spaces: Sequence[Subspace], m: int) -> int:
    """Smallest number of the given spaces that suffices to span F_q^m;
    ValueError when even the full list does not span."""
    if not is_recovery_set(list(spaces), m):
        raise ValueError("the full list of spaces does not span the ambient space")
    return next(size for size in range(1, len(spaces) + 1)
                if any(is_recovery_set(list(combo), m)
                       for combo in itertools.combinations(spaces, size)))


def slice_sums(collection: RepairingCollection, params: CodeParams
               ) -> Iterator[tuple[tuple[int, ...], tuple[Subspace, ...], Subspace]]:
    """(indices, beta-slices, their sum) of each (r, beta) repair, in the
    order of iter_obtainable, each sum a canonical Subspace; ValueError
    when there are fewer than r members."""
    n1 = len(collection.spaces)
    if params.r > n1:
        raise ValueError(f"r={params.r} helpers but only {n1} members")
    zero = zero_subspace(collection.field, collection.m)
    for indices in itertools.combinations(range(n1), params.r):
        slice_choices = [list(collection.spaces[i].subspaces(params.beta)) for i in indices]
        # product advances the last slice fastest, so the running sums of
        # the slices before the first changed one carry over
        sums = [zero]
        previous: tuple[Subspace, ...] = ()
        for ws in itertools.product(*slice_choices):
            kept = 0
            while kept < len(previous) and ws[kept] is previous[kept]:
                kept += 1
            del sums[kept + 1:]
            for w in ws[kept:]:
                sums.append(sums[-1] + w)
            previous = ws
            yield indices, ws, sums[-1]


def run_random_by_collect(state: DssState, steps: int) -> RunReport:
    """simulator.run_random from the public fail, repair and collect alone.

    Each event lists the k-subsets of node ids that span, by
    is_recovery_set in the order of itertools.combinations, and collects
    from each of them (strict mode) or from one seeded choice, drawing
    from state.rng exactly as run_random does.
    """
    params = state.params
    visited: set[tuple[bytes, ...]] = set()
    transcripts = []
    downloads = 0

    def report(verdict: str, line: Optional[str] = None) -> RunReport:
        if line is not None:
            state.log.append(line)
        return RunReport(steps, state.seed, len(visited), downloads, verdict,
                         tuple(state.log), tuple(transcripts))

    for _ in range(steps):
        fail(state, state.rng.randrange(len(state.nodes)))
        try:
            transcript = repair(state)
        except CorruptStateError as err:
            return report("FAILED", f"corrupt state: {err}")
        transcripts.append(transcript)
        visited.add(transcript.collection_key)
        downloads += transcript.total_download
        spanning = [combo for combo in itertools.combinations(range(len(state.nodes)), params.k)
                    if is_recovery_set([state.nodes[i].space for i in combo], params.m)]
        for combo in spanning if state.strict else [state.rng.choice(spanning)]:
            try:
                recovered = collect(state, combo)
            except CorruptStateError as err:
                return report("FAILED", f"corrupt state: {err}")
            if recovered != state.message:
                return report("FAILED", f"integrity failure at nodes {combo}")
    return report("ok")
