"""Test-only constructions: the labels and semilinear maps of the partition
code, the exhaustive list of maximum families, the recovery dimension, the
recovery test, repair-slice sums built as canonical subspaces and the
simulator's event loop built from its public calls.

The program never runs these; tests use them as independent oracles.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator, Optional, Sequence

from frcodes.gf import GF
from frcodes.groupsearch import GroupClosure, LinearMap, group_closure
from frcodes.partition_code import PartitionModel, _clique_search, _plane_tables
from frcodes.simulator import CorruptStateError, DssState, RunReport, collect, fail, repair
from frcodes.storage import CodeParams, RepairingCollection, is_recovery_set
from frcodes.subspace import Subspace, zero_subspace

F8 = GF(2, 3)


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
                 for a in model.field8.nonzero()
                 for b in model.field8.elements() for i in range(3))


def symmetry_group(model: PartitionModel) -> GroupClosure:
    """The full symmetry group, generated by scaling, shift and Frobenius."""
    alpha = model.field8.generator
    return group_closure([semilinear_map(alpha, 0, 0, model),
                          semilinear_map(1, 1, 0, model),
                          semilinear_map(1, 0, 1, model)])


def maximum_collections(model: PartitionModel) -> tuple[tuple[bytes, ...], ...]:
    """Every maximum family, as sorted tuples of subspace keys.

    The search runs over all 155 planes with no symmetry reduction.
    """
    tables = _plane_tables(model)
    _, witnesses, _ = _clique_search(tables, collect_all=True)
    return tuple(sorted(tuple(sorted(tables.planes[x].key for x in w))
                        for w in witnesses))


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


def run_random_by_collect(state: DssState, steps: int, seed: Optional[int] = None) -> RunReport:
    """simulator.run_random from the public fail, repair and collect alone.

    Each event lists the k-subsets of node ids that span, by
    is_recovery_set in the order of itertools.combinations, and collects
    from each of them (strict mode) or from one seeded choice, drawing
    from state.rng exactly as run_random does.
    """
    if seed is not None:
        state.rng = random.Random(seed)
        state.seed = seed
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
