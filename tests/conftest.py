"""Shared fixtures: the worked example codes, built once per session, and
the listing of a group, the oracle for its stabilizer-chain order."""

from __future__ import annotations

import pytest

from frcodes.gf import GF
from frcodes.storage import CodeParams
from frcodes.subspace import span


@pytest.fixture(scope="session")
def exact_code_spaces():
    """The exact-repair (4; 4, 2, 3, 2, 1) code over GF(2).

    Node i stores the 2-dimensional space spanned by e_i and
    e_{i+2} + e_{i+3} (indices mod 4).
    """
    field = GF(2)
    params = CodeParams(m=4, n=4, k=2, r=3, alpha=2, beta=1, q=2)

    def e(i):
        v = [0, 0, 0, 0]
        v[i % 4] = 1
        return tuple(v)

    def e_sum(i, j):
        return tuple(a ^ b for a, b in zip(e(i), e(j)))

    spaces = [span(field, 4, [e(i), e_sum(i + 2, i + 3)]) for i in range(4)]
    return params, spaces


@pytest.fixture(scope="session")
def functional_triple():
    """A starting collection for the functional (5; 4, 3, 3, 2, 1) code.

    Three 2-dimensional spaces in GF(2)^5: each pairs a distinct unit
    vector with a tail whose three choices sum to zero.
    """
    field = GF(2)
    params = CodeParams(m=5, n=4, k=3, r=3, alpha=2, beta=1, q=2)
    spaces = [
        span(field, 5, [(1, 0, 0, 0, 0), (0, 0, 0, 1, 0)]),
        span(field, 5, [(0, 1, 0, 0, 0), (0, 0, 0, 0, 1)]),
        span(field, 5, [(0, 0, 1, 0, 0), (0, 0, 0, 1, 1)]),
    ]
    return params, spaces


@pytest.fixture(scope="session")
def partition_model():
    """The verified partition of GF(2)^5 with its eight graph spaces."""
    from frcodes.partition_code import build_partition

    return build_partition()


@pytest.fixture(scope="session")
def partition_states(partition_model):
    """The 56-state code of the partition model, fully verified."""
    from frcodes.partition_code import code_states

    return code_states(partition_model)


@pytest.fixture(scope="session")
def list_group():
    """The breadth-first listing of a complete group closure, an oracle.

    From the identity, each listed element is composed with each
    generator until no new element appears; the listing, a dict from
    key to map, must have the order of the stabilizer chain.
    """
    from frcodes.groupsearch import LinearMap

    def listing(group):
        identity = LinearMap.identity(group.field, group.m)
        elements = {identity.key: identity}
        queue = [identity]
        for current in queue:
            for g in group.generators:
                product = g.compose(current)
                if product.key not in elements:
                    elements[product.key] = product
                    queue.append(product)
        assert len(elements) == group.order, "the listing has the chain order"
        return elements

    return listing
