"""Property tests: orientation transport along every shift of a random tree,
and along random covers of the anchored unicyclic posets."""

from itertools import combinations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from lapshift.families import FamilySpec, family_members
from lapshift.graphs import Graph
from lapshift.orientations import classify_type, enumerate_orientations, transport_orientation
from lapshift.posets import build_poset
from lapshift.shifts import apply_shift, enumerate_shifts


def tree_from_pruefer(n: int, code: list[int]) -> Graph:
    """The labelled tree on 1..n whose Pruefer code is `code` (length n - 2)."""
    degree = [0] + [1] * n
    for v in code:
        degree[v] += 1
    edges = []
    for v in code:
        leaf = min(u for u in range(1, n + 1) if degree[u] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    u, w = (x for x in range(1, n + 1) if degree[x] == 1)
    edges.append((u, w))
    return Graph(n, edges)


pruefer_trees = st.integers(2, 8).flatmap(
    lambda n: st.lists(st.integers(1, n), min_size=n - 2, max_size=n - 2).map(
        lambda code: tree_from_pruefer(n, code)
    )
)


@settings(deadline=None, max_examples=30)
@given(pruefer_trees)
def test_transport_is_injective_and_keeps_type(g1):
    assert g1.is_connected() and g1.num_edges == g1.n - 1
    for move in enumerate_shifts(g1):
        g2 = apply_shift(g1, move)
        for r in range(g1.n + 1):
            images = set()
            for domain in combinations(g2.vertices(), r):
                for o in enumerate_orientations(g2, domain):
                    image = transport_orientation(g1, move, o)
                    assert len(image) == r
                    assert classify_type(g1, image) == classify_type(g2, o)
                    assert image not in images
                    images.add(image)


def unicyclic_covers():
    """(lower graph, witness move) for every cover of the k-cycle families,
    k = 3..6, on at most 8 vertices: 95 covers."""
    out = []
    for k in range(3, 7):
        for n in range(k + 1, 9):
            h = build_poset(family_members(FamilySpec("unicyclic", n, k)))
            out.extend((h.nodes[i], h.witnesses[i, j]) for i, j in h.covers)
    return out


@settings(deadline=None, max_examples=30)
@given(st.sampled_from(unicyclic_covers()))
def test_transport_on_unicyclic_covers_is_injective_and_keeps_type(cover):
    g1, move = cover
    g2 = apply_shift(g1, move)
    for r in range(g1.n + 1):
        images = set()
        for domain in combinations(g2.vertices(), r):
            for o in enumerate_orientations(g2, domain):
                image = transport_orientation(g1, move, o)
                assert len(image) == r
                assert classify_type(g1, image) == classify_type(g2, o)
                assert image not in images
                images.add(image)
