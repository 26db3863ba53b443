import random

import pytest

from oracles import are_isomorphic

from lapshift.canon import CANON_CACHE_SIZE, canonical_form
from lapshift.errors import CapacityError
from lapshift.graphs import Graph, complete_graph, cycle_graph, path_graph, star_graph
from lapshift.verify import SuiteConfig, run_suite


def _relabel(g: Graph, mapping: dict[int, int]) -> Graph:
    return Graph(g.n, [(mapping[u], mapping[v]) for u, v in g.edges()])


def test_relabeling_invariance():
    rng = random.Random(7)
    samples = [
        path_graph(7),
        star_graph(6),
        cycle_graph(6),
        Graph(7, [(1, 2), (2, 3), (3, 4), (4, 1), (4, 5), (5, 6), (5, 7)]),
        Graph(6, [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (4, 6)]),
        complete_graph(5),
    ]
    for g in samples:
        base = canonical_form(g)
        for _ in range(5):
            perm = list(g.vertices())
            rng.shuffle(perm)
            mapping = {old: new for old, new in zip(g.vertices(), perm)}
            assert canonical_form(_relabel(g, mapping)) == base


def test_distinguishes_nonisomorphic():
    pairs = [
        (path_graph(4), star_graph(4)),
        (cycle_graph(6), Graph(6, [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4)])),
        (
            Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5)]),
            Graph(5, [(1, 2), (2, 3), (2, 4), (4, 5)]),
        ),
    ]
    for a, b in pairs:
        assert canonical_form(a) != canonical_form(b)


def test_agrees_with_brute_force_isomorphism():
    # all connected graphs on 5 vertices drawn a few times at random:
    # equal canonical strings must mean isomorphic and vice versa
    rng = random.Random(11)
    pool = []
    while len(pool) < 12:
        m = rng.randint(4, 8)
        edges = rng.sample([(i, j) for i in range(1, 6) for j in range(i + 1, 6)], m)
        g = Graph(5, edges)
        if g.is_connected():
            pool.append(g)
    for a in pool:
        for b in pool:
            same = canonical_form(a) == canonical_form(b)
            assert same == are_isomorphic(5, a.edges(), b.edges())


def test_tree_and_cycle_prefixes():
    assert canonical_form(cycle_graph(5)) == "C:5"
    assert canonical_form(path_graph(3)).startswith("T:")
    glued = Graph(5, [(1, 2), (2, 3), (3, 1), (1, 4), (4, 5)])
    assert canonical_form(glued).startswith("U3:")


def test_brute_force_cap():
    # a dense non-tree, non-unicyclic graph beyond the cap must refuse
    big = complete_graph(11)
    with pytest.raises(CapacityError):
        canonical_form(big, cap=10)


def test_canonical_form_cache_is_bounded():
    # one verify run at the default configuration fits in it, with room over
    assert canonical_form.cache_info().maxsize == CANON_CACHE_SIZE
    canonical_form.cache_clear()
    run_suite(SuiteConfig(only="poset-extremes"))
    info = canonical_form.cache_info()
    assert info.currsize == info.misses < info.maxsize
