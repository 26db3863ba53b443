import time
from itertools import combinations, zip_longest
from math import comb, prod

import pytest

from oracles import census_by_walking, elementary_symmetric

from lapshift.errors import CapacityError, DomainError, InvalidInputError
from lapshift.families import connected_bipartite_graphs, free_trees, unicyclic_family
from lapshift.graphs import Graph, complete_graph, cycle_graph, laplacian, path_graph, star_graph
from lapshift.immanants import immanant_by_shape, immanantal_polynomial
from lapshift.orientations import (
    VertexOrientation,
    _cycle_family_series,
    _cycle_rank,
    _split_by_size,
    _transport_plan,
    census_by_size,
    census_transform,
    classify_type,
    enumerate_orientations,
    immanant_via_orientations,
    orientation_census,
    polynomial_via_orientations,
    subset_orientation_census,
    transport_orientation,
    validate_orientation,
)
from lapshift.partitions import Partition, enumerate_partitions
from lapshift.shifts import apply_shift, resolve_move
from lapshift.symfunc import inverse_frobenius

# a 4-cycle with a two-edge tail hanging off vertex 4
SQUARE_WITH_TAIL = Graph(6, [(1, 2), (2, 3), (3, 4), (4, 1), (4, 5), (5, 6)])


def test_orientation_container():
    o = VertexOrientation.from_mapping({3: 2, 1: 2})
    assert o.arrows == ((1, 2), (3, 2))
    assert o.domain == frozenset({1, 3})
    assert o.as_mapping() == {1: 2, 3: 2}
    assert len(o) == 2


def test_validate_rejects_bad_orientations():
    g = path_graph(4)
    with pytest.raises(InvalidInputError):
        validate_orientation(g, VertexOrientation(((2, 1), (1, 2))))
    with pytest.raises(InvalidInputError):
        validate_orientation(g, VertexOrientation(((1, 2), (1, 2))))
    with pytest.raises(InvalidInputError):
        validate_orientation(g, VertexOrientation(((1, 3),)))
    validate_orientation(g, VertexOrientation(((1, 2), (3, 2))))


def test_classify_hand_cases():
    g = SQUARE_WITH_TAIL
    two_swaps = VertexOrientation.from_mapping({1: 2, 2: 1, 3: 2, 4: 1, 5: 6, 6: 5})
    assert classify_type(g, two_swaps) == Partition([2, 2, 1, 1])
    square_loop = VertexOrientation.from_mapping({1: 2, 2: 3, 3: 4, 4: 1, 5: 4, 6: 5})
    assert classify_type(g, square_loop) == Partition([4, 1, 1])
    loop_and_swap = VertexOrientation.from_mapping({1: 2, 2: 3, 3: 4, 4: 1, 5: 6, 6: 5})
    assert classify_type(g, loop_and_swap) == Partition([4, 2])
    empty = VertexOrientation(())
    assert classify_type(g, empty) == Partition([1] * 6)


def test_full_census_frozen():
    assert orientation_census(path_graph(2)) == {Partition([2]): 1}
    assert orientation_census(path_graph(4)) == {
        Partition([2, 2]): 1,
        Partition([2, 1, 1]): 3,
    }
    assert orientation_census(cycle_graph(4)) == {
        Partition([4]): 2,
        Partition([2, 2]): 2,
        Partition([2, 1, 1]): 12,
    }


def test_census_of_square_with_tail_contains_expected_types():
    census = orientation_census(SQUARE_WITH_TAIL)
    for parts in ((2, 2, 1, 1), (4, 1, 1), (4, 2)):
        assert census.get(Partition(parts), 0) > 0


def test_census_totals():
    for g in (path_graph(4), cycle_graph(6), star_graph(5), SQUARE_WITH_TAIL):
        degrees = [g.degree(v) for v in g.vertices()]
        assert sum(orientation_census(g).values()) == prod(degrees)
        for r in range(g.n + 1):
            total = sum(subset_orientation_census(g, r).values())
            assert total == elementary_symmetric(degrees, r)


def test_subset_census_boundary_sizes():
    g = path_graph(4)
    assert subset_orientation_census(g, 0) == {Partition([1, 1, 1, 1]): 1}
    assert subset_orientation_census(g, g.n) == orientation_census(g)
    with pytest.raises(InvalidInputError):
        subset_orientation_census(g, 5)


def test_enumeration_skips_isolated_domains():
    g = Graph(3, [(1, 2)])
    assert list(enumerate_orientations(g, (3,))) == []
    assert len(list(enumerate_orientations(g, (1, 2)))) == 1


def test_census_route_matches_matrix_route():
    # the central identity: for every shape, the binomial-weighted census
    # reproduces the Laplacian immanant and its whole polynomial
    for g in (path_graph(4), star_graph(4), cycle_graph(4)):
        lap = laplacian(g)
        for lam in enumerate_partitions(g.n):
            assert immanant_via_orientations(g, lam) == immanant_by_shape(lap, lam)
            for basis in ("s", "p", "m"):
                direct = immanantal_polynomial(lap, inverse_frobenius(basis, lam))
                assert polynomial_via_orientations(g, lam, basis) == direct


def test_census_transform_rejects():
    g = cycle_graph(5)
    # counting orientations is fine on any graph; only the transform
    # needs bipartiteness
    assert sum(orientation_census(g).values()) == 2**5
    with pytest.raises(DomainError):
        immanant_via_orientations(g, Partition([5]))
    with pytest.raises(DomainError):
        immanant_via_orientations(path_graph(4), Partition([3]))
    with pytest.raises(InvalidInputError):
        immanant_via_orientations(path_graph(4), Partition([4]), basis="q")
    with pytest.raises(InvalidInputError):
        census_transform(path_graph(4), {Partition([3]): 1}, Partition([4]), "s")


def test_capacity_cap():
    # K_{2,3} has two independent cycles, so its census walks orientations
    k23 = Graph(5, [(u, v) for u in (1, 2) for v in (3, 4, 5)])
    with pytest.raises(CapacityError):
        orientation_census(k23, cap=3)
    with pytest.raises(CapacityError):
        subset_orientation_census(k23, 2, cap=1)
    # one cycle takes the matching sum, which the cap does not bound
    assert orientation_census(cycle_graph(4), cap=3) == {
        Partition([4]): 2,
        Partition([2, 2]): 2,
        Partition([2, 1, 1]): 12,
    }


def _by_parts(census):
    return {mu.parts: count for mu, count in census.items()}


# graphs with at most one independent cycle: the matching sum against the walk
ONE_CYCLE_CORPUS = {
    "trees": lambda: [g for n in range(1, 10) for g in free_trees(n)],
    "unicyclic": lambda: [
        g for k in range(3, 7) for n in range(k + 1, 10) for g in unicyclic_family(n, k)
    ],
    "bipartite": lambda: [
        g for n in range(1, 7) for g in connected_bipartite_graphs(n) if _cycle_rank(g) <= 1
    ],
    # one vertex; a forest with an isolated vertex; a 4-cycle beside a tree;
    # a 5-cycle with a pendant path (counting needs no bipartition)
    "small": lambda: [
        Graph(1),
        Graph(7, [(1, 2), (2, 3), (2, 4), (5, 6)]),
        Graph(9, [(1, 2), (2, 3), (3, 4), (4, 1), (5, 6), (6, 7), (6, 8), (8, 9)]),
        Graph(7, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (3, 6), (6, 7)]),
    ],
}


@pytest.mark.parametrize("corpus", sorted(ONE_CYCLE_CORPUS))
def test_matching_sum_equals_enumeration(corpus):
    graphs = ONE_CYCLE_CORPUS[corpus]()
    assert graphs
    for g in graphs:
        assert _cycle_rank(g) <= 1
        for r in range(g.n + 1):
            walked = census_by_walking(g.n, g.edges(), r)
            assert _by_parts(subset_orientation_census(g, r)) == walked, (g, r)


def test_matching_sum_on_a_forty_vertex_path():
    # 8.1e16 orientations in all, far past the walk's cap.  The oracle sums
    # over r-subsets, so it runs where C(40, r) is small; every r is also
    # checked against e_r(1, 1, 2^38) in closed form.
    g = path_graph(40)
    degrees = [g.degree(v) for v in g.vertices()]
    for r in range(g.n + 1):
        census = subset_orientation_census(g, r)
        total = sum(census.values())
        ends = range(min(r, 2) + 1)
        assert total == sum(comb(2, i) * 2 ** (r - i) * comb(38, r - i) for i in ends)
        if comb(40, r) <= 10**5:
            assert total == elementary_symmetric(degrees, r)
        assert all(count > 0 for count in census.values())


def _family_dp(g, top):
    """The cycle-family DP on its own, whatever the graph's cycle rank: the
    censuses of sizes 0..top."""
    return [_by_parts(c) for c in _split_by_size(g.n, _cycle_family_series(g, top), 0, top)]


def _bipartite_complete(a, b):
    return Graph(a + b, [(u, v) for u in range(1, a + 1) for v in range(a + 1, a + b + 1)])


def _check_family_dp_every_r(g):
    whole = _family_dp(g, g.n)
    for r in range(g.n + 1):
        walked = census_by_walking(g.n, g.edges(), r)
        assert whole[r] == walked, (g, r)
        assert _family_dp(g, r)[r] == walked, (g, r)


def test_family_dp_equals_walk_on_the_bipartite_corpus():
    corpus = [g for n in range(1, 7) for g in connected_bipartite_graphs(n)]
    assert len(corpus) == 28
    for g in corpus:
        _check_family_dp_every_r(g)


def test_family_dp_equals_walk_on_complete_bipartite_graphs():
    _check_family_dp_every_r(_bipartite_complete(3, 5))
    k44 = _bipartite_complete(4, 4)
    walked = census_by_walking(8, k44.edges(), 8)
    assert _family_dp(k44, 8)[8] == walked
    assert _by_parts(orientation_census(k44)) == walked


MULTI_CYCLE_GRAPHS = {
    "K4": complete_graph(4),
    "K5": complete_graph(5),
    # three paths of lengths 2, 2 and 3 between vertices 1 and 2
    "theta": Graph(6, [(1, 3), (3, 2), (1, 4), (4, 2), (1, 5), (5, 6), (6, 2)]),
    "bowtie": Graph(5, [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 3)]),
    "two-cycles-and-a-point": Graph(
        8, [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 7), (7, 4)]
    ),
    "one-vertex": Graph(1),
}


@pytest.mark.parametrize("name", sorted(MULTI_CYCLE_GRAPHS))
def test_family_dp_equals_walk_beyond_bipartite(name):
    g = MULTI_CYCLE_GRAPHS[name]
    _check_family_dp_every_r(g)
    by_size = census_by_size(g)
    for r in range(g.n + 1):
        assert by_size[r] == subset_orientation_census(g, r)


def test_census_by_size_matches_each_size_on_what_verify_counts():
    graphs = [g for n in range(1, 7) for g in connected_bipartite_graphs(n)]
    graphs += [g for n in (6, 7) for g in free_trees(n)]
    for n, k in ((7, 4), (7, 6), (8, 4), (9, 6)):
        graphs += unicyclic_family(n, k)
    for g in graphs:
        by_size = census_by_size(g)
        assert len(by_size) == g.n + 1
        for r in range(g.n + 1):
            assert by_size[r] == subset_orientation_census(g, r), (g, r)


def test_family_dp_refuses_before_any_work():
    # K_{2,3} with a 25-vertex path hanging off vertex 5: two independent
    # cycles, 3.3 * 10^14 orientations, and 2 * 10^5 matchings of the path
    # alone that the DP would build as cycle families
    edges = [(u, v) for u in (1, 2) for v in (3, 4, 5)]
    edges += [(v, v + 1) for v in range(5, 30)]
    g = Graph(30, edges)
    assert _cycle_rank(g) == 2
    began = time.perf_counter()
    with pytest.raises(CapacityError, match="exceed the cap of 100000000"):
        census_by_size(g)
    with pytest.raises(CapacityError, match="--census-cap"):
        orientation_census(g)
    with pytest.raises(CapacityError, match="size at most 20"):
        subset_orientation_census(g, 20)
    assert time.perf_counter() - began < 1.0
    # small sizes stay under the cap: e_0 + ... + e_3 of the degrees
    assert sum(subset_orientation_census(g, 3).values()) == elementary_symmetric(
        [g.degree(v) for v in g.vertices()], 3
    )


def test_cycle_rank_picks_the_backend():
    assert _cycle_rank(path_graph(5)) == 0
    assert _cycle_rank(SQUARE_WITH_TAIL) == 1
    assert _cycle_rank(Graph(8, [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4)])) == 2
    assert _cycle_rank(Graph(5, [(u, v) for u in (1, 2) for v in (3, 4, 5)])) == 2


def _check_transport_exhaustively(g1, move):
    g2 = apply_shift(g1, move)
    for r in range(g1.n + 1):
        seen = set()
        for domain in combinations(g2.vertices(), r):
            for o in enumerate_orientations(g2, domain):
                t = transport_orientation(g1, move, o)
                assert len(t) == len(o)
                assert classify_type(g1, t) == classify_type(g2, o)
                assert t.arrows not in seen, "transport collided"
                seen.add(t.arrows)


def test_transport_path_to_star():
    g1 = path_graph(4)
    _check_transport_exhaustively(g1, resolve_move(g1, 2, 3))


def test_transport_with_cycle_and_tail():
    # donor two steps down the tail: exercises the path-reversal branch
    g1 = Graph(7, [(1, 2), (2, 3), (3, 4), (4, 1), (4, 5), (5, 6), (6, 7)])
    _check_transport_exhaustively(g1, resolve_move(g1, 4, 6))


def _orientations_of(g):
    for r in range(g.n + 1):
        for domain in combinations(g.vertices(), r):
            yield from enumerate_orientations(g, domain)


def test_transport_plan_follows_graph_and_move():
    # calls for two covers, interleaved, each against a call on a cold cache
    tail = Graph(7, [(1, 2), (2, 3), (3, 4), (4, 1), (4, 5), (5, 6), (6, 7)])
    covers = [(path_graph(5), resolve_move(path_graph(5), 2, 4)), (tail, resolve_move(tail, 4, 6))]
    streams = [
        [(g1, move, o) for o in _orientations_of(apply_shift(g1, move))] for g1, move in covers
    ]
    calls = [call for pair in zip_longest(*streams) for call in pair if call is not None]
    warm = [transport_orientation(g1, move, o) for g1, move, o in calls]
    for (g1, move, o), image in zip(calls, warm):
        _transport_plan.cache_clear()
        assert transport_orientation(g1, move, o) == image


def test_transport_plan_refuses_a_foreign_move():
    move = resolve_move(path_graph(4), 2, 3)
    o = VertexOrientation.from_mapping({1: 2})
    transport_orientation(path_graph(4), move, o)  # the plan is now cached
    with pytest.raises(InvalidInputError):
        transport_orientation(star_graph(4), move, o)
    # a warm plan still validates the orientation against the shifted graph
    with pytest.raises(InvalidInputError):
        transport_orientation(path_graph(4), move, VertexOrientation.from_mapping({1: 4}))


def test_transport_plan_cache_is_bounded():
    assert _transport_plan.cache_info().maxsize is not None
