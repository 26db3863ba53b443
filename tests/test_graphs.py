import math
import random

import pytest

from oracles import (
    characteristic_polynomial_fractions,
    characteristic_polynomial_integers,
    largest_eigenvalue,
    two_core_by_deletion,
    wiener_by_floyd_warshall,
)

from lapshift.errors import DomainError, InvalidInputError, ParseError
from lapshift.graphs import (
    Graph,
    adjacency_matrix,
    complete_graph,
    cycle_graph,
    format_edge_list,
    has_bipartition,
    is_bipartite,
    laplacian,
    parse_edge_list,
    path_graph,
    spectral_radius,
    star_graph,
    two_core,
    wiener_index,
)
from lapshift.families import (
    FamilySpec,
    connected_bipartite_graphs,
    family_members,
    free_trees,
    unicyclic_family,
)
from lapshift.posets import build_poset


def test_construction_rejects_bad_edges():
    with pytest.raises(InvalidInputError):
        Graph(0)
    with pytest.raises(InvalidInputError):
        Graph(3, [(1, 4)])
    with pytest.raises(InvalidInputError):
        Graph(3, [(2, 2)])
    with pytest.raises(InvalidInputError):
        Graph(3, [(1, 2), (2, 1)])
    with pytest.raises(InvalidInputError):
        Graph(3, [(1,)])


def test_basic_accessors():
    g = Graph(4, [(1, 2), (2, 3), (3, 4)])
    assert list(g.vertices()) == [1, 2, 3, 4]
    assert g.edges() == ((1, 2), (2, 3), (3, 4))
    assert g.num_edges == 3
    assert g.neighbors(2) == {1, 3}
    assert g.degree(1) == 1
    assert g.has_edge(3, 2)
    assert not g.has_edge(1, 3)
    with pytest.raises(InvalidInputError):
        g.degree(5)


def test_replace_edges():
    g = path_graph(4)
    h = g.replace_edges(remove=[(2, 3)], add=[(1, 3)])
    assert h.edges() == ((1, 2), (1, 3), (3, 4))
    with pytest.raises(InvalidInputError):
        g.replace_edges(remove=[(1, 4)])


def test_constructors():
    assert path_graph(5).edges() == ((1, 2), (2, 3), (3, 4), (4, 5))
    assert star_graph(4).edges() == ((1, 2), (1, 3), (1, 4))
    assert cycle_graph(3).num_edges == 3
    assert complete_graph(4).num_edges == 6
    with pytest.raises(InvalidInputError):
        cycle_graph(2)


def test_connectivity_and_distances():
    g = Graph(4, [(1, 2), (3, 4)])
    assert not g.is_connected()
    assert path_graph(4).is_connected()
    d = path_graph(4).distances_from(1)
    assert d == {1: 0, 2: 1, 3: 2, 4: 3}


def test_laplacian_rows_sum_to_zero():
    for g in (path_graph(5), cycle_graph(6), star_graph(7), complete_graph(4)):
        lap = laplacian(g)
        for i, row in enumerate(lap):
            assert sum(row) == 0
            assert row[i] == g.degree(i + 1)
        adj = adjacency_matrix(g)
        for i in range(g.n):
            for j in range(g.n):
                assert adj[i][j] == adj[j][i]
                if i != j:
                    assert lap[i][j] == -adj[i][j]


def test_bipartite_detection():
    ok, colour = is_bipartite(path_graph(5))
    assert ok and all(colour[v] != colour[w] for v, w in path_graph(5).edges())
    ok, colour = is_bipartite(cycle_graph(5))
    assert not ok and colour is None
    ok, _ = is_bipartite(cycle_graph(6))
    assert ok
    # the flag alone, on a fresh graph and on one whose result is kept
    assert has_bipartition(cycle_graph(6)) and not has_bipartition(cycle_graph(5))
    g = path_graph(5)
    assert has_bipartition(g) is True
    assert is_bipartite(g)[0] and has_bipartition(g) is True


def test_bipartite_result_is_kept_but_copied():
    g = path_graph(4)
    ok, colour = is_bipartite(g)
    colour[1] = colour[2]
    again = is_bipartite(g)
    assert again[0] and again[1][1] != again[1][2]
    odd = cycle_graph(5)
    assert is_bipartite(odd) == is_bipartite(odd) == (False, None)


def test_two_core_matches_deletion_oracle():
    cases = [
        # two triangles joined by the path 3-7-4, with the tail 7-8-9
        (Graph(9, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (3, 7), (7, 4), (7, 8), (8, 9)]),
         {1, 2, 3, 4, 5, 6, 7}),
        # theta graph: three paths from 1 to 2, with the tail 2-7-8
        (Graph(8, [(1, 3), (3, 2), (1, 4), (4, 5), (5, 2), (1, 6), (6, 2), (2, 7), (7, 8)]),
         {1, 2, 3, 4, 5, 6}),
        # K_{2,3} on {1, 2} and {3, 4, 5}, with the pendant path 5-6-7-8
        (Graph(8, [(u, v) for u in (1, 2) for v in (3, 4, 5)] + [(5, 6), (6, 7), (7, 8)]),
         {1, 2, 3, 4, 5}),
        # a forest: two paths and an isolated vertex
        (Graph(7, [(1, 2), (2, 3), (4, 5), (5, 6)]), set()),
    ]
    for g, core in cases:
        assert two_core(g) == core == two_core_by_deletion(g.n, g.edges()), g.edges()
    corpus = [complete_graph(5), cycle_graph(6), Graph(1)]
    corpus += [g for n in range(1, 7) for g in connected_bipartite_graphs(n)]
    corpus += list(free_trees(7)) + list(unicyclic_family(8, 4))
    for g in corpus:
        assert two_core(g) == two_core_by_deletion(g.n, g.edges()), g.edges()


def test_wiener_index_frozen():
    assert wiener_index(path_graph(4)) == 10
    assert wiener_index(star_graph(4)) == 9
    assert wiener_index(complete_graph(5)) == 10
    with pytest.raises(DomainError):
        wiener_index(Graph(3, [(1, 2)]))


def test_wiener_index_matches_floyd_warshall():
    samples = [
        path_graph(7),
        star_graph(7),
        cycle_graph(8),
        Graph(6, [(1, 2), (2, 3), (3, 4), (4, 1), (4, 5), (5, 6)]),
    ]
    for g in samples:
        assert wiener_index(g) == wiener_by_floyd_warshall(g.n, g.edges())


def test_spectral_radius_frozen():
    assert math.isclose(spectral_radius(star_graph(4)), math.sqrt(3), abs_tol=1e-9)
    assert math.isclose(spectral_radius(path_graph(4)), (1 + math.sqrt(5)) / 2, abs_tol=1e-9)
    assert math.isclose(spectral_radius(cycle_graph(6)), 2.0, abs_tol=1e-9)
    assert math.isclose(spectral_radius(complete_graph(5)), 4.0, abs_tol=1e-9)


def test_spectral_radius_matches_bisection_oracle():
    samples = [
        path_graph(6),
        star_graph(6),
        cycle_graph(5),
        Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (1, 3)]),
    ]
    for g in samples:
        expected = largest_eigenvalue(adjacency_matrix(g))
        assert math.isclose(spectral_radius(g), expected, abs_tol=1e-8)


def test_integer_characteristic_polynomial_matches_interpolation():
    # the bisection oracle's Faddeev-LeVerrier coefficients against the
    # Fraction determinants and Lagrange interpolation
    rng = random.Random(3)
    for n in range(1, 7):
        for _ in range(4):
            m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            assert characteristic_polynomial_integers(m) == characteristic_polynomial_fractions(m)
    for g in (path_graph(6), star_graph(6), cycle_graph(5)):
        a = adjacency_matrix(g)
        assert characteristic_polynomial_integers(a) == characteristic_polynomial_fractions(a)


def test_spectral_radius_matches_oracle_on_spectral_wiener_posets():
    # every node the spectral-wiener check compares, to well inside the 10
    # decimals that lapshift spectral prints; 64 halvings of the oracle's
    # 1/8 bracket already fall below float spacing
    nodes = 0
    for k in (3, 4, 5):
        for n in range(k + 1, 10):
            for g in build_poset(family_members(FamilySpec("unicyclic", n, k))).nodes:
                expected = largest_eigenvalue(adjacency_matrix(g), refine=64)
                assert abs(spectral_radius(g) - expected) <= 1e-12, g
                nodes += 1
    assert nodes == 136


def test_parse_and_format_round_trip():
    g = Graph(5, [(1, 2), (2, 3), (2, 5), (4, 5)])
    assert parse_edge_list(format_edge_list(g)) == g
    text = "# a comment\n4 3\n1 2  # inline\n2 3\n3 4\n"
    assert parse_edge_list(text) == path_graph(4)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError):
        parse_edge_list("")
    with pytest.raises(ParseError) as exc:
        parse_edge_list("4\n1 2\n")
    assert exc.value.line == 1
    with pytest.raises(ParseError) as exc:
        parse_edge_list("2 1\n1 2 3\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError) as exc:
        parse_edge_list("2 1\none two\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError):
        parse_edge_list("2 2\n1 2\n")
    with pytest.raises(ParseError):
        parse_edge_list("2 1\n1 3\n")


def test_equality_and_hash():
    a = Graph(3, [(1, 2), (2, 3)])
    b = Graph(3, [(2, 3), (1, 2)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != Graph(3, [(1, 2)])


def test_hash_is_the_hash_of_order_and_edges():
    import copy
    import pickle

    for g in (Graph(1), path_graph(5), Graph(4, [(3, 4), (1, 2), (2, 4)])):
        assert hash(g) == hash((g.n, g.edges()))
        for back in (copy.copy(g), pickle.loads(pickle.dumps(g))):
            assert back == g and hash(back) == hash(g)
