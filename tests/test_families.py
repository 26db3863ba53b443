import pytest

from oracles import connected_bipartite_edge_sets, is_tree

from lapshift.canon import canonical_form
from lapshift.errors import CapacityError, DomainError
from lapshift.families import (
    FamilySpec,
    connected_bipartite_graphs,
    family_members,
    free_trees,
    path_form,
    rooted_level_sequences,
    star_form,
    tree_from_levels,
    unicyclic_family,
)
from lapshift.graphs import Graph, is_bipartite, path_graph, star_graph

ROOTED_COUNTS = [1, 1, 2, 4, 9, 20, 48, 115, 286, 719]
FREE_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106]
BIPARTITE_COUNTS = [1, 1, 1, 3, 5, 17, 44]  # OEIS A005142


def test_rooted_tree_counts():
    for n, expected in enumerate(ROOTED_COUNTS, start=1):
        assert sum(1 for _ in rooted_level_sequences(n)) == expected


def test_level_sequences_are_valid():
    for levels in rooted_level_sequences(6):
        assert levels[0] == 1
        assert all(2 <= lv <= prev + 1 for prev, lv in zip(levels, levels[1:]))
        t = tree_from_levels(levels)
        assert is_tree(t)
        root_distance = t.distances_from(1)
        assert all(root_distance[i + 1] == lv - 1 for i, lv in enumerate(levels))


def test_free_tree_counts():
    for n, expected in enumerate(FREE_COUNTS, start=1):
        trees = free_trees(n)
        assert len(trees) == expected
        forms = {canonical_form(t) for t in trees}
        assert len(forms) == expected
        assert all(is_tree(t) and t.n == n for t in trees)


def test_free_trees_include_extremes():
    trees = free_trees(7)
    forms = {canonical_form(t) for t in trees}
    assert canonical_form(path_graph(7)) in forms
    assert canonical_form(star_graph(7)) in forms


def test_family_spec_validation():
    FamilySpec("trees", 5)
    FamilySpec("unicyclic", 5, 4)
    with pytest.raises(DomainError):
        FamilySpec("cactus", 5)
    with pytest.raises(DomainError):
        FamilySpec("trees", 5, cycle_len=3)
    with pytest.raises(DomainError):
        FamilySpec("trees", 0)
    with pytest.raises(DomainError):
        FamilySpec("unicyclic", 5, 2)
    with pytest.raises(DomainError):
        FamilySpec("unicyclic", 4, 4)


def test_unicyclic_family_size_and_shape():
    # one member per rooted tree on n - k + 1 vertices
    members = unicyclic_family(8, 4)
    assert len(members) == 9
    forms = set()
    for g in members:
        assert g.n == 8
        assert g.num_edges == 8
        assert g.is_connected()
        forms.add(canonical_form(g))
    assert len(forms) == len(members)
    assert canonical_form(star_form(8, 4)) in forms
    assert canonical_form(path_form(8, 4)) in forms


def test_one_member_families():
    # the smallest admissible family is a cycle with one pendant vertex
    members = unicyclic_family(5, 4)
    assert len(members) == 1
    assert canonical_form(members[0]) == canonical_form(star_form(5, 4))
    assert canonical_form(members[0]) == canonical_form(path_form(5, 4))


def test_star_and_path_forms():
    s = star_form(7, 3)
    assert s.degree(1) == 6
    assert all(s.degree(v) == 1 for v in range(4, 8))
    p = path_form(7, 3)
    tail = p.distances_from(1)
    assert tail[7] == 4
    assert sorted(p.degree(v) for v in p.vertices()) == [1, 2, 2, 2, 2, 2, 3]


def test_family_members_dispatch():
    assert family_members(FamilySpec("trees", 6)) == free_trees(6)
    assert family_members(FamilySpec("unicyclic", 8, 4)) == unicyclic_family(8, 4)


def test_capacity_caps():
    with pytest.raises(CapacityError):
        free_trees(13)
    with pytest.raises(CapacityError):
        unicyclic_family(14, 4)
    with pytest.raises(CapacityError):
        connected_bipartite_graphs(8)


def test_bipartite_corpus():
    for n, expected in enumerate(BIPARTITE_COUNTS, start=1):
        corpus = connected_bipartite_graphs(n)
        assert len(corpus) == expected
        forms = set()
        for g in corpus:
            assert g.n == n
            assert g.is_connected()
            assert is_bipartite(g)[0]
            forms.add(canonical_form(g))
        assert len(forms) == expected
    # deterministic ordering: edge count never decreases
    corpus = connected_bipartite_graphs(6)
    counts = [g.num_edges for g in corpus]
    assert counts == sorted(counts)


def test_bipartite_corpus_matches_exhaustive_enumeration():
    # the corpus is built from 2-colourings; the oracle walks every edge
    # subset of K_n, and both must give the same classes in the same order
    for n in range(1, 7):
        oracle = {}
        for edges in connected_bipartite_edge_sets(n):
            g = Graph(n, edges)
            oracle.setdefault(canonical_form(g), g.num_edges)
        expected = sorted(oracle, key=lambda form: (oracle[form], form))
        assert [canonical_form(g) for g in connected_bipartite_graphs(n)] == expected
