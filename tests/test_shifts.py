import random

import pytest

from oracles import (
    are_isomorphic,
    bridges_by_deletion,
    is_tree,
    share_cycle,
    shift_move_by_share_cycle,
    shifts_by_all_pairs,
)

from lapshift import shifts
from lapshift.canon import canonical_form
from lapshift.families import FamilySpec, connected_bipartite_graphs, family_members
from lapshift.errors import DomainError, InvalidInputError
from lapshift.graphs import Graph, cycle_graph, path_graph, star_graph
from lapshift.shifts import (
    ShiftMove,
    apply_shift,
    enumerate_shifts,
    kelmans,
    resolve_move,
    shift_applicable,
    shifts_with_forms,
)


def test_kelmans_on_path():
    # x = 3 keeps only its neighbour inside N[1]; vertex 4 moves to 1
    g = path_graph(4)
    h = kelmans(g, 3, 1)
    assert h.edges() == ((1, 2), (1, 4), (2, 3))
    # nothing to move when every neighbour of x is already in N[y]
    p3 = path_graph(3)
    assert kelmans(p3, 3, 1) == p3
    with pytest.raises(InvalidInputError):
        kelmans(g, 2, 2)


def test_kelmans_preserves_edge_count():
    rng = random.Random(31)
    for _ in range(10):
        edges = rng.sample(
            [(i, j) for i in range(1, 7) for j in range(i + 1, 7)], rng.randint(5, 9)
        )
        g = Graph(6, edges)
        x, y = rng.sample(list(g.vertices()), 2)
        assert kelmans(g, x, y).num_edges == g.num_edges


def test_share_cycle():
    c4 = cycle_graph(4)
    assert share_cycle(c4, 1, 3)
    assert share_cycle(c4, 1, 2)
    p4 = path_graph(4)
    assert not share_cycle(p4, 1, 4)
    glued = Graph(6, [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 6)])
    assert share_cycle(glued, 1, 3)
    assert not share_cycle(glued, 3, 5)
    assert not share_cycle(glued, 1, 6)
    with pytest.raises(InvalidInputError):
        share_cycle(c4, 2, 2)


def test_shift_path_to_star():
    g = path_graph(4)
    move = shift_applicable(g, 2, 3)
    assert move is not None
    assert move.path == (2, 3)
    assert move.serialize() == "2 3 2,3"
    shifted = apply_shift(g, move)
    assert canonical_form(shifted) == canonical_form(star_graph(4))


def test_shift_along_longer_path():
    # recipient and donor three apart; the interior has degree 2 throughout
    g = Graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (4, 6)])
    move = resolve_move(g, 2, 4)
    assert move.path == (2, 3, 4)
    shifted = apply_shift(g, move)
    assert sorted(shifted.degree(v) for v in shifted.vertices()) == [1, 1, 1, 1, 2, 4]


def test_shift_blocked_cases():
    c4 = cycle_graph(4)
    assert shift_applicable(c4, 1, 3) is None
    # high-degree interior vertex breaks the path condition
    g = Graph(5, [(1, 2), (2, 3), (2, 4), (3, 5)])
    assert shift_applicable(g, 1, 5) is None
    with pytest.raises(InvalidInputError):
        shift_applicable(g, 3, 3)
    with pytest.raises(DomainError):
        resolve_move(c4, 1, 3)


def test_apply_shift_rejects_stale_move():
    g = path_graph(4)
    move = resolve_move(g, 2, 3)
    # on P5 the same ends and path make a valid move; here 2 reaches 3 only
    # through 4
    other = Graph(4, [(1, 2), (2, 4), (3, 4)])
    with pytest.raises(InvalidInputError):
        apply_shift(other, move)
    fake = ShiftMove(2, 3, (2, 9, 3))
    with pytest.raises(InvalidInputError):
        apply_shift(g, fake)


def test_enumerate_shifts_on_path():
    moves = enumerate_shifts(path_graph(4))
    assert [m.serialize() for m in moves] == ["2 3 2,3"]


def test_enumerate_shifts_excludes_isomorphic_results():
    # the star admits no move changing its isomorphism class
    assert enumerate_shifts(star_graph(5)) == []
    # a leaf donor has nothing past the path and is skipped
    g = Graph(5, [(1, 2), (2, 3), (2, 4), (4, 5)])
    for move in enumerate_shifts(g):
        assert g.degree(move.donor) > 1


def test_shift_preserves_vertex_and_edge_counts():
    trees = [
        Graph(7, [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6), (6, 7)]),
        path_graph(7),
        Graph(8, [(1, 2), (2, 3), (2, 4), (4, 5), (5, 6), (5, 7), (7, 8)]),
    ]
    for g in trees:
        for move in enumerate_shifts(g):
            h = apply_shift(g, move)
            assert h.n == g.n
            assert h.num_edges == g.num_edges
            assert is_tree(h)
            assert not are_isomorphic(g.n, g.edges(), h.edges())


def test_exchanging_sides_gives_isomorphic_result():
    # shifting u toward k and k toward u land in isomorphic graphs when the
    # hanging trees swap roles; spot-check on a caterpillar
    g = Graph(6, [(1, 2), (1, 3), (3, 4), (4, 5), (4, 6)])
    forward = resolve_move(g, 1, 4)
    backward = resolve_move(g, 4, 1)
    a = apply_shift(g, forward)
    b = apply_shift(g, backward)
    assert are_isomorphic(g.n, a.edges(), b.edges())


def test_unicyclic_shift_moves_tail_onto_cycle():
    # a square with a path tail: the cycle-sharing test permits pulling the
    # tail inward, and forbids moves inside the cycle
    g = Graph(7, [(1, 2), (2, 3), (3, 4), (4, 1), (4, 5), (5, 6), (6, 7)])
    move = resolve_move(g, 4, 6)
    assert move.path == (4, 5, 6)
    h = apply_shift(g, move)
    assert h.num_edges == g.num_edges
    assert shift_applicable(g, 1, 3) is None


def test_two_qualifying_paths_raise(monkeypatch):
    # the invariant must survive python -O, so it is an exception, not an assert
    monkeypatch.setattr(shifts, "_chains", lambda g, u: {3: [(1, 2, 3), (1, 4, 3)]})
    with pytest.raises(RuntimeError, match="on a cycle"):
        shift_applicable(path_graph(4), 1, 3)


def _differential_corpus():
    for k in range(3, 7):
        for n in range(k + 1, 10):
            yield from family_members(FamilySpec("unicyclic", n, k))
    for n in range(1, 10):
        yield from family_members(FamilySpec("trees", n))
    for n in range(1, 7):
        yield from connected_bipartite_graphs(n)


def test_shift_applicable_matches_share_cycle_oracle():
    pairs = 0
    for g in _differential_corpus():
        for recipient in g.vertices():
            for donor in g.vertices():
                if recipient == donor:
                    continue
                move = shift_applicable(g, recipient, donor)
                fields = None if move is None else (move.recipient, move.donor, move.path)
                expected = shift_move_by_share_cycle(g, recipient, donor)
                assert fields == (None if expected is None else expected[:3]), (
                    g.edges(), recipient, donor
                )
                pairs += 1
    assert pairs == 14806


def test_bridges_match_deletion_oracle():
    graphs = list(_differential_corpus())
    # disconnected graphs too: two cycles joined by a path, beside a tree
    # and an isolated vertex, and seeded random graphs
    graphs.append(
        Graph(14, [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 6), (6, 7), (7, 5),
                   (8, 9), (9, 10), (9, 11), (12, 13)])
    )
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 12)
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        graphs.append(Graph(n, rng.sample(pairs, rng.randint(0, min(len(pairs), 2 * n)))))
    for g in graphs:
        assert shifts._bridges(g) == bridges_by_deletion(g), g.edges()
    assert shifts._bridges(graphs[-201]) == {(3, 4), (4, 5), (8, 9), (9, 10), (9, 11), (12, 13)}


def test_shift_enumeration_matches_all_pairs_oracle():
    # shifts_with_forms tries only the donors on degree-2 chains from each
    # recipient and rewires without revalidating; the oracle tries every pair
    def canonical(n, edges):
        return canonical_form(Graph(n, edges))

    moves = 0
    for g in _differential_corpus():
        got = [(m.recipient, m.donor, m.path, form) for m, form in shifts_with_forms(g)]
        expected = [move[:3] + move[5:] for move in shifts_by_all_pairs(g, canonical)]
        assert got == expected, g.edges()
        moves += len(got)
    assert moves == 788
