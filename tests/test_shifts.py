import random

import pytest

from oracles import are_isomorphic, share_cycle, shift_move_by_share_cycle

from lapshift import shifts
from lapshift.canon import canonical_form
from lapshift.families import FamilySpec, connected_bipartite_graphs, family_members
from lapshift.errors import DomainError, InvalidInputError
from lapshift.graphs import Graph, cycle_graph, path_graph, star_graph
from lapshift.shifts import (
    ShiftMove,
    apply_shift,
    enumerate_shifts,
    is_tree,
    kelmans,
    resolve_move,
    shift_applicable,
    tree_shift_applicable,
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
    assert move.x_side == {1}
    assert move.y_side == {4}
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
    other = path_graph(5)
    with pytest.raises(InvalidInputError):
        apply_shift(other, move)
    fake = ShiftMove(2, 3, (2, 3), frozenset({1}), frozenset({4, 9}))
    with pytest.raises(InvalidInputError):
        apply_shift(g, fake)


def test_enumerate_shifts_on_path():
    moves = enumerate_shifts(path_graph(4))
    assert [m.serialize() for m in moves] == ["2 3 2,3"]


def test_enumerate_shifts_excludes_isomorphic_results():
    # the star admits no move changing its isomorphism class
    assert enumerate_shifts(star_graph(5)) == []
    # a leaf donor has an empty far side and is skipped
    g = Graph(5, [(1, 2), (2, 3), (2, 4), (4, 5)])
    for move in enumerate_shifts(g):
        assert move.y_side


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


def test_tree_shift_guards():
    with pytest.raises(DomainError):
        tree_shift_applicable(cycle_graph(4), 1, 2)
    move = tree_shift_applicable(path_graph(4), 2, 3)
    assert move == shift_applicable(path_graph(4), 2, 3)


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
    monkeypatch.setattr(shifts, "_interior_paths", lambda g, u, k: [(1, 2, 3), (1, 4, 3)])
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
                fields = None if move is None else (
                    move.recipient, move.donor, move.path, move.x_side, move.y_side
                )
                assert fields == shift_move_by_share_cycle(g, recipient, donor), (
                    g.edges(), recipient, donor
                )
                pairs += 1
    assert pairs == 14806
