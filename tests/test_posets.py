import pytest

from oracles import shifts_by_all_pairs

from lapshift import posets
from lapshift.canon import canonical_form
from lapshift.errors import DomainError
from lapshift.families import free_trees, path_form, star_form, unicyclic_family
from lapshift.graphs import Graph, path_graph, star_graph
from lapshift.posets import build_poset, export_csv, export_dot
from lapshift.shifts import apply_shift, enumerate_shifts


def test_two_trees_give_one_cover():
    h = build_poset(free_trees(4))
    assert len(h.nodes) == 2
    assert h.covers == ((0, 1),) or h.covers == ((1, 0),)
    (i, j), = h.covers
    assert h.canon[i] == canonical_form(path_graph(4))
    assert h.canon[j] == canonical_form(star_graph(4))


def test_five_vertex_trees_form_a_chain():
    h = build_poset(free_trees(5))
    assert len(h.nodes) == 3
    assert len(h.covers) == 2
    assert h.maximal() == (next(i for i, c in enumerate(h.canon) if c == canonical_form(star_graph(5))),)
    assert h.minimal() == (next(i for i, c in enumerate(h.canon) if c == canonical_form(path_graph(5))),)


def test_six_vertex_tree_poset():
    h = build_poset(free_trees(6))
    assert len(h.nodes) == 6
    assert len(h.covers) == 7
    assert len(h.maximal()) == 1
    assert len(h.minimal()) == 1
    assert h.canon[h.maximal()[0]] == canonical_form(star_graph(6))
    assert h.canon[h.minimal()[0]] == canonical_form(path_graph(6))


def test_unicyclic_poset_extremes():
    h = build_poset(unicyclic_family(8, 4))
    assert len(h.nodes) == 9
    assert len(h.covers) == 15
    assert h.canon[h.maximal()[0]] == canonical_form(star_form(8, 4))
    assert h.canon[h.minimal()[0]] == canonical_form(path_form(8, 4))
    assert len(h.maximal()) == 1
    assert len(h.minimal()) == 1


def _closure(n, arcs):
    """Pairs (a, b) with b reachable from a along arcs, by a search from each a."""
    succ = {}
    for i, j in arcs:
        succ.setdefault(i, set()).add(j)
    pairs = set()
    for a in range(n):
        stack = list(succ.get(a, ()))
        while stack:
            b = stack.pop()
            if (a, b) not in pairs:
                pairs.add((a, b))
                stack.extend(succ.get(b, ()))
    return pairs


def test_covers_are_transitively_reduced():
    # the raw arcs are rebuilt by the all-pairs oracle, without the chain
    # walk or the poset's own closure
    def canonical(n, edges):
        return canonical_form(Graph(n, edges))

    families = [free_trees(n) for n in range(1, 9)]
    families += [unicyclic_family(n, k) for n, k in ((7, 3), (8, 4), (9, 6))]
    for members in families:
        h = build_poset(members)
        index = {c: i for i, c in enumerate(h.canon)}
        arcs = {
            (i, index[move[-1]])
            for i, g in enumerate(h.nodes)
            for move in shifts_by_all_pairs(g, canonical)
        }
        assert set(h.covers) <= arcs
        assert _closure(len(h.nodes), h.covers) == _closure(len(h.nodes), arcs)
        for i, j in h.covers:
            rest = set(h.covers) - {(i, j)}
            assert (i, j) not in _closure(len(h.nodes), rest), f"cover {i}->{j} is implied"


def test_witnesses_reproduce_covers():
    h = build_poset(unicyclic_family(7, 3))
    for (i, j), move in h.witnesses.items():
        shifted = apply_shift(h.nodes[i], move)
        assert canonical_form(shifted) == h.canon[j]


def test_rejects_isomorphic_duplicates():
    with pytest.raises(DomainError):
        build_poset([path_graph(4), Graph(4, [(4, 3), (3, 2), (2, 1)])])


def test_rejects_non_closed_family():
    # dropping the star from the 5-vertex trees leaves a shift with no home
    trees = [t for t in free_trees(5) if canonical_form(t) != canonical_form(star_graph(5))]
    with pytest.raises(DomainError):
        build_poset(trees)


def test_singleton_poset():
    h = build_poset(unicyclic_family(5, 4))
    assert len(h.nodes) == 1
    assert h.covers == ()
    assert h.maximal() == h.minimal() == (0,)


def test_dot_export():
    h = build_poset(free_trees(4))
    dot = export_dot(h)
    assert dot.startswith("digraph shifts {")
    assert "rankdir=BT" in dot
    assert dot.count("->") == 1
    assert '[label="' in dot
    assert dot.endswith("}\n")


def test_csv_export():
    h = build_poset(free_trees(5))
    lines = export_csv(h).splitlines()
    assert lines[0] == "node_id,canonical_form,is_max,is_min"
    assert len(lines) == 4
    flags = [line.split(",")[2:] for line in lines[1:]]
    assert sum(int(is_max) for is_max, _ in flags) == 1
    assert sum(int(is_min) for _, is_min in flags) == 1


def test_shift_onto_itself_raises(monkeypatch):
    # the invariant must survive python -O, so it is an exception, not an assert
    # every move reports its input's own canonical form as its result's
    monkeypatch.setattr(
        posets,
        "shifts_with_forms",
        lambda g: [(move, canonical_form(g)) for move in enumerate_shifts(g)],
    )
    with pytest.raises(RuntimeError, match="isomorphic to its input"):
        build_poset(free_trees(5))


def _node_sets(reach):
    """_reachability's bitsets as sets of node indices."""
    return [{j for j in range(len(reach)) if bits >> j & 1} for bits in reach]


def test_cyclic_arcs_raise():
    # the invariant must survive python -O, so it is an exception, not an assert
    with pytest.raises(RuntimeError, match="form a cycle"):
        posets._reachability(2, {(0, 1), (1, 0)})
    assert _node_sets(posets._reachability(3, {(0, 1), (1, 2), (0, 2)})) == [{1, 2}, {2}, set()]


def test_reachability_follows_long_chains():
    # the chain 0 -> 1 -> 2 -> 3 -> 4, listed out of order, with one
    # shortcut and a second source 5
    arcs = [(3, 4), (2, 3), (0, 1), (1, 2), (0, 3), (5, 2)]
    assert _node_sets(posets._reachability(6, arcs)) == [
        {1, 2, 3, 4}, {2, 3, 4}, {3, 4}, {4}, set(), {2, 3, 4}
    ]
