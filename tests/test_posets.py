import pytest

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


def test_covers_are_transitively_reduced():
    h = build_poset(free_trees(6))
    succ = {}
    for i, j in h.covers:
        succ.setdefault(i, set()).add(j)

    def reachable(a, b, skip):
        stack = [a]
        seen = set()
        while stack:
            v = stack.pop()
            if v == b:
                return True
            for w in succ.get(v, ()):
                if (v, w) != skip and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return False

    for i, j in h.covers:
        assert not reachable(i, j, skip=(i, j)), f"cover {i}->{j} is implied"


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


def test_cyclic_arcs_raise():
    # the invariant must survive python -O, so it is an exception, not an assert
    with pytest.raises(RuntimeError, match="form a cycle"):
        posets._assert_acyclic(2, {(0, 1), (1, 0)})
    posets._assert_acyclic(3, {(0, 1), (1, 2), (0, 2)})
