"""Canonical string forms deciding graph isomorphism at desk scale.

Trees use the classic rooted-subtree encoding anchored at the centre;
unicyclic graphs whose cycle carries a single attachment vertex use the
cycle length plus the encoding of the hanging tree; everything else falls
back to the minimum adjacency encoding over degree-respecting relabelings,
capped because it is factorial in the worst case.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product

from .errors import CapacityError
from .graphs import Graph, two_core

BRUTE_FORCE_CAP = 10

# canonical_form's memo: one verify run at the default configuration asks
# for 668 distinct graphs, so every repeat there is a hit
CANON_CACHE_SIZE = 4096


def _tree_centres(g: Graph, vertices: set[int]) -> list[int]:
    degree = {v: sum(1 for w in g.neighbors(v) if w in vertices) for v in vertices}
    remaining = set(vertices)
    layer = [v for v in remaining if degree[v] <= 1]
    while len(remaining) > 2:
        nxt = []
        for v in layer:
            remaining.discard(v)
            for w in g.neighbors(v):
                if w in remaining:
                    degree[w] -= 1
                    if degree[w] == 1:
                        nxt.append(w)
        layer = nxt
    return sorted(remaining)


def _rooted_encoding(g: Graph, root: int, blocked: frozenset[int] = frozenset()) -> str:
    """Nested-parentheses encoding of the tree hanging below root.

    Walks only tree edges: neighbours in `blocked` are not descended into.
    """

    def encode(v: int, parent: int) -> str:
        children = sorted(
            encode(w, v) for w in g.neighbors(v) if w != parent and w not in blocked
        )
        return "(" + "".join(children) + ")"

    return encode(root, 0)


def _degree_class_relabelings(g: Graph):
    """Yield relabelings (old -> new) that sort vertices by descending degree.

    Isomorphisms preserve degrees, so restricting the minimum-encoding search
    to these keeps the result canonical while pruning hard.
    """
    by_degree: dict[int, list[int]] = {}
    for v in g.vertices():
        by_degree.setdefault(g.degree(v), []).append(v)
    degrees = sorted(by_degree, reverse=True)
    slot_start = {}
    pos = 1
    for d in degrees:
        slot_start[d] = pos
        pos += len(by_degree[d])
    class_perms = [permutations(by_degree[d]) for d in degrees]
    for combo in product(*class_perms):
        mapping = {}
        for d, ordered in zip(degrees, combo):
            for offset, old in enumerate(ordered):
                mapping[old] = slot_start[d] + offset
        yield mapping


def _brute_force_encoding(g: Graph, cap: int) -> str:
    if g.n > cap:
        raise CapacityError(
            f"canonical form of a general graph on {g.n} vertices exceeds the cap of {cap}"
        )
    best = None
    for mapping in _degree_class_relabelings(g):
        relabeled = tuple(
            sorted(tuple(sorted((mapping[u], mapping[v]))) for u, v in g.edges())
        )
        if best is None or relabeled < best:
            best = relabeled
    body = ";".join(f"{u}-{v}" for u, v in best) if best else ""
    return f"G{g.n}:{body}"


@lru_cache(maxsize=CANON_CACHE_SIZE)
def canonical_form(g: Graph, cap: int = BRUTE_FORCE_CAP) -> str:
    """Canonical string: equal strings exactly when the graphs are isomorphic."""
    n, m = g.n, g.num_edges
    if g.is_connected():
        if m == n - 1:
            vertices = set(g.vertices())
            centres = _tree_centres(g, vertices)
            return "T:" + min(_rooted_encoding(g, c) for c in centres)
        if m == n:
            cycle = two_core(g)
            anchors = [v for v in cycle if g.degree(v) > 2]
            if not anchors:
                return f"C:{n}"
            if len(anchors) == 1:
                anchor = anchors[0]
                blocked = frozenset(cycle - {anchor})
                tree = _rooted_encoding(g, anchor, blocked)
                return f"U{len(cycle)}:{tree}"
    return _brute_force_encoding(g, cap)
