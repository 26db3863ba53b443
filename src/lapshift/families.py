"""Generators for the graph families the shift posets are built over.

Free trees come from the Beyer-Hedetniemi successor algorithm on canonical
level sequences of rooted trees, deduplicated up to isomorphism.  The
anchored unicyclic family on n vertices consists of a k-cycle with a rooted
tree glued to one cycle vertex, one member per rooted tree shape, so its
size is the number of rooted trees on n - k + 1 vertices.  The bipartite
corpus enumerates the connected spanning subgraphs of the complete
bipartite graphs K_{a,n-a} on up to a handful of vertices, one
representative per isomorphism class.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations

from .canon import canonical_form
from .errors import CapacityError, DomainError
from .graphs import Graph

TREE_CAP = 12
GLUED_TREE_CAP = 9
BIPARTITE_CAP = 7


def rooted_level_sequences(n: int):
    """Canonical level sequences of rooted trees on n vertices, root level 1."""
    if n < 1:
        raise DomainError("need at least one vertex")
    levels = list(range(1, n + 1))
    while True:
        yield tuple(levels)
        p = max((i for i in range(n) if levels[i] > 2), default=None)
        if p is None:
            return
        q = max(i for i in range(p) if levels[i] == levels[p] - 1)
        for i in range(p, n):
            levels[i] = levels[i - (p - q)]


def tree_from_levels(levels: tuple[int, ...]) -> Graph:
    """Tree on len(levels) vertices; vertex i+1 sits at depth levels[i]."""
    latest = {1: 1}
    edges = []
    for i, level in enumerate(levels[1:], start=2):
        edges.append((latest[level - 1], i))
        latest[level] = i
    return Graph(len(levels), edges)


@cache
def free_trees(n: int) -> tuple[Graph, ...]:
    """One tree per isomorphism class, in first-encountered order."""
    if n > TREE_CAP:
        raise CapacityError(f"tree enumeration capped at {TREE_CAP} vertices")
    seen = {}
    for levels in rooted_level_sequences(n):
        t = tree_from_levels(levels)
        key = canonical_form(t)
        if key not in seen:
            seen[key] = t
    return tuple(seen.values())


@dataclass(frozen=True)
class FamilySpec:
    """A named family: all trees on n vertices, or the anchored unicyclic set."""

    kind: str
    n: int
    cycle_len: int | None = None

    def __post_init__(self):
        if self.kind not in ("trees", "unicyclic"):
            raise DomainError(f"unknown family kind {self.kind!r}")
        if self.kind == "trees":
            if self.cycle_len is not None:
                raise DomainError("tree families take no cycle length")
            if self.n < 1:
                raise DomainError("need at least one vertex")
        else:
            if self.cycle_len is None or self.cycle_len < 3:
                raise DomainError("unicyclic families need a cycle length of at least 3")
            if self.n <= self.cycle_len:
                raise DomainError("unicyclic families need more vertices than the cycle")


def _glue_tree(k: int, levels: tuple[int, ...]) -> Graph:
    """Cycle 1..k with the rooted tree of the level sequence hung from
    vertex 1; the tree's vertex j > 1 becomes k + j - 1."""

    def relabel(j: int) -> int:
        return 1 if j == 1 else k + j - 1

    edges = [(i, i + 1) for i in range(1, k)] + [(1, k)]
    edges += [(relabel(a), relabel(b)) for a, b in tree_from_levels(levels).edges()]
    return Graph(k + len(levels) - 1, edges)


@cache
def unicyclic_family(n: int, cycle_len: int) -> tuple[Graph, ...]:
    """Anchored unicyclic graphs: k-cycle plus a rooted tree at vertex 1."""
    FamilySpec("unicyclic", n, cycle_len)
    t = n - cycle_len + 1
    if t > GLUED_TREE_CAP:
        raise CapacityError(f"glued trees capped at {GLUED_TREE_CAP} vertices, got {t}")
    return tuple(_glue_tree(cycle_len, levels) for levels in rooted_level_sequences(t))


def family_members(spec: FamilySpec) -> tuple[Graph, ...]:
    if spec.kind == "trees":
        return free_trees(spec.n)
    return unicyclic_family(spec.n, spec.cycle_len)


def star_form(n: int, cycle_len: int) -> Graph:
    """The family member with every off-cycle vertex pendant at the anchor."""
    FamilySpec("unicyclic", n, cycle_len)
    return _glue_tree(cycle_len, (1,) + (2,) * (n - cycle_len))


def path_form(n: int, cycle_len: int) -> Graph:
    """The family member whose off-cycle vertices form a path at the anchor."""
    FamilySpec("unicyclic", n, cycle_len)
    return _glue_tree(cycle_len, tuple(range(1, n - cycle_len + 2)))


@cache
def connected_bipartite_graphs(n: int) -> tuple[Graph, ...]:
    """Connected bipartite graphs on n vertices, one per isomorphism class.

    A connected bipartite graph has one 2-colouring up to swapping the
    colours, so every class is a connected spanning subgraph of K_{a,n-a}
    on the sides {1..a} and {a+1..n} for some a <= n // 2.  The classes are
    sorted by edge count, then by canonical form.
    """
    if n > BIPARTITE_CAP:
        raise CapacityError(f"bipartite corpus capped at {BIPARTITE_CAP} vertices")
    if n == 1:
        return (Graph(1),)
    found = {}
    for a in range(1, n // 2 + 1):
        pairs = [(u, v) for u in range(1, a + 1) for v in range(a + 1, n + 1)]
        for m in range(n - 1, len(pairs) + 1):
            for edges in combinations(pairs, m):
                g = Graph(n, edges)
                if g.is_connected():
                    found.setdefault(canonical_form(g), g)
    order = sorted(found, key=lambda key: (found[key].num_edges, key))
    return tuple(found[key] for key in order)
