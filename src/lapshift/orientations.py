"""Vertex orientations, their cycle types, and census-based immanant formulas.

An orientation assigns to each vertex of a chosen domain an arrow towards one
of its neighbours.  Following the arrows gives a functional digraph whose
directed cycles determine a cycle type: a directed cycle through c vertices
contributes a part c (a pair of vertices pointing at each other contributes
a 2), and every remaining vertex of the graph, oriented or not, contributes
a part 1.  Counting orientations by type gives a census, and for bipartite
graphs the census determines every immanantal coefficient of the Laplacian
through the character binomial transform.

A census has two backends.  On a graph with at most one independent cycle
(m - n + c <= 1: forests and forests with one unicyclic component) it is
counted in polynomial time by inclusion-exclusion over sets of disjoint
directed cycles,

    sum over orientations of x^|B| prod over its cycles of y_(length)
        = sum over Gamma of prod over gamma in Gamma of (y_|gamma| - 1)
          times x^|V(Gamma)| prod over v outside V(Gamma) of (1 + x deg v),

where Gamma runs over the sets of vertex-disjoint directed cycles: the
matchings, and on the one cycle its two traversals.  Every other graph walks
its orientations, prod(1 + deg v) of them over all domain sizes, and refuses
with CapacityError above a cap; the cap bounds only that walk.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from typing import NamedTuple

from .errors import CapacityError, DomainError, InvalidInputError
from .graphs import Graph, is_bipartite
from .immanants import ImmanantalPolynomial
from .partitions import Partition
from .shifts import ShiftMove, apply_shift
from .symfunc import BASES, basis_binomial_row

FULL_CENSUS_CAP = 10**8


@dataclass(frozen=True)
class VertexOrientation:
    """Arrows (source, target), sorted by source; domain = set of sources."""

    arrows: tuple[tuple[int, int], ...]

    @staticmethod
    def from_mapping(mapping: dict[int, int]) -> "VertexOrientation":
        return VertexOrientation(tuple(sorted(mapping.items())))

    @property
    def domain(self) -> frozenset[int]:
        return frozenset(s for s, _ in self.arrows)

    def as_mapping(self) -> dict[int, int]:
        return dict(self.arrows)

    def __len__(self) -> int:
        return len(self.arrows)


def validate_orientation(g: Graph, orientation: VertexOrientation) -> None:
    sources = [s for s, _ in orientation.arrows]
    if sorted(sources) != sorted(set(sources)):
        raise InvalidInputError("orientation repeats a source vertex")
    if list(orientation.arrows) != sorted(orientation.arrows):
        raise InvalidInputError("orientation arrows must be sorted by source")
    for s, t in orientation.arrows:
        g._check_vertex(s)
        if not g.has_edge(s, t):
            raise InvalidInputError(f"arrow {s}->{t} does not follow an edge")


def classify_type(g: Graph, orientation: VertexOrientation) -> Partition:
    """Cycle type of the orientation's functional digraph, padded with 1s."""
    cycle_parts = _cycle_lengths(dict(orientation.arrows))
    fixed = g.n - sum(cycle_parts)
    return Partition(sorted(cycle_parts, reverse=True) + [1] * fixed)


def _cycle_lengths(arrow: dict[int, int]) -> list[int]:
    """Lengths of the directed cycles of an arrow map, in the order found.

    Vertices are stamped with a running clock as they are walked; a walk
    that reaches a vertex stamped since it began has closed a cycle, and one
    that reaches an earlier walk's vertex, or leaves the domain, has not.
    """
    stamp: dict[int, int] = {}
    lengths = []
    clock = 0
    for start in arrow:
        if start in stamp:
            continue
        began = clock
        v = start
        while v is not None and v not in stamp:
            stamp[v] = clock
            clock += 1
            v = arrow.get(v)
        if v is not None and stamp[v] >= began:
            lengths.append(clock - stamp[v])
    return lengths


def enumerate_orientations(g: Graph, domain):
    """All orientations with the given domain, in lexicographic arrow order."""
    sources = sorted(domain)
    for v in sources:
        g._check_vertex(v)
        if g.degree(v) == 0:
            return
    choice_lists = [sorted(g.neighbors(v)) for v in sources]
    for targets in product(*choice_lists):
        yield VertexOrientation(tuple(zip(sources, targets)))


def orientation_census(g: Graph, cap: int = FULL_CENSUS_CAP) -> dict[Partition, int]:
    """Counts of full-domain orientations by cycle type."""
    return subset_orientation_census(g, g.n, cap)


def subset_orientation_census(
    g: Graph, r: int, cap: int = FULL_CENSUS_CAP
) -> dict[Partition, int]:
    """Counts over all domains of size r, by cycle type.

    Graphs with at most one independent cycle take the matching sum and
    ignore cap; every other graph is enumerated under it.
    """
    if not 0 <= r <= g.n:
        raise InvalidInputError(f"domain size {r} out of range for {g.n} vertices")
    if _cycle_rank(g) <= 1:
        return _matching_census(g, r)
    return _enumerated_census(g, r, cap)


def _elementary_symmetric(values: list[int], r: int) -> int:
    acc = [1] + [0] * r
    for x in values:
        for j in range(min(r, len(acc) - 1), 0, -1):
            acc[j] += x * acc[j - 1]
    return acc[r]


def _enumerated_census(g: Graph, r: int, cap: int = FULL_CENSUS_CAP) -> dict[Partition, int]:
    """The size-r census by walking every orientation; any graph, capped."""
    degrees = [g.degree(v) for v in g.vertices()]
    total = _elementary_symmetric(degrees, r)
    if total > cap:
        raise CapacityError(f"{total} orientations exceed the cap of {cap}")
    counts: Counter[Partition] = Counter()
    for domain in combinations(g.vertices(), r):
        for orientation in enumerate_orientations(g, domain):
            counts[classify_type(g, orientation)] += 1
    return dict(counts)


# The matching sum.  A polynomial in x (domain size) and y (2-cycles) is a
# dict {(x degree, y degree): coefficient}, cut off above x^top.

_EDGE = {(2, 1): 1, (2, 0): -1}  # one directed 2-cycle: (y - 1) x^2


def _cycle_rank(g: Graph) -> int:
    """m - n + c: the edges that close a cycle when added one by one."""
    root = list(range(g.n + 1))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    closing = 0
    for u, v in g.edges():
        ru, rv = find(u), find(v)
        if ru == rv:
            closing += 1
        else:
            root[ru] = rv
    return closing


def _cycle_vertices(g: Graph) -> set[int]:
    """The 2-core: what is left after leaves are stripped until none remain."""
    degree = [0] + [g.degree(v) for v in g.vertices()]
    leaves = [v for v in g.vertices() if degree[v] <= 1]
    stripped = set(leaves)
    while leaves:
        for w in g.neighbors(leaves.pop()):
            degree[w] -= 1
            if degree[w] == 1 and w not in stripped:
                stripped.add(w)
                leaves.append(w)
    return set(g.vertices()) - stripped


def _mul(p: dict, q: dict, top: int) -> dict:
    out: dict[tuple[int, int], int] = {}
    for (i, j), a in p.items():
        for (k, l), b in q.items():
            if i + k <= top:
                key = (i + k, j + l)
                out[key] = out.get(key, 0) + a * b
    return out


def _add(p: dict, q: dict) -> dict:
    out = dict(p)
    for key, b in q.items():
        out[key] = out.get(key, 0) + b
    return out


def _forest_matchings(g: Graph, alive: set[int], skip: frozenset, top: int) -> dict:
    """Sum over matchings M of the forest g[alive] - skip of
    ((y - 1) x^2)^|M| times (1 + x deg v) for each v of alive outside V(M),
    with deg taken in g.

    A rooted-forest DP: per vertex, `free` sums its subtree with the vertex
    unmatched and its own factor left out, `paired` with the vertex matched
    to a child.
    """
    whole = {(0, 0): 1}
    seen: set[int] = set()
    for root in sorted(alive):
        if root in seen:
            continue
        seen.add(root)
        order, parent = [root], {root: 0}
        for v in order:
            for w in g.neighbors(v):
                if w in alive and w not in seen and frozenset((v, w)) != skip:
                    seen.add(w)
                    parent[w] = v
                    order.append(w)
        free = {v: {(0, 0): 1} for v in order}
        paired: dict[int, dict] = {v: {} for v in order}
        for v in reversed(order):
            own = {(0, 0): 1, (1, 0): g.degree(v)}
            total = _add(_mul(free[v], own, top), paired[v])
            p = parent[v]
            if p:
                matched = _mul(_mul(free[p], free[v], top), _EDGE, top)
                paired[p] = _add(_mul(paired[p], total, top), matched)
                free[p] = _mul(free[p], total, top)
            else:
                whole = _mul(whole, total, top)
    return whole


def _matching_census(g: Graph, r: int) -> dict[Partition, int]:
    """The size-r census of a graph with at most one independent cycle.

    On a forest the directed cycles are the edges, so Gamma is a matching.
    With a k-cycle C, split on one of its edges ab: the matchings avoiding
    ab, ab with the matchings of G - a - b, and the two traversals of C,
    2 (y_k - 1) x^k, with the matchings of G - V(C).
    """
    everything = set(g.vertices())
    cycle = _cycle_vertices(g)
    k = len(cycle)
    through_cycle: dict[tuple[int, int], int] = {}
    if not cycle:
        series = _forest_matchings(g, everything, frozenset(), r)
    else:
        a = min(cycle)
        b = min(w for w in g.neighbors(a) if w in cycle)
        ab = frozenset((a, b))
        series = _add(
            _forest_matchings(g, everything, ab, r),
            _mul(_forest_matchings(g, everything - ab, frozenset(), r), _EDGE, r),
        )
        # 2 (y_k - 1) x^k M(G - V(C)): the y_k part is the types with a
        # k-cycle, the -1 part joins the rest
        outside = _forest_matchings(g, everything - cycle, frozenset(), r)
        through_cycle = _mul(outside, {(k, 0): 2}, r)
        series = _add(series, {key: -c for key, c in through_cycle.items()})
    counts: dict[Partition, int] = {}
    for parts, poly in (((), series), ((k,), through_cycle)):
        for (i, j), count in poly.items():
            if i == r and count:
                fixed = g.n - sum(parts) - 2 * j
                counts[Partition(list(parts) + [2] * j + [1] * fixed)] = count
    return counts


def census_transform(g: Graph, census: dict[Partition, int], lam: Partition, basis: str) -> int:
    if basis not in BASES:
        raise InvalidInputError(f"unknown basis {basis!r}; expected one of {BASES}")
    if lam.n != g.n:
        raise DomainError(f"partition weight {lam.n} does not match {g.n} vertices")
    if not is_bipartite(g)[0]:
        raise DomainError("orientation formulas for Laplacian immanants need a bipartite graph")
    row = basis_binomial_row(basis, lam)
    try:
        return sum(count * row[mu] for mu, count in census.items())
    except KeyError as exc:
        raise InvalidInputError(f"census type {exc.args[0]} is not a partition of {g.n}") from None


def immanant_via_orientations(g: Graph, lam: Partition, basis: str = "s") -> int:
    """Laplacian immanant (or generalized matrix function) from the full census."""
    return census_transform(g, orientation_census(g), lam, basis)


def coefficient_via_orientations(g: Graph, lam: Partition, r: int, basis: str = "s") -> int:
    """Coefficient b_r of the immanantal polynomial from the size-r census."""
    return census_transform(g, subset_orientation_census(g, r), lam, basis)


def polynomial_via_orientations(
    g: Graph, lam: Partition, basis: str = "s"
) -> ImmanantalPolynomial:
    coefficients = tuple(
        coefficient_via_orientations(g, lam, r, basis) for r in range(g.n + 1)
    )
    return ImmanantalPolynomial(g.n, coefficients)


class _TransportPlan(NamedTuple):
    """One move's transport data: the shifted graph, the move's ends and
    path, the donor's off-path neighbours, and each path vertex's index."""

    shifted: Graph
    recipient: int
    donor: int
    path: tuple[int, ...]
    moved: frozenset[int]
    position: dict[int, int]


@lru_cache(maxsize=8)
def _transport_plan(g1: Graph, move: ShiftMove) -> _TransportPlan:
    """Built once per (graph, move); apply_shift refuses a move built for
    another graph."""
    g2 = apply_shift(g1, move)
    moved = frozenset(w for w in g1.neighbors(move.donor) if w != move.path[-2])
    position = {v: j for j, v in enumerate(move.path)}
    return _TransportPlan(g2, move.recipient, move.donor, move.path, moved, position)


def _transport_arrows(plan: _TransportPlan, arrow: dict[int, int]) -> dict[int, int]:
    """The transport map on arrow maps (source -> target), unvalidated.

    When the recipient points at a moved vertex, the recipient-to-donor
    path is reversed: each path vertex's arrow is mirrored onto the path
    vertex at the same distance from the other end.
    """
    _, u, k, path, moved, position = plan
    if arrow.get(u) not in moved:
        return {s: k if t == u and s in moved else t for s, t in arrow.items()}
    m = len(path)
    out: dict[int, int] = {}
    for s, t in arrow.items():
        if s == u:
            out[k] = t
        elif s in position:
            j = position[s]
            mirrored = path[m - 1 - j]
            if position[t] < j:
                out[mirrored] = path[m - j]
            else:
                out[mirrored] = path[m - 2 - j]
        elif s in moved and t == u:
            out[s] = k
        else:
            out[s] = t
    return out


def transport_orientation(
    g1: Graph, move: ShiftMove, orientation: VertexOrientation
) -> VertexOrientation:
    """Pull an orientation of the shifted graph back to the original graph.

    The map preserves cycle type and domain size, and for a fixed domain
    size is injective; the recipient-to-donor path may be reversed, so the
    domain itself can change.  Arrows along rewired edges are redirected to
    the donor; everything off the path and away from the rewired edges is
    kept as is.
    """
    plan = _transport_plan(g1, move)
    validate_orientation(plan.shifted, orientation)
    result = VertexOrientation.from_mapping(_transport_arrows(plan, orientation.as_mapping()))
    validate_orientation(g1, result)
    return result
