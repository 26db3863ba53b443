"""Vertex orientations, their cycle types, and census-based immanant formulas.

An orientation assigns to each vertex of a chosen domain an arrow towards one
of its neighbours.  Following the arrows gives a functional digraph whose
directed cycles determine a cycle type: a directed cycle through c vertices
contributes a part c (a pair of vertices pointing at each other contributes
a 2), and every remaining vertex of the graph, oriented or not, contributes
a part 1.  Counting orientations by type gives a census, and for bipartite
graphs the census determines every immanantal coefficient of the Laplacian
through the character binomial transform.

A census is counted by inclusion-exclusion over sets of vertex-disjoint
directed cycles, without visiting a single orientation:

    sum over orientations of x^|B| prod over its cycles of y_(length)
        = sum over Gamma of prod over gamma in Gamma of (y_|gamma| - 1)
          times x^|V(Gamma)| prod over v outside V(Gamma) of (1 + x deg v),

where an edge counts as one directed 2-cycle and a longer cycle once per
direction.  One pass yields every domain size r at once (census_by_size).
The sum has two backends.  On a graph with at most one independent cycle
(m - n + c <= 1: forests and forests with one unicyclic component) Gamma is a
matching, or the cycle's two traversals with a matching, and a forest DP
counts it in polynomial time, uncapped.  Every other graph takes a subset DP:
a Held-Karp path DP counts the directed cycles through each vertex set, and
the families F(S) are built from them over the vertex sets that carry one.
Its path states and its family states each map one-to-one into the
orientations on domains of size at most r, so the cap applies to that count,
sum over j <= r of e_j(deg) (prod(1 + deg v) at r = n): above the cap the DP
refuses with CapacityError before doing any work.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import NamedTuple

from .errors import CapacityError, DomainError, InvalidInputError
from .graphs import Graph, has_bipartition, two_core
from .graphs import is_bipartite  # unused here; bench/workloads.py traces it by this name
from .immanants import ImmanantalPolynomial
from .partitions import Partition
from .shifts import ShiftMove, apply_shift
from .symfunc import BASES, _binomial_table, _positions, basis_binomial_row

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
    ignore cap; every other graph takes the cycle-family sum, cut off at
    size r, and refuses when the orientations on domains of size at most r
    exceed cap.
    """
    if not 0 <= r <= g.n:
        raise InvalidInputError(f"domain size {r} out of range for {g.n} vertices")
    return _census_range(g, r, r, cap)[0]


def census_by_size(g: Graph, cap: int = FULL_CENSUS_CAP) -> list[dict[Partition, int]]:
    """The censuses of every domain size 0..n from one pass, indexed by size.

    Entry r equals subset_orientation_census(g, r, cap); cap bounds the
    prod(1 + deg v) orientations of all sizes, and only on graphs with two
    or more independent cycles.
    """
    return _census_range(g, 0, g.n, cap)


def _census_range(g: Graph, low: int, top: int, cap: int) -> list[dict[Partition, int]]:
    """The censuses of domain sizes low..top, from the backend the graph takes.

    A graph with at most one independent cycle reads the matching series of
    every size, kept per graph, so per-size calls share one series; the
    split hands out fresh dicts.
    """
    if _cycle_rank(g) <= 1:
        series = _matching_series(g)
    else:
        _check_cap(g, top, cap)
        series = _cycle_family_series(g, top)
    return _split_by_size(g.n, series, low, top)


def _elementary_symmetric(values, top: int) -> list[int]:
    """e_0..e_top of values."""
    acc = [1] + [0] * top
    for x in values:
        for j in range(top, 0, -1):
            acc[j] += x * acc[j - 1]
    return acc


def _check_cap(g: Graph, top: int, cap: int) -> None:
    degrees = [g.degree(v) for v in g.vertices()]
    total = sum(_elementary_symmetric(degrees, top))
    if total > cap:
        raise CapacityError(
            f"{total} orientations on domains of size at most {top} exceed the cap of "
            f"{cap} (raise it with cap=, or --census-cap in verify)"
        )


def _split_by_size(n: int, series: dict, low: int, top: int) -> list[dict[Partition, int]]:
    """Censuses of sizes low..top from a series {(size, cycle lengths):
    count}; each vertex outside the cycles adds a part 1."""
    out: list[dict[Partition, int]] = [{} for _ in range(low, top + 1)]
    for (size, parts), count in series.items():
        if count and low <= size <= top:
            out[size - low][Partition(parts + (1,) * (n - sum(parts)))] = count
    return out


# The cycle-family sum, for any graph.  Gamma runs over every set of
# vertex-disjoint directed cycles; a cycle's vertex set is a bitmask.


def _directed_cycles(g: Graph, top: int) -> list[list[tuple[int, int, int]]]:
    """For each vertex s, (vertex mask, size, count) of the directed cycles
    whose least vertex is s, at most top long, one entry per vertex set.

    A Held-Karp path DP (Held and Karp, J. SIAM 10, 1962): its states are
    the paths from s through larger vertices, keyed by (vertex mask, end),
    and a path closes when its end is adjacent to s.  An edge closes as one
    2-cycle; a longer cycle closes once per direction.
    """
    neighbours = [()] + [tuple(g.neighbors(v)) for v in g.vertices()]
    blocks: list[list[tuple[int, int, int]]] = [[] for _ in range(g.n + 1)]
    for s in g.vertices():
        home = sum(1 << w for w in neighbours[s])
        paths = {(1 << s | 1 << w, w): 1 for w in neighbours[s] if w > s}
        size = 2
        while paths and size <= top:
            closed: dict[int, int] = {}
            longer: dict[tuple[int, int], int] = {}
            for (mask, end), ways in paths.items():
                if home >> end & 1:
                    closed[mask] = closed.get(mask, 0) + ways
                if size < top:
                    for w in neighbours[end]:
                        if w > s and not mask >> w & 1:
                            key = (mask | 1 << w, w)
                            longer[key] = longer.get(key, 0) + ways
            blocks[s].extend((mask, size, ways) for mask, ways in closed.items())
            paths = longer
            size += 1
    return blocks


def _cycle_family_series(g: Graph, top: int) -> dict:
    """sum over Gamma of prod (y_|gamma| - 1) x^|V(Gamma)| prod over v
    outside V(Gamma) of (1 + x deg v), cut off above x^top.

    F(S), the Gamma with vertex set S, is kept as {cycle lengths: count}
    and built by adding cycle blocks in decreasing order of their least
    vertex, so each Gamma is built once; only vertex sets that carry some
    Gamma are ever touched.  The series is {(size, cycle lengths): count}.
    """
    blocks = _directed_cycles(g, top)
    families: dict[int, tuple[int, dict]] = {0: (0, {(): 1})}
    for s in range(g.n, 0, -1):
        grown: dict[int, tuple[int, dict]] = {}
        for block, k, ways in blocks[s]:
            for mask, (size, poly) in families.items():
                if mask & block or size + k > top:
                    continue
                union = mask | block
                if union not in grown:
                    grown[union] = (size + k, {})
                target = grown[union][1]
                for parts, c in poly.items():
                    kept = tuple(sorted(parts + (k,), reverse=True))
                    target[kept] = target.get(kept, 0) + ways * c
                    target[parts] = target.get(parts, 0) - ways * c
        families.update(grown)
    degree = [g.degree(v) for v in g.vertices()]
    series: dict[tuple[int, tuple[int, ...]], int] = {}
    for mask, (size, poly) in families.items():
        outside = [d for v, d in enumerate(degree, 1) if not mask >> v & 1]
        for j, e in enumerate(_elementary_symmetric(outside, top - size)):
            if e:
                for parts, c in poly.items():
                    key = (size + j, parts)
                    series[key] = series.get(key, 0) + c * e
    return series


# The matching sum.  A polynomial in x (domain size) and y (2-cycles) is a
# dict {(x degree, y degree): coefficient}.  Each vertex adds at most one x,
# so nothing is cut off: the series holds every size up to n.

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


def _mul(p: dict, q: dict) -> dict:
    out: dict[tuple[int, int], int] = {}
    for (i, j), a in p.items():
        for (k, l), b in q.items():
            key = (i + k, j + l)
            out[key] = out.get(key, 0) + a * b
    return out


def _add(p: dict, q: dict) -> dict:
    out = dict(p)
    for key, b in q.items():
        out[key] = out.get(key, 0) + b
    return out


def _forest_matchings(g: Graph, alive: set[int], skip: frozenset) -> dict:
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
            total = _add(_mul(free[v], own), paired[v])
            p = parent[v]
            if p:
                matched = _mul(_mul(free[p], free[v]), _EDGE)
                paired[p] = _add(_mul(paired[p], total), matched)
                free[p] = _mul(free[p], total)
            else:
                whole = _mul(whole, total)
    return whole


@lru_cache(maxsize=8)
def _matching_series(g: Graph) -> dict:
    """The census series of a graph with at most one independent cycle, as
    {(size, cycle lengths): count}, every size 0..n.  Cutting it off above
    x^r commutes with the products, so one series per graph serves every r.

    On a forest the directed cycles are the edges, so Gamma is a matching.
    With a k-cycle C, split on one of its edges ab: the matchings avoiding
    ab, ab with the matchings of G - a - b, and the two traversals of C,
    2 (y_k - 1) x^k, with the matchings of G - V(C).
    """
    everything = set(g.vertices())
    cycle = two_core(g)
    k = len(cycle)
    through_cycle: dict[tuple[int, int], int] = {}
    if not cycle:
        matchings = _forest_matchings(g, everything, frozenset())
    else:
        a = min(cycle)
        b = min(w for w in g.neighbors(a) if w in cycle)
        ab = frozenset((a, b))
        matchings = _add(
            _forest_matchings(g, everything, ab),
            _mul(_forest_matchings(g, everything - ab, frozenset()), _EDGE),
        )
        # 2 (y_k - 1) x^k M(G - V(C)): the y_k part is the types with a
        # k-cycle, the -1 part joins the rest
        outside = _forest_matchings(g, everything - cycle, frozenset())
        through_cycle = _mul(outside, {(k, 0): 2})
        matchings = _add(matchings, {key: -c for key, c in through_cycle.items()})
    series = {}
    for head, poly in (((), matchings), ((k,), through_cycle)):
        for (i, j), count in poly.items():
            series[i, head + (2,) * j] = count
    return series


def census_transform(g: Graph, census: dict[Partition, int], lam: Partition, basis: str) -> int:
    if basis not in BASES:
        raise InvalidInputError(f"unknown basis {basis!r}; expected one of {BASES}")
    if lam.n != g.n:
        raise DomainError(f"partition weight {lam.n} does not match {g.n} vertices")
    if not has_bipartition(g):
        raise DomainError("orientation formulas for Laplacian immanants need a bipartite graph")
    row = basis_binomial_row(basis, lam)
    try:
        return sum(count * row[mu] for mu, count in census.items())
    except KeyError as exc:
        raise InvalidInputError(f"census type {exc.args[0]} is not a partition of {g.n}") from None


def census_table(g: Graph, censuses, basis: str) -> tuple[tuple[int, ...], ...]:
    """census_transform(g, census, shape, basis) for every shape of g.n, in
    canonical partition order (rows), and every census in order (columns).

    Each census is read as a vector over the orientation types and
    multiplied by the basis's binomial table, once for all shapes; the
    types it does not hold are zeros, and are skipped.
    """
    if basis not in BASES:
        raise InvalidInputError(f"unknown basis {basis!r}; expected one of {BASES}")
    if not has_bipartition(g):
        raise DomainError("orientation formulas for Laplacian immanants need a bipartite graph")
    table, position = _binomial_table(basis, g.n), _positions(g.n)
    columns = []
    for census in censuses:
        acc = [0] * len(position)
        for mu, count in census.items():
            if mu not in position:
                raise InvalidInputError(f"census type {mu} is not a partition of {g.n}")
            acc = [a + count * t for a, t in zip(acc, table[position[mu]])]
        columns.append(acc)
    return tuple(zip(*columns))


def immanant_via_orientations(g: Graph, lam: Partition, basis: str = "s") -> int:
    """Laplacian immanant (or generalized matrix function) from the full census."""
    return census_transform(g, orientation_census(g), lam, basis)


def polynomial_via_orientations(
    g: Graph, lam: Partition, basis: str = "s"
) -> ImmanantalPolynomial:
    coefficients = tuple(census_transform(g, c, lam, basis) for c in census_by_size(g))
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


def _transport_arrow(plan: _TransportPlan, reverse: bool, s: int, t: int) -> tuple[int, int]:
    """The transport map on one arrow s -> t of the shifted graph, unvalidated.

    reverse says whether the recipient points at a moved vertex; then the
    recipient-to-donor path is reversed: each path vertex's arrow is
    mirrored onto the path vertex at the same distance from the other end.
    Either way an arrow along a rewired edge is redirected to the donor.
    """
    _, u, k, path, moved, position = plan
    if not reverse:
        return s, (k if t == u and s in moved else t)
    if s == u:
        return k, t
    if s in position:
        j = position[s]
        m = len(path)
        if position[t] < j:
            return path[m - 1 - j], path[m - j]
        return path[m - 1 - j], path[m - 2 - j]
    if s in moved and t == u:
        return s, k
    return s, t


def _transport_arrows(plan: _TransportPlan, arrow: dict[int, int]) -> dict[int, int]:
    """The transport map on arrow maps (source -> target), one arrow at a
    time through _transport_arrow; the recipient's arrow picks the regime."""
    reverse = arrow.get(plan.recipient) in plan.moved
    return dict(_transport_arrow(plan, reverse, s, t) for s, t in arrow.items())


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
