"""Vertex orientations, their cycle types, and census-based immanant formulas.

An orientation assigns to each vertex of a chosen domain an arrow towards one
of its neighbours.  Following the arrows gives a functional digraph whose
directed cycles determine a cycle type: a directed cycle through c vertices
contributes a part c (a pair of vertices pointing at each other contributes
a 2), and every remaining vertex of the graph, oriented or not, contributes
a part 1.  Counting orientations by type gives a census, and for bipartite
graphs the census determines every immanantal coefficient of the Laplacian
through the character binomial transform.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations, product
from math import prod

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
    arrow = dict(orientation.arrows)
    state: dict[int, int] = {}
    cycle_parts = []
    for start in arrow:
        if state.get(start, 0):
            continue
        trail = []
        v = start
        while v in arrow and state.get(v, 0) == 0:
            state[v] = 1
            trail.append(v)
            v = arrow[v]
        if v in arrow and state[v] == 1:
            cycle_parts.append(len(trail) - trail.index(v))
        for w in trail:
            state[w] = 2
    fixed = g.n - sum(cycle_parts)
    return Partition(sorted(cycle_parts, reverse=True) + [1] * fixed)


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
    total = prod(g.degree(v) for v in g.vertices())
    if total > cap:
        raise CapacityError(f"{total} orientations exceed the cap of {cap}")
    counts: Counter[Partition] = Counter()
    for orientation in enumerate_orientations(g, g.vertices()):
        counts[classify_type(g, orientation)] += 1
    return dict(counts)


def _elementary_symmetric(values: list[int], r: int) -> int:
    acc = [1] + [0] * r
    for x in values:
        for j in range(min(r, len(acc) - 1), 0, -1):
            acc[j] += x * acc[j - 1]
    return acc[r]


def subset_orientation_census(
    g: Graph, r: int, cap: int = FULL_CENSUS_CAP
) -> dict[Partition, int]:
    """Counts over all domains of size r, by cycle type."""
    if not 0 <= r <= g.n:
        raise InvalidInputError(f"domain size {r} out of range for {g.n} vertices")
    degrees = [g.degree(v) for v in g.vertices()]
    total = _elementary_symmetric(degrees, r)
    if total > cap:
        raise CapacityError(f"{total} orientations exceed the cap of {cap}")
    counts: Counter[Partition] = Counter()
    for domain in combinations(g.vertices(), r):
        for orientation in enumerate_orientations(g, domain):
            counts[classify_type(g, orientation)] += 1
    return dict(counts)


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
    g2 = apply_shift(g1, move)
    validate_orientation(g2, orientation)
    u, k, path = move.recipient, move.donor, move.path
    moved = frozenset(w for w in g1.neighbors(k) if w != path[-2])
    arrow = orientation.as_mapping()

    out: dict[int, int] = {}
    if arrow.get(u) not in moved:
        for s, t in arrow.items():
            if s in moved and t == u:
                out[s] = k
            else:
                out[s] = t
    else:
        position = {v: j for j, v in enumerate(path)}
        m = len(path)
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

    result = VertexOrientation.from_mapping(out)
    validate_orientation(g1, result)
    return result
