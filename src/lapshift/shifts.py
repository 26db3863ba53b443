"""Edge-rewiring operations that move a vertex's neighbours along a path.

Two operations live here.  The Kelmans transformation shifts, for a chosen
ordered pair (x, y), every neighbour of x outside y's closed neighbourhood
over to y.  The path shift picks a recipient and a donor joined by a path
whose interior vertices all have degree 2, requires that recipient and donor
share no cycle, and moves every off-path neighbour of the donor to the
recipient.  On trees the cycle condition is vacuous and the path shift is
the classical tree shift.
"""

from __future__ import annotations

from dataclasses import dataclass

from .canon import canonical_form
from .errors import DomainError, InvalidInputError
from .graphs import Graph


def kelmans(g: Graph, x: int, y: int) -> Graph:
    """Move neighbours of x outside N[y] over to y.  Edge count is preserved."""
    if x == y:
        raise InvalidInputError("kelmans needs two distinct vertices")
    g._check_vertex(x)
    g._check_vertex(y)
    closed = set(g.neighbors(y)) | {y}
    moved = [w for w in g.neighbors(x) if w not in closed]
    return g.replace_edges(
        remove=[(x, w) for w in moved], add=[(y, w) for w in moved]
    )


@dataclass(frozen=True)
class ShiftMove:
    """A validated recipient/donor pair with its connecting path."""

    recipient: int
    donor: int
    path: tuple[int, ...]

    def serialize(self) -> str:
        return f"{self.recipient} {self.donor} " + ",".join(str(p) for p in self.path)


def _bridges(g: Graph) -> set[tuple[int, int]]:
    """The bridges of g, the edges on no cycle, as (smaller, larger) pairs.

    One iterative depth-first search with low links (Tarjan, Inf. Process.
    Lett. 2, 1974): low[v] is the earliest discovery time reachable from
    v's subtree by one back edge, and the tree edge into v is a bridge
    exactly when low[v] is v's own time.
    """
    found = [0] * (g.n + 1)  # discovery times from 1; 0 is undiscovered
    low = [0] * (g.n + 1)
    bridges = set()
    clock = 0
    for root in g.vertices():
        if found[root]:
            continue
        clock += 1
        found[root] = low[root] = clock
        stack = [(root, 0, iter(g.neighbors(root)))]
        while stack:
            v, parent, rest = stack[-1]
            for w in rest:
                if w == parent:
                    continue
                if found[w]:
                    low[v] = min(low[v], found[w])
                else:
                    clock += 1
                    found[w] = low[w] = clock
                    stack.append((w, v, iter(g.neighbors(w))))
                    break
            else:
                stack.pop()
                if parent:
                    low[parent] = min(low[parent], low[v])
                    if low[v] == found[v]:
                        bridges.add((min(parent, v), max(parent, v)))
    return bridges


def _chains(g: Graph, u: int) -> dict[int, list[tuple[int, ...]]]:
    """{end: paths} over the walks that leave u, one per neighbour, and go on
    through degree-2 vertices until a vertex of another degree or u again.

    Every vertex the walks pass is an end, with the walk's prefix up to it,
    so the paths to an end are exactly those from u whose interior vertices
    all have degree 2.  Paths are listed in the order of u's neighbours.
    """
    chains: dict[int, list[tuple[int, ...]]] = {}
    for first in g.neighbors(u):
        path = [u, first]
        prev, cur = u, first
        while cur != u:
            chains.setdefault(cur, []).append(tuple(path))
            if g.degree(cur) != 2:
                break
            prev, cur = cur, next(w for w in g.neighbors(cur) if w != prev)
            path.append(cur)
    return chains


def shift_applicable(g: Graph, recipient: int, donor: int):
    """The ShiftMove for this ordered pair, or None when no move exists."""
    if recipient == donor:
        raise InvalidInputError("recipient and donor must differ")
    g._check_vertex(recipient)
    g._check_vertex(donor)
    return _move(recipient, donor, _chains(g, recipient).get(donor), _bridges(g))


def _move(recipient: int, donor: int, paths, bridges):
    """shift_applicable for a pair whose paths with degree-2 interior are
    known, given the graph's bridges.

    The ends share a cycle exactly when the first qualifying path's first
    edge is on a cycle, so is no bridge: such a cycle goes on through the
    path's interior, whose vertices have degree 2, to the donor; and a cycle
    through both ends holds two internally disjoint routes, at most one of
    them the path, so the other closes a cycle with the path.
    """
    if not paths:
        return None
    path = paths[0]
    if (min(path[0], path[1]), max(path[0], path[1])) not in bridges:
        return None
    if len(paths) != 1:
        raise RuntimeError("two qualifying paths would put the endpoints on a cycle")
    return ShiftMove(recipient, donor, path)


def apply_shift(g: Graph, move: ShiftMove) -> Graph:
    """Rewire the donor's off-path neighbours onto the recipient."""
    current = shift_applicable(g, move.recipient, move.donor)
    if current != move:
        raise InvalidInputError("move does not match this graph; was it built for another?")
    return _rewire(g, move)


def _rewire(g: Graph, move: ShiftMove) -> Graph:
    """apply_shift for a move already built from g."""
    before = move.path[-2]
    moved = [w for w in g.neighbors(move.donor) if w != before]
    for w in moved:
        if g.has_edge(move.recipient, w):
            raise InvalidInputError(f"shift would create a duplicate edge {move.recipient}-{w}")
    return g.replace_edges(
        remove=[(move.donor, w) for w in moved],
        add=[(move.recipient, w) for w in moved],
    )


def enumerate_shifts(g: Graph) -> list[ShiftMove]:
    """All applicable moves over unordered vertex pairs, one per pair.

    Moves whose result is isomorphic to the input (in particular any move
    whose donor is a leaf) are dropped; the recipient is always the smaller
    label, which fixes the enumeration order.
    """
    return [move for move, _ in shifts_with_forms(g)]


def shifts_with_forms(g: Graph) -> list[tuple[ShiftMove, str]]:
    """enumerate_shifts' moves, each with the canonical form of its result,
    which the enumeration computes anyway to drop the isomorphic ones."""
    out = []
    base = canonical_form(g)
    bridges = _bridges(g)
    for recipient in g.vertices():
        chains = _chains(g, recipient)
        for donor in sorted(d for d in chains if d > recipient):
            move = _move(recipient, donor, chains[donor], bridges)
            # a leaf donor has nothing past the path to move
            if move is None or g.degree(move.donor) == 1:
                continue
            form = canonical_form(_rewire(g, move))
            if form == base:
                continue
            out.append((move, form))
    return out


def resolve_move(g: Graph, recipient: int, donor: int) -> ShiftMove:
    """shift_applicable that raises instead of returning None."""
    move = shift_applicable(g, recipient, donor)
    if move is None:
        raise DomainError(
            f"no qualifying path between {recipient} and {donor} (or they share a cycle)"
        )
    return move
