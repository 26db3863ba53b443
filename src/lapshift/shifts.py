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

from collections import deque
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
    """A validated recipient/donor pair with its connecting path.

    x_side and y_side are the vertex sets hanging off the recipient and the
    donor once the path's edges are deleted (path vertices excluded).
    """

    recipient: int
    donor: int
    path: tuple[int, ...]
    x_side: frozenset[int]
    y_side: frozenset[int]

    def serialize(self) -> str:
        return f"{self.recipient} {self.donor} " + ",".join(str(p) for p in self.path)


def _component(g: Graph, start: int, dropped_edges: set[tuple[int, int]]) -> set[int]:
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in g.neighbors(v):
            key = (min(v, w), max(v, w))
            if key in dropped_edges or w in seen:
                continue
            seen.add(w)
            queue.append(w)
    return seen


def _interior_paths(g: Graph, u: int, k: int):
    """Paths from u to k whose interior vertices all have degree 2."""
    found = []
    for first in g.neighbors(u):
        path = [u, first]
        prev, cur = u, first
        while cur != k and g.degree(cur) == 2 and cur != u:
            nxt = next(w for w in g.neighbors(cur) if w != prev)
            path.append(nxt)
            prev, cur = cur, nxt
        if cur == k:
            found.append(tuple(path))
    return found


def shift_applicable(g: Graph, recipient: int, donor: int):
    """The ShiftMove for this ordered pair, or None when no move exists.

    The ends share a cycle exactly when the donor is still reachable from
    the recipient once the first qualifying path's edges are dropped: a
    second route cannot pass the path's interior, whose vertices have
    degree 2, so it closes a cycle with the path; and a cycle through both
    ends holds two internally disjoint routes, at most one of them the path.
    """
    if recipient == donor:
        raise InvalidInputError("recipient and donor must differ")
    g._check_vertex(recipient)
    g._check_vertex(donor)
    paths = _interior_paths(g, recipient, donor)
    if not paths:
        return None
    path = paths[0]
    dropped = {(min(a, b), max(a, b)) for a, b in zip(path, path[1:])}
    reach = _component(g, recipient, dropped)
    if donor in reach:
        return None
    if len(paths) != 1:
        raise RuntimeError("two qualifying paths would put the endpoints on a cycle")
    x_side = reach - {recipient}
    y_side = _component(g, donor, dropped) - {donor}
    return ShiftMove(recipient, donor, path, frozenset(x_side), frozenset(y_side))


def apply_shift(g: Graph, move: ShiftMove) -> Graph:
    """Rewire the donor's off-path neighbours onto the recipient."""
    current = shift_applicable(g, move.recipient, move.donor)
    if current != move:
        raise InvalidInputError("move does not match this graph; was it built for another?")
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
    for recipient in g.vertices():
        for donor in range(recipient + 1, g.n + 1):
            move = shift_applicable(g, recipient, donor)
            if move is None:
                continue
            if not move.y_side:
                continue
            form = canonical_form(apply_shift(g, move))
            if form == base:
                continue
            out.append((move, form))
    return out


def is_tree(g: Graph) -> bool:
    return g.is_connected() and g.num_edges == g.n - 1


def tree_shift_applicable(g: Graph, recipient: int, donor: int):
    """The tree-restricted shift; rejects non-trees outright."""
    if not is_tree(g):
        raise DomainError("tree shift needs a tree")
    return shift_applicable(g, recipient, donor)


def resolve_move(g: Graph, recipient: int, donor: int) -> ShiftMove:
    """shift_applicable that raises instead of returning None."""
    move = shift_applicable(g, recipient, donor)
    if move is None:
        raise DomainError(
            f"no qualifying path between {recipient} and {donor} (or they share a cycle)"
        )
    return move
