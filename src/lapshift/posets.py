"""Partial orders induced on a graph family by the path-shift operation.

Nodes are family members up to isomorphism; a raw arc runs from a graph to
the result of any single nondegenerate shift.  The arcs always form a DAG
(each shift strictly increases, for example, the census of any type in the
majorization sense), and the Hasse diagram is its transitive reduction.
Maximal elements are the graphs admitting no shift at all; minimal elements
are the ones no shift produces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .canon import canonical_form
from .errors import DomainError
from .graphs import Graph
from .shifts import ShiftMove, apply_shift, enumerate_shifts


@dataclass(frozen=True)
class HasseDiagram:
    nodes: tuple[Graph, ...]
    canon: tuple[str, ...]
    covers: tuple[tuple[int, int], ...]
    witnesses: dict[tuple[int, int], ShiftMove] = field(compare=False)

    def maximal(self) -> tuple[int, ...]:
        with_out = {i for i, _ in self.covers}
        return tuple(i for i in range(len(self.nodes)) if i not in with_out)

    def minimal(self) -> tuple[int, ...]:
        with_in = {j for _, j in self.covers}
        return tuple(j for j in range(len(self.nodes)) if j not in with_in)


def _assert_acyclic(n: int, arcs: set[tuple[int, int]]) -> None:
    succ = {i: [] for i in range(n)}
    for i, j in arcs:
        succ[i].append(j)
    state = [0] * n
    for root in range(n):
        stack = [(root, iter(succ[root]))]
        if state[root]:
            continue
        state[root] = 1
        while stack:
            v, it = stack[-1]
            for w in it:
                if state[w] == 1:
                    raise RuntimeError("shift arcs form a cycle")
                if state[w] == 0:
                    state[w] = 1
                    stack.append((w, iter(succ[w])))
                    break
            else:
                state[v] = 2
                stack.pop()


def _reachability(n: int, arcs: set[tuple[int, int]]) -> list[set[int]]:
    reach = [set() for _ in range(n)]
    succ = {i: set() for i in range(n)}
    for i, j in arcs:
        succ[i].add(j)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            new = set(succ[i])
            for j in succ[i]:
                new |= reach[j]
            if new != reach[i]:
                reach[i] = new
                changed = True
    return reach


def build_poset(members) -> HasseDiagram:
    """Hasse diagram of the shift order on an iterable of graphs."""
    nodes = tuple(members)
    canon = tuple(canonical_form(g) for g in nodes)
    index = {c: i for i, c in enumerate(canon)}
    if len(index) != len(nodes):
        raise DomainError("family members must be pairwise non-isomorphic")
    arcs: set[tuple[int, int]] = set()
    witnesses: dict[tuple[int, int], ShiftMove] = {}
    for i, g in enumerate(nodes):
        for move in enumerate_shifts(g):
            key = canonical_form(apply_shift(g, move))
            if key not in index:
                raise DomainError("a shift left the family; it is not shift-closed")
            j = index[key]
            if j == i:
                raise RuntimeError("a shift returned a graph isomorphic to its input")
            if (i, j) not in arcs:
                arcs.add((i, j))
                witnesses[i, j] = move
    _assert_acyclic(len(nodes), arcs)
    reach = _reachability(len(nodes), arcs)
    covers = tuple(
        sorted(
            (i, j)
            for i, j in arcs
            if not any(t != j and j in reach[t] for t in reach[i])
        )
    )
    return HasseDiagram(nodes, canon, covers, {c: witnesses[c] for c in covers})


def export_dot(h: HasseDiagram) -> str:
    """Graphviz digraph; edges carry their witness move as a label."""
    lines = ["digraph shifts {", "  rankdir=BT;"]
    for i, c in enumerate(h.canon):
        lines.append(f'  n{i} [label="{c}"];')
    for i, j in h.covers:
        move = h.witnesses[i, j]
        lines.append(f'  n{i} -> n{j} [label="{move.serialize()}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_csv(h: HasseDiagram) -> str:
    """Rows node_id,canonical_form,is_max,is_min."""
    import csv
    import io

    maximal = set(h.maximal())
    minimal = set(h.minimal())
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["node_id", "canonical_form", "is_max", "is_min"])
    for i, c in enumerate(h.canon):
        writer.writerow([i, c, int(i in maximal), int(i in minimal)])
    return buf.getvalue()
