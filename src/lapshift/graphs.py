"""Simple undirected graphs with exact integer invariants.

Vertices are labelled 1..n.  Matrices are returned as tuples of tuples of
ints, row i describing vertex i+1, so they can key caches directly.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .errors import ConvergenceError, DomainError, InvalidInputError, ParseError


class Graph:
    """Immutable simple graph on vertices 1..n."""

    __slots__ = ("n", "_adj", "_edges", "_bipartition")

    def __init__(self, n: int, edges=()):
        if n < 1:
            raise InvalidInputError(f"graph needs at least one vertex, got n={n}")
        adj: list[set[int]] = [set() for _ in range(n + 1)]
        seen: set[tuple[int, int]] = set()
        for e in edges:
            try:
                u, v = e
            except (TypeError, ValueError):
                raise InvalidInputError(f"edge must be a pair, got {e!r}") from None
            u, v = int(u), int(v)
            if not (1 <= u <= n and 1 <= v <= n):
                raise InvalidInputError(f"edge {u}-{v} leaves the vertex range 1..{n}")
            if u == v:
                raise InvalidInputError(f"self loop at vertex {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise InvalidInputError(f"duplicate edge {key[0]}-{key[1]}")
            seen.add(key)
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self._adj = tuple(frozenset(s) for s in adj)
        self._edges = tuple(sorted(seen))
        self._bipartition = None  # kept by is_bipartite on first use

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def edges(self) -> tuple[tuple[int, int], ...]:
        return self._edges

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def neighbors(self, v: int) -> frozenset[int]:
        self._check_vertex(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self._adj[u]

    def _check_vertex(self, v: int) -> None:
        if not (1 <= v <= self.n):
            raise InvalidInputError(f"vertex {v} outside 1..{self.n}")

    def replace_edges(self, remove=(), add=()) -> "Graph":
        """New graph with the listed edges removed then added."""
        cur = set(self._edges)
        for u, v in remove:
            key = (min(u, v), max(u, v))
            if key not in cur:
                raise InvalidInputError(f"cannot remove absent edge {u}-{v}")
            cur.discard(key)
        for u, v in add:
            cur.add((min(u, v), max(u, v)))
        return Graph(self.n, cur)

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self._edges == other._edges

    def __hash__(self):
        return hash((self.n, self._edges))

    def __repr__(self):
        return f"Graph({self.n}, {list(self._edges)})"

    def is_connected(self) -> bool:
        seen = {1}
        queue = deque([1])
        while queue:
            v = queue.popleft()
            for w in self._adj[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(seen) == self.n

    def distances_from(self, v: int) -> dict[int, int]:
        """BFS distances from v to every reachable vertex."""
        self._check_vertex(v)
        dist = {v: 0}
        queue = deque([v])
        while queue:
            u = queue.popleft()
            for w in self._adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return dist


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(1, n)])


def star_graph(n: int) -> Graph:
    """Star on n vertices with centre 1."""
    return Graph(n, [(1, i) for i in range(2, n + 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InvalidInputError(f"cycle needs at least 3 vertices, got {n}")
    return Graph(n, [(i, i + 1) for i in range(1, n)] + [(n, 1)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def adjacency_matrix(g: Graph) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(1 if g.has_edge(i, j) else 0 for j in g.vertices()) for i in g.vertices()
    )


def laplacian(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Degree matrix minus adjacency matrix, as exact integers."""
    return tuple(
        tuple(
            g.degree(i) if i == j else (-1 if g.has_edge(i, j) else 0) for j in g.vertices()
        )
        for i in g.vertices()
    )


def is_bipartite(g: Graph):
    """(True, colouring dict) with colours 0/1, or (False, None).

    Graphs are immutable, so the search runs once per graph.  The graph keeps
    its result as one int, the vertices of colour 1 as a bitmask or -1 when
    it is not bipartite: graph-keyed caches hold many graphs, and a kept
    dict would cost each of them hundreds of bytes.
    """
    mask = _bipartition(g)
    if mask < 0:
        return False, None
    return True, {v: mask >> v & 1 for v in g.vertices()}


def has_bipartition(g: Graph) -> bool:
    """is_bipartite's flag alone, without building the colouring dict."""
    return _bipartition(g) >= 0


def _bipartition(g: Graph) -> int:
    if g._bipartition is None:
        colour = _two_colouring(g)
        g._bipartition = -1 if colour is None else sum(c << v for v, c in colour.items())
    return g._bipartition


def _two_colouring(g: Graph) -> dict[int, int] | None:
    colour: dict[int, int] = {}
    for start in g.vertices():
        if start in colour:
            continue
        colour[start] = 0
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in g.neighbors(v):
                if w not in colour:
                    colour[w] = 1 - colour[v]
                    queue.append(w)
                elif colour[w] == colour[v]:
                    return None
    return colour


def wiener_index(g: Graph) -> int:
    """Sum of shortest-path distances over unordered vertex pairs."""
    total = 0
    for v in g.vertices():
        dist = g.distances_from(v)
        if len(dist) != g.n:
            raise DomainError("wiener index needs a connected graph")
        total += sum(dist.values())
    return total // 2


def spectral_radius(g: Graph, tol: float = 1e-10, max_iterations: int = 10**6) -> float:
    """Largest adjacency eigenvalue by power iteration.

    Iterates with the adjacency matrix plus the identity: connected graphs
    make that matrix primitive (plain adjacency is periodic on bipartite
    graphs and need not converge), and the shift leaves eigenvectors alone.
    Convergence is declared when successive Rayleigh quotients agree within
    tol; the deterministic all-ones start vector keeps runs reproducible.
    """
    a = np.array(adjacency_matrix(g), dtype=float)
    m = a + np.eye(g.n)
    v = np.ones(g.n) / np.sqrt(g.n)
    last = float(v @ (a @ v))
    for _ in range(max_iterations):
        w = m @ v
        norm = np.linalg.norm(w)
        v = w / norm
        current = float(v @ (a @ v))
        if abs(current - last) < tol:
            return current
        last = current
    raise ConvergenceError(f"power iteration did not converge within {max_iterations} steps")


def parse_edge_list(text: str) -> Graph:
    """Parse the "n m" header plus "u v" lines format; '#' starts a comment."""
    rows: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            rows.append((lineno, body.split()))
    if not rows:
        raise ParseError("missing header line 'n m'")
    head_line, head = rows[0]
    if len(head) != 2:
        raise ParseError(f"header must be 'n m', got {' '.join(head)!r}", line=head_line)
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError(f"header must be two integers, got {' '.join(head)!r}", line=head_line) from None
    edges = []
    for lineno, fields in rows[1:]:
        if len(fields) != 2:
            raise ParseError(f"edge line must be 'u v', got {' '.join(fields)!r}", line=lineno)
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError(f"edge endpoints must be integers, got {' '.join(fields)!r}", line=lineno) from None
        edges.append(((u, v), lineno))
    if len(edges) != m:
        raise ParseError(f"header promised {m} edges, file has {len(edges)}", line=head_line)
    try:
        return Graph(n, [e for e, _ in edges])
    except InvalidInputError as exc:
        raise ParseError(str(exc)) from None


def read_edge_list(path) -> Graph:
    with open(path, encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.num_edges}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
