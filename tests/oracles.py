"""Independent reference implementations used to cross-check the package.

Everything here is written the slow, obvious way on purpose: explicit
permutation sums, Fraction Gaussian elimination, Floyd-Warshall, brute-force
isomorphism search, a vertex-deletion cycle test, an orientation walk.  None of it shares code paths with the package modules
it checks.
"""

from fractions import Fraction
from itertools import combinations, permutations, product
from math import prod

from lapshift.errors import InvalidInputError


def cycle_type_of(perm: tuple[int, ...]) -> tuple[int, ...]:
    """Sorted (descending) cycle lengths of a permutation given in one-line form."""
    n = len(perm)
    seen = [False] * n
    lengths = []
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        v = start
        while not seen[v]:
            seen[v] = True
            v = perm[v]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def immanant_by_permutations(matrix, weight) -> int:
    """Sum over all n! permutations; weight maps a cycle-type tuple to an int."""
    n = len(matrix)
    total = 0
    for perm in permutations(range(n)):
        term = prod(matrix[i][perm[i]] for i in range(n))
        if term:
            total += weight(cycle_type_of(perm)) * term
    return total


def census_by_walking(n: int, edges, r: int) -> dict[tuple[int, ...], int]:
    """The size-r orientation census by visiting every orientation.

    Each r-subset of 1..n points every vertex at one of its neighbours; the
    arrows form a functional graph, walked from each domain vertex until it
    leaves the domain or repeats a vertex.  A walk that repeats a vertex of
    its own has found a new directed cycle (two vertices pointing at each
    other are a 2-cycle).  Keys are cycle types: the cycle lengths, largest
    first, padded with 1s to n parts in all.
    """
    neighbours = [[] for _ in range(n + 1)]
    for u, v in edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    counts: dict[tuple[int, ...], int] = {}
    for domain in combinations(range(1, n + 1), r):
        for targets in product(*(neighbours[v] for v in domain)):
            arrow = [0] * (n + 1)
            for v, t in zip(domain, targets):
                arrow[v] = t
            walked = [0] * (n + 1)
            lengths = []
            for walk, v in enumerate(domain, start=1):
                while v and not walked[v]:
                    walked[v] = walk
                    v = arrow[v]
                if v and walked[v] == walk:
                    length, u = 1, arrow[v]
                    while u != v:
                        length, u = length + 1, arrow[u]
                    lengths.append(length)
            lengths.sort(reverse=True)
            key = tuple(lengths) + (1,) * (n - sum(lengths))
            counts[key] = counts.get(key, 0) + 1
    return counts


def determinant_fractions(matrix) -> Fraction:
    """Gaussian elimination with exact rationals."""
    n = len(matrix)
    work = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        det *= work[col][col]
        inv = work[col][col]
        for r in range(col + 1, n):
            factor = work[r][col] / inv
            for c in range(col, n):
                work[r][c] -= factor * work[col][c]
    return det


def characteristic_polynomial_fractions(matrix) -> list[Fraction]:
    """Coefficients of det(xI - M), constant term first, via interpolation."""
    n = len(matrix)
    points = range(n + 1)
    values = []
    for x in points:
        shifted = [
            [Fraction(x if i == j else 0) - Fraction(matrix[i][j]) for j in range(n)]
            for i in range(n)
        ]
        values.append(determinant_fractions(shifted))
    # Lagrange interpolation on n+1 integer points
    coeffs = [Fraction(0)] * (n + 1)
    for i, xi in enumerate(points):
        denom = Fraction(1)
        basis = [Fraction(1)]
        for j, xj in enumerate(points):
            if i == j:
                continue
            denom *= xi - xj
            new = [Fraction(0)] * (len(basis) + 1)
            for t, b in enumerate(basis):
                new[t] -= b * xj
                new[t + 1] += b
            basis = new
        scale = values[i] / denom
        for t, b in enumerate(basis):
            coeffs[t] += scale * b
    return coeffs


def largest_eigenvalue(matrix, refine: int = 200) -> float:
    """Largest root of the characteristic polynomial by bisection.

    The matrices handled here are adjacency matrices, so the spectral radius
    sits in [0, n] and is the largest real root.
    """
    coeffs = characteristic_polynomial_fractions(matrix)

    def evaluate(x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    n = len(matrix)
    hi = Fraction(n + 1)
    # the polynomial is monic, positive beyond the largest root; walk down
    # in coarse steps to bracket it, then bisect
    step = Fraction(1, 8)
    lo = hi
    while lo > -1 and evaluate(lo) > 0:
        lo -= step
    hi = lo + step
    for _ in range(refine):
        mid = (lo + hi) / 2
        if evaluate(mid) > 0:
            hi = mid
        else:
            lo = mid
    return float((lo + hi) / 2)


def all_pairs_distances(n: int, edges) -> list[list[float]]:
    """Floyd-Warshall over an edge list on vertices 1..n."""
    inf = float("inf")
    dist = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    for u, v in edges:
        dist[u - 1][v - 1] = 1
        dist[v - 1][u - 1] = 1
    for t in range(n):
        for i in range(n):
            for j in range(n):
                through = dist[i][t] + dist[t][j]
                if through < dist[i][j]:
                    dist[i][j] = through
    return dist


def wiener_by_floyd_warshall(n: int, edges) -> int:
    dist = all_pairs_distances(n, edges)
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            if dist[i][j] == float("inf"):
                raise ValueError("graph is disconnected")
            total += int(dist[i][j])
    return total


def are_isomorphic(n: int, edges_a, edges_b) -> bool:
    """Try all vertex bijections (fine for n <= 8)."""
    set_a = {(min(u, v), max(u, v)) for u, v in edges_a}
    set_b = {(min(u, v), max(u, v)) for u, v in edges_b}
    if len(set_a) != len(set_b):
        return False
    degrees_a = sorted(sum((v in (u, w)) for u, w in set_a) for v in range(1, n + 1))
    degrees_b = sorted(sum((v in (u, w)) for u, w in set_b) for v in range(1, n + 1))
    if degrees_a != degrees_b:
        return False
    for perm in permutations(range(1, n + 1)):
        mapping = {i + 1: perm[i] for i in range(n)}
        mapped = {(min(mapping[u], mapping[v]), max(mapping[u], mapping[v])) for u, v in set_a}
        if mapped == set_b:
            return True
    return False


def _connected_avoiding(g, u: int, v: int, skip_vertex=None, skip_edge=None) -> bool:
    if u == skip_vertex or v == skip_vertex:
        return False
    seen = {u}
    queue = [u]
    for a in queue:
        for b in g.neighbors(a):
            if b == skip_vertex or b in seen:
                continue
            if skip_edge and (min(a, b), max(a, b)) == skip_edge:
                continue
            seen.add(b)
            queue.append(b)
    return v in seen


def share_cycle(g, u: int, v: int) -> bool:
    """Whether some cycle of g passes through both vertices (Menger).

    Adjacent ends share a cycle when they stay connected without their edge;
    other ends when no single third vertex separates them.
    """
    if u == v:
        raise InvalidInputError("share_cycle needs two distinct vertices")
    if g.has_edge(u, v):
        return _connected_avoiding(g, u, v, skip_edge=(min(u, v), max(u, v)))
    if not _connected_avoiding(g, u, v):
        return False
    return all(
        _connected_avoiding(g, u, v, skip_vertex=w) for w in g.vertices() if w not in (u, v)
    )


def shift_move_by_share_cycle(g, recipient: int, donor: int):
    """The path shift for an ordered pair, found the slow way: refuse ends
    that share_cycle puts on a common cycle, then walk every neighbour of
    the recipient along degree-2 vertices towards the donor.

    None when there is no move, else (recipient, donor, path, x_side,
    y_side) with the sides the vertices hanging off each end once the
    path's edges are deleted.
    """
    if share_cycle(g, recipient, donor):
        return None
    paths = []
    for first in sorted(g.neighbors(recipient)):
        path = [recipient, first]
        while path[-1] not in (donor, recipient) and g.degree(path[-1]) == 2:
            path.append(next(w for w in g.neighbors(path[-1]) if w != path[-2]))
        if path[-1] == donor:
            paths.append(tuple(path))
    if not paths:
        return None
    if len(paths) != 1:
        raise RuntimeError("two qualifying paths would put the endpoints on a cycle")
    path = paths[0]
    dropped = {frozenset(e) for e in zip(path, path[1:])}

    def side(end: int) -> frozenset:
        seen = {end}
        queue = [end]
        for a in queue:
            for b in g.neighbors(a):
                if b not in seen and frozenset((a, b)) not in dropped:
                    seen.add(b)
                    queue.append(b)
        return frozenset(seen - {end})

    return recipient, donor, path, side(recipient), side(donor)


def connected_bipartite_edge_sets(n: int):
    """Every edge subset of K_n that is connected and 2-colourable, labelled.

    All 2^(n(n-1)/2) subsets, each tested by breadth-first 2-colouring.
    """
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        adjacent = {v: [] for v in range(1, n + 1)}
        for u, v in edges:
            adjacent[u].append(v)
            adjacent[v].append(u)
        colour = {1: 0}
        queue = [1]
        proper = True
        for v in queue:
            for w in adjacent[v]:
                if w not in colour:
                    colour[w] = 1 - colour[v]
                    queue.append(w)
                elif colour[w] == colour[v]:
                    proper = False
        if proper and len(colour) == n:
            yield edges


def hook_length_degree(shape) -> int:
    """Number of standard Young tableaux of the shape, by the hook formula."""
    from math import factorial

    shape = tuple(shape)
    n = sum(shape)
    conjugate = [sum(1 for part in shape if part > i) for i in range(shape[0])] if shape else []
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            hooks *= (row - j) + (conjugate[j] - i) - 1
    return factorial(n) // hooks


def elementary_symmetric(values, r: int) -> int:
    """e_r by direct sum over r-subsets."""
    return sum(prod(c) for c in combinations(values, r))


def power_in_monomial(lam, n_vars: int):
    """Expansion of the power-sum product p_lam over monomial types.

    Returns a dict mapping each exponent partition mu to the coefficient of
    the monomial basis element m_mu, computed by counting assignments of the
    parts of lam onto a fixed exponent vector of type mu.
    """
    lam = tuple(lam)

    def assignments(target: tuple[int, ...]) -> int:
        # count ways to send each part of lam to a variable slot so the
        # exponents add up exactly to the target vector
        def go(index: int, remaining: tuple[int, ...]) -> int:
            if index == len(lam):
                return 1 if not any(remaining) else 0
            total = 0
            part = lam[index]
            for slot in range(len(remaining)):
                if remaining[slot] >= part:
                    nxt = list(remaining)
                    nxt[slot] -= part
                    total += go(index + 1, tuple(nxt))
            return total

        return go(0, target)

    weight = sum(lam)
    out = {}
    for mu in _partitions_of(weight):
        if len(mu) > n_vars:
            continue
        target = tuple(mu) + (0,) * (n_vars - len(mu))
        ways = assignments(target)
        if ways:
            out[mu] = ways
    return out


def _partitions_of(n: int, largest: int | None = None):
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for first in range(min(largest, n), 0, -1):
        for rest in _partitions_of(n - first, first):
            yield (first,) + rest


def monomial_in_power(n: int) -> dict[tuple[int, ...], dict[tuple[int, ...], Fraction]]:
    """Invert the p-to-m change of basis with exact rationals.

    Returns, for each lam, the coefficients c_mu with m_lam = sum c_mu p_mu.
    """
    shapes = list(_partitions_of(n))
    matrix = [
        [Fraction(power_in_monomial(lam, n).get(mu, 0)) for mu in shapes]
        for lam in shapes
    ]
    size = len(shapes)
    inverse = [[Fraction(1 if i == j else 0) for j in range(size)] for i in range(size)]
    work = [row[:] for row in matrix]
    for col in range(size):
        pivot = next(r for r in range(col, size) if work[r][col])
        work[col], work[pivot] = work[pivot], work[col]
        inverse[col], inverse[pivot] = inverse[pivot], inverse[col]
        scale = work[col][col]
        work[col] = [x / scale for x in work[col]]
        inverse[col] = [x / scale for x in inverse[col]]
        for r in range(size):
            if r != col and work[r][col]:
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
                inverse[r] = [a - factor * b for a, b in zip(inverse[r], inverse[col])]
    return {
        lam: {mu: inverse[j][i] for i, mu in enumerate(shapes) if inverse[j][i]}
        for j, lam in enumerate(shapes)
    }
