"""Correctness checks for the benchmark's outputs, computed apart from lapshift.

Nothing here imports the package.  Each checker takes the data one workload
pass produced and returns a list of error strings; an empty list means the
output passed.  The reference values come from this file's own arithmetic:
Faddeev-LeVerrier characteristic polynomials, hook lengths, elementary
symmetric sums, Otter's tree counts, AHU tree encodings, Floyd-Warshall
distances and numpy eigenvalues.
"""

from __future__ import annotations

import re
from functools import cache
from math import factorial, prod

import numpy as np

MONOTONE_BASES = ("s", "e", "h", "p")

VERIFY_CHECK_IDS = (
    "alpha-nonnegative",
    "census-coefficients",
    "census-immanant",
    "census-monotonicity",
    "character-orthogonality",
    "coefficient-monotonicity",
    "coefficient-nonnegative",
    "kostka-inverse",
    "monomial-even-types",
    "monomial-table",
    "normalized-sandwich",
    "poset-extremes",
    "spectral-wiener",
    "star-path-bounds",
    "transport-injectivity",
)

# The suite on a smaller configuration than the default: every check runs, in
# about 3 s instead of 40-55 s, so that a run holds several passes; on one
# thread, as the default two threads only contend for the interpreter lock
VERIFY_ARGS = ("verify", "--max-n", "6", "--families", "7:4,7:6", "--jobs", "1")

# the suite must be able to fail: this run corrupts one Laplacian entry
FAULT_ARGS = ("verify", "--only", "census-immanant", "--inject-fault")

MAX_ERRORS = 5


def _limited(errors: list[str]) -> list[str]:
    if len(errors) > MAX_ERRORS:
        return errors[:MAX_ERRORS] + [f"... and {len(errors) - MAX_ERRORS} more"]
    return errors


# ---------------------------------------------------------------------------
# arithmetic references


def adjacency(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n + 1)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def laplacian_rows(n: int, edges) -> list[list[int]]:
    adj = adjacency(n, edges)
    return [
        [len(adj[i]) if i == j else (-1 if j in adj[i] else 0) for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]


def characteristic_polynomial(matrix) -> list[int]:
    """Coefficients of det(xI - A), constant term first (Faddeev-LeVerrier)."""
    n = len(matrix)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    current = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        # M_k = A M_{k-1} + c_{n-k+1} I, then c_{n-k} = -tr(A M_k) / k
        product = [
            [sum(matrix[i][t] * current[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        for i in range(n):
            product[i][i] += coeffs[n - k + 1]
        current = product
        trace = sum(matrix[i][t] * current[t][i] for i in range(n) for t in range(n))
        if trace % k:
            raise ArithmeticError("Faddeev-LeVerrier division was not exact")
        coeffs[n - k] = -trace // k
    return coeffs


def alternating_row(matrix) -> tuple[int, ...]:
    """The immanantal coefficients b_0..b_n of the determinant of xI - A."""
    c = characteristic_polynomial(matrix)
    n = len(matrix)
    return tuple((-1) ** r * c[n - r] for r in range(n + 1))


def elementary_symmetric(values, r: int) -> int:
    acc = [1] + [0] * r
    for x in values:
        for j in range(r, 0, -1):
            acc[j] += x * acc[j - 1]
    return acc[r]


def hook_dimension(parts) -> int:
    """Number of standard Young tableaux of the shape."""
    parts = tuple(parts)
    n = sum(parts)
    conj = [sum(1 for p in parts if p > i) for i in range(parts[0])] if parts else []
    hooks = prod(
        (row - j) + (conj[j] - i) - 1 for i, row in enumerate(parts) for j in range(row)
    )
    return factorial(n) // hooks


def identity_value(basis: str, parts) -> int:
    """Value at the identity of the class function whose characteristic is the basis element.

    It is the coefficient of x1 x2 ... xn in the symmetric function: f^lambda
    for s, the multinomial n!/prod(lambda_i!) for h and e, n! or 0 for p, and
    1 or 0 for m.
    """
    parts = tuple(parts)
    n = sum(parts)
    ones = all(p == 1 for p in parts)
    if basis == "s":
        return hook_dimension(parts)
    if basis in ("h", "e"):
        return factorial(n) // prod(factorial(p) for p in parts)
    if basis == "p":
        return factorial(n) if ones else 0
    if basis == "m":
        return 1 if ones else 0
    raise ValueError(f"unknown basis {basis!r}")


@cache
def rooted_tree_count(n: int) -> int:
    """Unlabelled rooted trees on n vertices (OEIS A000081)."""
    if n <= 1:
        return n
    total = 0
    for k in range(1, n):
        inner = sum(d * rooted_tree_count(d) for d in range(1, k + 1) if k % d == 0)
        total += inner * rooted_tree_count(n - k)
    return total // (n - 1)


def free_tree_count(n: int) -> int:
    """Unlabelled free trees on n vertices, by Otter's dissimilarity formula."""
    r = [rooted_tree_count(i) for i in range(n + 1)]
    total = r[n] - sum(r[i] * r[n - i] for i in range(1, n // 2 + 1) if i != n - i)
    if n % 2 == 0:
        half = r[n // 2]
        total -= half * (half + 1) // 2 - half
    return total


# ---------------------------------------------------------------------------
# isomorphism invariants written from scratch


def rooted_code(adj, root: int, blocked: frozenset[int] = frozenset()) -> str:
    def encode(v: int, parent: int) -> str:
        kids = sorted(encode(w, v) for w in adj[v] if w != parent and w not in blocked)
        return "(" + "".join(kids) + ")"

    return encode(root, 0)


def _tree_centres(adj, n: int) -> list[int]:
    degree = {v: len(adj[v]) for v in range(1, n + 1)}
    remaining = set(degree)
    layer = [v for v in remaining if degree[v] <= 1]
    while len(remaining) > 2:
        nxt = []
        for v in layer:
            remaining.discard(v)
            for w in adj[v]:
                if w in remaining:
                    degree[w] -= 1
                    if degree[w] == 1:
                        nxt.append(w)
        layer = nxt
    return sorted(remaining)


def _cycle(adj, n: int) -> list[int]:
    """The unique cycle of a connected unicyclic graph, in cyclic order."""
    degree = {v: len(adj[v]) for v in range(1, n + 1)}
    alive = set(degree)
    layer = [v for v in alive if degree[v] == 1]
    while layer:
        nxt = []
        for v in layer:
            alive.discard(v)
            for w in adj[v]:
                if w in alive:
                    degree[w] -= 1
                    if degree[w] == 1:
                        nxt.append(w)
        layer = nxt
    start = min(alive)
    order, prev = [start], 0
    while True:
        cur = order[-1]
        nxt = min(w for w in adj[cur] if w in alive and w != prev)
        if nxt == start:
            return order
        order.append(nxt)
        prev = cur


def graph_code(n: int, edges) -> str:
    """Equal strings exactly for isomorphic trees or unicyclic graphs."""
    adj = adjacency(n, edges)
    m = len(edges)
    if m == n - 1:
        return "T" + min(rooted_code(adj, c) for c in _tree_centres(adj, n))
    if m == n:
        cycle = _cycle(adj, n)
        on_cycle = frozenset(cycle)
        hanging = [rooted_code(adj, v, on_cycle - {v}) for v in cycle]
        k = len(hanging)
        turns = [hanging[i:] + hanging[:i] for i in range(k)]
        turns += [list(reversed(t)) for t in turns]
        return "U" + min("|".join(t) for t in turns)
    raise ValueError("graph_code handles trees and unicyclic graphs only")


def apply_witness(n: int, edges, recipient: int, donor: int, path) -> list[tuple[int, int]]:
    """Move the donor's neighbours off the path over to the recipient."""
    adj = adjacency(n, edges)
    before = path[-2]
    moved = [w for w in adj[donor] if w != before]
    out = {(min(u, v), max(u, v)) for u, v in edges}
    for w in moved:
        out.discard((min(donor, w), max(donor, w)))
        out.add((min(recipient, w), max(recipient, w)))
    return sorted(out)


def wiener_floyd_warshall(n: int, edges) -> int:
    inf = n + 1
    dist = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    for u, v in edges:
        dist[u - 1][v - 1] = dist[v - 1][u - 1] = 1
    for t in range(n):
        row_t = dist[t]
        for i in range(n):
            row_i = dist[i]
            through = row_i[t]
            if through == inf:
                continue
            for j in range(n):
                if through + row_t[j] < row_i[j]:
                    row_i[j] = through + row_t[j]
    return sum(dist[i][j] for i in range(n) for j in range(i + 1, n))


def numpy_spectral_radius(n: int, edges) -> float:
    a = np.zeros((n, n))
    for u, v in edges:
        a[u - 1, v - 1] = a[v - 1, u - 1] = 1.0
    return float(np.linalg.eigvalsh(a)[-1])


# ---------------------------------------------------------------------------
# polynomial workloads


def check_polys(record, bases) -> list[str]:
    """Check one graph's polynomials.

    record keys: name, n, edges, bipartite, matrix {(basis, parts): row},
    census [ {parts: count} per r ] or None, via {(basis, parts): row} or
    None.  The census route is compared wherever it was computed.
    """
    errors = []
    name, n, edges = record["name"], record["n"], record["edges"]
    m = len(edges)
    matrix, census, via = record["matrix"], record["census"], record["via"]
    expected_keys = {(b, parts) for b in bases for parts in partitions_of(n)}
    if set(matrix) != expected_keys:
        errors.append(f"{name}: matrix route covered {len(matrix)} of {len(expected_keys)} rows")
        return errors
    det_row = alternating_row(laplacian_rows(n, edges))
    sign = (1,) * n
    if ("s", sign) in matrix and tuple(matrix["s", sign]) != det_row:
        errors.append(f"{name}: s,1^n row {tuple(matrix['s', sign])} != det(xI-L) {det_row}")
    for (basis, parts), row in matrix.items():
        if len(row) != n + 1:
            errors.append(f"{name}: {basis} {parts} row has {len(row)} coefficients")
            continue
        f1 = identity_value(basis, parts)
        if row[0] != f1 or row[1] != f1 * 2 * m:
            errors.append(f"{name}: {basis} {parts} b0,b1 = {row[0]},{row[1]}, want {f1},{2 * m * f1}")
        if basis in MONOTONE_BASES and (basis != "p" or record["bipartite"]):
            if any(b < 0 for b in row):
                errors.append(f"{name}: {basis} {parts} has a negative coefficient {row}")
    if census is not None:
        degrees = [len(a) for a in adjacency(n, edges)[1:]]
        if len(census) != n + 1:
            errors.append(f"{name}: census has {len(census)} sizes, want {n + 1}")
        else:
            for r, counts in enumerate(census):
                total = sum(counts.values())
                want = elementary_symmetric(degrees, r)
                if total != want:
                    errors.append(f"{name}: size-{r} census total {total} != e_{r}(degrees) {want}")
                if any(sum(mu) != n for mu in counts):
                    errors.append(f"{name}: size-{r} census has a type not of weight {n}")
        if via is None or set(via) != expected_keys:
            errors.append(f"{name}: census route rows missing")
        else:
            for key, row in via.items():
                if tuple(row) != tuple(matrix[key]):
                    errors.append(f"{name}: routes disagree on {key}: {tuple(matrix[key])} vs {tuple(row)}")
    return errors


def check_extremes(records, families) -> list[str]:
    """Each member's coefficients lie between its star form's and its path form's.

    families maps a family key to (star record name, path record name); the
    star form gives the lower and the path form the upper bound, coefficient
    by coefficient, for the bases s, e, h and p.  Records of no family are
    skipped.
    """
    errors = []
    by_name = {rec["name"]: rec for rec in records}
    for rec in records:
        if rec["family"] is None:
            continue
        star_name, path_name = families[rec["family"]]
        low, high = by_name[star_name]["matrix"], by_name[path_name]["matrix"]
        for (basis, parts), row in rec["matrix"].items():
            if basis not in MONOTONE_BASES:
                continue
            lo, hi = low[basis, parts], high[basis, parts]
            for r, b in enumerate(row):
                if not lo[r] <= b <= hi[r]:
                    errors.append(
                        f"{rec['name']}: {basis} {parts} b{r}={b} outside [{lo[r]}, {hi[r]}]"
                    )
                    break
    return errors


@cache
def partitions_of(n: int, largest: int | None = None) -> tuple[tuple[int, ...], ...]:
    if largest is None:
        largest = n
    if n == 0:
        return ((),)
    out = []
    for first in range(min(largest, n), 0, -1):
        out.extend((first,) + rest for rest in partitions_of(n - first, first))
    return tuple(out)


def check_poly_pass(records, bases, families=None) -> list[str]:
    errors = []
    for rec in records:
        errors.extend(check_polys(rec, bases))
    if families is not None:
        errors.extend(check_extremes(records, families))
    return _limited(errors)


# ---------------------------------------------------------------------------
# shift posets


def _is_star(kind: str, n: int, cycle_len, edges) -> bool:
    degrees = sorted(len(a) for a in adjacency(n, edges)[1:])
    if kind == "trees":
        return degrees[-1] == n - 1
    return degrees[-1] == n - cycle_len + 2 and degrees.count(1) == n - cycle_len


def _is_path(kind: str, n: int, cycle_len, edges) -> bool:
    degrees = sorted(len(a) for a in adjacency(n, edges)[1:])
    if kind == "trees":
        return degrees[-1] <= 2
    return degrees.count(1) == 1 and degrees[-1] == 3


def check_poset(record) -> list[str]:
    """record keys: kind, n, cycle_len, nodes [edges], covers [(i, j)],
    witnesses {(i, j): (recipient, donor, path)}, radius [float], wiener [int]."""
    errors = []
    kind, n, k = record["kind"], record["n"], record["cycle_len"]
    label = f"{kind} n={n}" + (f" cycle {k}" if k else "")
    nodes, covers = record["nodes"], record["covers"]
    want = free_tree_count(n) if kind == "trees" else rooted_tree_count(n - k + 1)
    if len(nodes) != want:
        errors.append(f"{label}: {len(nodes)} nodes, want {want}")
    codes = [graph_code(n, edges) for edges in nodes]
    if len(set(codes)) != len(codes):
        errors.append(f"{label}: two nodes are isomorphic")
    size = len(nodes)
    up = [0] * size
    has_out, has_in = [False] * size, [False] * size
    for i, j in covers:
        if not (0 <= i < size and 0 <= j < size) or i == j:
            errors.append(f"{label}: cover {(i, j)} is out of range")
            return errors
        up[i] |= 1 << j
        has_out[i] = has_in[j] = True
    # reach[i]: every node reachable from i by one or more covers
    reach = [0] * size
    order = _topological_order(size, covers)
    if order is None:
        errors.append(f"{label}: covers contain a cycle")
        return errors
    for i in reversed(order):
        acc = up[i]
        bits = up[i]
        while bits:
            low = bits & -bits
            acc |= reach[low.bit_length() - 1]
            bits ^= low
        reach[i] = acc
    for i, j in covers:
        others = up[i] & ~(1 << j)
        bits = others
        while bits:
            low = bits & -bits
            if reach[low.bit_length() - 1] >> j & 1:
                errors.append(f"{label}: cover {(i, j)} is implied by a longer chain")
                break
            bits ^= low
    maximal = [i for i in range(size) if not has_out[i]]
    minimal = [i for i in range(size) if not has_in[i]]
    if len(maximal) != 1 or not _is_star(kind, n, k, nodes[maximal[0]]):
        errors.append(f"{label}: maximal nodes {maximal[:5]} are not the star form alone")
    if len(minimal) != 1 or not _is_path(kind, n, k, nodes[minimal[0]]):
        errors.append(f"{label}: minimal nodes {minimal[:5]} are not the path form alone")
    for (i, j), (recipient, donor, path) in record["witnesses"].items():
        shifted = apply_witness(n, nodes[i], recipient, donor, path)
        if graph_code(n, shifted) != codes[j]:
            errors.append(f"{label}: witness {recipient} {donor} {path} does not give cover {(i, j)}")
    if set(record["witnesses"]) != set(covers):
        errors.append(f"{label}: witnesses and covers differ")
    radius = [numpy_spectral_radius(n, edges) for edges in nodes]
    wiener = [wiener_floyd_warshall(n, edges) for edges in nodes]
    for i in range(size):
        if abs(record["radius"][i] - radius[i]) > 1e-6:
            errors.append(f"{label}: node {i} spectral radius {record['radius'][i]} != {radius[i]}")
        if record["wiener"][i] != wiener[i]:
            errors.append(f"{label}: node {i} Wiener index {record['wiener'][i]} != {wiener[i]}")
    for i, j in covers:
        if radius[j] < radius[i] - 1e-9:
            errors.append(f"{label}: spectral radius falls along cover {(i, j)}")
        if wiener[j] > wiener[i]:
            errors.append(f"{label}: Wiener index rises along cover {(i, j)}")
    return errors


def _topological_order(size: int, covers):
    succ = [[] for _ in range(size)]
    indegree = [0] * size
    for i, j in covers:
        succ[i].append(j)
        indegree[j] += 1
    order = [i for i in range(size) if indegree[i] == 0]
    for v in order:
        for w in succ[v]:
            indegree[w] -= 1
            if indegree[w] == 0:
                order.append(w)
    return order if len(order) == size else None


def check_poset_pass(records) -> list[str]:
    errors = []
    for rec in records:
        errors.extend(check_poset(rec))
    return _limited(errors)


# ---------------------------------------------------------------------------
# verify suite

_PASS_LINE = re.compile(r"^PASS ([a-z0-9-]+): ")


def check_verify_output(code: int, stdout: str) -> list[str]:
    """The default suite: exit 0, a PASS line for every known check, a summary."""
    errors = []
    if code != 0:
        errors.append(f"lapshift verify exited {code}")
    lines = stdout.splitlines()
    if not lines:
        return errors + ["lapshift verify printed nothing"]
    body, summary = lines[:-1], lines[-1]
    passed = []
    for line in body:
        match = _PASS_LINE.match(line)
        if match is None:
            errors.append(f"not a PASS line: {line[:120]}")
        else:
            passed.append(match.group(1))
    missing = sorted(set(VERIFY_CHECK_IDS) - set(passed))
    if missing:
        errors.append(f"no PASS line for {', '.join(missing)}")
    if summary != f"all {len(body)} checks passed":
        errors.append(f"unexpected summary line: {summary[:120]}")
    return _limited(errors)


def check_fault_output(code: int, stdout: str) -> list[str]:
    """`verify --only census-immanant --inject-fault` must fail with exit 1."""
    errors = []
    if code != 1:
        errors.append(f"the injected fault run exited {code}, want 1")
    if not stdout.startswith("FAIL census-immanant: "):
        errors.append(f"the injected fault run did not report a FAIL line: {stdout[:120]}")
    return errors


def check_single_check_output(check_id: str, code: int, stdout: str) -> list[str]:
    errors = []
    if code != 0:
        errors.append(f"verify --only {check_id} exited {code}")
    if not stdout.startswith(f"PASS {check_id}: "):
        errors.append(f"verify --only {check_id} did not pass: {stdout[:120]}")
    return errors
