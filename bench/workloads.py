"""Inputs and timed passes of the benchmark's four workloads.

Inputs come from the seed alone and are built without lapshift's own
generators: trees by adding leaves and deduplicating on AHU codes, rooted
trees likewise, dense graphs by rejection sampling.  Each seed draws a
different sample, but every sample is stratified or windowed on a work
measure (orientations walked; leaves and nodes of the permutation walk), so
every seed asks for nearly the same amount of work.

A pass calls lapshift's public functions (or, for verify-suite, the CLI's
`main`) and returns its timings and its raw outputs; `check` then compares
those outputs with `checks.py`.  Nothing is checked inside a timed region.
"""

from __future__ import annotations

import io
import random
from collections import deque
from contextlib import redirect_stdout
from math import prod
from time import perf_counter

import checks
from lapshift import cli, families, orientations, posets, shifts, symfunc, verify
from lapshift import (
    BASES,
    FamilySpec,
    Graph,
    basis_binomial,
    build_poset,
    census_transform,
    enumerate_partitions,
    family_members,
    immanantal_polynomial,
    inverse_frobenius,
    laplacian,
    spectral_radius,
    subset_orientation_census,
    wiener_index,
)

TREE_N = 8
TREE_SAMPLE = 14  # random trees besides the star and the path
TREE_CYCLES = (4, 6)  # even cycles of the unicyclic families; every member is taken

DENSE_BASES = ("s", "p")
DENSE_BIPARTITE = 2  # 4+4 vertices, 12 edges, both routes
DENSE_BIPARTITE_EDGES = 12
DENSE_BIPARTITE_WINDOW = (55_000, 60_000)  # orientations walked, prod(1 + degree)
DENSE_GENERAL = 3  # 9 vertices with odd cycles, matrix route only
DENSE_GENERAL_EDGES = 28
DENSE_GENERAL_LEAVES = (42_000, 44_000)  # permutations supported on L
DENSE_GENERAL_NODES = (140_000, 160_000)  # prefixes the walk visits

# All trees on 10 and 11 vertices, and anchored unicyclic families whose glued
# tree has 9 vertices (GLUED_TREE_CAP), one with an odd and one with an even cycle.
POSET_SPECS = (
    ("trees", 10, None),
    ("trees", 11, None),
    ("unicyclic", 11, 3),
    ("unicyclic", 12, 4),
)


# ---------------------------------------------------------------------------
# input generation


def _grow(start_edges, size: int, code):
    """All graphs grown from start_edges by adding leaves, one per code."""
    level = {code(len(start_edges) + 1, start_edges): list(start_edges)}
    for m in range(len(start_edges) + 2, size + 1):
        nxt = {}
        for edges in level.values():
            for v in range(1, m):
                grown = edges + [(v, m)]
                nxt.setdefault(code(m, grown), grown)
        level = nxt
    return [level[key] for key in sorted(level)]


def free_trees(n: int):
    return _grow([(1, 2)], n, checks.graph_code)


def rooted_trees(t: int):
    """Rooted trees on t vertices with root 1, as edge lists."""
    if t == 1:
        return [[]]
    return _grow(
        [(1, 2)], t, lambda m, edges: checks.rooted_code(checks.adjacency(m, edges), 1)
    )


def glue(cycle_len: int, rooted_edges, t: int):
    """The k-cycle 1..k with a rooted tree on t vertices hung from vertex 1."""
    k = cycle_len
    label = {1: 1, **{j: k + j - 1 for j in range(2, t + 1)}}
    edges = [(i, i + 1) for i in range(1, k)] + [(1, k)]
    edges += [(label[u], label[v]) for u, v in rooted_edges]
    return edges


def relabel(rng: random.Random, n: int, edges):
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return sorted((min(perm[u - 1], perm[v - 1]), max(perm[u - 1], perm[v - 1])) for u, v in edges)


def orientation_count(n: int, edges) -> int:
    """Orientations a census walks, summed over all domain sizes: prod(1 + degree)."""
    return prod(1 + len(a) for a in checks.adjacency(n, edges)[1:])


def permutation_walk(n: int, edges) -> tuple[int, int]:
    """(leaves, nodes) of the matrix route's walk over permutations sigma with
    sigma(i) = i or i ~ sigma(i), assigned in vertex order: the supported
    permutations, and every prefix of one that the walk visits."""
    adj = checks.adjacency(n, edges)
    allowed = [(1 << (i - 1)) | sum(1 << (j - 1) for j in adj[i]) for i in range(1, n + 1)]
    ways = {0: 1}
    nodes = 1
    for i in range(n):
        nxt: dict[int, int] = {}
        for mask, count in ways.items():
            free = allowed[i] & ~mask
            while free:
                bit = free & -free
                nxt[mask | bit] = nxt.get(mask | bit, 0) + count
                free ^= bit
        ways = nxt
        nodes += sum(ways.values())
    return sum(ways.values()), nodes


def _colouring(n: int, edges):
    """(connected, bipartite) by breadth-first search."""
    adj = checks.adjacency(n, edges)
    colour = {1: 0}
    queue = deque([1])
    bipartite = True
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in colour:
                colour[w] = 1 - colour[v]
                queue.append(w)
            elif colour[w] == colour[v]:
                bipartite = False
    return len(colour) == n, bipartite


def _stratified(rng: random.Random, items, key, k: int):
    """One random item from each of k consecutive strata of items sorted by key."""
    ordered = sorted(items, key=key)
    bounds = [round(i * len(ordered) / k) for i in range(k + 1)]
    return [rng.choice(ordered[bounds[i] : bounds[i + 1]]) for i in range(k)]


def _item(name, family, n, edges, bipartite):
    return {
        "name": name,
        "family": family,
        "n": n,
        "edges": edges,
        "bipartite": bipartite,
        "graph": Graph(n, edges),
    }


def tree_inputs(seed: int):
    """Random trees, the star and the path, and every member of the
    even-cycle anchored unicyclic families, all on TREE_N vertices."""
    rng = random.Random(seed)
    n = TREE_N
    star = [(1, v) for v in range(2, n + 1)]
    path = [(v, v + 1) for v in range(1, n)]
    extremes = {checks.graph_code(n, star), checks.graph_code(n, path)}
    pool = [t for t in free_trees(n) if checks.graph_code(n, t) not in extremes]
    key = lambda edges: (orientation_count(n, edges), checks.graph_code(n, edges))
    items = [
        _item(f"tree-{i}", "tree", n, relabel(rng, n, edges), True)
        for i, edges in enumerate(_stratified(rng, pool, key, TREE_SAMPLE))
    ]
    items.append(_item("tree-star", "tree", n, relabel(rng, n, star), True))
    items.append(_item("tree-path", "tree", n, relabel(rng, n, path), True))
    extremes_of = {"tree": ("tree-star", "tree-path")}
    for k in TREE_CYCLES:
        t = n - k + 1
        family = f"cycle-{k}"
        ends = {
            checks.graph_code(n, glue(k, [(1, v) for v in range(2, t + 1)], t)): "star",
            checks.graph_code(n, glue(k, [(v, v + 1) for v in range(1, t)], t)): "path",
        }
        for i, rooted in enumerate(rooted_trees(t)):
            edges = glue(k, rooted, t)
            name = f"{family}-{ends.get(checks.graph_code(n, edges), i)}"
            items.append(_item(name, family, n, relabel(rng, n, edges), True))
        extremes_of[family] = (f"{family}-star", f"{family}-path")
    rng.shuffle(items)
    return {"items": items, "bases": BASES, "table_sizes": (n,), "extremes": extremes_of}


def _within(walk) -> bool:
    leaves, nodes = walk
    lo, hi = DENSE_GENERAL_LEAVES
    low, high = DENSE_GENERAL_NODES
    return lo <= leaves <= hi and low <= nodes <= high


def dense_inputs(seed: int):
    """Connected bipartite graphs on 4+4 vertices and connected graphs with
    odd cycles on 9 vertices, each inside a fixed work window."""
    rng = random.Random(seed)
    items = []
    cross = [(u, v) for u in range(1, 5) for v in range(5, 9)]
    lo, hi = DENSE_BIPARTITE_WINDOW
    while len(items) < DENSE_BIPARTITE:
        edges = sorted(rng.sample(cross, DENSE_BIPARTITE_EDGES))
        if _colouring(8, edges)[0] and lo <= orientation_count(8, edges) <= hi:
            items.append(_item(f"bipartite-{len(items)}", None, 8, relabel(rng, 8, edges), True))
    pairs = [(u, v) for u in range(1, 10) for v in range(u + 1, 10)]
    general = 0
    while general < DENSE_GENERAL:
        edges = sorted(rng.sample(pairs, DENSE_GENERAL_EDGES))
        connected, bipartite = _colouring(9, edges)
        if connected and not bipartite and _within(permutation_walk(9, edges)):
            items.append(_item(f"general-{general}", None, 9, edges, False))
            general += 1
    rng.shuffle(items)
    return {"items": items, "bases": DENSE_BASES, "table_sizes": (8, 9), "extremes": None}


def poset_inputs(seed: int):
    """The families are fixed; the seed relabels and shuffles their members."""
    return {"rng": random.Random(seed), "specs": POSET_SPECS}


def verify_inputs(seed: int):
    """The default suite has no inputs; the seed is unused."""
    return {}


# ---------------------------------------------------------------------------
# timed passes


def _tables(bases, sizes, census_sizes):
    for n in sizes:
        shapes = enumerate_partitions(n)
        for basis in bases:
            for lam in shapes:
                inverse_frobenius(basis, lam)
                if n in census_sizes:
                    for mu in shapes:
                        basis_binomial(basis, lam, mu)


def poly_pass(inputs, tracer):
    """Class-function tables for every basis and shape, then the polynomials
    of every graph in every basis and shape, by the matrix route and, on
    bipartite graphs, by the census route for every r."""
    bases = inputs["bases"]
    census_sizes = {item["n"] for item in inputs["items"] if item["bipartite"]}
    raw, graph_s = [], []
    start = perf_counter()
    with tracer.span("symfunc.tables"):
        _tables(bases, inputs["table_sizes"], census_sizes)
    with tracer.wrap([(orientations, "is_bipartite", "graphs.bipartite")]):
        for item in inputs["items"]:
            began = perf_counter()
            raw.append(_one_graph(item, bases, tracer))
            graph_s.append(perf_counter() - began)
    wall_s = perf_counter() - start
    records = [_poly_record(item, out) for item, out in zip(inputs["items"], raw)]
    walked = sum(sum(sum(c.values()) for c in rec["census"]) for rec in records if rec["census"])
    return {
        "wall_s": wall_s,
        "graph_s": graph_s,
        "attempted": len(inputs["items"]),
        "records": records,
        "counts": {"orientations.count": walked},
    }


def _one_graph(item, bases, tracer):
    g, n = item["graph"], item["n"]
    shapes = enumerate_partitions(n)
    matrix = laplacian(g)
    with tracer.span("immanants.poly"):
        direct = {
            (basis, lam): immanantal_polynomial(matrix, inverse_frobenius(basis, lam))
            for basis in bases
            for lam in shapes
        }
    census = via = None
    if item["bipartite"]:
        with tracer.span("orientations.census"):
            census = [subset_orientation_census(g, r) for r in range(n + 1)]
        with tracer.span("orientations.transform"):
            via = {
                (basis, lam): [census_transform(g, census[r], lam, basis) for r in range(n + 1)]
                for basis in bases
                for lam in shapes
            }
    return direct, census, via


def _poly_record(item, out):
    direct, census, via = out
    record = {k: item[k] for k in ("name", "family", "n", "edges", "bipartite")}
    record["matrix"] = {(b, lam.parts): tuple(p.coefficients) for (b, lam), p in direct.items()}
    record["census"] = (
        [{mu.parts: count for mu, count in c.items()} for c in census] if census else None
    )
    record["via"] = {(b, lam.parts): tuple(row) for (b, lam), row in via.items()} if via else None
    return record


# calls that posets and families make into other layers
POSET_BOUNDARIES = (
    (posets, "canonical_form", "canon.forms"),
    (posets, "enumerate_shifts", "shifts.enumerate"),
    (posets, "apply_shift", "shifts.enumerate"),
    (shifts, "canonical_form", "canon.forms"),
    (families, "canonical_form", "canon.forms"),
)


def poset_pass(inputs, tracer):
    """Shift posets of every family, then the spectral radius and the Wiener
    index of every node, so of both ends of every cover."""
    rng = inputs["rng"]
    raw, graph_s = [], []
    wall_s = 0.0
    with tracer.wrap(POSET_BOUNDARIES):
        for kind, n, k in inputs["specs"]:
            began = perf_counter()
            with tracer.span("families.generate"):
                members = family_members(FamilySpec(kind, n, k))
            generated = perf_counter() - began
            # relabelling and shuffling prepare the input and are not timed
            relabeled = [Graph(n, relabel(rng, n, g.edges())) for g in members]
            rng.shuffle(relabeled)
            began = perf_counter()
            with tracer.span("posets.build"):
                h = build_poset(relabeled)
            radius, wiener = [], []
            with tracer.span("graphs.invariants"):
                for g in h.nodes:
                    node_began = perf_counter()
                    radius.append(spectral_radius(g))
                    wiener.append(wiener_index(g))
                    graph_s.append(perf_counter() - node_began)
            wall_s += generated + perf_counter() - began
            raw.append((kind, n, k, h, radius, wiener))
    records = [
        {
            "kind": kind,
            "n": n,
            "cycle_len": k,
            "nodes": [list(g.edges()) for g in h.nodes],
            "covers": list(h.covers),
            "witnesses": {
                c: (m.recipient, m.donor, tuple(m.path)) for c, m in h.witnesses.items()
            },
            "radius": radius,
            "wiener": wiener,
        }
        for kind, n, k, h, radius, wiener in raw
    ]
    return {
        "wall_s": wall_s,
        "graph_s": graph_s,
        "attempted": len(inputs["specs"]),
        "records": records,
        "counts": {"posets.covers": sum(len(r["covers"]) for r in records)},
    }


def _walked(census):
    return "orientations.count", sum(census.values())


def _covers(diagram):
    return "posets.covers", len(diagram.covers)


# calls that the verify checks make into the other layers; classify_type and
# the orientation generator are left unwrapped, as they run per orientation
VERIFY_BOUNDARIES = (
    (verify, "inverse_frobenius", "symfunc.tables"),
    (verify, "basis_binomial", "symfunc.tables"),
    (verify, "character_binomial", "symfunc.tables"),
    (verify, "_kostka_matrix", "symfunc.tables"),
    (verify, "_kostka_inverse", "symfunc.tables"),
    (symfunc, "inverse_frobenius", "symfunc.tables"),
    (verify, "subset_orientation_census", "orientations.census", _walked),
    (verify, "orientation_census", "orientations.census", _walked),
    (verify, "census_transform", "orientations.transform"),
    (orientations, "is_bipartite", "graphs.bipartite"),
    (verify, "transport_orientation", "orientations.transport"),
    (verify, "immanantal_polynomial", "immanants.poly"),
    (verify, "determinant_exact", "immanants.poly"),
    (verify, "permanent_exact", "immanants.poly"),
    (verify, "normalized_immanant", "immanants.poly"),
    (verify, "family_members", "families.generate"),
    (verify, "free_trees", "families.generate"),
    (verify, "connected_bipartite_graphs", "families.generate"),
    (verify, "build_poset", "posets.build", _covers),
    (verify, "apply_shift", "shifts.enumerate"),
    (verify, "canonical_form", "canon.forms"),
    (verify, "spectral_radius", "graphs.invariants"),
    (verify, "wiener_index", "graphs.invariants"),
) + POSET_BOUNDARIES


def verify_pass(inputs, tracer):
    """lapshift's CLI main in this process, on the suite's command line or on
    the one the run passed in (one check alone, or the injected fault)."""
    args = inputs.get("args", checks.VERIFY_ARGS)
    out = io.StringIO()
    with tracer.wrap(VERIFY_BOUNDARIES), redirect_stdout(out):
        began = perf_counter()
        code = cli.main(list(args))
        wall_s = perf_counter() - began
    stdout = out.getvalue()
    return {
        "wall_s": wall_s,
        "graph_s": [],
        "attempted": 1 if "--only" in args else len(checks.VERIFY_CHECK_IDS),
        "records": {"args": list(args), "code": code, "stdout": stdout},
        "counts": {},
    }


WORKLOADS = {
    "verify-suite": (verify_inputs, verify_pass),
    "tree-polys": (tree_inputs, poly_pass),
    "dense-polys": (dense_inputs, poly_pass),
    "shift-posets": (poset_inputs, poset_pass),
}


def check(workload: str, inputs, result) -> list[str]:
    records = result["records"]
    if workload == "verify-suite":
        args = tuple(records["args"])
        if args == checks.VERIFY_ARGS:
            return checks.check_verify_output(records["code"], records["stdout"])
        if args == checks.FAULT_ARGS:
            return checks.check_fault_output(records["code"], records["stdout"])
        return checks.check_single_check_output(args[-1], records["code"], records["stdout"])
    if workload == "shift-posets":
        return checks.check_poset_pass(records)
    return checks.check_poly_pass(records, inputs["bases"], inputs["extremes"])
