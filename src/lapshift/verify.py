"""Self-verification suite: every structural claim as a runnable check.

Each check exercises one identity, bound, or structural fact on a small
exhaustive corpus: character orthogonality, binomial-transform tables, the
census/immanant equivalences, coefficient sandwiches, shift monotonicity,
orientation transport, poset extremes, and the spectral/Wiener inequalities.
Checks are independent and run one after another in the calling thread, in
check-id order, so output is reproducible byte for byte.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain
from math import factorial, prod, sqrt
from operator import gt

from .canon import canonical_form
from .characters import character_degree, character_table
from .errors import CapacityError, InvalidInputError
from .families import (
    FamilySpec,
    connected_bipartite_graphs,
    family_members,
    free_trees,
    path_form,
    star_form,
)
from .graphs import (
    Graph,
    laplacian,
    path_graph,
    spectral_radius,
    star_graph,
    wiener_index,
)
from .immanants import (
    determinant_exact,
    immanantal_polynomial,
    normalized_immanant,
    permanent_exact,
    polynomial_table,
)
from .orientations import (
    FULL_CENSUS_CAP,
    VertexOrientation,
    _cycle_lengths,
    _transport_arrow,
    _transport_arrows,
    _transport_plan,
    census_by_size,
    census_table,
    classify_type,
)

# unused here; bench/workloads.py traces them by these names
from .orientations import census_transform, orientation_census, subset_orientation_census
from .orientations import transport_orientation
from .partitions import Partition, enumerate_partitions, format_partition
from .posets import HasseDiagram, build_poset
from .shifts import apply_shift  # unused here; traced by name as above
from .symfunc import BASES, basis_binomial, character_binomial, inverse_frobenius
from .symfunc import _kostka_inverse, _kostka_matrix

MONOTONE_BASES = ("s", "e", "p", "h")

# spectral-wiener's slack on float radii, well above the eigensolver's error
SPECTRAL_TOL = 1e-8

DEFAULT_FAMILIES = (FamilySpec("unicyclic", 8, 4), FamilySpec("unicyclic", 9, 6))


@dataclass(frozen=True)
class SuiteConfig:
    """Knobs for the verification suite; the defaults run in a few seconds.

    bases picks the bases of coefficient-monotonicity, a nonempty subset of
    s, e, p and h (the m coefficients are not monotone).
    """

    max_n: int = 7
    families: tuple[FamilySpec, ...] = DEFAULT_FAMILIES
    bases: tuple[str, ...] = MONOTONE_BASES
    census_cap: int = FULL_CENSUS_CAP
    jobs: int = 1
    inject_fault: bool = False
    only: str | None = None

    def __post_init__(self):
        if self.max_n < 2:
            raise InvalidInputError("max_n must be at least 2")
        if self.jobs != 1:
            raise InvalidInputError(
                f"jobs must be 1, got {self.jobs}: the checks run in order in one thread"
            )
        if not self.bases:
            raise InvalidInputError("bases must name at least one of s, e, p, h")
        for b in self.bases:
            if b not in MONOTONE_BASES:
                raise InvalidInputError(f"basis {b!r} is not one of s, e, p, h")


def load_config_file(path) -> dict[str, str]:
    """Read key=value lines; blank lines and # comments are skipped."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidInputError(f"line {lineno}: expected key=value, got {raw.rstrip()!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _parse_families(text: str) -> tuple[FamilySpec, ...]:
    specs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            n, k = (int(p) for p in chunk.split(":"))
        except ValueError:
            raise InvalidInputError(f"family {chunk!r} is not of the form n:k") from None
        specs.append(FamilySpec("unicyclic", n, k))
    return tuple(specs)


def config_from_mapping(mapping: dict[str, str]) -> SuiteConfig:
    """Build a SuiteConfig from string key=value pairs (file or flags)."""
    kwargs = {}
    converters = {
        "max_n": int,
        "families": _parse_families,
        "bases": lambda s: tuple(b.strip() for b in s.split(",") if b.strip()),
        "census_cap": int,
        "jobs": int,
        "inject_fault": lambda s: s.lower() in ("1", "true", "yes"),
        "only": str,
    }
    for key, value in mapping.items():
        if key not in converters:
            raise InvalidInputError(f"unknown configuration key {key!r}")
        kwargs[key] = converters[key](value)
    return SuiteConfig(**kwargs)


@dataclass(frozen=True)
class CheckReport:
    check_id: str
    description: str
    expected: str
    actual: str
    passed: bool
    seconds: float
    repro: str


# ---------------------------------------------------------------------------
# the corpus, the posets, and per-graph censuses and coefficient tables, shared
# by the checks of one run_suite call and cleared when it ends


@cache
def _bipartite_corpus() -> tuple[Graph, ...]:
    return tuple(g for n in range(1, 7) for g in connected_bipartite_graphs(n))


@cache
def _poset(kind: str, n: int, cycle_len: int | None) -> HasseDiagram:
    return build_poset(family_members(FamilySpec(kind, n, cycle_len)))


@cache
def _censuses(g: Graph, cap: int) -> list[dict[Partition, int]]:
    return census_by_size(g, cap)


@cache
def _census_table(g: Graph, cap: int, basis: str) -> tuple[tuple[int, ...], ...]:
    """Row i: the census route's coefficients b_0..b_n of shape i."""
    return census_table(g, _censuses(g, cap), basis)


@cache
def _matrix_table(matrix, basis: str) -> tuple[tuple[int, ...], ...]:
    """Row i: the matrix route's coefficients b_0..b_n of shape i."""
    return polynomial_table(matrix, basis)


RUN_CACHES = (_bipartite_corpus, _poset, _censuses, _census_table, _matrix_table)


def _cover_instances(spec: FamilySpec):
    """(below, witness move, above) triples for every cover of the poset;
    above is the poset node that the move's result is isomorphic to."""
    h = _poset(spec.kind, spec.n, spec.cycle_len)
    for i, j in h.covers:
        yield h.nodes[i], h.witnesses[i, j], h.nodes[j]


def _monotone_posets(config: SuiteConfig):
    specs = list(config.families)
    specs.append(FamilySpec("trees", config.max_n))
    return specs


def _flip_low_bit(matrix):
    rows = [list(row) for row in matrix]
    rows[0][0] ^= 1
    return tuple(tuple(row) for row in rows)


# ---------------------------------------------------------------------------
# the checks; each returns (passed, description, expected, actual)

# exact binomial transform of the monomial basis at n = 4, rows and columns
# in largest-first partition order: (4), (3,1), (2,2), (2,1,1), (1,1,1,1);
# cross-checked against the census identity on the 4-path and the 4-star
MONOMIAL_TABLE_N4 = (
    (4, 0, 0, 0, 0),
    (-4, 3, 0, 0, 0),
    (-2, 0, 4, 0, 0),
    (4, -3, 0, 2, 0),
    (0, 2, 0, 0, 1),
)


def _check_character_orthogonality(config: SuiteConfig):
    for n in range(2, 9):
        table = character_table(n)
        table.check_orthogonality()
        total = sum(character_degree(lam) ** 2 for lam in enumerate_partitions(n))
        if total != factorial(n):
            return False, f"degree sum at n={n}", str(factorial(n)), str(total)
    return True, "orthogonality and squared-degree sums for n <= 8", "n! each", "n! each"


def _check_alpha_nonnegative(config: SuiteConfig):
    pairs = 0
    for n in range(1, config.max_n + 1):
        shapes = enumerate_partitions(n)
        for lam in shapes:
            for mu in shapes:
                value = character_binomial(lam, mu)
                if value < 0:
                    inst = f"alpha({format_partition(lam)}; {format_partition(mu)})"
                    return False, inst, ">= 0", str(value)
                pairs += 1
    return (
        True,
        f"character binomial transform on {pairs} shape pairs, n <= {config.max_n}",
        "all >= 0",
        "all >= 0",
    )


def _check_kostka_inverse(config: SuiteConfig):
    for n in range(1, config.max_n + 1):
        k = _kostka_matrix(n)
        kinv = _kostka_inverse(n)
        size = len(k)
        for i in range(size):
            for j in range(size):
                entry = sum(k[i][t] * kinv[t][j] for t in range(size))
                if entry != (1 if i == j else 0):
                    return False, f"(K * K^-1)[{i}][{j}] at n={n}", "identity", str(entry)
    return True, f"Kostka matrix times its inverse, n <= {config.max_n}", "identity", "identity"


def _check_monomial_table(config: SuiteConfig):
    shapes = enumerate_partitions(4)
    for i, lam in enumerate(shapes):
        for j, mu in enumerate(shapes):
            got = basis_binomial("m", lam, mu)
            want = MONOMIAL_TABLE_N4[i][j]
            if got != want:
                inst = f"monomial binomial ({format_partition(lam)}; {format_partition(mu)})"
                return False, inst, str(want), str(got)
    return True, "monomial-basis binomial table at n=4, 25 exact values", "golden", "golden"


def _check_monomial_even_types(config: SuiteConfig):
    for n in range(1, config.max_n + 1):
        for j in range(n // 2 + 1):
            mu = Partition([2] * j + [1] * (n - 2 * j))
            for lam in enumerate_partitions(n):
                value = basis_binomial("m", lam, mu)
                if value < 0 or value % (1 << j):
                    inst = (
                        f"monomial binomial ({format_partition(lam)}; {format_partition(mu)})"
                    )
                    return False, inst, f"non-negative multiple of {1 << j}", str(value)
    return (
        True,
        f"monomial binomials on doubled-pair types are multiples of 2^j, n <= {config.max_n}",
        "multiples",
        "multiples",
    )


def _check_census_immanant(config: SuiteConfig):
    graphs = 0
    for index, g in enumerate(_bipartite_corpus()):
        matrix = laplacian(g)
        if config.inject_fault and index == 0:
            matrix = _flip_low_bit(matrix)
        for basis in BASES:
            via_census = _census_table(g, config.census_cap, basis)
            direct = _matrix_table(matrix, basis)
            for lam, row, want in zip(enumerate_partitions(g.n), via_census, direct):
                if row[g.n] != want[g.n]:
                    inst = (
                        f"census vs matrix value, graph #{index} (n={g.n}), "
                        f"basis {basis}, shape {format_partition(lam)}"
                    )
                    return False, inst, str(want[g.n]), str(row[g.n])
        graphs += 1
    return (
        True,
        f"full-census values match matrix sums on {graphs} bipartite graphs, all bases",
        "equal",
        "equal",
    )


def _check_census_coefficients(config: SuiteConfig):
    checked = 0
    for index, g in enumerate(_bipartite_corpus()):
        matrix = laplacian(g)
        for basis in BASES:
            via_census = _census_table(g, config.census_cap, basis)
            direct = _matrix_table(matrix, basis)
            for lam, row, want in zip(enumerate_partitions(g.n), via_census, direct):
                for r in range(g.n + 1):
                    if row[r] != want[r]:
                        inst = (
                            f"coefficient r={r}, graph #{index} (n={g.n}), "
                            f"basis {basis}, shape {format_partition(lam)}"
                        )
                        return False, inst, str(want[r]), str(row[r])
                    checked += 1
    return (
        True,
        f"{checked} polynomial coefficients match size-r censuses on the bipartite corpus",
        "equal",
        "equal",
    )


def _check_coefficient_nonnegative(config: SuiteConfig):
    for index, g in enumerate(_bipartite_corpus()):
        matrix = laplacian(g)
        for basis in ("s", "e", "p", "h"):
            for lam, row in zip(enumerate_partitions(g.n), _matrix_table(matrix, basis)):
                for r, b in enumerate(row):
                    if b < 0:
                        inst = (
                            f"coefficient r={r}, graph #{index}, basis {basis}, "
                            f"shape {format_partition(lam)}"
                        )
                        return False, inst, ">= 0", str(b)
    return (
        True,
        "all Laplacian polynomial coefficients non-negative (bases s,e,p,h) on the corpus",
        ">= 0",
        ">= 0",
    )


def _check_normalized_sandwich(config: SuiteConfig):
    for index, g in enumerate(_bipartite_corpus()):
        matrix = laplacian(g)
        # shapes run from (n) to (1^n): the permanental and the sign rows
        rows = _matrix_table(matrix, "s")
        perm_row, sign_row = rows[0], rows[-1]
        low, high = determinant_exact(matrix), permanent_exact(matrix)
        for lam, row in zip(enumerate_partitions(g.n), rows):
            degree = character_degree(lam)
            for r in range(g.n + 1):
                middle = Fraction(row[r], degree)
                if not sign_row[r] <= middle <= perm_row[r]:
                    inst = f"normalized coefficient r={r}, graph #{index}, shape {format_partition(lam)}"
                    return False, inst, f"in [{sign_row[r]}, {perm_row[r]}]", str(middle)
            mid = normalized_immanant(matrix, lam)
            if not low <= mid <= high:
                inst = f"normalized full value, graph #{index}, shape {format_partition(lam)}"
                return False, inst, f"in [{low}, {high}]", str(mid)
    return (
        True,
        "determinant/permanent sandwiches on the bipartite corpus, exact rationals",
        "sandwiched",
        "sandwiched",
    )


def _check_census_monotonicity(config: SuiteConfig):
    covers, cap = 0, config.census_cap
    for spec in _monotone_posets(config):
        for below, move, above in _cover_instances(spec):
            lower, upper = _censuses(below, cap), _censuses(above, cap)
            for r in range(below.n + 1):
                for mu, count in upper[r].items():
                    if count > lower[r].get(mu, 0):
                        inst = (
                            f"census of type {format_partition(mu)} at r={r} on a "
                            f"{spec.kind} cover ({move.serialize()})"
                        )
                        return False, inst, f"<= {lower[r].get(mu, 0)}", str(count)
            covers += 1
    return (
        True,
        f"type censuses shrink along all {covers} shift covers (families and trees)",
        "monotone",
        "monotone",
    )


def _check_coefficient_monotonicity(config: SuiteConfig):
    bases = config.bases
    triples, cap = 0, config.census_cap
    for spec in _monotone_posets(config):
        h = _poset(spec.kind, spec.n, spec.cycle_len)
        shapes, width = enumerate_partitions(spec.n), spec.n + 1
        # a node's tables live from its first cover to its last
        last = {}
        for index, (i, j) in enumerate(h.covers):
            last[i] = last[j] = index
        tables: dict[int, list] = {}
        for index, (i, j) in enumerate(h.covers):
            for v in (i, j):
                if v not in tables:
                    g = h.nodes[v]
                    tables[v] = [
                        tuple(chain.from_iterable(census_table(g, _censuses(g, cap), b)))
                        for b in bases
                    ]
            low, high = tables[i], tables[j]
            if any(any(map(gt, up, down)) for up, down in zip(high, low)):
                # the first rise in the order shape, basis, r
                k, b, at = next(
                    (k, b, at)
                    for k in range(len(shapes))
                    for b in range(len(bases))
                    for at in range(k * width, (k + 1) * width)
                    if high[b][at] > low[b][at]
                )
                inst = (
                    f"coefficient r={at - k * width}, basis {bases[b]}, shape "
                    f"{format_partition(shapes[k])} on a {spec.kind} cover "
                    f"({h.witnesses[i, j].serialize()})"
                )
                return False, inst, f"<= {low[b][at]}", str(high[b][at])
            triples += len(shapes) * len(bases) * width
            for v in (i, j):
                if last[v] == index:
                    del tables[v]
    return (
        True,
        f"{triples} coefficient comparisons monotone along all shift covers",
        "monotone",
        "monotone",
    )


def _closed_cycle(target: list[int], s: int, t: int, limit: int) -> int:
    """Length of the cycle that the new arrow s -> t closes in a partial
    arrow map (target[v] is v's target, 0 where v has no arrow), or 0.

    s had no arrow before, so the walk from t comes back to s, stops at a
    vertex without an arrow, or runs into a cycle without s; at most limit
    arrows are followed.
    """
    length, v = 1, t
    while v != s:
        v = target[v]
        if not v or length == limit:
            return 0
        length += 1
    return length


def _arcs(g: Graph) -> set[tuple[int, int]]:
    """Both directions of every edge."""
    return {(a, b) for a, b in g.edges()} | {(b, a) for a, b in g.edges()}


def _transport_report(plan, below: Graph, move, arrow: dict[int, int], collided: bool):
    """(description, expected, actual) of the first of the four transport
    tests that one orientation of the upper graph fails: domain size, arrows
    on edges of the lower graph, cycle type, and (when the walk saw its image
    before) injectivity."""
    r = len(arrow)
    image = _transport_arrows(plan, arrow)
    lower_arcs = _arcs(below)
    if len(image) != r:
        return f"transported domain size at r={r} ({move.serialize()})", str(r), str(len(image))
    for s, t in image.items():
        if (s, t) not in lower_arcs:
            inst = f"transported arrow at r={r} ({move.serialize()})"
            return inst, "an edge of the lower graph", f"{s}->{t}"
    if sorted(_cycle_lengths(image)) != sorted(_cycle_lengths(arrow)):
        source = VertexOrientation.from_mapping(arrow)
        inst = f"transported type at r={r} ({move.serialize()}), arrows {source.arrows}"
        return (
            inst,
            format_partition(classify_type(plan.shifted, source)),
            format_partition(classify_type(below, VertexOrientation.from_mapping(image))),
        )
    if collided:
        inst = f"transport collision at r={r} ({move.serialize()})"
        return inst, "injective", f"duplicate {tuple(sorted(image.items()))}"
    raise RuntimeError(f"the transport walk flagged {arrow}, which passes every test")


def _transport_walk(plan, below: Graph, move):
    """Every orientation of the move's shifted graph through the transport
    map, depth first with shared prefixes: (orientations mapped, None) when
    each image keeps the domain size, lies on edges of the lower graph, has
    the source's cycle lengths and is new, else (None, failure report).

    The recipient comes first, since its arrow picks the regime; each later
    vertex is left without an arrow or points at a neighbour.  The arrow
    map is tabulated per regime from _transport_arrow, and the cycle each
    arrow closes is found as it is placed, in the source and in the image.
    Images of different sizes differ, so one set of images serves the cover.
    """
    above, u = plan.shifted, plan.recipient
    n = above.n
    order = [u] + [v for v in above.vertices() if v != u]
    lower_arcs = _arcs(below)
    # tables[reverse][depth]: the choices of order[depth], None for no arrow,
    # else (target, image source, image target, image on an edge of below)
    tables = []
    for reverse in (False, True):
        table = []
        for v in order:
            choices = [None] if v != u or not reverse else []
            for t in sorted(above.neighbors(v)):
                if v == u and (t in plan.moved) != reverse:
                    continue
                s2, t2 = _transport_arrow(plan, reverse, v, t)
                choices.append((t, s2, t2, (s2, t2) in lower_arcs))
            table.append(choices)
        tables.append(table)
    source, image = [0] * (n + 1), [0] * (n + 1)
    source_cycles, image_cycles = [], []
    images = set()

    def report(collided):
        arrow = {v: source[v] for v in above.vertices() if source[v]}
        return None, _transport_report(plan, below, move, arrow, collided)

    def descend(depth, table):
        if depth == n:
            if source_cycles != image_cycles and sorted(source_cycles) != sorted(image_cycles):
                return report(False)
            key = tuple(image)
            if key in images:
                return report(True)
            images.add(key)
            return None
        v = order[depth]
        for choice in table[depth]:
            if choice is None:
                failed = descend(depth + 1, table)
            else:
                t, s2, t2, on_edge = choice
                source[v] = t
                if image[s2] or not on_edge:
                    return report(False)
                image[s2] = t2
                a = _closed_cycle(source, v, t, n)
                b = _closed_cycle(image, s2, t2, n)
                if a:
                    source_cycles.append(a)
                if b:
                    image_cycles.append(b)
                failed = descend(depth + 1, table)
                if a:
                    source_cycles.pop()
                if b:
                    image_cycles.pop()
                source[v] = image[s2] = 0
            if failed:
                return failed
        return None

    for table in tables:
        failed = descend(0, table)
        if failed:
            return failed
    return len(images), None


def _check_transport_injectivity(config: SuiteConfig):
    # every orientation of each cover's upper graph through the transport's
    # arrow map: each image needs r arrows, all on edges of the lower graph,
    # the source's cycle lengths, and no repeat
    mapped = 0
    for spec in _monotone_posets(config):
        for below, move, _ in _cover_instances(spec):
            plan = _transport_plan(below, move)
            above = plan.shifted
            walk = prod(1 + above.degree(v) for v in above.vertices())
            if walk > config.census_cap:
                raise CapacityError(
                    f"transport walk of {walk} orientations on a {spec.kind} cover "
                    f"({move.serialize()}) exceeds the cap of {config.census_cap} "
                    f"(raise it with --census-cap)"
                )
            count, failure = _transport_walk(plan, below, move)
            if failure is not None:
                return (False, *failure)
            mapped += count
    return (
        True,
        f"orientation transport type-preserving and injective on {mapped} orientations",
        "injective",
        "injective",
    )


def _check_poset_extremes(config: SuiteConfig):
    for spec in config.families:
        h = _poset(spec.kind, spec.n, spec.cycle_len)
        maximal, minimal = h.maximal(), h.minimal()
        if spec == FamilySpec("unicyclic", 8, 4) and len(h.nodes) != 9:
            return False, "family size at n=8, cycle 4", "9", str(len(h.nodes))
        star = canonical_form(star_form(spec.n, spec.cycle_len))
        path = canonical_form(path_form(spec.n, spec.cycle_len))
        if len(maximal) != 1 or h.canon[maximal[0]] != star:
            inst = f"maximal elements of the ({spec.n}, cycle {spec.cycle_len}) family"
            return False, inst, "the glued star, uniquely", str(maximal)
        if len(minimal) != 1 or h.canon[minimal[0]] != path:
            inst = f"minimal elements of the ({spec.n}, cycle {spec.cycle_len}) family"
            return False, inst, "the glued path, uniquely", str(minimal)
    for n in sorted({6, config.max_n}):
        h = _poset("trees", n, None)
        maximal, minimal = h.maximal(), h.minimal()
        ok = (
            len(maximal) == 1
            and len(minimal) == 1
            and h.canon[maximal[0]] == canonical_form(star_graph(n))
            and h.canon[minimal[0]] == canonical_form(path_graph(n))
        )
        if not ok:
            inst = f"extremes of the tree poset at n={n}"
            return False, inst, "star max, path min, both unique", f"{maximal}/{minimal}"
    return (
        True,
        "every configured poset has the star form as unique max and path form as unique min",
        "unique extremes",
        "unique extremes",
    )


def _check_star_path_bounds(config: SuiteConfig):
    pinned_star = immanantal_polynomial(
        laplacian(star_graph(4)), inverse_frobenius("s", Partition([1, 1, 1, 1]))
    )
    pinned_path = immanantal_polynomial(
        laplacian(path_graph(4)), inverse_frobenius("s", Partition([1, 1, 1, 1]))
    )
    if pinned_star.coefficients != (1, 6, 9, 4, 0):
        return False, "4-star sign-character row", "(1, 6, 9, 4, 0)", str(pinned_star.coefficients)
    if pinned_path.coefficients != (1, 6, 10, 4, 0):
        return False, "4-path sign-character row", "(1, 6, 10, 4, 0)", str(pinned_path.coefficients)
    n = config.max_n
    sign = inverse_frobenius("s", Partition([1] * n))
    low = immanantal_polynomial(laplacian(star_graph(n)), sign).coefficients
    high = immanantal_polynomial(laplacian(path_graph(n)), sign).coefficients
    for index, tree in enumerate(free_trees(n)):
        row = immanantal_polynomial(laplacian(tree), sign).coefficients
        for r in range(n + 1):
            if not low[r] <= row[r] <= high[r]:
                inst = f"sign-character coefficient r={r} of tree #{index} at n={n}"
                return False, inst, f"in [{low[r]}, {high[r]}]", str(row[r])
    return (
        True,
        f"star/path coefficient bounds over all {len(free_trees(n))} trees at n={n}",
        "bounded",
        "bounded",
    )


def _check_spectral_wiener(config: SuiteConfig):
    if wiener_index(path_graph(4)) != 10 or wiener_index(star_graph(4)) != 9:
        return (
            False,
            "pinned Wiener values of the 4-path and 4-star",
            "10 and 9",
            f"{wiener_index(path_graph(4))} and {wiener_index(star_graph(4))}",
        )
    golden = (1 + sqrt(5)) / 2
    s4 = spectral_radius(star_graph(4))
    p4 = spectral_radius(path_graph(4))
    if abs(s4 - sqrt(3)) > SPECTRAL_TOL or abs(p4 - golden) > SPECTRAL_TOL or not s4 > p4:
        return (
            False,
            "pinned spectral radii of the 4-star and 4-path",
            f"sqrt(3) and golden ratio within {SPECTRAL_TOL}",
            f"{s4!r} and {p4!r}",
        )
    covers = 0
    for k in (3, 4, 5):
        for n in range(k + 1, 10):
            # build_poset matched each cover's shifted graph to its upper node
            # by canonical form, and both invariants are isomorphism invariant
            h = _poset("unicyclic", n, k)
            radius = [spectral_radius(g) for g in h.nodes]
            wiener = [wiener_index(g) for g in h.nodes]
            for i, j in h.covers:
                move = h.witnesses[i, j]
                if radius[i] > radius[j] + SPECTRAL_TOL:
                    inst = f"spectral radius on a cover of (n={n}, cycle {k}) ({move.serialize()})"
                    return False, inst, f"<= {radius[j]} + tol", str(radius[i])
                if wiener[i] < wiener[j]:
                    inst = f"Wiener index on a cover of (n={n}, cycle {k}) ({move.serialize()})"
                    return False, inst, f">= {wiener[j]}", str(wiener[i])
                covers += 1
    return (
        True,
        f"spectral radius rises and Wiener index falls along {covers} unicyclic covers",
        "monotone",
        "monotone",
    )


CHECKS = {
    "alpha-nonnegative": _check_alpha_nonnegative,
    "census-coefficients": _check_census_coefficients,
    "census-immanant": _check_census_immanant,
    "census-monotonicity": _check_census_monotonicity,
    "character-orthogonality": _check_character_orthogonality,
    "coefficient-monotonicity": _check_coefficient_monotonicity,
    "coefficient-nonnegative": _check_coefficient_nonnegative,
    "kostka-inverse": _check_kostka_inverse,
    "monomial-even-types": _check_monomial_even_types,
    "monomial-table": _check_monomial_table,
    "normalized-sandwich": _check_normalized_sandwich,
    "poset-extremes": _check_poset_extremes,
    "spectral-wiener": _check_spectral_wiener,
    "star-path-bounds": _check_star_path_bounds,
    "transport-injectivity": _check_transport_injectivity,
}


def _run_one(check_id: str, config: SuiteConfig) -> CheckReport:
    start = time.perf_counter()
    repro = f"lapshift verify --only {check_id}"
    try:
        passed, description, expected, actual = CHECKS[check_id](config)
    except CapacityError:
        raise  # a refused enumeration is a refused run, not a failed check
    except Exception as exc:  # a crashed check is a failed check
        passed, description = False, f"check raised {type(exc).__name__}"
        expected, actual = "no exception", str(exc)
    return CheckReport(
        check_id=check_id,
        description=description,
        expected=expected,
        actual=actual,
        passed=passed,
        seconds=time.perf_counter() - start,
        repro=repro,
    )


def run_suite(config: SuiteConfig) -> list[CheckReport]:
    ids = sorted(CHECKS)
    if config.only is not None:
        if config.only not in CHECKS:
            raise InvalidInputError(
                f"unknown check {config.only!r}; valid ids: {', '.join(ids)}"
            )
        ids = [config.only]
    try:
        return [_run_one(check_id, config) for check_id in ids]
    finally:
        for run_cache in RUN_CACHES:
            run_cache.cache_clear()


def format_reports(reports, include_times: bool = False) -> str:
    lines = []
    for rep in reports:
        timing = f" [{rep.seconds:.2f}s]" if include_times else ""
        if rep.passed:
            lines.append(f"PASS {rep.check_id}{timing}: {rep.description}")
        else:
            lines.append(
                f"FAIL {rep.check_id}{timing}: {rep.description} "
                f"(expected {rep.expected}, actual {rep.actual}); repro: {rep.repro}"
            )
    failed = sum(1 for rep in reports if not rep.passed)
    lines.append(
        f"{len(reports) - failed}/{len(reports)} checks passed"
        if failed
        else f"all {len(reports)} checks passed"
    )
    return "\n".join(lines) + "\n"


def suite_passed(reports) -> bool:
    return all(rep.passed for rep in reports)
