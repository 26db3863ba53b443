"""Feed every checker of the benchmark a corrupted result and see it rejected.

    python3 bench/selftest.py

Builds small honest results with lapshift (trees and unicyclic graphs on 5
and 6 vertices), checks that they pass, then corrupts one thing at a time
and checks that the matching checker reports it.  Exits 1 if a corruption
slips through or an honest result is rejected.
"""

from __future__ import annotations

import copy
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def poly_inputs():
    star = [(1, v) for v in range(2, 6)]
    path = [(v, v + 1) for v in range(1, 5)]
    fork = [(1, 2), (2, 3), (3, 4), (3, 5)]
    items = [
        workloads._item("tree-star", "tree", 5, star, True),
        workloads._item("tree-path", "tree", 5, path, True),
        workloads._item("tree-fork", "tree", 5, fork, True),
        workloads._item("odd", None, 5, [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5)], False),
    ]
    return {
        "items": items,
        "bases": ("s", "e", "h", "p", "m"),
        "table_sizes": (5,),
        "extremes": {"tree": ("tree-star", "tree-path")},
    }


def poly_cases(records):
    """(description, mutate) pairs; each mutation must be caught."""
    fork = next(r for r in records if r["name"] == "tree-fork")
    sign = ("s", (1,) * 5)

    def bump(row, r, by=1):
        row = list(row)
        row[r] += by
        return tuple(row)

    def matrix_only(recs):
        f = _named(recs, "tree-fork")
        f["matrix"][("h", (3, 2))] = bump(f["matrix"][("h", (3, 2))], 2)

    def census_only(recs):
        f = _named(recs, "tree-fork")
        f["via"][("e", (2, 2, 1))] = bump(f["via"][("e", (2, 2, 1))], 3)

    def both_routes(key, r, by):
        def mutate(recs):
            f = _named(recs, "tree-fork")
            f["matrix"][key] = bump(f["matrix"][key], r, by)
            f["via"][key] = bump(f["via"][key], r, by)

        return mutate

    def census_total(recs):
        f = _named(recs, "tree-fork")
        counts = f["census"][2]
        mu = next(iter(counts))
        counts[mu] += 1

    def swap_extremes(recs):
        star, path = _named(recs, "tree-star"), _named(recs, "tree-path")
        star["matrix"], path["matrix"] = path["matrix"], star["matrix"]
        star["via"], path["via"] = path["via"], star["via"]

    def drop_row(recs):
        del _named(recs, "tree-fork")["matrix"][("p", (5,))]

    def odd_row(recs):
        o = _named(recs, "odd")
        o["matrix"][sign] = bump(o["matrix"][sign], 4)

    assert fork["census"] is not None
    return [
        ("matrix route alone changed", matrix_only),
        ("census route alone changed", census_only),
        ("s,1^n row off det(xI-L) on both routes", both_routes(sign, 3, 1)),
        ("b0 changed on both routes", both_routes(("h", (2, 2, 1)), 0, 1)),
        ("b1 changed on both routes", both_routes(("p", (1,) * 5), 1, -2)),
        ("negative coefficient on both routes", both_routes(("s", (3, 1, 1)), 5, -10**6)),
        ("size-r census total changed", census_total),
        ("star and path rows swapped", swap_extremes),
        ("a matrix row missing", drop_row),
        ("non-bipartite determinant row changed", odd_row),
    ]


def _named(records, name):
    return next(r for r in records if r["name"] == name)


def poset_cases(records):
    def drop_node(recs):
        rec = recs[0]
        last = len(rec["nodes"]) - 1
        rec["nodes"].pop()
        rec["covers"] = [c for c in rec["covers"] if last not in c]
        rec["witnesses"] = {c: w for c, w in rec["witnesses"].items() if last not in c}

    def redundant_cover(recs):
        rec = recs[0]
        covers = set(rec["covers"])
        for i, j in rec["covers"]:
            for a, b in rec["covers"]:
                if a == j and (i, b) not in covers:
                    rec["covers"].append((i, b))
                    return
        raise AssertionError("no chain of two covers to shortcut")

    def borrowed_witness(recs):
        rec = recs[0]
        (first, w1), (second, w2) = next(
            (a, b)
            for a in rec["witnesses"].items()
            for b in rec["witnesses"].items()
            if a[0][0] == b[0][0] and a[0][1] != b[0][1]
        )
        rec["witnesses"][first], rec["witnesses"][second] = w2, w1

    def reversed_cover(recs):
        rec = recs[1]
        i, j = rec["covers"][0]
        rec["covers"][0] = (j, i)
        rec["witnesses"][j, i] = rec["witnesses"].pop((i, j))

    def radius_off(recs):
        recs[1]["radius"][0] += 1e-3

    def wiener_off(recs):
        recs[0]["wiener"][-1] -= 1

    return [
        ("a node dropped", drop_node),
        ("a cover implied by a chain", redundant_cover),
        ("witnesses of two covers swapped", borrowed_witness),
        ("a cover reversed", reversed_cover),
        ("a spectral radius off", radius_off),
        ("a Wiener index off", wiener_off),
    ]


def verify_cases():
    good = "".join(f"PASS {cid}: fine\n" for cid in checks.VERIFY_CHECK_IDS)
    good += f"all {len(checks.VERIFY_CHECK_IDS)} checks passed\n"
    fail_line = good.replace(
        "PASS census-immanant: fine",
        "FAIL census-immanant: x (expected 1, actual 2); repro: lapshift verify --only census-immanant",
    )
    missing = good.replace("PASS star-path-bounds: fine\n", "")
    fault = "FAIL census-immanant: census vs matrix value\n0/1 checks passed\n"
    return good, fault, [
        ("suite exit code 1", lambda: checks.check_verify_output(1, good)),
        ("a FAIL line", lambda: checks.check_verify_output(1, fail_line)),
        ("a check missing", lambda: checks.check_verify_output(0, missing)),
        ("empty output", lambda: checks.check_verify_output(0, "")),
        ("fault run exits 0", lambda: checks.check_fault_output(0, fault)),
        ("fault run passes", lambda: checks.check_fault_output(1, "PASS census-immanant: ok\n")),
        ("single check fails", lambda: checks.check_single_check_output("kostka-inverse", 1, "FAIL kostka-inverse: x")),
    ]


def main() -> int:
    problems = []

    def expect(description, errors, want_errors):
        ok = bool(errors) == want_errors
        verdict = "rejected" if errors else "accepted"
        print(f"{'ok  ' if ok else 'FAIL'} {description}: {verdict}")
        if not ok:
            problems.append(description)
            for e in errors:
                print(f"       {e}")

    inputs = poly_inputs()
    result = workloads.poly_pass(inputs, Tracer(False))
    records = result["records"]

    def check(recs):
        return checks.check_poly_pass(recs, inputs["bases"], inputs["extremes"])

    expect("honest polynomials", check(records), False)
    for description, mutate in poly_cases(records):
        corrupted = copy.deepcopy(records)
        mutate(corrupted)
        expect(description, check(corrupted), True)

    poset = workloads.poset_pass(
        {"rng": random.Random(7), "specs": (("trees", 7, None), ("unicyclic", 7, 3))},
        Tracer(False),
    )
    expect("honest posets", checks.check_poset_pass(poset["records"]), False)
    for description, mutate in poset_cases(poset["records"]):
        corrupted = copy.deepcopy(poset["records"])
        mutate(corrupted)
        expect(description, checks.check_poset_pass(corrupted), True)

    good, fault, cases = verify_cases()
    expect("honest verify output", checks.check_verify_output(0, good), False)
    expect("honest fault run", checks.check_fault_output(1, fault), False)
    for description, call in cases:
        expect(description, call(), True)

    print(f"{len(problems)} problem(s)" if problems else "every corruption was rejected")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
