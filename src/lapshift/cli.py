"""Command-line interface.

Subcommands: poly, orientations, poset, verify, spectral, wiener, shift.
Exit codes: 0 success, 1 verification failure, 2 input error,
3 capacity exceeded.  All output is deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from pathlib import Path

from .errors import CapacityError, InvalidInputError
from .families import FamilySpec, family_members
from .graphs import (
    Graph,
    format_edge_list,
    laplacian,
    parse_edge_list,
    read_edge_list,
    spectral_radius,
    wiener_index,
)
from .immanants import immanantal_polynomial
from .orientations import orientation_census, subset_orientation_census
from .partitions import (
    Partition,
    enumerate_partitions,
    format_partition,
    parse_partition,
)
from .posets import build_poset, export_csv, export_dot
from .shifts import apply_shift, kelmans, resolve_move
from .symfunc import BASES, inverse_frobenius
from .verify import (
    config_from_mapping,
    format_reports,
    load_config_file,
    run_suite,
    suite_passed,
)

OUTPUT_DIR_ENV = "LAPSHIFT_OUTPUT_DIR"


def _read_graph(path: str) -> Graph:
    if path == "-":
        return parse_edge_list(sys.stdin.read())
    return read_edge_list(path)


def _csv_writer():
    return csv.writer(sys.stdout, lineterminator="\n")


def cmd_poly(args) -> int:
    g = _read_graph(args.graph)
    if args.all_lambdas:
        shapes = enumerate_partitions(g.n)
    else:
        lam = parse_partition(args.lam)
        if lam.n != g.n:
            raise InvalidInputError(
                f"shape weight {lam.n} does not match the {g.n}-vertex graph"
            )
        shapes = [lam]
    matrix = laplacian(g)
    writer = _csv_writer()
    writer.writerow(["lambda"] + [f"b{r}" for r in range(g.n + 1)])
    for lam in shapes:
        poly = immanantal_polynomial(matrix, inverse_frobenius(args.basis, lam))
        writer.writerow([format_partition(lam)] + list(poly.coefficients))
    return 0


def cmd_orientations(args) -> int:
    g = _read_graph(args.graph)
    if args.r is None:
        census = orientation_census(g)
    else:
        census = subset_orientation_census(g, args.r)
    writer = _csv_writer()
    writer.writerow(["type", "count"])
    # canonical partition order is descending tuple order
    for mu in sorted(census, reverse=True):
        writer.writerow([format_partition(mu), census[mu]])
    return 0


def _output_dir(args) -> Path:
    if args.output_dir is not None:
        return Path(args.output_dir)
    return Path(os.environ.get(OUTPUT_DIR_ENV, "."))


def cmd_poset(args) -> int:
    if args.trees is not None:
        spec = FamilySpec("trees", args.trees)
        stem = f"poset_trees{args.trees}"
    else:
        if args.n is None or args.k is None:
            raise InvalidInputError("poset needs n and k, or --trees n")
        spec = FamilySpec("unicyclic", args.n, args.k)
        stem = f"poset_u{args.n}_c{args.k}"
    h = build_poset(family_members(spec))
    out = _output_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{stem}.dot").write_text(export_dot(h), encoding="utf-8")
    (out / f"{stem}.csv").write_text(export_csv(h), encoding="utf-8")
    maximal = ",".join(str(i) for i in h.maximal())
    minimal = ",".join(str(i) for i in h.minimal())
    print(
        f"{len(h.nodes)} nodes, {len(h.covers)} covers; "
        f"max: [{maximal}], min: [{minimal}]; files: {stem}.dot, {stem}.csv"
    )
    return 0


def cmd_verify(args) -> int:
    mapping: dict[str, str] = {}
    if args.config is not None:
        mapping.update(load_config_file(args.config))
    overrides = {
        "max_n": args.max_n,
        "families": args.families,
        "bases": args.bases,
        "census_cap": args.census_cap,
        "jobs": args.jobs,
        "only": args.only,
    }
    for key, value in overrides.items():
        if value is not None:
            mapping[key] = str(value)
    if args.inject_fault:
        mapping["inject_fault"] = "true"
    config = config_from_mapping(mapping)
    reports = run_suite(config)
    sys.stdout.write(format_reports(reports, include_times=args.timings))
    return 0 if suite_passed(reports) else 1


def cmd_spectral(args) -> int:
    g = _read_graph(args.graph)
    print(f"{spectral_radius(g):.10f}")
    return 0


def cmd_wiener(args) -> int:
    g = _read_graph(args.graph)
    print(wiener_index(g))
    return 0


def cmd_shift(args) -> int:
    g = _read_graph(args.graph)
    if args.kelmans:
        result = kelmans(g, args.u, args.k)
        print(f"# kelmans {args.u} {args.k}")
    else:
        move = resolve_move(g, args.u, args.k)
        result = apply_shift(g, move)
        print(f"# shift {move.serialize()}")
    sys.stdout.write(format_edge_list(result))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lapshift",
        description="Laplacian immanantal polynomials, orientation censuses, and shift posets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poly", help="immanantal polynomial coefficients as CSV")
    p.add_argument("graph", help="edge-list file, or - for stdin")
    p.add_argument("--basis", choices=BASES, default="s")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--lam", help="partition such as 3,1 or 2,1^2")
    group.add_argument("--all-lambdas", action="store_true", help="one row per shape")
    p.set_defaults(func=cmd_poly)

    p = sub.add_parser("orientations", help="orientation census as type,count CSV")
    p.add_argument("graph", help="edge-list file, or - for stdin")
    p.add_argument("--r", type=int, default=None, help="restrict domains to size r")
    p.set_defaults(func=cmd_orientations)

    p = sub.add_parser("poset", help="write DOT and CSV for a shift poset")
    p.add_argument("n", type=int, nargs="?", help="vertex count of the unicyclic family")
    p.add_argument("k", type=int, nargs="?", help="cycle length of the unicyclic family")
    p.add_argument("--trees", type=int, default=None, help="use the tree poset on n vertices")
    p.add_argument("--output-dir", default=None)
    p.set_defaults(func=cmd_poset)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--config", default=None, help="key=value configuration file")
    p.add_argument("--max-n", type=int, default=None, dest="max_n")
    p.add_argument("--families", default=None, help="comma-separated n:k pairs")
    p.add_argument("--bases", default=None, help="comma-separated subset of s,e,p,h")
    p.add_argument("--census-cap", type=int, default=None, dest="census_cap")
    p.add_argument("--jobs", type=int, default=None, help="only 1: the checks run in order")
    p.add_argument("--only", default=None, help="run a single check id")
    p.add_argument("--inject-fault", action="store_true", help="corrupt one entry (smoke test)")
    p.add_argument("--timings", action="store_true", help="append wall times (non-deterministic)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("spectral", help="adjacency spectral radius")
    p.add_argument("graph", help="edge-list file, or - for stdin")
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("wiener", help="Wiener index (sum over unordered vertex pairs)")
    p.add_argument("graph", help="edge-list file, or - for stdin")
    p.set_defaults(func=cmd_wiener)

    p = sub.add_parser("shift", help="apply one shift (or Kelmans) move, print the result")
    p.add_argument("graph", help="edge-list file, or - for stdin")
    p.add_argument("u", type=int, help="recipient vertex")
    p.add_argument("k", type=int, help="donor vertex")
    p.add_argument("--kelmans", action="store_true", help="apply the Kelmans rewiring instead")
    p.set_defaults(func=cmd_shift)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity exceeded: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
