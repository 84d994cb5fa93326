"""Command-line front end.

All output is line-oriented plain text; machine-readable lines carry a
stable prefix ("coeffs:", "THEOREM") so scripts can grep them without a
structured-format dependency.  Exit codes: 0 success, 1 failed
verification or violated cross-check, 2 parse/usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bouquet import (
    edge_table,
    interlacement_matrix,
    parse_signed_rotation,
    partial_duality_polynomial,
)
from .core import (
    ParseError,
    format_dm,
    is_delta_matroid,
    loops_coloops,
    masks_text,
    parse_dm,
    predicates,
    twist,
)
from .gf2 import (
    delta_matroid_of_matrix,
    format_graph,
    graph_predicates,
    intersection_graph,
    parse_gf2,
    parse_graph,
)
from .poly import twist_polynomial_fast, twist_polynomial_naive, width
from .verify import SUITE_NAMES, run_suite


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _parse_index_set(text: str, n: int) -> int:
    if text.strip() == "-":
        return 0
    mask = 0
    for tok in text.split(","):
        try:
            e = int(tok)
        except ValueError:
            raise ParseError(f"malformed element index {tok!r}") from None
        if not 0 <= e < n:
            raise ParseError(f"element {e} out of range 0..{n - 1}")
        if (mask >> e) & 1:
            raise ParseError(f"element {e} repeated")
        mask |= 1 << e
    return mask


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _cmd_check(args: argparse.Namespace) -> int:
    d = parse_dm(_read(args.file))
    print(f"n: {d.n}")
    print(f"feasible sets: {len(d.feasible)}")
    if not is_delta_matroid(d):
        print("not a delta-matroid")
        return 0
    print("delta-matroid")
    p = predicates(d)
    print(f"even: {_yesno(p.is_even)}")
    print(f"normal: {_yesno(p.is_normal)}")
    print(f"matroid: {_yesno(p.is_matroid)}")
    print(f"width: {width(d)}")
    loops, coloops = loops_coloops(d)
    loops_text, coloops_text = masks_text([loops, coloops])
    print(f"loops: {loops_text}")
    print(f"coloops: {coloops_text}")
    return 0


def _cmd_twist(args: argparse.Namespace) -> int:
    d = parse_dm(_read(args.file))
    mask = _parse_index_set(args.set, d.n)
    sys.stdout.write(format_dm(twist(d, mask)))
    return 0


def _cmd_twist_poly(args: argparse.Namespace) -> int:
    d = parse_dm(_read(args.file))
    if args.mode == "naive":
        p = twist_polynomial_naive(d)
    elif args.mode == "both":
        p = twist_polynomial_fast(d)
        q = twist_polynomial_naive(d)
        if p != q:
            print(f"fast {p.machine()}", file=sys.stderr)
            print(f"naive {q.machine()}", file=sys.stderr)
            print("cross-check failed: fast and naive paths diverge", file=sys.stderr)
            return 1
    else:
        p = twist_polynomial_fast(d)
    print(p.human())
    print(p.machine())
    return 0


def _cmd_from_matrix(args: argparse.Namespace) -> int:
    c = parse_gf2(_read(args.file))
    sys.stdout.write(format_dm(delta_matroid_of_matrix(c)))
    return 0


def _cmd_from_graph(args: argparse.Namespace) -> int:
    g = parse_graph(_read(args.file))
    sys.stdout.write(format_dm(delta_matroid_of_matrix(g.adjacency)))
    return 0


def _print_edge_table(rot) -> None:
    print("edge  positions  type")
    for label, p, q, orientable in edge_table(rot):
        kind = "orientable" if orientable else "nonorientable"
        print(f"{label:<5} {p},{q:<8} {kind}")


def _cmd_from_bouquet(args: argparse.Namespace) -> int:
    rot = parse_signed_rotation(args.rotation)
    _print_edge_table(rot)
    sys.stdout.write(format_dm(delta_matroid_of_matrix(interlacement_matrix(rot))))
    return 0


def _cmd_intersection_graph(args: argparse.Namespace) -> int:
    d = parse_dm(_read(args.file))
    g = intersection_graph(d)  # not normal binary: ValueError, exit 2 in run
    sys.stdout.write(format_graph(g))
    props = graph_predicates(g)
    print(f"bipartite: {_yesno(props.is_bipartite)}")
    print(f"complete: {_yesno(props.is_complete)}")
    print(f"components: {len(props.components)}")
    print(f"all components complete of odd order: {_yesno(props.all_components_complete_odd)}")
    return 0


def _cmd_genus_poly(args: argparse.Namespace) -> int:
    p = partial_duality_polynomial(parse_signed_rotation(args.rotation))
    print(p.human())
    print(p.machine())
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    reports = run_suite(args.suite, args.max_n, args.seed)
    failed = False
    for rep in reports:
        print(rep.render())
        failed = failed or not rep.passed
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistpoly",
        description="Delta-matroid twists, twist polynomials, GF(2) "
        "representations, and bouquet ribbon graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a .dm file and report its predicates")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("twist", help="twist a .dm file by an element set")
    p.add_argument("file")
    p.add_argument("--set", required=True, metavar="ELEMS",
                   help='comma-separated element indices, or "-" for the empty set')
    p.set_defaults(func=_cmd_twist)

    p = sub.add_parser("twist-poly", help="twist polynomial of a .dm file")
    p.add_argument("file")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--fast", dest="mode", action="store_const", const="fast")
    mode.add_argument("--naive", dest="mode", action="store_const", const="naive")
    mode.add_argument("--both", dest="mode", action="store_const", const="both",
                      help="compute both paths and cross-check")
    p.set_defaults(func=_cmd_twist_poly, mode="fast")

    p = sub.add_parser("from-matrix", help="delta-matroid of a .gf2 matrix file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_from_matrix)

    p = sub.add_parser("from-graph", help="delta-matroid of a .graph adjacency file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_from_graph)

    p = sub.add_parser("from-bouquet", help="delta-matroid of a signed rotation")
    p.add_argument("rotation", help='e.g. "(-1, -2, 3, 4, 2, 1, 3, 4)" or "1 2 1 2"')
    p.set_defaults(func=_cmd_from_bouquet)

    p = sub.add_parser("intersection-graph",
                       help="intersection graph of a normal binary .dm file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_intersection_graph)

    p = sub.add_parser("genus-poly",
                       help="partial-duality polynomial of a signed rotation")
    p.add_argument("rotation")
    p.set_defaults(func=_cmd_genus_poly)

    p = sub.add_parser("verify", help="run the verification harness")
    p.add_argument("--suite", choices=SUITE_NAMES, default="all")
    p.add_argument("--max-n", type=int, default=None,
                   help="override the suite's instance-size bound")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    return parser


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # ParseError and UnsupportedSizeError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
