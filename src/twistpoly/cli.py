"""Command-line front end.

All output is line-oriented plain text; machine-readable lines carry a
stable prefix ("coeffs:", "THEOREM") so scripts can grep them without a
structured-format dependency.  Exit codes: 0 success, 1 failed
verification or violated cross-check, 2 parse/usage errors.  A call
builds the parser of the invoked subcommand alone (see `run`).
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from operator import methodcaller
from pathlib import Path

from .bouquet import interlacement_matrix, parse_signed_rotation, partial_duality_polynomial
from .core import (
    ParseError,
    element_index,
    format_dm,
    is_delta_matroid,
    loops_coloops,
    masks_text,
    parse_dm,
    predicates,
    signed_int,
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
        e = element_index(tok, n)
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
    d = parse_dm(_read(args.file), enumerable=True)  # every mode walks all 2^n subsets
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


def _cmd_from_matrix(parse, args: argparse.Namespace) -> int:
    """D(C) of the matrix that ``parse`` reads from the file (.gf2 or .graph)."""
    sys.stdout.write(format_dm(delta_matroid_of_matrix(parse(_read(args.file)))))
    return 0


def _cmd_from_bouquet(args: argparse.Namespace) -> int:
    rot = parse_signed_rotation(args.rotation)
    print("edge  positions  type")
    for label, (p, q, orientable) in zip(rot.labels, rot.chords()):
        kind = "orientable" if orientable else "nonorientable"
        print(f"{label:<5} {p},{q:<8} {kind}")
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


def _add_twist(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")
    p.add_argument("--set", required=True, metavar="ELEMS",
                   help='comma-separated element indices, or "-" for the empty set')


def _add_twist_poly(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--fast", dest="mode", action="store_const", const="fast")
    mode.add_argument("--naive", dest="mode", action="store_const", const="naive")
    mode.add_argument("--both", dest="mode", action="store_const", const="both",
                      help="compute both paths and cross-check")
    p.set_defaults(mode="fast")


def _add_verify(p: argparse.ArgumentParser) -> None:
    # type=int reads by signed_int, and a refused value still reads "invalid int value"
    p.register("type", int, signed_int)
    p.add_argument("--suite", choices=SUITE_NAMES, default="all")
    p.add_argument("--max-n", type=int, default=None,
                   help="override the suite's instance-size bound")
    p.add_argument("--seed", type=int, default=0)


_add_file = methodcaller("add_argument", "file")

# Each subcommand once: name, help, argument adder, handler.
_COMMANDS = (
    ("check", "validate a .dm file and report its predicates", _add_file, _cmd_check),
    ("twist", "twist a .dm file by an element set", _add_twist, _cmd_twist),
    ("twist-poly", "twist polynomial of a .dm file", _add_twist_poly, _cmd_twist_poly),
    ("from-matrix", "delta-matroid of a .gf2 matrix file", _add_file,
     partial(_cmd_from_matrix, parse_gf2)),
    ("from-graph", "delta-matroid of a .graph adjacency file", _add_file,
     partial(_cmd_from_matrix, parse_graph)),
    ("from-bouquet", "delta-matroid of a signed rotation",
     methodcaller("add_argument", "rotation",
                  help='e.g. "(-1, -2, 3, 4, 2, 1, 3, 4)" or "1 2 1 2"'),
     _cmd_from_bouquet),
    ("intersection-graph", "intersection graph of a normal binary .dm file", _add_file,
     _cmd_intersection_graph),
    ("genus-poly", "partial-duality polynomial of a signed rotation",
     methodcaller("add_argument", "rotation"), _cmd_genus_poly),
    ("verify", "run the verification harness", _add_verify, _cmd_verify),
)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with every subcommand, or with `command`'s alone."""
    parser = argparse.ArgumentParser(
        prog="twistpoly",
        description="Delta-matroid twists, twist polynomials, GF(2) "
        "representations, and bouquet ribbon graphs.",
    )
    # With one subcommand built, usage lines still list all of them, as the full
    # parser does; the full parser keeps metavar None for its error messages.
    choices = None if command is None else "{%s}" % ",".join(c[0] for c in _COMMANDS)
    sub = parser.add_subparsers(dest="command", required=True, metavar=choices)
    for name, help_text, add_arguments, handler in _COMMANDS:
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            add_arguments(p)
            p.set_defaults(func=handler)
    return parser


def run(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # Each subparser costs ~0.1 ms; build all only when argv[0] names no subcommand.
    named = argv[0] if argv and argv[0] in (c[0] for c in _COMMANDS) else None
    args = build_parser(named).parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # ParseError and UnsupportedSizeError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
