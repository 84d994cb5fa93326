"""The four workloads: seeded inputs and the check of every answer.

Each workload builds a fixed list of operations of one size from its
seed.  One round runs every operation once, in a seeded order that
interleaves the input kinds.  ``check(op, result, firsts)`` returns None
for a correct answer, else the reason it is wrong; ``firsts`` maps an
operation index to its first result, for checks that compare two
operations.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from random import Random

import oracle

N_POLY = 16
E_GENUS = 16
N_CHECK = 10
# |F| window of the check-n10 families: the axiom scan is O(|F|^2 n^2), so
# a fixed window keeps every accepted operation the same size.
CHECK_FAMILY_SIZES = range(464, 497)
# Random instances the interlacement and fastnaive suites add to their
# exhaustive parts; both are fixed in the program, whatever --max-n is.
INTERLACEMENT_TRIALS = 10_000
FASTNAIVE_TRIALS = 500


@dataclass
class Op:
    spec: dict  # what the worker runs
    kind: str  # input kind; some checks depend on it (K16, B16)
    meta: dict  # what the check needs


# --- poly-n16 -----------------------------------------------------------------------


def _random_graph(rng: Random, n: int, p: float, diagonal: float = 0.0) -> list[int]:
    rows = [0] * n
    for i in range(n):
        if rng.random() < diagonal:
            rows[i] |= 1 << i
        for j in range(i + 1, n):
            if rng.random() < p:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


def _bipartite_graph(rng: Random, n: int, p: float) -> list[int]:
    side = rng.sample(range(n), n // 2)
    rows = [0] * n
    for i in side:
        for j in set(range(n)) - set(side):
            if rng.random() < p:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


def _odd_cliques(rng: Random, n: int) -> list[int]:
    """Disjoint cliques of orders 7, 5, 3 and 1 on shuffled vertices, so
    every such input has the same |F| = 2^(n - 4)."""
    perm = rng.sample(range(n), n)
    rows = [0] * n
    at = 0
    for s in (7, 5, 3, 1):
        members = perm[at:at + s]
        at += s
        mask = sum(1 << v for v in members)
        for v in members:
            rows[v] = mask & ~(1 << v)
    return rows


POLY_KINDS = {
    "sparse": lambda rng: _random_graph(rng, N_POLY, 0.15),
    "dense": lambda rng: _random_graph(rng, N_POLY, 0.5),
    "bipartite-dense": lambda rng: _bipartite_graph(rng, N_POLY, 0.5),
    "bipartite-sparse": lambda rng: _bipartite_graph(rng, N_POLY, 0.2),
    "odd-cliques": lambda rng: _odd_cliques(rng, N_POLY),
    "K16": lambda rng: [((1 << N_POLY) - 1) & ~(1 << v) for v in range(N_POLY)],
    "diagonal-dense": lambda rng: _random_graph(rng, N_POLY, 0.5, diagonal=0.5),
    "diagonal-sparse": lambda rng: _random_graph(rng, N_POLY, 0.15, diagonal=0.5),
}


def _gf2_text(rows: list[int]) -> str:
    n = len(rows)
    return f"{n}\n" + "".join(
        "".join("1" if (r >> j) & 1 else "0" for j in range(n)) + "\n" for r in rows
    )


def build_poly(rng: Random, workdir: str) -> list[Op]:
    """Two matrices of each kind (K16 is the same matrix twice)."""
    ops = []
    for i, (kind, make) in enumerate(2 * list(POLY_KINDS.items())):
        rows = make(rng)
        gf2 = os.path.join(workdir, f"m{i}.gf2")
        with open(gf2, "w") as fh:
            fh.write(_gf2_text(rows))
        sample = [0, (1 << N_POLY) - 1] + [rng.getrandbits(N_POLY) for _ in range(1022)]
        ops.append(Op(
            {"kind": "poly", "gf2": gf2, "dm": os.path.join(workdir, f"m{i}.dm")},
            kind,
            {"rows": rows, "sample": sample},
        ))
    return ops


def check_poly(op: Op, result: dict, firsts: dict) -> str | None:
    if result["codes"] != [0, 0]:
        return f"exit codes {result['codes']}: {result['err'][-200:]}"
    parsed = oracle.parse_dm_text(result["out"][0])
    if isinstance(parsed, str):
        return parsed
    n, family = parsed
    if n != N_POLY:
        return f"from-matrix wrote n = {n}"
    rows = op.meta["rows"]
    members = set(family)
    for a in op.meta["sample"]:
        if (a in members) != oracle.is_nonsingular(rows, a):
            return f"subset {a:#x}: feasible={a in members} disagrees with rank of C[A]"
    coeffs = oracle.parse_poly_output(result["out"][1])
    if isinstance(coeffs, str):
        return coeffs
    even = all(bin(f).count("1") % 2 == 0 for f in family)
    problem = oracle.poly_shape_problem(coeffs, n, even)
    if problem:
        return problem
    zero_diagonal = not any((r >> i) & 1 for i, r in enumerate(rows))
    if zero_diagonal:
        if not even:
            return "D(C) of a zero-diagonal C has an odd feasible set"
        if (coeffs[0] > 0) != oracle.is_bipartite(rows):
            return f"constant term {coeffs[0]} but bipartite={oracle.is_bipartite(rows)}"
        monomial = sum(1 for c in coeffs if c) == 1
        if monomial != oracle.all_components_complete_odd(rows):
            return f"monomial={monomial} disagrees with the component structure"
    if op.kind == "K16" and coeffs != oracle.interleaved_closed_form(N_POLY):
        return f"K16 polynomial {coeffs} is not the closed form"
    return None


# --- genus-e16 ----------------------------------------------------------------------


def _rotation_text(seq: list[tuple[int, int]]) -> str:
    return " ".join(f"{'-' if sign < 0 else ''}{label}" for label, sign in seq)


def _random_rotation(rng: Random, e: int, orientable_share: float) -> list[tuple[int, int]]:
    spots = rng.sample(range(2 * e), 2 * e)
    labels = rng.sample(range(1, e + 1), e)
    seq: list[tuple[int, int]] = [(0, 0)] * (2 * e)
    for k, label in enumerate(labels):
        sign = rng.choice((1, -1))
        other = sign if rng.random() < orientable_share else -sign
        seq[spots[2 * k]] = (label, sign)
        seq[spots[2 * k + 1]] = (label, other)
    return seq


def _shifted(rng: Random, seq: list) -> list:
    k = rng.randrange(1, len(seq))
    return seq[k:] + seq[:k]


def build_genus(rng: Random, workdir: str) -> list[Op]:
    """Four rotations, each followed by a twin (a cyclic shift or the
    reversal) that must get the same polynomial."""
    bouquet = [(t, 1) for t in range(1, E_GENUS + 1)] * 2
    orientable = _random_rotation(rng, E_GENUS, 1.0)
    mixed = [_random_rotation(rng, E_GENUS, 0.5) for _ in range(2)]
    pairs = [
        ("B16", bouquet, _shifted(rng, bouquet)),
        ("orientable", orientable, orientable[::-1]),
        ("mixed-sign", mixed[0], _shifted(rng, mixed[0])),
        ("mixed-sign", mixed[1], mixed[1][::-1]),
    ]
    ops = []
    for kind, seq, twin in pairs:
        all_orientable = all(
            sign == next(s for lab, s in seq if lab == label) for label, sign in seq
        )
        for index, s in ((len(ops) + 1, seq), (len(ops), twin)):
            ops.append(Op(
                {"kind": "genus", "rotation": _rotation_text(s)},
                kind,
                {"twin": index, "orientable": all_orientable},
            ))
    return ops


def check_genus(op: Op, result: dict, firsts: dict) -> str | None:
    if result["codes"] != [0]:
        return f"exit code {result['codes']}: {result['err'][-200:]}"
    coeffs = oracle.parse_poly_output(result["out"][0])
    if isinstance(coeffs, str):
        return coeffs
    problem = oracle.poly_shape_problem(coeffs, E_GENUS, op.meta["orientable"])
    if problem:
        return problem
    if op.kind == "B16" and coeffs != oracle.interleaved_closed_form(E_GENUS):
        return f"B16 polynomial {coeffs} is not the closed form"
    twin = firsts.get(op.meta["twin"])
    if twin is not None and twin["out"] != result["out"]:
        return "a rotation and its shifted or reversed twin disagree"
    return None


# --- check-n10 ----------------------------------------------------------------------


def _binary_family(rng: Random) -> list[int]:
    """A twist of D(C) for a random symmetric C whose |F| is in the window."""
    while True:
        rows = _random_graph(rng, N_CHECK, 0.5, diagonal=0.5)
        family = oracle.feasible_sets_of_matrix(rows)
        if len(family) in CHECK_FAMILY_SIZES:
            a = rng.getrandbits(N_CHECK)
            return sorted(f ^ a for f in family)


def _break_exchange(rng: Random, family: list[int]) -> tuple[list[int], tuple[int, int, int]]:
    """Remove every set that could answer one exchange (x, y, u).

    x is the least feasible set, so the program's scan meets the broken
    exchange on its first row and rejects early.  |x△y| >= 3 keeps y
    itself out of the removed sets.
    """
    x = family[0]
    y = rng.choice([f for f in family if bin(x ^ f).count("1") >= 3])
    d = x ^ y
    u = rng.choice([i for i in range(N_CHECK) if (d >> i) & 1])
    t = x ^ (1 << u)
    gone = {t} | {t ^ (1 << v) for v in range(N_CHECK) if (d >> v) & 1 and v != u}
    return [f for f in family if f not in gone], (x, y, u)


def build_check(rng: Random, workdir: str) -> list[Op]:
    """12 twists of D(C), which must be accepted, and 4 copies with one
    exchange broken, which must be rejected."""
    ops = []
    for i in range(16):
        family = _binary_family(rng)
        meta: dict = {"family": family, "witness": None}
        kind = "accepted-twist"
        if i >= 12:
            family, witness = _break_exchange(rng, family)
            meta = {"family": family, "witness": witness}
            kind = "broken-exchange"
        path = os.path.join(workdir, f"f{i}.dm")
        with open(path, "w") as fh:
            fh.write(oracle.dm_text(N_CHECK, family))
        ops.append(Op({"kind": "check", "dm": path}, kind, meta))
    return ops


def check_check(op: Op, result: dict, firsts: dict) -> str | None:
    if result["codes"] != [0]:
        return f"exit code {result['codes']}: {result['err'][-200:]}"
    family, witness = op.meta["family"], op.meta["witness"]
    head = [f"n: {N_CHECK}", f"feasible sets: {len(family)}"]
    if witness is None:
        want = head + ["delta-matroid"] + oracle.check_lines(N_CHECK, family)
    else:
        if not oracle.exchange_fails(set(family), *witness):
            return f"benchmark fault: {witness} is no exchange witness"
        want = head + ["not a delta-matroid"]
    got = result["out"][0].splitlines()
    if got != want:
        return f"check printed {got} where {want} was due"
    return None


# --- verify-sweep -------------------------------------------------------------------

# One verify-sweep operation: (suite, --max-n), each in a fresh process.
VERIFY_PASS = (("prop2", 3), ("lemma5", 3), ("bipartite", 5), ("interlacement", 3),
               ("fastnaive", 6))


def verify_suites() -> list[tuple[str, int, dict[str, int]]]:
    """(suite, --max-n, THEOREM id -> expected checked= count) for one pass.

    The counts come from the oracle's own enumerations; the all-delta-
    matroid count at n <= 4 takes a few seconds, outside the timed phase.
    """
    dm = [oracle.count_delta_matroids(n) for n in range(5)]
    rotations = sum(oracle.signed_rotation_count(e) for e in range(1, 4))
    expected = {
        "prop2": {"prop2": sum(dm[:4])},
        # +1: the non-normal witness ({0},{1}) the suite checks on its own
        "lemma5": {"lemma5-lemma2": sum(dm[:4]) + 1},
        "bipartite": {"bipartite-constant": oracle.simple_graph_count(5)},
        "interlacement": {
            "interlacement-oracle": rotations + INTERLACEMENT_TRIALS,
            "same-interlacement-pairs": oracle.signed_rotation_count(3)
            - oracle.distinct_interlacement_matrices(3),
        },
        # exhaustive over all delta-matroids with n <= 4, random at n = 6
        "fastnaive": {"fast-naive": sum(dm) + FASTNAIVE_TRIALS},
    }
    return [(suite, max_n, expected[suite]) for suite, max_n in VERIFY_PASS]


_THEOREM = re.compile(r"^THEOREM (\S+) (PASS|FAIL) checked=(\d+) seed=(\S+)", re.M)


def theorem_counts(text: str) -> dict[str, tuple[str, int]]:
    """THEOREM id -> (PASS or FAIL, checked= count) of `verify` output."""
    return {t: (status, int(checked)) for t, status, checked, _ in _THEOREM.findall(text)}


def check_suite_output(code: object, text: str, expected: dict[str, int]) -> str | None:
    """One `verify --suite` process: exit 0, every THEOREM line PASS, and
    exactly the expected THEOREM ids with the expected checked= counts."""
    if code != 0:
        return f"exit code {code}: {text[-200:]}"
    lines = theorem_counts(text)
    failing = [t for t, (status, _) in lines.items() if status != "PASS"]
    if failing:
        return f"THEOREM {failing[0]} FAIL"
    got = {t: checked for t, (_, checked) in lines.items()}
    if len(_THEOREM.findall(text)) != len(expected) or got != expected:
        return f"checked counts {got}, expected {expected}"
    return None


# --- registry -----------------------------------------------------------------------

# Workloads that run inside one worker: name -> (build, check).
# verify-sweep starts its own processes and is driven by run.py.
WORKER_WORKLOADS = {
    "poly-n16": (build_poly, check_poly),
    "genus-e16": (build_genus, check_genus),
    "check-n10": (build_check, check_check),
}
