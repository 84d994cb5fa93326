"""One-vertex ribbon graphs (bouquets) given by signed rotations.

A bouquet is encoded by the cyclic order of its 2e half-edges around the
single vertex; an edge whose two half-edges carry equal signs is an
orientable loop (an annulus), unequal signs mark a Möbius band.  Boundary
components of spanning subgraphs are counted by tracing the ribbon
boundary, which yields Euler genus and the quasi-tree delta-matroid.  The
genus-enumerating polynomial of all partial duals is computed from the
same delta-matroid taken as D(C) of the chord interlacement matrix C
(Bouchet 1988); boundary tracing is kept as the independent oracle.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .core import MAX_ENUM_GROUND, ParseError, SetSystem, UnsupportedSizeError
from .gf2 import SymMatrixGF2, dc_bits
from .poly import WidthPolynomial, twist_polynomial_of_bits

_TOKEN = re.compile(r"-?\d+")


@dataclass(frozen=True)
class SignedRotation:
    """Cyclic half-edge order: seq[p] = (edge index, sign), sign in {+1, -1}.

    Edges are indexed 0..e-1 in order of first appearance; ``labels`` keeps
    the original label of each edge for display.
    """

    seq: tuple[tuple[int, int], ...]
    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        counts = [0] * len(self.labels)
        for edge, sign in self.seq:
            if sign not in (-1, 1):
                raise ValueError("signs must be +1 or -1")
            counts[edge] += 1
        bad = [self.labels[i] for i, c in enumerate(counts) if c != 2]
        if bad:
            raise ValueError(f"labels must occur exactly twice; offending: {bad}")
        if self.e > MAX_ENUM_GROUND:
            raise UnsupportedSizeError(
                f"{self.e} edges exceed the supported limit of {MAX_ENUM_GROUND}"
            )

    @property
    def e(self) -> int:
        return len(self.labels)

    @property
    def full_mask(self) -> int:
        return (1 << self.e) - 1

    def positions(self) -> list[tuple[int, int]]:
        """The two half-edge positions of each edge."""
        first: dict[int, int] = {}
        out: list[tuple[int, int]] = [(-1, -1)] * self.e
        for p, (edge, _) in enumerate(self.seq):
            if edge in first:
                out[edge] = (first[edge], p)
            else:
                first[edge] = p
        return out

    def is_orientable(self, edge: int) -> bool:
        signs = [s for ed, s in self.seq if ed == edge]
        return signs[0] == signs[1]

    def __str__(self) -> str:
        return " ".join(
            f"{'-' if sign < 0 else ''}{self.labels[edge]}" for edge, sign in self.seq
        )


def parse_signed_rotation(text: str) -> SignedRotation:
    """Parse "(-1, -2, 3, 4, 2, 1, 3, 4)" or "-1 -2 3 4 2 1 3 4".

    Labels are arbitrary positive integers, re-indexed to 0..e-1 in order
    of first appearance.
    """
    stripped = text.strip()
    if stripped.startswith("(") and stripped.endswith(")"):
        stripped = stripped[1:-1]
    cleaned = stripped.replace(",", " ")
    if re.search(r"[^-\d\s]", cleaned):
        raise ParseError(f"malformed rotation {text!r}")
    tokens = cleaned.split()
    if not tokens:
        raise ParseError("empty rotation")
    seq = []
    index: dict[int, int] = {}
    for tok in tokens:
        if not _TOKEN.fullmatch(tok):
            raise ParseError(f"malformed half-edge token {tok!r}")
        value = int(tok)
        label = abs(value)
        if label == 0:
            raise ParseError("edge labels must be positive integers")
        if label not in index:
            index[label] = len(index)
        seq.append((index[label], -1 if value < 0 else 1))
    try:
        return SignedRotation(tuple(seq), tuple(index))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def rotation_from_pairing(
    pairs: list[tuple[int, int]], orientable_bits: int
) -> SignedRotation:
    """Build a rotation from half-edge position pairs plus orientability bits.

    Pairs are re-ordered by first position so edge i is the i-th chord to
    appear; bit i of ``orientable_bits`` makes chord i orientable.
    """
    pairs = sorted((min(p, q), max(p, q)) for p, q in pairs)
    e = len(pairs)
    seq: list[tuple[int, int]] = [(-1, 0)] * (2 * e)
    for edge, (p, q) in enumerate(pairs):
        if seq[p][0] != -1 or seq[q][0] != -1 or p == q:
            raise ValueError("positions must form a perfect matching")
        sign = 1 if (orientable_bits >> edge) & 1 else -1
        seq[p] = (edge, 1)
        seq[q] = (edge, sign)
    if any(edge < 0 for edge, _ in seq):
        raise ValueError("positions must cover 0..2e-1")
    return SignedRotation(tuple(seq), tuple(range(1, e + 1)))


def canonical_bouquet(t: int) -> SignedRotation:
    """The bouquet with rotation (1, 2, ..., t, 1, 2, ..., t), all orientable."""
    if t < 1:
        raise ValueError("t must be at least 1")
    seq = tuple((i, 1) for i in range(t)) * 2
    return SignedRotation(seq, tuple(range(1, t + 1)))


def boundary_components(b: SignedRotation, a: int) -> int:
    """Number of boundary circles of the spanning subgraph with edge set a.

    The rotation is restricted to the chosen edges and each surviving
    half-edge position gets two boundary trace points, one on each side.
    Consecutive positions are joined across the vertex disc; the two ends
    of a ribbon are joined straight for an orientable edge and with a flip
    for a nonorientable one.  The union of the two matchings decomposes
    into the boundary circles.  The empty subgraph is the bare vertex
    disc, with one boundary circle.
    """
    if not 0 <= a <= b.full_mask:
        raise ValueError(f"edge mask {a} out of range")
    if a == 0:
        return 1
    pos = [p for p, (edge, _) in enumerate(b.seq) if (a >> edge) & 1]
    k = len(pos)
    # point 2*i is the left side of restricted position i, 2*i + 1 the right
    vmate = [0] * (2 * k)
    for i in range(k):
        j = (i + 1) % k
        vmate[2 * i + 1] = 2 * j
        vmate[2 * j] = 2 * i + 1
    emate = [0] * (2 * k)
    occ: dict[int, list[int]] = {}
    for i, p in enumerate(pos):
        occ.setdefault(b.seq[p][0], []).append(i)
    for edge, (p, q) in occ.items():
        if b.is_orientable(edge):
            emate[2 * p] = 2 * q + 1
            emate[2 * q + 1] = 2 * p
            emate[2 * p + 1] = 2 * q
            emate[2 * q] = 2 * p + 1
        else:
            emate[2 * p] = 2 * q
            emate[2 * q] = 2 * p
            emate[2 * p + 1] = 2 * q + 1
            emate[2 * q + 1] = 2 * p + 1
    circles = 0
    seen = bytearray(2 * k)
    for start in range(2 * k):
        if seen[start]:
            continue
        circles += 1
        x = start
        while not seen[x]:
            seen[x] = 1
            y = vmate[x]
            seen[y] = 1
            x = emate[y]
    return circles


def euler_genus(b: SignedRotation, a: int) -> int:
    """Euler genus of the spanning subgraph (V, a): 2c - v + e - f with
    c = v = 1 for a bouquet."""
    return 1 + a.bit_count() - boundary_components(b, a)


def delta_matroid_of_bouquet(b: SignedRotation) -> SetSystem:
    """Quasi-tree delta-matroid: edge sets with one boundary component.

    In a bouquet every subgraph is spanning and connected, so quasi-trees
    are exactly the subsets with f = 1; the empty set always qualifies.
    This is the oracle for D(interlacement_matrix(b)), which is the same
    family.
    """
    fam = tuple(a for a in range(1 << b.e) if boundary_components(b, a) == 1)
    return SetSystem(b.e, fam)


def interlacement_matrix(b: SignedRotation) -> SymMatrixGF2:
    """Chord interlacement: C_uv = 1 iff chords u, v alternate around the
    cycle; a diagonal 1 marks a nonorientable chord."""
    pos = b.positions()
    rows = [0] * b.e
    for u in range(b.e):
        if not b.is_orientable(u):
            rows[u] |= 1 << u
        p1, p2 = pos[u]
        for v in range(u + 1, b.e):
            q1, q2 = pos[v]
            if (p1 < q1 < p2) != (p1 < q2 < p2):
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return SymMatrixGF2(b.e, tuple(rows))


def partial_duality_polynomial(b: SignedRotation) -> WidthPolynomial:
    """Generating function of all partial duals of the bouquet by Euler
    genus, computed as the twist polynomial of its delta-matroid.

    The quasi-tree delta-matroid is taken as D(interlacement matrix), as
    a bitset, so the cost does not depend on the number of quasi-trees;
    delta_matroid_of_bouquet traces the same family and is its oracle.
    """
    return twist_polynomial_of_bits(dc_bits(interlacement_matrix(b)), b.e)


def edge_table(b: SignedRotation) -> list[tuple[int, int, int, bool]]:
    """(label, first position, second position, orientable) per edge."""
    pos = b.positions()
    return [
        (b.labels[edge], pos[edge][0], pos[edge][1], b.is_orientable(edge))
        for edge in range(b.e)
    ]
