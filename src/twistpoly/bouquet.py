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

from dataclasses import dataclass

from .core import ParseError, SetSystem, check_enum_size, check_mask, iter_elements, signed_int
from .gf2 import SymMatrixGF2, dc_bits
from .poly import WidthPolynomial, twist_polynomial_of_bits


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
        check_enum_size(self.e)  # the edges are its delta-matroid's ground set

    @property
    def e(self) -> int:
        return len(self.labels)

    @property
    def full_mask(self) -> int:
        return (1 << self.e) - 1

    def chords(self) -> list[tuple[int, int, bool]]:
        """(first position, second position, orientable) of each edge."""
        first: dict[int, int] = {}
        out = [(0, 0, False)] * self.e
        for p, (edge, sign) in enumerate(self.seq):
            # q = p at an edge's first position; its second one overwrites the entry
            q = first.setdefault(edge, p)
            out[edge] = (q, p, self.seq[q][1] == sign)
        return out

    def __str__(self) -> str:
        return " ".join(
            f"{'-' if sign < 0 else ''}{self.labels[edge]}" for edge, sign in self.seq
        )


def parse_signed_rotation(text: str) -> SignedRotation:
    """Parse "(-1, -2, 3, 4, 2, 1, 3, 4)" or "-1 -2 3 4 2 1 3 4".

    Labels are positive integers read by ``core.signed_int``, re-indexed
    to 0..e-1 in order of first appearance.
    """
    stripped = text.strip()
    if stripped.startswith("(") and stripped.endswith(")"):
        stripped = stripped[1:-1]
    tokens = stripped.replace(",", " ").split()
    if not tokens:
        raise ParseError("empty rotation")
    seq = []
    index: dict[int, int] = {}
    for tok in tokens:
        try:
            value = signed_int(tok)
        except ValueError:
            raise ParseError(f"malformed half-edge token {tok!r}") from None
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


def canonical_bouquet(t: int) -> SignedRotation:
    """The bouquet with rotation (1, 2, ..., t, 1, 2, ..., t), all orientable."""
    if t < 1:
        raise ValueError("t must be at least 1")
    seq = tuple((i, 1) for i in range(t)) * 2
    return SignedRotation(seq, tuple(range(1, t + 1)))


def boundary_components(b: SignedRotation, a: int) -> int:
    """Number of boundary circles of the spanning subgraph with edge set a.

    The rotation is restricted to the chosen edges, and the i-th surviving
    position gets two boundary trace points, 2i on its left side and
    2i + 1 on its right.  Across the vertex disc the right side of i meets
    the left side of i + 1, cyclically.  Along a ribbon, read from the
    chord table, the two ends are joined straight for an orientable edge
    and with a flip for a nonorientable one.  The union of the two
    matchings decomposes into the boundary circles; the bare vertex disc
    (a = 0) has one.  Tracing never builds D(C): it is the oracle of
    D(interlacement_matrix(b)).
    """
    check_mask(a, b.e)
    return _trace(_chord_table(b), a)


def _chord_table(b: SignedRotation) -> list[tuple[int, int, int, bool]]:
    """Per edge: the mask of its two positions, the masks of the positions
    below each of them, and whether it is orientable."""
    return [
        ((1 << p) | (1 << q), (1 << p) - 1, (1 << q) - 1, orientable)
        for p, q, orientable in b.chords()
    ]


def _trace(table: list[tuple[int, int, int, bool]], a: int) -> int:
    """boundary_components of edge set a, from the rotation's chord table."""
    if a == 0:
        return 1
    chosen = [table[edge] for edge in iter_elements(a)]
    kept = 0
    for positions, _, _, _ in chosen:
        kept |= positions
    m = 2 * kept.bit_count()
    emate = [0] * m
    for _, below_p, below_q, orientable in chosen:
        # a kept position's index i is the number of kept positions below it
        i = 2 * (kept & below_p).bit_count()
        j = 2 * (kept & below_q).bit_count()
        if orientable:
            emate[i], emate[j + 1], emate[i + 1], emate[j] = j + 1, i, j, i + 1
        else:
            emate[i], emate[j], emate[i + 1], emate[j + 1] = j, i, j + 1, i + 1
    circles = 0
    seen = bytearray(m)
    for start in range(m):
        if seen[start]:
            continue
        circles += 1
        x = start
        while not seen[x]:
            seen[x] = 1
            y = (x + 1 if x & 1 else x - 1) % m
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
    The chord table is built once and every subset is traced from it, as
    boundary_components traces one.  This is the oracle for
    D(interlacement_matrix(b)), which is the same family.
    """
    table = _chord_table(b)
    return SetSystem(b.e, tuple(a for a in range(1 << b.e) if _trace(table, a) == 1))


def interlacement_matrix(b: SignedRotation) -> SymMatrixGF2:
    """Chord interlacement: C_uv = 1 iff chords u, v alternate around the
    cycle, that is iff exactly one end of v lies strictly between the ends
    of u; a diagonal 1 marks a nonorientable chord."""
    # inside[x]: the edges with exactly one end at a position below x
    inside = [0]
    for edge, _ in b.seq:
        inside.append(inside[-1] ^ 1 << edge)
    rows = []
    for u, (p, q, orientable) in enumerate(b.chords()):
        rows.append(inside[q] ^ inside[p + 1] | (0 if orientable else 1 << u))
    return SymMatrixGF2(b.e, tuple(rows))


def partial_duality_polynomial(b: SignedRotation) -> WidthPolynomial:
    """Generating function of all partial duals of the bouquet by Euler
    genus, computed as the twist polynomial of its delta-matroid.

    The quasi-tree delta-matroid is taken as D(interlacement matrix), as
    a bitset, so the cost does not depend on the number of quasi-trees;
    delta_matroid_of_bouquet traces the same family and is its oracle.
    """
    return twist_polynomial_of_bits(dc_bits(interlacement_matrix(b)), b.e)

