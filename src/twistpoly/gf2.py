"""Binary delta-matroids D(C) over GF(2) and their intersection graphs.

A symmetric matrix C over GF(2) determines a normal delta-matroid whose
feasible sets are the index sets of nonsingular principal submatrices.
Conversely the matrix (and hence the intersection graph) of a normal
binary delta-matroid is reconstructed from its feasible sets of size one
and two.  Matrices are stored as tuples of row bitmasks.

D(C) has one kernel, ``dc_bits``, which evaluates the determinant of
every principal submatrix at once as the bits of one 2^n-bit int.
``_dc_loop`` runs ``_rank``, the one GF(2) elimination, once per subset
and is kept as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import NamedTuple

from .core import MAX_GROUND, ParseError, SetSystem, check_enum_size, iter_elements, tile_bits


@dataclass(frozen=True)
class SymMatrixGF2:
    """Symmetric n x n matrix over GF(2); rows[i] bit j is the (i, j) entry."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.rows) != self.n:
            raise ValueError(f"expected {self.n} rows, got {len(self.rows)}")
        top = 1 << self.n
        for i, r in enumerate(self.rows):
            if not 0 <= r < top:
                raise ValueError(f"row {i} has bits outside the matrix")
            for j in iter_elements(r):  # set bits only: O(n + entries)
                if not (self.rows[j] >> i) & 1:
                    raise ValueError(f"matrix not symmetric at {min(i, j), max(i, j)}")

    @classmethod
    def zeros(cls, n: int) -> "SymMatrixGF2":
        return cls(n, (0,) * n)

    @classmethod
    def from_entries(cls, entries: list[list[int]]) -> "SymMatrixGF2":
        n = len(entries)
        rows = []
        for row in entries:
            if len(row) != n:
                raise ValueError("matrix must be square")
            rows.append(sum((1 << j) for j, v in enumerate(row) if v & 1))
        return cls(n, tuple(rows))

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    @property
    def diagonal(self) -> int:
        return sum(1 << i for i in range(self.n) if (self.rows[i] >> i) & 1)

    def __str__(self) -> str:
        return "\n".join(
            "".join(str((r >> j) & 1) for j in range(self.n)) for r in self.rows
        )


def _rank(rows: tuple[int, ...], a: int, early_exit: bool) -> int:
    """Rank over GF(2) of the principal submatrix on A.

    With ``early_exit`` the elimination stops at the first dependent row
    and returns a value below |A|; D(C) only needs to know whether C[A]
    is nonsingular.
    """
    basis = [0] * a.bit_length()
    rank = 0
    rem = a
    while rem:
        low = rem & -rem
        rem ^= low
        v = rows[low.bit_length() - 1] & a
        while v:
            t = v.bit_length() - 1
            if basis[t]:
                v ^= basis[t]
            else:
                basis[t] = v
                rank += 1
                break
        else:
            if early_exit:
                return rank
    return rank


def gf2_rank(c: SymMatrixGF2, a: int) -> int:
    """Rank over GF(2) of the principal submatrix C[A]."""
    if not 0 <= a < (1 << c.n):
        raise ValueError(f"mask {a} out of range")
    return _rank(c.rows, a, False)


def _dc_loop(rows: tuple[int, ...], n: int) -> list[int]:
    """Feasible sets of D(C), one ``_rank`` elimination per subset; the
    oracle of ``dc_bits``."""
    return [a for a in range(1 << n) if _rank(rows, a, True) == a.bit_count()]


def dc_bits(matrix: SymMatrixGF2) -> int:
    """D(C) as a 2^n-bit int: bit A is set iff det C[A] = 1, all at once.

    Expanding along d = min A, with S_ij = C_ij ⊕ C_di·C_dj (the Schur
    complement of C_dd, taken as 1),

        det C[A] = det S[A - d] ⊕ [C_dd = 0]·det C[A - d].

    A node of this recursion is fixed by the set T of the elements it took
    through S, so each matrix entry is an int whose bit ("lane") T holds
    that node's entry; element d doubles the lanes, lane T + d getting S
    of lane T.  Going back up, bit X of ``p`` is the determinant that is
    left once X ∩ [0, d) is read as T and X ∩ [d, n) as what remains of A:
    1 for empty matrices, then element d adds the C-branch of X to X + d
    wherever lane X ∩ [0, d) has C_dd = 0.
    """
    check_enum_size(matrix.n)
    n = matrix.n
    c = [[(r >> j) & 1 for j in range(n)] for r in matrix.rows]
    size = 1 << n
    zero_pivot = []  # bit X set iff d not in X and C_dd = 0 in lane X ∩ [0, d)
    for d in range(n):
        w = 1 << d
        cd = c[d]
        zero_pivot.append(tile_bits(~cd[d] & ((1 << w) - 1), 2 * w, size))
        for i in range(d + 1, n):
            ci, cdi = c[i], cd[i]
            for j in range(i, n):  # upper triangle; c[i][j] is C_ij for i <= j
                v = ci[j]
                ci[j] = v | (v ^ (cdi & cd[j])) << w
    p = (1 << size) - 1
    for d in range(n - 1, -1, -1):
        p ^= (p & zero_pivot[d]) << (1 << d)
    return p


def delta_matroid_of_matrix(c: SymMatrixGF2) -> SetSystem:
    """D(C): feasible sets are the A with C[A] nonsingular (C[∅] is
    nonsingular by convention); always normal."""
    flags = format(dc_bits(c), "b")[::-1].encode().replace(b"0", b"\0")
    return SetSystem(c.n, tuple(compress(range(1 << c.n), flags)))


def matrix_of_normal(d: SetSystem) -> SymMatrixGF2:
    """Reconstruct C from a normal delta-matroid's small feasible sets.

    Diagonal: C_vv = 1 iff {v} is feasible.  Off-diagonal: C_uv = 1 iff
    {u} and {v} are feasible but {u,v} is not, or {u,v} is feasible but
    {u}, {v} are not both feasible.  Well defined for any normal system;
    whether the result represents d is is_normal_binary's decision.
    """
    if not d.feasible or d.feasible[0] != 0:
        raise ValueError("matrix reconstruction requires a normal delta-matroid")
    members = set(d.feasible)
    rows = [0] * d.n
    for v in range(d.n):
        if (1 << v) in members:
            rows[v] |= 1 << v
    for u in range(d.n):
        for v in range(u + 1, d.n):
            singles = ((1 << u) in members, (1 << v) in members)
            pair = (1 << u) | (1 << v) in members
            if (all(singles) and not pair) or (pair and not all(singles)):
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return SymMatrixGF2(d.n, tuple(rows))


def is_normal_binary(d: SetSystem) -> bool:
    """Is d exactly D(C) for some symmetric GF(2) matrix C?

    Decided by round trip: reconstruct the candidate matrix and compare
    the delta-matroid it induces against d.
    """
    if not d.feasible or d.feasible[0] != 0:
        return False
    check_enum_size(d.n)
    return delta_matroid_of_matrix(matrix_of_normal(d)) == d


@dataclass(frozen=True)
class IntersectionGraph:
    """Looped simple graph as a symmetric adjacency matrix; a diagonal bit
    is a loop at that vertex."""

    adjacency: SymMatrixGF2

    @property
    def n(self) -> int:
        return self.adjacency.n

    def has_loop(self, v: int) -> bool:
        return bool(self.adjacency.entry(v, v))


def intersection_graph(d: SetSystem) -> IntersectionGraph:
    """Intersection graph of a normal binary delta-matroid: u ~ v iff
    C_uv = 1; loops sit exactly at the odd (singleton-feasible) elements."""
    if not is_normal_binary(d):
        raise ValueError("intersection graph requires a normal binary delta-matroid")
    return IntersectionGraph(matrix_of_normal(d))


class GraphProperties(NamedTuple):
    is_bipartite: bool
    components: tuple[tuple[int, ...], ...]
    is_complete: bool
    all_components_complete_odd: bool
    # bipartition witness (mask of part X, mask of part Y), or None
    coloring: tuple[int, int] | None


def _component_complete(rows: tuple[int, ...], comp: tuple[int, ...]) -> bool:
    mask = 0
    for v in comp:
        mask |= 1 << v
    return all((rows[v] | (1 << v)) & mask == mask for v in comp)


def graph_predicates(g: IntersectionGraph) -> GraphProperties:
    """Bipartiteness (a loop forces false) with a 2-coloring witness,
    connected components, and the complete / complete-of-odd-order
    component predicates."""
    n = g.n
    rows = g.adjacency.rows
    color = [-1] * n
    bipartite = all(not (rows[v] >> v) & 1 for v in range(n))
    comps = []
    for start in range(n):
        if color[start] >= 0:
            continue
        color[start] = 0
        queue = [start]
        comp = [start]
        while queue:
            u = queue.pop()
            nb = rows[u] & ~(1 << u)
            while nb:
                low = nb & -nb
                nb ^= low
                v = low.bit_length() - 1
                if color[v] < 0:
                    color[v] = color[u] ^ 1
                    comp.append(v)
                    queue.append(v)
                elif color[v] == color[u]:
                    bipartite = False
        comps.append(tuple(sorted(comp)))
    components = tuple(comps)
    complete_flags = [_component_complete(rows, comp) for comp in components]
    is_complete = len(components) <= 1 and all(complete_flags)
    all_odd = all(
        flag and len(comp) % 2 == 1 for flag, comp in zip(complete_flags, components)
    )
    coloring = None
    if bipartite:
        x = sum(1 << v for v in range(n) if color[v] == 0)
        coloring = x, ((1 << n) - 1) & ~x
    return GraphProperties(bipartite, components, is_complete, all_odd, coloring)


def two_coloring(g: IntersectionGraph) -> tuple[int, int] | None:
    """A bipartition witness (mask of part X, mask of part Y), or None."""
    return graph_predicates(g).coloring


# --- text formats ------------------------------------------------------------
#
# .gf2: line 1 = n, then n lines of n characters from {0,1}.
# .graph: line 1 = vertex count, then "u v" edge lines; "u u" is a loop.


def parse_gf2(text: str) -> SymMatrixGF2:
    lines = [ln.strip() for ln in text.splitlines()]
    while lines and not lines[-1]:
        lines.pop()
    if not lines:
        raise ParseError("empty matrix file")
    try:
        n = int(lines[0])
    except ValueError:
        raise ParseError(f"malformed size line {lines[0]!r}") from None
    if n < 0:
        raise ParseError("matrix size must be nonnegative")
    if len(lines) != 1 + n:
        raise ParseError(f"expected {n} rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        if len(ln) != n or any(ch not in "01" for ch in ln):
            raise ParseError(f"row {ln!r} is not {n} characters of 0/1")
        rows.append(sum(1 << j for j, ch in enumerate(ln) if ch == "1"))
    try:
        return SymMatrixGF2(n, tuple(rows))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def format_gf2(c: SymMatrixGF2) -> str:
    return str(c.n) + "\n" + str(c) + ("\n" if c.n else "")


def parse_graph(text: str) -> IntersectionGraph:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty graph file")
    try:
        n = int(lines[0])
    except ValueError:
        raise ParseError(f"malformed vertex-count line {lines[0]!r}") from None
    if n < 0:
        raise ParseError("vertex count must be nonnegative")
    if n > MAX_GROUND:
        raise ParseError(f"vertex count {n} exceeds the limit of {MAX_GROUND}")
    rows = [0] * n
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError(f"malformed edge line {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"malformed edge line {ln!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"edge {ln!r} out of range 0..{n - 1}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return IntersectionGraph(SymMatrixGF2(n, tuple(rows)))


def format_graph(g: IntersectionGraph) -> str:
    lines = [str(g.n)]
    for u in range(g.n):
        if g.has_loop(u):
            lines.append(f"{u} {u}")
        for v in range(u + 1, g.n):
            if g.adjacency.entry(u, v):
                lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"
