"""Binary delta-matroids D(C) over GF(2) and their intersection graphs.

A symmetric matrix C over GF(2) determines a normal delta-matroid whose
feasible sets are the index sets of nonsingular principal submatrices.
Conversely the matrix of a normal binary delta-matroid is read off its
sets of size one and two, as the principal minors of those orders.
Matrices are stored as tuples of row bitmasks, and a graph is its
adjacency matrix: the intersection graph of D(C) is C itself, with a
diagonal bit as a loop.

D(C) has one kernel, ``dc_bits``, which evaluates the determinant of
every principal submatrix at once as the bits of one 2^n-bit int.
``_dc_loop`` runs ``_nonsingular``, the one GF(2) elimination, once per
subset and is kept as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .core import (
    ParseError, SetSystem, ascii_int, check_enum_size, iter_elements, mask_of, set_bits, tile_bits,
)


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


def _nonsingular(rows: tuple[int, ...], a: int) -> bool:
    """Is the principal submatrix C[A] nonsingular over GF(2)?  Gaussian
    elimination that stops at the first dependent row."""
    basis = [0] * a.bit_length()
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
                break
        else:
            return False
    return True


def _dc_loop(rows: tuple[int, ...], n: int) -> list[int]:
    """Feasible sets of D(C), one ``_nonsingular`` elimination per subset;
    the oracle of ``dc_bits``."""
    return [a for a in range(1 << n) if _nonsingular(rows, a)]


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
    return SetSystem(c.n, tuple(set_bits(dc_bits(c))))


def matrix_of_normal(d: SetSystem) -> SymMatrixGF2:
    """Reconstruct C from a normal delta-matroid's small feasible sets.

    In D(C) a set is feasible iff its principal minor is 1, and over GF(2)
    det C[{v}] = C_vv and det C[{u,v}] = C_uu·C_vv ⊕ C_uv.  So C_vv = [{v}
    feasible] and C_uv = C_uu·C_vv ⊕ [{u,v} feasible].  Well defined for
    any normal system; whether the result represents d is
    is_normal_binary's decision.
    """
    if not d.feasible or d.feasible[0] != 0:
        raise ValueError("matrix reconstruction requires a normal delta-matroid")
    members = set(d.feasible)
    odd = mask_of(v for v in range(d.n) if 1 << v in members)  # bit v is C_vv
    rows = tuple(
        (odd if odd >> u & 1 else 0)
        ^ mask_of(v for v in range(d.n) if v != u and (1 << u | 1 << v) in members)
        for u in range(d.n)
    )
    return SymMatrixGF2(d.n, rows)


def _binary_matrix(d: SetSystem) -> SymMatrixGF2 | None:
    """The C with D(C) = d, or None if d is not normal binary: reconstruct
    the candidate matrix and compare the delta-matroid it induces with d."""
    if not d.feasible or d.feasible[0] != 0:
        return None
    check_enum_size(d.n)
    c = matrix_of_normal(d)
    return c if delta_matroid_of_matrix(c) == d else None


def is_normal_binary(d: SetSystem) -> bool:
    """Is d exactly D(C) for some symmetric GF(2) matrix C?"""
    return _binary_matrix(d) is not None


def intersection_graph(d: SetSystem) -> SymMatrixGF2:
    """Intersection graph of a normal binary delta-matroid, as its
    adjacency matrix C: u ~ v iff C_uv = 1, and a diagonal bit is a loop,
    so loops sit exactly at the odd (singleton-feasible) elements."""
    if (c := _binary_matrix(d)) is None:
        raise ValueError("intersection graph requires a normal binary delta-matroid")
    return c


class GraphProperties(NamedTuple):
    is_bipartite: bool
    components: tuple[tuple[int, ...], ...]
    is_complete: bool
    all_components_complete_odd: bool
    # bipartition witness (mask of part X, mask of part Y), or None
    coloring: tuple[int, int] | None


def graph_predicates(g: SymMatrixGF2) -> GraphProperties:
    """Bipartiteness with a 2-coloring witness, connected components, and
    the complete / complete-of-odd-order component predicates, from one BFS
    by layers of vertex masks.  Each component grows from its least unseen
    vertex and its even layers form part X.  The graph is bipartite iff no
    vertex has a neighbour on its own side, a vertex counting as its own
    neighbour, so a loop forces false."""
    rows = g.rows
    comps = []
    x = 0
    unseen = (1 << g.n) - 1
    while unseen:
        layer = unseen & -unseen
        comp, even = 0, True
        while layer:
            comp |= layer
            if even:
                x |= layer
            reach = 0
            for v in iter_elements(layer):
                reach |= rows[v]
            layer, even = reach & ~comp, not even
        unseen ^= comp
        comps.append(comp)
    y = x ^ ((1 << g.n) - 1)
    bipartite = not any(r & (x if (x >> v) & 1 else y) for v, r in enumerate(rows))
    complete = [
        all((rows[v] | 1 << v) & comp == comp for v in iter_elements(comp)) for comp in comps
    ]
    return GraphProperties(
        bipartite,
        tuple(tuple(iter_elements(comp)) for comp in comps),
        len(comps) <= 1 and all(complete),
        all(flag and comp.bit_count() % 2 for flag, comp in zip(complete, comps)),
        (x, y) if bipartite else None,
    )


def two_coloring(g: SymMatrixGF2) -> tuple[int, int] | None:
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
        n = ascii_int(lines[0])
    except ValueError:
        raise ParseError(f"malformed size line {lines[0]!r}") from None
    check_enum_size(n)  # a matrix is read only to build D(C); refuse before the rows
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


def parse_graph(text: str) -> SymMatrixGF2:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty graph file")
    try:
        n = ascii_int(lines[0])
    except ValueError:
        raise ParseError(f"malformed vertex-count line {lines[0]!r}") from None
    check_enum_size(n)  # a graph is read only to build D(C); refuse before the rows
    rows = [0] * n
    for ln in lines[1:]:
        try:
            u, v = map(ascii_int, ln.split())  # two tokens, or ValueError
        except ValueError:
            raise ParseError(f"malformed edge line {ln!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"edge {ln!r} out of range 0..{n - 1}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return SymMatrixGF2(n, tuple(rows))


def format_graph(g: SymMatrixGF2) -> str:
    lines = [str(g.n)]
    for u, row in enumerate(g.rows):
        # the loop "u u" first, then the edges to higher vertices
        lines.extend(f"{u} {v}" for v in iter_elements(row >> u << u))
    return "\n".join(lines) + "\n"
