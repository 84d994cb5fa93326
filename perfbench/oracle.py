"""Reference computations for the benchmark's output checks.

Nothing here imports twistpoly: every expected value is computed from the
definitions (or from a closed form in the paper), so a fault in the
program cannot hide behind the same fault in its own checker.

Sets are bitmasks over {0..n-1}; a symmetric GF(2) matrix is a list of
row bitmasks, row i bit j being the (i, j) entry.
"""

from __future__ import annotations

from math import comb


# --- GF(2) linear algebra ------------------------------------------------------


def principal_rank(rows: list[int], a: int) -> int:
    """Rank over GF(2) of the principal submatrix C[A].

    Plain row reduction with the lowest set bit as pivot (the program
    pivots on the highest bit), over the rows of A masked to A.
    """
    pivots: dict[int, int] = {}
    i = 0
    while a >> i:
        if (a >> i) & 1:
            v = rows[i] & a
            while v:
                low = v & -v
                if low in pivots:
                    v ^= pivots[low]
                else:
                    pivots[low] = v
                    break
        i += 1
    return len(pivots)


def is_nonsingular(rows: list[int], a: int) -> bool:
    return principal_rank(rows, a) == bin(a).count("1")


def feasible_sets_of_matrix(rows: list[int]) -> list[int]:
    """All A with C[A] nonsingular (the empty matrix counts), ascending."""
    return [a for a in range(1 << len(rows)) if is_nonsingular(rows, a)]


# --- graphs (zero-diagonal matrices) --------------------------------------------


def neighbours(rows: list[int], v: int) -> list[int]:
    return [u for u in range(len(rows)) if u != v and (rows[v] >> u) & 1]


def is_bipartite(rows: list[int]) -> bool:
    """Two-colouring by breadth-first search."""
    colour = [None] * len(rows)
    for s in range(len(rows)):
        if colour[s] is not None:
            continue
        colour[s] = 0
        queue = [s]
        for v in queue:
            for u in neighbours(rows, v):
                if colour[u] is None:
                    colour[u] = 1 - colour[v]
                    queue.append(u)
                elif colour[u] == colour[v]:
                    return False
    return True


def components(rows: list[int]) -> list[list[int]]:
    seen = [False] * len(rows)
    out = []
    for s in range(len(rows)):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        for v in comp:
            for u in neighbours(rows, v):
                if not seen[u]:
                    seen[u] = True
                    comp.append(u)
        out.append(comp)
    return out


def all_components_complete_odd(rows: list[int]) -> bool:
    for comp in components(rows):
        if len(comp) % 2 == 0:
            return False
        if any(len(neighbours(rows, v)) != len(comp) - 1 for v in comp):
            return False
    return True


# --- polynomials ----------------------------------------------------------------


def interleaved_closed_form(t: int) -> list[int]:
    """Twist polynomial of K_t and genus polynomial of B_t, ascending.

    2^(t-1) (z^t + z^(t-2)) for even t and 2^t z^(t-1) for odd t.
    """
    coeffs = [0] * (t + 1)
    if t % 2:
        coeffs[t - 1] = 1 << t
    else:
        coeffs[t] += 1 << (t - 1)
        coeffs[t - 2] += 1 << (t - 1)
    return coeffs


def render_human(coeffs: list[int]) -> str:
    """Descending-power rendering, e.g. "2z^2 + 2"."""
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if not c:
            continue
        if k == 0:
            terms.append(str(c))
        else:
            z = "z" if k == 1 else f"z^{k}"
            terms.append(z if c == 1 else f"{c}{z}")
    return " + ".join(terms) if terms else "0"


def parse_poly_output(text: str) -> list[int] | str:
    """The coefficient list of a two-line polynomial answer, or a reason
    the text is not one.  The human line must render the coeffs line."""
    lines = text.splitlines()
    if len(lines) != 2 or not lines[1].startswith("coeffs: "):
        return f"expected a human line and a coeffs line, got {len(lines)} lines"
    try:
        coeffs = [int(tok) for tok in lines[1][len("coeffs: "):].split()]
    except ValueError:
        return "coeffs line is not a list of integers"
    if not coeffs or any(c < 0 for c in coeffs) or (len(coeffs) > 1 and not coeffs[-1]):
        return "coeffs line is not a normalised nonnegative vector"
    if lines[0] != render_human(coeffs):
        return f"human line {lines[0]!r} does not render {coeffs}"
    return coeffs


def poly_shape_problem(coeffs: list[int], n: int, even: bool) -> str | None:
    """Checks every twist polynomial on n elements must pass."""
    if sum(coeffs) != 1 << n:
        return f"coefficients sum to {sum(coeffs)}, not 2^{n}"
    if len(coeffs) > n + 1:
        return f"degree {len(coeffs) - 1} exceeds n = {n}"
    if even and any(c for k, c in enumerate(coeffs) if k % 2):
        return "odd exponent in the polynomial of an even family"
    return None


# --- set systems ----------------------------------------------------------------


def mask_text(mask: int) -> str:
    return ",".join(str(i) for i in range(mask.bit_length()) if (mask >> i) & 1) or "-"


def dm_text(n: int, family: list[int]) -> str:
    return "\n".join([str(n), str(len(family))] + [mask_text(f) for f in family]) + "\n"


def parse_dm_text(text: str) -> tuple[int, list[int]] | str:
    """(n, ascending family) of .dm text, or a reason it is malformed."""
    lines = text.splitlines()
    try:
        n, k = int(lines[0]), int(lines[1])
    except (IndexError, ValueError):
        return "malformed .dm header"
    if len(lines) != k + 2:
        return f".dm header announces {k} sets, found {len(lines) - 2}"
    family = []
    for ln in lines[2:]:
        mask = 0
        if ln != "-":
            for tok in ln.split(","):
                mask |= 1 << int(tok)
        family.append(mask)
    if family != sorted(set(family)) or (family and family[-1] >> n):
        return ".dm family is not strictly ascending inside the ground set"
    return n, family


def _bits(mask: int) -> list[int]:
    return [1 << i for i in range(mask.bit_length()) if (mask >> i) & 1]


def exchange_fails(family: set[int], x: int, y: int, u: int) -> bool:
    """Is (x, y, u) a witness against the symmetric exchange axiom?

    x, y feasible, u in x△y, and no v in x△y (v = u allowed) has
    x△{u,v} feasible.
    """
    d = x ^ y
    if x not in family or y not in family or not (d >> u) & 1:
        return False
    t = x ^ (1 << u)
    return t not in family and not any(t ^ bv in family for bv in _bits(d ^ (1 << u)))


def _axiom_holds(bitmap: int, family: list[int], bits: list[list[int]]) -> bool:
    # Membership by bit lookup in the family bitmap; bits[d] lists the
    # one-element masks of d.  The v = u case is x△{u} itself.
    for x in family:
        for y in family:
            d = x ^ y
            for bu in bits[d]:
                t = x ^ bu
                if (bitmap >> t) & 1:
                    continue
                for bv in bits[d ^ bu]:
                    if (bitmap >> (t ^ bv)) & 1:
                        break
                else:
                    return False
    return True


def is_delta_matroid(family: list[int]) -> bool:
    """Symmetric exchange axiom, straight from the definition."""
    bitmap = 0
    for f in family:
        bitmap |= 1 << f
    n = max(family, default=0).bit_length()
    table = [_bits(m) for m in range(1 << n)]
    return bool(family) and _axiom_holds(bitmap, family, table)


def check_lines(n: int, family: list[int]) -> list[str]:
    """The predicate lines `check` prints after "delta-matroid"."""
    sizes = [bin(f).count("1") for f in family]
    union, inter = 0, (1 << n) - 1
    for f in family:
        union |= f
        inter &= f
    yes = {True: "yes", False: "no"}
    return [
        f"even: {yes[len({s % 2 for s in sizes}) == 1]}",
        f"normal: {yes[family[0] == 0]}",
        f"matroid: {yes[len(set(sizes)) == 1]}",
        f"width: {max(sizes) - min(sizes)}",
        f"loops: {mask_text(((1 << n) - 1) & ~union)}",
        f"coloops: {mask_text(inter)}",
    ]


def count_delta_matroids(n: int) -> int:
    """Delta-matroids on {0..n-1}, by testing every nonempty family."""
    table = [_bits(m) for m in range(1 << n)]
    return sum(
        _axiom_holds(bitmap, [a for a in range(1 << n) if (bitmap >> a) & 1], table)
        for bitmap in range(1, 1 << (1 << n))
    )


# --- chord diagrams and signed rotations ------------------------------------------


def double_factorial_odd(e: int) -> int:
    """(2e-1)!!, the number of chord diagrams on 2e points."""
    out = 1
    for k in range(1, 2 * e, 2):
        out *= k
    return out


def signed_rotation_count(e: int) -> int:
    return double_factorial_odd(e) * (1 << e)


def _matchings(points: list[int]):
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    for i, other in enumerate(rest):
        for tail in _matchings(rest[:i] + rest[i + 1:]):
            yield [(first, other)] + tail


def distinct_interlacement_matrices(e: int) -> int:
    """Distinct labelled interlacement matrices over all signed rotations
    with e chords, chords labelled in order of their first endpoint."""
    seen = set()
    for chords in _matchings(list(range(2 * e))):
        chords.sort()
        cross = frozenset(
            (i, j)
            for i, (p1, p2) in enumerate(chords)
            for j, (q1, q2) in enumerate(chords)
            if i < j and (p1 < q1 < p2) != (p1 < q2 < p2)
        )
        for signs in range(1 << e):
            seen.add((cross, signs))
    return len(seen)


def simple_graph_count(n_max: int) -> int:
    """Labelled simple graphs on n vertices, summed over n = 0..n_max."""
    return sum(1 << comb(n, 2) for n in range(n_max + 1))
