"""Set systems and delta-matroids over bitmask-encoded feasible families.

The ground set is always {0, ..., n-1} and a subset of it is an int whose
bit i marks membership of element i.  A set system is that ground set plus
a family of feasible subsets; a delta-matroid is a proper set system whose
family satisfies the symmetric exchange axiom.  All values are immutable
and every operation is a pure function, so everything here is safe to use
from concurrent workers without coordination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

# Enumeration-dependent operations walk all 2^n subsets and refuse larger
# ground sets.  Structural operations (twist, direct sum, ...) have no such
# limit.
MAX_ENUM_GROUND = 16
# Parsers refuse larger ground sets: a size costs memory before any set is
# read (one bit per element in every mask, one row per vertex).
MAX_GROUND = 1_000_000

class UnsupportedSizeError(ValueError):
    """Raised when a 2^n enumeration would exceed the supported envelope."""


class ParseError(ValueError):
    """Raised on malformed text input (.dm files, rotations, ...)."""


def check_enum_size(n: int) -> None:
    if n > MAX_ENUM_GROUND:
        raise UnsupportedSizeError(
            f"ground set of size {n} exceeds the enumeration limit of {MAX_ENUM_GROUND}"
        )


def mask_of(elements: Iterable[int]) -> int:
    """Bitmask of an iterable of element indices."""
    m = 0
    for e in elements:
        m |= 1 << e
    return m


def iter_elements(mask: int) -> Iterator[int]:
    """Element indices of a bitmask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def tile_bits(block: int, period: int, size: int) -> int:
    """``block`` (below 2^period) repeated every ``period`` bits over ``size``
    bits.  Where bit A stands for subset A, the subsets without element d
    are the low halves of periods of 2^(d+1): the kernels' masks are tiles."""
    while period < size:
        block |= block << period
        period <<= 1
    return block


@dataclass(frozen=True)
class SetSystem:
    """A pair (ground set {0..n-1}, feasible family).

    ``feasible`` is a strictly increasing tuple of bitmasks; this canonical
    form makes equality of set systems plain tuple equality.
    """

    n: int
    feasible: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("ground set size must be nonnegative")
        prev = -1
        top = 1 << self.n
        for m in self.feasible:
            if m <= prev:
                raise ValueError("feasible masks must be strictly increasing")
            if m >= top:
                raise ValueError(f"feasible mask {m:#b} outside ground set of size {self.n}")
            prev = m

    @classmethod
    def from_masks(cls, n: int, masks: Iterable[int]) -> "SetSystem":
        return cls(n, tuple(sorted(set(masks))))

    @classmethod
    def from_sets(cls, n: int, sets: Iterable[Iterable[int]]) -> "SetSystem":
        return cls.from_masks(n, (mask_of(s) for s in sets))

    @property
    def is_proper(self) -> bool:
        return bool(self.feasible)

    @property
    def is_trivial(self) -> bool:
        return self.n == 0

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def feasible_sets(self) -> list[frozenset[int]]:
        return [frozenset(iter_elements(m)) for m in self.feasible]

    def __str__(self) -> str:
        fam = ", ".join(
            "{" + ",".join(str(e) for e in iter_elements(m)) + "}" if m else "{}"
            for m in self.feasible
        )
        return f"({{0..{self.n - 1}}}, [{fam}])" if self.n else f"(∅, [{fam}])"


# In signatures below, a DeltaMatroid is a SetSystem expected to satisfy
# the exchange axiom; is_delta_matroid is the test.
DeltaMatroid = SetSystem

TRIVIAL = SetSystem(0, (0,))


def is_delta_matroid(s: SetSystem) -> bool:
    """Symmetric exchange axiom, by direct quantifier evaluation.

    True iff ``s`` is proper and for all feasible X, Y and u in X△Y there
    is v in X△Y (v = u allowed) with X△{u,v} feasible.  O(|F|^2 n^2); the
    supported sizes make cleverness unnecessary.
    """
    feas = s.feasible
    if not feas:
        return False
    members = set(feas)
    for x in feas:
        for y in feas:
            d = x ^ y
            du = d
            while du:
                bu = du & -du
                du ^= bu
                t = x ^ bu  # v = u
                if t in members:
                    continue
                dv = d ^ bu
                while dv:
                    bv = dv & -dv
                    dv ^= bv
                    if t ^ bv in members:
                        break
                else:
                    return False
    return True


def twist(d: SetSystem, a: int) -> SetSystem:
    """Twist D*A: replace every feasible set F by A△F."""
    if not 0 <= a <= d.full_mask:
        raise ValueError(f"twist mask {a} out of range for ground set of size {d.n}")
    return SetSystem(d.n, tuple(sorted(a ^ f for f in d.feasible)))


def dual(d: SetSystem) -> SetSystem:
    """The dual, i.e. the twist by the whole ground set."""
    return twist(d, d.full_mask)


def direct_sum(d1: SetSystem, d2: SetSystem) -> SetSystem:
    """Direct sum; d2's elements are re-indexed to n1..n1+n2-1."""
    shift = d1.n
    fam = tuple(
        sorted(f1 | (f2 << shift) for f2 in d2.feasible for f1 in d1.feasible)
    )
    return SetSystem(d1.n + d2.n, fam)


def loops_coloops(d: SetSystem) -> tuple[int, int]:
    """(loops, coloops): elements in no feasible set / in every feasible set."""
    union = 0
    inter = d.full_mask
    for f in d.feasible:
        union |= f
        inter &= f
    return d.full_mask & ~union, inter


def _drop_index(mask: int, e: int) -> int:
    """Remove bit e and shift higher bits down (gap-free re-indexing)."""
    low = mask & ((1 << e) - 1)
    high = (mask >> (e + 1)) << e
    return low | high


def delete(d: SetSystem, e: int) -> SetSystem:
    """Delete element e; surviving elements are re-indexed downward."""
    if not 0 <= e < d.n:
        raise ValueError(f"element {e} out of range for ground set of size {d.n}")
    be = 1 << e
    coloop = all(f & be for f in d.feasible)
    if coloop:
        kept = [f ^ be for f in d.feasible]
    else:
        kept = [f for f in d.feasible if not f & be]
    fam = tuple(sorted(_drop_index(f, e) for f in kept))
    return SetSystem(d.n - 1, fam)


def restrict(d: SetSystem, a: int) -> SetSystem:
    """Restriction D|_A: delete every element outside A."""
    if not 0 <= a <= d.full_mask:
        raise ValueError(f"restriction mask {a} out of range")
    out = d
    for e in range(d.n - 1, -1, -1):  # high to low keeps lower indices stable
        if not (a >> e) & 1:
            out = delete(out, e)
    return out


class Predicates(NamedTuple):
    is_even: bool
    is_normal: bool
    is_matroid: bool


def predicates(d: SetSystem) -> Predicates:
    """Evenness (all feasible sizes share parity), normality (∅ feasible),
    and matroidness (all feasible sizes equal)."""
    sizes = [f.bit_count() for f in d.feasible]
    even = all(k % 2 == sizes[0] % 2 for k in sizes) if sizes else True
    normal = bool(d.feasible) and d.feasible[0] == 0
    matroid = bool(sizes) and min(sizes) == max(sizes)
    return Predicates(even, normal, matroid)


def rho(d: SetSystem, a: int) -> int:
    """Bouchet's rank: |E| - min over feasible F of |A△F|."""
    if not 0 <= a <= d.full_mask:
        raise ValueError(f"mask {a} out of range")
    return d.n - min((a ^ f).bit_count() for f in d.feasible)


def _require_matroid(m: SetSystem) -> None:
    sizes = {f.bit_count() for f in m.feasible}
    if len(sizes) != 1:
        raise ValueError("not a matroid: feasible sets have unequal cardinalities")


def matroid_rank(m: SetSystem, a: int) -> int:
    """Matroid rank of A: max |A ∩ B| over bases B."""
    _require_matroid(m)
    if not 0 <= a <= m.full_mask:
        raise ValueError(f"mask {a} out of range")
    return max((a & b).bit_count() for b in m.feasible)


def matroid_nullity(m: SetSystem, a: int) -> int:
    """Nullity of A: |A| - rank(A)."""
    return a.bit_count() - matroid_rank(m, a)


def min_max_parts(d: SetSystem) -> tuple[SetSystem, SetSystem]:
    """(D_min, D_max): the matroids of minimum- and maximum-size feasibles."""
    sizes = [f.bit_count() for f in d.feasible]
    lo, hi = min(sizes), max(sizes)
    dmin = SetSystem(d.n, tuple(f for f, k in zip(d.feasible, sizes) if k == lo))
    dmax = SetSystem(d.n, tuple(f for f, k in zip(d.feasible, sizes) if k == hi))
    return dmin, dmax


def _splits_over(d: SetSystem, part: int) -> bool:
    """Does the family factor as (traces on part) x (traces on complement)?

    Every feasible set splits uniquely over a bipartition, so the family
    factors iff |F| equals the product of the two trace counts.
    """
    comp = d.full_mask & ~part
    left = {f & part for f in d.feasible}
    right = {f & comp for f in d.feasible}
    return len(left) * len(right) == len(d.feasible)


def is_connected(d: SetSystem) -> bool:
    """Connectivity: no bipartition of E writes D as a direct sum.

    Normal binary delta-matroids short-circuit through connectivity of the
    intersection graph; everything else is a brute-force bipartition search,
    which is why ground sets beyond the enumeration limit are rejected.
    """
    if d.n <= 1:
        return True
    check_enum_size(d.n)
    if d.feasible and d.feasible[0] == 0:
        from . import gf2  # deferred: gf2 depends on this module

        c = gf2.matrix_of_normal(d)
        if gf2.delta_matroid_of_matrix(c) == d:  # d is normal binary: d = D(C)
            graph = gf2.IntersectionGraph(c)
            return len(gf2.graph_predicates(graph).components) <= 1
    # Fix element 0 on the left side so each bipartition is seen once.
    for part in range(1 << (d.n - 1)):
        left = (part << 1) | 1
        if left == d.full_mask:
            continue
        if _splits_over(d, left):
            return False
    return True


# --- .dm text format -------------------------------------------------------
#
# line 1: ground set size n
# line 2: k = number of feasible sets (k >= 1)
# then k lines: comma-separated ascending element indices, "-" for the
# empty set.


def parse_dm(text: str) -> SetSystem:
    lines = [ln.strip() for ln in text.splitlines()]
    while lines and not lines[-1]:
        lines.pop()
    if len(lines) < 2:
        raise ParseError("expected at least two header lines (n and k)")
    try:
        n = int(lines[0])
        k = int(lines[1])
    except ValueError:
        raise ParseError(f"malformed header: {lines[0]!r} / {lines[1]!r}") from None
    if n < 0:
        raise ParseError("ground set size must be nonnegative")
    if n > MAX_GROUND:
        raise ParseError(f"ground set size {n} exceeds the limit of {MAX_GROUND}")
    if k <= 0:
        raise ParseError("feasible family must be nonempty (k >= 1)")
    if len(lines) != 2 + k:
        raise ParseError(f"expected {k} feasible-set lines, found {len(lines) - 2}")
    masks = []
    for ln in lines[2:]:
        if ln == "-":
            masks.append(0)
            continue
        mask = 0
        prev = -1
        for tok in ln.split(","):
            try:
                e = int(tok)
            except ValueError:
                raise ParseError(f"malformed element index {tok!r}") from None
            if e <= prev:
                raise ParseError(f"indices must be strictly ascending in line {ln!r}")
            if not 0 <= e < n:
                raise ParseError(f"element {e} out of range 0..{n - 1}")
            mask |= 1 << e
            prev = e
        masks.append(mask)
    if len(set(masks)) != len(masks):
        raise ParseError("duplicate feasible sets")
    return SetSystem(n, tuple(sorted(masks)))


def masks_text(masks: Iterable[int]) -> list[str]:
    """The .dm text of each mask: ascending element indices joined by
    commas, "-" for the empty set.

    A mask is read a byte at a time through ``int.to_bytes``, so the cost
    is linear in its length, and the text of each (byte position, byte
    value) is built once per call and shared by all the masks.
    """
    memo: dict[int, str] = {}
    out = []
    for m in masks:
        parts = []
        for pos, byte in enumerate(m.to_bytes((m.bit_length() + 7) >> 3, "little")):
            if byte:
                key = pos << 8 | byte
                text = memo.get(key)
                if text is None:
                    base = pos << 3
                    text = ",".join(str(base + j) for j in range(8) if byte >> j & 1)
                    memo[key] = text
                parts.append(text)
        out.append(",".join(parts) or "-")
    return out


def format_dm(s: SetSystem) -> str:
    return "\n".join([str(s.n), str(len(s.feasible)), *masks_text(s.feasible)]) + "\n"
