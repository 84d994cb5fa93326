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
from itertools import compress, count
from typing import Iterable, Iterator, NamedTuple

# Enumeration-dependent operations walk all 2^n subsets and refuse larger
# ground sets.  Structural operations (twist, direct sum, ...) have no such
# limit.
MAX_ENUM_GROUND = 16
# parse_dm refuses a ground set of n > MAX_GROUND elements, and k sets of n
# bits with n*k > MAX_MASK_BITS (32 MB), before it reads any set.
MAX_GROUND = 1_000_000
MAX_MASK_BITS = 1 << 28

class UnsupportedSizeError(ValueError):
    """Raised when a 2^n enumeration would exceed the supported envelope."""


class ParseError(ValueError):
    """Raised on malformed text input (.dm files, rotations, ...)."""


def ascii_int(tok: str) -> int:
    """int(tok) for ASCII decimal digits with surrounding whitespace only."""
    digits = tok.strip()
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an ASCII decimal integer: {tok!r}")
    return int(digits)


def signed_int(tok: str) -> int:
    """ascii_int, negated for a "-" directly before the digits."""
    text = tok.strip()
    if text[:1] == "-" and text[1:2].isdigit():
        return -ascii_int(text[1:])
    return ascii_int(text)


def element_index(tok: str, n: int) -> int:
    """The element of {0..n-1} that the text ``tok`` names, or ParseError."""
    try:
        e = ascii_int(tok)
    except ValueError:
        raise ParseError(f"malformed element index {tok!r}") from None
    if e >= n:
        raise ParseError(f"element {e} out of range 0..{n - 1}")
    return e


def check_enum_size(n: int) -> None:
    if n > MAX_ENUM_GROUND:
        raise UnsupportedSizeError(
            f"ground set of size {n} exceeds the enumeration limit of {MAX_ENUM_GROUND}"
        )


def check_mask(a: int, n: int) -> None:
    """Refuse ``a`` unless it is a subset of {0..n-1}, a mask in 0..2^n - 1."""
    if not 0 <= a < 1 << n:
        raise ValueError(f"mask {a} out of range for ground set of size {n}")


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


def set_bits(bits: int) -> Iterator[int]:
    """Indices of the set bits of ``bits``, ascending.  One pass over its
    binary text: for a 2^n-bit int this is far cheaper than iter_elements,
    which does big-int arithmetic per bit."""
    return compress(count(), format(bits, "b")[::-1].encode().replace(b"0", b"\0"))


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
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def __str__(self) -> str:
        # masks_text writes the empty set as "-", shown here as "{}"
        fam = ", ".join("{" + text.strip("-") + "}" for text in masks_text(self.feasible))
        return f"({{0..{self.n - 1}}}, [{fam}])" if self.n else f"(∅, [{fam}])"


def is_delta_matroid(s: SetSystem) -> bool:
    """Symmetric exchange axiom, by direct quantifier evaluation.

    True iff ``s`` is proper and for all feasible X, Y and u in X△Y there
    is v in X△Y (v = u allowed) with X△{u,v} feasible.  O(|F|^2 n^2)
    operations on n-bit ints, which is slow within the supported sizes:
    minutes on a dense D(C) with n = 16.  ROADMAP item 2 describes a
    bitset form of the same test.
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
    check_mask(a, d.n)
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


def delete(d: SetSystem, e: int) -> SetSystem:
    """Delete element e: contract it if it is a coloop, else drop the sets
    containing it; surviving elements are re-indexed downward."""
    return restrict(d, d.full_mask ^ (1 << e))


def restrict(d: SetSystem, a: int) -> SetSystem:
    """Restriction D|_A: the feasible sets that meet E - A in the fewest
    elements, cut down to A and re-indexed gap-free.  On a delta-matroid
    this equals deleting the elements outside A one at a time, in any
    order.  On other set systems such deletion can depend on the order,
    and this can differ from deleting from high to low."""
    check_mask(a, d.n)
    out = d.full_mask ^ a
    least = min(((f & out).bit_count() for f in d.feasible), default=0)
    kept = {f for f in d.feasible if (f & out).bit_count() == least}
    for e in range(d.n - 1, -1, -1):  # high to low keeps lower indices stable
        if (out >> e) & 1:
            kept = {f & ((1 << e) - 1) | (f >> (e + 1)) << e for f in kept}
    return SetSystem(a.bit_count(), tuple(sorted(kept)))


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
    check_mask(a, d.n)
    return d.n - min((a ^ f).bit_count() for f in d.feasible)


def min_max_parts(d: SetSystem) -> tuple[SetSystem, SetSystem]:
    """(D_min, D_max): the matroids of minimum- and maximum-size feasibles."""
    sizes = [f.bit_count() for f in d.feasible]
    lo, hi = min(sizes), max(sizes)
    dmin = SetSystem(d.n, tuple(f for f, k in zip(d.feasible, sizes) if k == lo))
    dmax = SetSystem(d.n, tuple(f for f, k in zip(d.feasible, sizes) if k == hi))
    return dmin, dmax


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
        n = ascii_int(lines[0])
        k = ascii_int(lines[1])
    except ValueError:
        raise ParseError(f"malformed header: {lines[0]!r} / {lines[1]!r}") from None
    if n > MAX_GROUND:
        raise ParseError(f"ground set size {n} exceeds the limit of {MAX_GROUND}")
    if k == 0:
        raise ParseError("feasible family must be nonempty (k >= 1)")
    if n * k > MAX_MASK_BITS:
        raise ParseError(f"n*k = {n * k} mask bits exceed the limit of {MAX_MASK_BITS}")
    if len(lines) != 2 + k:
        raise ParseError(f"expected {k} feasible-set lines, found {len(lines) - 2}")
    index: dict[str, int] = {}  # each token text's element (not its bit), checked when first seen
    masks = []
    for ln in lines[2:]:
        if ln == "-":
            masks.append(0)
            continue
        mask = 0
        for tok in ln.split(","):
            e = index.get(tok)
            if e is None:
                e = index[tok] = element_index(tok, n)
            bit = 1 << e
            if bit <= mask:  # ascending iff each bit exceeds the mask of those before it
                raise ParseError(f"indices must be strictly ascending in line {ln!r}")
            mask |= bit
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
