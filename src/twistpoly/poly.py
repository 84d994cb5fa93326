"""Width and the twist polynomial of a delta-matroid.

The twist polynomial counts the 2^n twists of a delta-matroid by width.
Two independent evaluation routes are kept side by side: a naive one that
scores every twist straight from the definition, and a fast one that reads
all 2^n widths off the Hamming distances of the subsets from the feasible
family.  The fast route finds those distances with one level-set BFS of
the subset hypercube, held as 2^n-bit ints in which bit A stands for
subset A.  Only the naive route imports numpy, and only when called.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import SetSystem, check_enum_size, check_mask, tile_bits


@dataclass(frozen=True)
class WidthPolynomial:
    """Coefficient vector, index = width exponent, ascending."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("coefficient vector must be nonempty")
        if any(c < 0 for c in self.coeffs):
            raise ValueError("coefficients must be nonnegative")
        if len(self.coeffs) > 1 and self.coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")

    @classmethod
    def from_counts(cls, counts: list[int]) -> "WidthPolynomial":
        top = len(counts)
        while top > 1 and counts[top - 1] == 0:
            top -= 1
        return cls(tuple(counts[:top]))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def constant_term(self) -> int:
        return self.coeffs[0]

    @property
    def is_monomial(self) -> bool:
        return sum(1 for c in self.coeffs if c) == 1

    @property
    def is_constant(self) -> bool:
        return self.degree == 0

    @property
    def eval_at_1(self) -> int:
        return sum(self.coeffs)

    def __mul__(self, other: "WidthPolynomial") -> "WidthPolynomial":
        out = [0] * (self.degree + other.degree + 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return WidthPolynomial.from_counts(out)

    def human(self) -> str:
        """Descending-degree rendering, e.g. "2z^2 + 2"."""
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                z = "z" if k == 1 else f"z^{k}"
                terms.append(z if c == 1 else f"{c}{z}")
        return " + ".join(terms) if terms else "0"

    def machine(self) -> str:
        return "coeffs: " + " ".join(str(c) for c in self.coeffs)

    def __str__(self) -> str:
        return self.human()


def width(d: SetSystem) -> int:
    """max feasible size - min feasible size; zero exactly for matroids."""
    return twist_width(d, 0)


def twist_width(d: SetSystem, a: int) -> int:
    """Width of D*A without materializing the twist."""
    check_mask(a, d.n)
    sizes = [(a ^ f).bit_count() for f in d.feasible]
    return max(sizes) - min(sizes)


def twist_polynomial_naive(d: SetSystem) -> WidthPolynomial:
    """Twist polynomial straight from the definition.

    For every subset A the width of D*A is max_F |A△F| - min_F |A△F|;
    the coefficient of z^w counts the A of twist width w.  Evaluated as a
    broadcast popcount table over (subset, feasible) pairs, in chunks to
    bound memory.
    """
    check_enum_size(d.n)
    if not d.feasible:
        raise ValueError("the twist polynomial needs a nonempty feasible family")
    import numpy as np

    size = 1 << d.n
    feas = np.asarray(d.feasible, dtype=np.uint32)
    counts = np.zeros(d.n + 1, dtype=np.int64)
    chunk = max(1, (1 << 22) // len(feas))
    for lo in range(0, size, chunk):
        block = np.arange(lo, min(lo + chunk, size), dtype=np.uint32)
        pc = np.bitwise_count(block[:, None] ^ feas[None, :]).astype(np.int16)
        counts += np.bincount(pc.max(axis=1) - pc.min(axis=1), minlength=d.n + 1)
    return WidthPolynomial.from_counts(counts.tolist())


_REVERSED_BYTE = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _reversed_bits(x: int, size: int) -> int:
    """Bit A of ``x`` moved to bit size - 1 - A, a byte at a time."""
    nbytes = (size + 7) >> 3
    rev = int.from_bytes(x.to_bytes(nbytes, "little").translate(_REVERSED_BYTE), "big")
    return rev >> ((nbytes << 3) - size)


def twist_polynomial_fast(d: SetSystem) -> WidthPolynomial:
    """Twist polynomial of ``d`` by ``twist_polynomial_of_bits``."""
    check_enum_size(d.n)
    digits = bytearray(b"0") * (1 << d.n)  # digit A is "1" (49) iff A is feasible
    for f in d.feasible:
        digits[f] = 49
    return twist_polynomial_of_bits(int(digits[::-1], 2), d.n)


def twist_polynomial_of_bits(feasible: int, n: int) -> WidthPolynomial:
    """Twist polynomial of the family whose sets are the set bits of
    ``feasible``, a 2^n-bit int in which bit A stands for subset A.

    min_F |A△F| is the distance of A from the feasible sets: the level of
    the multi-source BFS of the n-cube that reaches A.  A level is a
    bitset of subsets, and the next one is it moved across every
    coordinate i (bit A to bit A ^ 2^i, one masked shift each way) minus
    what was reached before.  The max is n minus the distance of E - A,
    since complementing one side of a symmetric difference flips |A△F| to
    n - |A△F|; and E - A is subset 2^n - 1 - A, so those distances are the
    levels read backwards.  A twist of width w lies in level j and in
    reversed level k with j + k = n - w.
    """
    check_enum_size(n)
    if not feasible:
        raise ValueError("the twist polynomial needs a nonempty feasible family")
    size = 1 << n
    full = (1 << size) - 1
    level = reached = feasible
    # (2^i, the subsets without i): the low half of every period of 2^(i+1)
    moves = [(1 << i, tile_bits((1 << (1 << i)) - 1, 2 << i, size)) for i in range(n)]
    levels = [level]
    while reached != full:  # the n-cube is connected: each level is nonempty
        grown = 0
        for w, without_i in moves:
            grown |= (level & without_i) << w | (level >> w) & without_i
        level = grown & ~reached
        reached |= level
        levels.append(level)
    far = [_reversed_bits(x, size) for x in levels]
    counts = [0] * (n + 1)
    for j, near in enumerate(levels):
        for k, rev in enumerate(far[: n + 1 - j]):
            counts[n - j - k] += (near & rev).bit_count()
    return WidthPolynomial.from_counts(counts)
