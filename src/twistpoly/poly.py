"""Width and the twist polynomial of a delta-matroid.

The twist polynomial counts the 2^n twists of a delta-matroid by width.
Two independent evaluation routes are kept side by side: a naive one that
scores every twist straight from the definition, and a fast one that reads
all 2^n widths off the Hamming distances of the subsets from the feasible
family.  The fast route has two kernels for those distances: below
``SWEEP_MIN_N`` a multi-source BFS of the subset hypercube
(``_hamming_distances``), which is also the sweep's oracle, and from there
on a numpy min-sweep with one pass per coordinate (``_min_sweep``).
numpy is imported only by the kernels that use it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import SetSystem, check_enum_size


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
    sizes = [f.bit_count() for f in d.feasible]
    return max(sizes) - min(sizes)


def twist_width(d: SetSystem, a: int) -> int:
    """Width of D*A without materializing the twist."""
    if not 0 <= a <= d.full_mask:
        raise ValueError(f"twist mask {a} out of range")
    sizes = [(a ^ f).bit_count() for f in d.feasible]
    return max(sizes) - min(sizes)


def twist_polynomial_naive(d: SetSystem) -> WidthPolynomial:
    """Twist polynomial straight from the definition.

    For every subset A the width of D*A is max_F |A△F| - min_F |A△F|;
    the coefficient of z^w counts the A of twist width w.  Evaluated as a
    broadcast popcount table over (subset, feasible) pairs, in chunks to
    bound memory.
    """
    import numpy as np

    check_enum_size(d.n)
    size = 1 << d.n
    feas = np.asarray(d.feasible, dtype=np.uint32)
    counts = np.zeros(d.n + 1, dtype=np.int64)
    chunk = max(1, (1 << 22) // len(feas))
    for lo in range(0, size, chunk):
        block = np.arange(lo, min(lo + chunk, size), dtype=np.uint32)
        pc = np.bitwise_count(block[:, None] ^ feas[None, :]).astype(np.int16)
        counts += np.bincount(pc.max(axis=1) - pc.min(axis=1), minlength=d.n + 1)
    return WidthPolynomial.from_counts(counts.tolist())


def _hamming_distances(n: int, sources: list[int]) -> bytearray:
    """Multi-source BFS distances on the n-cube, one byte per subset."""
    dist = bytearray(b"\xff") * (1 << n)
    frontier = []
    for s in sources:
        if dist[s]:
            dist[s] = 0
            frontier.append(s)
    bits = [1 << i for i in range(n)]
    level = 0
    while frontier:
        level += 1
        nxt = []
        for x in frontier:
            for b in bits:
                y = x ^ b
                if dist[y] == 0xFF:
                    dist[y] = level
                    nxt.append(y)
        frontier = nxt
    return dist


# The numpy sweep wins from n = 8 on; below that numpy's fixed cost per
# call exceeds the BFS.
SWEEP_MIN_N = 8


def _min_sweep(n: int, sources: list[int]):
    """Distances of every subset from ``sources`` (nonempty) on the n-cube,
    as a uint8 numpy array: d = min(d, d[x ^ bit] + 1), one pass per bit."""
    import numpy as np

    dist = np.full(1 << n, n + 1, dtype=np.uint8)  # above every distance
    dist[sources] = 0
    for i in range(n):
        pairs = dist.reshape(-1, 2, 1 << i)  # x without, with bit i
        without, with_ = pairs[:, 0], pairs[:, 1]
        stepped = without + 1
        np.minimum(without, with_ + 1, out=without)
        np.minimum(with_, stepped, out=with_)
    return dist


def twist_polynomial_fast(d: SetSystem) -> WidthPolynomial:
    """Twist polynomial in O(2^n · n) from one Hamming-distance sweep.

    min_F |A△F| is the distance of A from the feasible sets.  The max is
    n minus the distance of E - A from them, since complementing one side
    of a symmetric difference flips |A△F| to n - |A△F|; and E - A is
    subset 2^n - 1 - A, so those distances are the sweep read backwards.
    """
    check_enum_size(d.n)
    if not d.feasible:
        raise ValueError("the twist polynomial needs a nonempty feasible family")
    n = d.n
    if n >= SWEEP_MIN_N:
        import numpy as np

        dmin = _min_sweep(n, list(d.feasible))
        counts = np.bincount(n - dmin[::-1] - dmin, minlength=n + 1).tolist()
    else:
        dmin = _hamming_distances(n, list(d.feasible))
        counts = [0] * (n + 1)
        for near, far in zip(dmin, reversed(dmin)):
            counts[n - far - near] += 1
    return WidthPolynomial.from_counts(counts)
