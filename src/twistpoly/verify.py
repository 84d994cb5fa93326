"""Exhaustive and randomized verification of the library's structural
identities over enumerated instance families.

Each check sweeps a family (all delta-matroids up to a size, all simple
graphs, all signed rotations, ...) and records every instance that
violates the identity under test, together with both sides of the failed
equation.  A report passes iff it checked something and its
counterexample list is empty.

Every check takes one size, the value ``verify --max-n`` sets, and works
out any other size from it or from its family's bound in ``_BOUNDS``.
A random check also takes a seed; ``_RANDOM`` fixes the draw count and
largest size of each sweep drawn at the size it takes, past which it
refuses to run before drawing anything.

The delta-matroids are found in one bitwise pass over all families and
streamed, not cached: the module keeps no state between checks, so a
sweep costs the same in a fresh process as in a reused one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import chain
from random import Random
from typing import Callable, Iterator, Sequence

from .core import (
    MAX_ENUM_GROUND,
    SetSystem,
    check_enum_size,
    direct_sum,
    is_delta_matroid,
    iter_elements,
    min_max_parts,
    restrict,
    rho,
    set_bits,
    tile_bits,
    twist,
)
from .bouquet import (
    SignedRotation,
    canonical_bouquet,
    delta_matroid_of_bouquet,
    euler_genus,
    interlacement_matrix,
)
from .gf2 import (
    GraphProperties,
    SymMatrixGF2,
    delta_matroid_of_matrix,
    graph_predicates,
    matrix_of_normal,
)
from .poly import (
    WidthPolynomial,
    twist_polynomial_fast,
    twist_polynomial_naive,
    twist_width,
    width,
)

_CEX_CAP = 25

_BOUNDS = {
    "all-set-systems": 4,
    "all-delta-matroids": 4,
    "all-simple-graphs": 6,
    # e = 5 alone has 30240 rotations
    "all-signed-rotations": 4,
}

# (largest size, draws) of each random sweep drawn at the size --max-n sets.
# Past its largest size a run would take over about two minutes (measured on a
# shared 2-core VM; README, --max-n).  Monomial's 10^5 draws at n = 7 are fixed
# in check_monomial_complete_odd, so it has no row.
_RANDOM = {
    "random-delta-matroids": (14, 500),
    "random-signed-rotations": (13, 10_000),
}


@dataclass
class VerificationReport:
    """Outcome of one identity sweep; passes iff no counterexamples.  It
    times itself from construction until ``done()``."""

    theorem: str
    checked: int = 0
    counterexamples: list[str] = field(default_factory=list)
    elapsed: float = 0.0
    seed: int | None = None
    notes: list[str] = field(default_factory=list)
    _suppressed: int = 0
    _start: float = field(default_factory=time.perf_counter, init=False, compare=False)

    @property
    def passed(self) -> bool:
        """A sweep that checked nothing shows nothing, so it does not pass."""
        return self.checked > 0 and not self.counterexamples

    def done(self) -> VerificationReport:
        self.elapsed = time.perf_counter() - self._start
        return self

    def fail(self, text: str) -> None:
        if len(self.counterexamples) < _CEX_CAP:
            self.counterexamples.append(text)
        else:
            self._suppressed += 1

    def machine_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        seed = "-" if self.seed is None else str(self.seed)
        return f"THEOREM {self.theorem} {status} checked={self.checked} seed={seed}"

    def render(self) -> str:
        rate = self.checked / self.elapsed if self.elapsed else 0.0
        lines = [self.machine_line() + f" elapsed={self.elapsed:.2f}s rate={rate:.0f}/s"]
        lines.extend(f"  note: {n}" for n in self.notes)
        lines.extend(f"  counterexample: {c}" for c in self.counterexamples)
        if self._suppressed:
            lines.append(f"  ... and {self._suppressed} more counterexamples")
        return "\n".join(lines)


def _check_family_bound(kind: str, n: int) -> None:
    if n > _BOUNDS[kind]:
        raise ValueError(f"{kind} enumeration bounded at {_BOUNDS[kind]}, got {n}")


def _sweep(kind: str, family: Callable[[int], Iterator], n_max: int) -> Iterator:
    """Every instance of sizes 0..n_max of one family.  Past the family's bound
    it fails before any work, as the sweep would at the first size past it."""
    _check_family_bound(kind, min(n_max, _BOUNDS[kind] + 1))
    return (x for n in range(n_max + 1) for x in family(n))


def _check_work_bound(kind: str, n: int) -> int:
    """The draw count of a random sweep at size n, refused past its largest size."""
    bound, draws = _RANDOM[kind]
    if n > bound:
        raise ValueError(f"{kind} sweep bounded at {bound} by its running time, got {n}")
    return draws


def all_set_systems(n: int) -> Iterator[SetSystem]:
    """All proper set systems on {0..n-1}: 2^(2^n) - 1 of them."""
    _check_family_bound("all-set-systems", n)
    for fb in range(1, 1 << (1 << n)):
        # via a list: tuple() over a generator starts at 10 slots and shrinks,
        # which fills CPython's per-size tuple free lists (+1.5 MB at n = 4)
        yield SetSystem(n, tuple(list(iter_elements(fb))))


def _delta_matroid_bits(n: int) -> int:
    """Every family on {0..n-1} at once: bit φ is set iff the family φ
    (bit A of φ marks A feasible) is a delta-matroid.

    z[A] has bit φ set iff A ∈ φ, so a statement about feasible sets is a
    bitwise formula over all families.  φ breaks the exchange axiom iff
    for some X and u and some S ⊆ E − u, X and Y = X△u△S are feasible
    (so X△Y = {u} ∪ S) while X△u and every X△u△v with v ∈ S are not.
    """
    _check_family_bound("all-delta-matroids", n)  # before any 2^(2^n)-bit mask
    subsets = 1 << n
    size = 1 << subsets
    z = [tile_bits(((1 << (1 << a)) - 1) << (1 << a), 2 << a, size) for a in range(subsets)]
    broken = 0
    for x in range(subsets):
        for u in range(n):
            xu = x ^ (1 << u)
            lacks = z[x] & ~z[xu]
            for s in range(subsets):
                if (s >> u) & 1:
                    continue
                violated = lacks & z[xu ^ s]
                for v in iter_elements(s):
                    violated &= ~z[xu ^ (1 << v)]
                broken |= violated
    # the empty family (φ = 0) is not a delta-matroid
    return ((1 << size) - 2) & ~broken


def all_delta_matroids(n: int) -> Iterator[SetSystem]:
    """All delta-matroids on {0..n-1}, in the order of all_set_systems.

    They are read off the set bits of one family bitset, one at a time;
    the quantifier loop of core.is_delta_matroid is the oracle of that
    bitset in the tests.
    """
    for fb in set_bits(_delta_matroid_bits(n)):
        yield SetSystem(n, tuple(list(iter_elements(fb))))


def count_delta_matroids(n: int) -> int:
    return _delta_matroid_bits(n).bit_count()


def _symmetric_from_bits(n: int, bits: int, zero_diagonal: bool) -> SymMatrixGF2:
    rows = [0] * n
    k = 0
    for i in range(n):
        if not zero_diagonal:
            if (bits >> k) & 1:
                rows[i] |= 1 << i
            k += 1
        for j in range(i + 1, n):
            if (bits >> k) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    return SymMatrixGF2(n, tuple(rows))


def all_simple_graph_matrices(n: int) -> Iterator[SymMatrixGF2]:
    """All 2^(n(n-1)/2) zero-diagonal symmetric matrices (simple graphs)."""
    _check_family_bound("all-simple-graphs", n)
    for bits in range(1 << (n * (n - 1) // 2)):
        yield _symmetric_from_bits(n, bits, zero_diagonal=True)


def random_symmetric_matrix(
    n: int, rng: Random, zero_diagonal: bool = False
) -> SymMatrixGF2:
    nbits = n * (n + 1) // 2 if not zero_diagonal else n * (n - 1) // 2
    return _symmetric_from_bits(n, rng.getrandbits(nbits) if nbits else 0, zero_diagonal)


def complete_graph_matrix(v: int) -> SymMatrixGF2:
    return _symmetric_from_bits(v, (1 << v * (v - 1) // 2) - 1, zero_diagonal=True)


def _pairings(points: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
    if not points:
        yield ()
        return
    a = points[0]
    for i in range(1, len(points)):
        b = points[i]
        rest = points[1:i] + points[i + 1 :]
        for tail in _pairings(rest):
            yield ((a, b),) + tail


def _rotation(pairs: Sequence[tuple[int, int]], orientable_bits: int) -> SignedRotation:
    """The rotation with a chord per position pair.  Edges are numbered by first
    position, as parsing numbers them; bit i of orientable_bits orients edge i."""
    seq = [(0, 0)] * (2 * len(pairs))
    for edge, (p, q) in enumerate(sorted((min(p, q), max(p, q)) for p, q in pairs)):
        seq[p] = (edge, 1)
        seq[q] = (edge, 1 if (orientable_bits >> edge) & 1 else -1)
    return SignedRotation(tuple(seq), tuple(range(1, len(pairs) + 1)))


def all_signed_rotations(e: int) -> Iterator[SignedRotation]:
    """All chord diagrams on 2e points times all orientability patterns:
    (2e-1)!! * 2^e rotations."""
    _check_family_bound("all-signed-rotations", e)
    for pairing in _pairings(tuple(range(2 * e))):
        for bits in range(1 << e):
            yield _rotation(pairing, bits)


def random_signed_rotation(e: int, rng: Random) -> SignedRotation:
    spots = list(range(2 * e))
    rng.shuffle(spots)
    return _rotation([(spots[2 * i], spots[2 * i + 1]) for i in range(e)], rng.getrandbits(e))


def random_delta_matroid(n: int, rng: Random) -> SetSystem:
    """A random twist of a random binary delta-matroid; not uniform, but
    covers non-normal and odd instances."""
    c = random_symmetric_matrix(n, rng)
    d = delta_matroid_of_matrix(c)
    return twist(d, rng.getrandbits(n))


# --- closed forms -------------------------------------------------------------


def interleaved_genus_closed_form(t: int) -> WidthPolynomial:
    """Partial-duality polynomial of the fully interleaved bouquet B_t:
    2^t z^(t-1) for odd t, 2^(t-1) z^t + 2^(t-1) z^(t-2) for even t."""
    counts = [0] * (t + 1)
    if t % 2:
        counts[t - 1] = 1 << t
    else:
        counts[t] = 1 << (t - 1)
        counts[t - 2] = 1 << (t - 1)
    return WidthPolynomial.from_counts(counts)


def _check_closed_form(
    theorem: str, name: str, t_max: int, polynomial: Callable[[int], WidthPolynomial]
) -> VerificationReport:
    """The polynomial of each name_t, t = 1..t_max, against the closed form."""
    check_enum_size(min(t_max, MAX_ENUM_GROUND + 1))  # name_t has t elements; before any is built
    rep = VerificationReport(theorem)
    for t in range(1, t_max + 1):
        rep.checked += 1
        got = polynomial(t)
        want = interleaved_genus_closed_form(t)
        if got != want:
            rep.fail(f"{name}_{t}: {got} != {want}")
    return rep.done()


# --- checks -------------------------------------------------------------------


def check_prop2(n_max: int = 4) -> VerificationReport:
    """Twist-polynomial basics: evaluation at 1 counts all twists, twisting
    leaves the polynomial unchanged, and direct sums multiply it."""
    rep = VerificationReport("prop2")
    ref = SetSystem.from_sets(2, [[0], [1]])
    ref_poly = twist_polynomial_fast(ref)
    for d in _sweep("all-delta-matroids", all_delta_matroids, n_max):
        rep.checked += 1
        p = twist_polynomial_fast(d)
        if p.eval_at_1 != 1 << d.n:
            rep.fail(f"eval at 1: D={d}: {p.eval_at_1} != {1 << d.n}")
        for a in range(1 << d.n):
            pa = twist_polynomial_fast(twist(d, a))
            if pa != p:
                rep.fail(f"twist invariance: D={d}, A={a:#b}: {pa} != {p}")
                break
        psum = twist_polynomial_fast(direct_sum(d, ref))
        if psum != p * ref_poly:
            rep.fail(f"sum with reference: D={d}: {psum} != {p * ref_poly}")
        pself = twist_polynomial_fast(direct_sum(d, d))
        if pself != p * p:
            rep.fail(f"sum with self: D={d}: {pself} != {p * p}")
    return rep.done()


def check_lemma4(t_max: int = 12) -> VerificationReport:
    """Fully interleaved bouquets, traced, match their closed-form genus
    polynomial.  Their interlacement matrix is K_t: prop1 is the algebraic route."""
    return _check_closed_form(
        "lemma4", "B", t_max,
        lambda t: twist_polynomial_fast(delta_matroid_of_bouquet(canonical_bouquet(t))),
    )


def check_prop1(v_max: int = 12) -> VerificationReport:
    """Complete intersection graphs: D(K_v adjacency) matches the same
    closed form as the interleaved bouquets."""
    return _check_closed_form(
        "prop1", "K", v_max,
        lambda v: twist_polynomial_fast(delta_matroid_of_matrix(complete_graph_matrix(v))),
    )


def check_constant_iff_single(n_max: int = 4) -> VerificationReport:
    """The twist polynomial is a nonzero constant iff there is exactly one
    feasible set."""
    rep = VerificationReport("constant-iff-single")
    for d in _sweep("all-delta-matroids", all_delta_matroids, n_max):
        rep.checked += 1
        p = twist_polynomial_fast(d)
        if p.is_constant != (len(d.feasible) == 1):
            rep.fail(f"D={d}: constant={p.is_constant}, |F|={len(d.feasible)}")
    return rep.done()


def check_lemma5_and_lemma2(n_max: int = 4) -> VerificationReport:
    """Width of a restriction via the rank identity, and the twist-width
    split w(D*A) = w(D|_A) + w(D|_A^c) for normal delta-matroids.

    Also confirms that the classic non-normal instance ({0},{1}) violates
    the split, as it must.
    """
    rep = VerificationReport("lemma5-lemma2")
    for d in _sweep("all-delta-matroids", all_delta_matroids, n_max):
        rep.checked += 1
        full = d.full_mask
        dmin, _ = min_max_parts(d)
        r_min = dmin.feasible[0].bit_count()
        null_e = d.n - r_min
        restricted_width = [0] * (1 << d.n)
        for a in range(1 << d.n):
            wa = width(restrict(d, a))
            restricted_width[a] = wa
            ra = max((a & b).bit_count() for b in dmin.feasible)
            rhs = rho(d, a) - ra - null_e + (a.bit_count() - ra)
            if wa != rhs:
                rep.fail(f"restriction width identity: D={d}, A={a:#b}: {wa} != {rhs}")
        if d.feasible[0] == 0:
            for a in range(1 << d.n):
                lhs = twist_width(d, a)
                rhs = restricted_width[a] + restricted_width[full ^ a]
                if lhs != rhs:
                    rep.fail(f"twist-width split: D={d}, A={a:#b}: {lhs} != {rhs}")
    remark = SetSystem.from_sets(2, [[0], [1]])
    lhs = twist_width(remark, 1)
    rhs = width(restrict(remark, 1)) + width(restrict(remark, 2))
    rep.checked += 1
    if lhs == rhs:
        rep.fail(f"non-normal witness {remark} unexpectedly satisfies the split")
    else:
        rep.notes.append(
            f"non-normal witness {remark}: split violated as expected ({lhs} != {rhs})"
        )
    return rep.done()


def _binary_graph(
    rep: VerificationReport, c: SymMatrixGF2
) -> tuple[SetSystem, WidthPolynomial, GraphProperties] | None:
    """Count the instance C, build D(C) and check that C comes back from
    it.  Returns D(C), its polynomial and the graph predicates, or None
    after recording the failed round trip."""
    rep.checked += 1
    d = delta_matroid_of_matrix(c)
    recon = matrix_of_normal(d)
    if recon != c:
        rep.fail(f"round trip: C={c.rows} reconstructed as {recon.rows}")
        return None
    return d, twist_polynomial_fast(d), graph_predicates(recon)


def check_bipartite_constant_term(n_max: int = 6) -> VerificationReport:
    """For even normal binary delta-matroids: nonzero constant term iff the
    intersection graph is bipartite; on bipartite instances the 2-coloring
    is checked to witness a width-zero twist."""
    rep = VerificationReport("bipartite-constant")
    for c in _sweep("all-simple-graphs", all_simple_graph_matrices, n_max):
        if (graph := _binary_graph(rep, c)) is None:
            continue
        d, p, props = graph
        if (p.constant_term > 0) != props.is_bipartite:
            rep.fail(
                f"C={c.rows}: constant term {p.constant_term}, "
                f"bipartite={props.is_bipartite}"
            )
            continue
        if props.is_bipartite and c.n:
            x, y = props.coloring
            wx = width(restrict(d, x))
            wy = width(restrict(d, y))
            if wx or wy or twist_width(d, x) != 0:
                rep.fail(
                    f"C={c.rows}: 2-coloring X={x:#b} gives widths "
                    f"{wx}, {wy}, twist width {twist_width(d, x)}"
                )
    return rep.done()


def check_monomial_complete_odd(n_max: int = 7, seed: int = 0) -> VerificationReport:
    """Monomial twist polynomial iff every component of the intersection
    graph is complete of odd order (even normal binary case); exhaustive
    up to min(n_max, 6), plus 10^5 samples at n = 7 when n_max > 6."""
    rep = VerificationReport("monomial-complete-odd", seed=seed)
    bound = _BOUNDS["all-simple-graphs"]
    rng = Random(seed)
    exhaustive = _sweep("all-simple-graphs", all_simple_graph_matrices, min(n_max, bound))
    samples = 100_000 if n_max > bound else 0
    sampled = (random_symmetric_matrix(bound + 1, rng, zero_diagonal=True) for _ in range(samples))
    for c in chain(exhaustive, sampled):
        if (graph := _binary_graph(rep, c)) is None:
            continue
        _, p, props = graph
        if p.is_monomial != props.all_components_complete_odd:
            rep.fail(
                f"C={c.rows}: monomial={p.is_monomial}, "
                f"components complete odd={props.all_components_complete_odd}"
            )
    return rep.done()


def check_interlacement_oracle(e_max: int = 8, seed: int = 0) -> VerificationReport:
    """Boundary tracing against interlacement linear algebra: both must
    produce the same feasible sets, and the full-subgraph Euler genus must
    equal the delta-matroid width.  Exhaustive up to min(e_max, 4), then
    10^4 random rotations with up to e_max edges."""
    draws = _check_work_bound("random-signed-rotations", e_max) if e_max >= 1 else 0
    rep = VerificationReport("interlacement-oracle", seed=seed)

    def verify(rot: SignedRotation, check_axiom: bool) -> None:
        rep.checked += 1
        traced = delta_matroid_of_bouquet(rot)
        algebraic = delta_matroid_of_matrix(interlacement_matrix(rot))
        if traced != algebraic:
            rep.fail(f"rotation {rot}: traced {traced} != algebraic {algebraic}")
            return
        if check_axiom and not is_delta_matroid(traced):
            rep.fail(f"rotation {rot}: {traced} is not a delta-matroid")
            return
        genus = euler_genus(rot, rot.full_mask)
        if genus != width(traced):
            rep.fail(f"rotation {rot}: genus {genus} != width {width(traced)}")

    # the exchange axiom is re-checked only on the small exhaustive part
    for e in range(1, min(e_max, _BOUNDS["all-signed-rotations"]) + 1):
        for rot in all_signed_rotations(e):
            verify(rot, True)
    rng = Random(seed)
    for _ in range(draws):
        verify(random_signed_rotation(rng.randint(1, e_max), rng), False)
    return rep.done()


def check_same_interlacement_pairs(e: int = 4) -> VerificationReport:
    """Distinct rotations with equal interlacement matrices must have equal
    partial-duality polynomials, each traced on its own ribbon graph;
    enumerates all rotations with min(e, 4) edges."""
    rep = VerificationReport("same-interlacement-pairs")
    buckets: dict[tuple[int, ...], list[SignedRotation]] = {}
    for rot in all_signed_rotations(min(e, _BOUNDS["all-signed-rotations"])):
        buckets.setdefault(interlacement_matrix(rot).rows, []).append(rot)
    for rots in buckets.values():
        if len(rots) < 2:
            continue
        base = twist_polynomial_fast(delta_matroid_of_bouquet(rots[0]))
        for other in rots[1:]:
            rep.checked += 1
            got = twist_polynomial_fast(delta_matroid_of_bouquet(other))
            if got != base:
                rep.fail(f"{rots[0]} vs {other}: {base} != {got}")
    return rep.done()


def check_fast_naive_equivalence(n_random: int = 12, seed: int = 0) -> VerificationReport:
    """The BFS polynomial path must agree bit-exactly with the definition:
    on every delta-matroid with n <= 4, then on 500 random ones with
    n = n_random."""
    draws = _check_work_bound("random-delta-matroids", n_random)
    rep = VerificationReport("fast-naive", seed=seed)
    for d in _sweep("all-delta-matroids", all_delta_matroids, _BOUNDS["all-delta-matroids"]):
        rep.checked += 1
        if twist_polynomial_fast(d) != twist_polynomial_naive(d):
            rep.fail(f"D={d}")
    rng = Random(seed)
    for _ in range(draws):
        d = random_delta_matroid(n_random, rng)
        rep.checked += 1
        fast = twist_polynomial_fast(d)
        naive = twist_polynomial_naive(d)
        if fast != naive:
            rep.fail(f"random D with |F|={len(d.feasible)}: {fast} != {naive}")
    return rep.done()


# --- suites -------------------------------------------------------------------

_SUITES = {
    "prop2": (check_prop2,),
    "lemma4": (check_lemma4,),
    "lemma5": (check_lemma5_and_lemma2,),
    "prop1": (check_prop1,),
    "constant": (check_constant_iff_single,),
    "bipartite": (check_bipartite_constant_term,),
    "monomial": (check_monomial_complete_odd,),
    "interlacement": (check_interlacement_oracle, check_same_interlacement_pairs),
    "fastnaive": (check_fast_naive_equivalence,),
}

_SEEDED = (check_monomial_complete_odd, check_interlacement_oracle, check_fast_naive_equivalence)

SUITE_NAMES = ("all", *_SUITES)


def run_suite(name: str, max_n: int | None = None, seed: int = 0) -> list[VerificationReport]:
    """Run one named suite (or all of them).  max_n, when given, is the one
    size each check takes (None keeps the checks' defaults); seed drives
    the randomized sweeps."""
    if max_n is not None and max_n < 0:
        raise ValueError(f"max-n must be nonnegative, got {max_n}")
    if name == "all":
        return [rep for sub in _SUITES for rep in run_suite(sub, max_n, seed)]
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}")
    sizes = () if max_n is None else (max_n,)
    return [
        check(*sizes, **({"seed": seed} if check in _SEEDED else {}))
        for check in _SUITES[name]
    ]
