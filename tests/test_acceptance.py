"""Acceptance criteria, one test per criterion.

Each test prints one PASS/FAIL line (visible under ``pytest -s``) and
enforces both the exact expected values and the stated runtime budget.
"""

from __future__ import annotations

import time

from twistpoly.bouquet import (
    boundary_components,
    canonical_bouquet,
    euler_genus,
    parse_signed_rotation,
    partial_duality_polynomial,
)
from twistpoly.gf2 import delta_matroid_of_matrix
from twistpoly.poly import twist_polynomial_fast
from twistpoly.verify import (
    check_bipartite_constant_term,
    check_constant_iff_single,
    check_fast_naive_equivalence,
    check_interlacement_oracle,
    check_lemma5_and_lemma2,
    check_monomial_complete_odd,
    check_prop2,
    check_same_interlacement_pairs,
    complete_graph_matrix,
)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
    print(line if not detail else f"{line} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def _expected_interleaved(t: int) -> tuple[int, ...]:
    coeffs = [0] * (t + 1)
    if t % 2:
        coeffs[t - 1] = 2**t
    else:
        coeffs[t] = 2 ** (t - 1)
        coeffs[t - 2] = 2 ** (t - 1)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def test_acceptance_1_interleaved_bouquet_closed_form():
    t0 = time.perf_counter()
    ok = all(
        partial_duality_polynomial(canonical_bouquet(t)).coeffs
        == _expected_interleaved(t)
        for t in range(1, 13)
    )
    elapsed = time.perf_counter() - t0
    _report(1, "interleaved bouquet closed form t=1..12", ok and elapsed < 10,
            f"elapsed={elapsed:.2f}s")


def test_acceptance_2_complete_graph_closed_form():
    t0 = time.perf_counter()
    ok = all(
        twist_polynomial_fast(delta_matroid_of_matrix(complete_graph_matrix(v))).coeffs
        == _expected_interleaved(v)
        for v in range(1, 13)
    )
    elapsed = time.perf_counter() - t0
    _report(2, "complete intersection graph closed form v=1..12",
            ok and elapsed < 10, f"elapsed={elapsed:.2f}s")


def test_acceptance_3_twist_polynomial_basics():
    rep = check_prop2(4)
    ok = rep.passed and rep.checked == 6133 and rep.elapsed < 120
    _report(3, "evaluation/twist/direct-sum identities, all n<=4", ok,
            rep.machine_line() + f" elapsed={rep.elapsed:.2f}s")


def test_acceptance_4_constant_iff_single_feasible():
    rep = check_constant_iff_single(4)
    ok = rep.passed and rep.checked == 6133 and rep.elapsed < 120
    _report(4, "constant polynomial iff one feasible set, all n<=4", ok,
            rep.machine_line() + f" elapsed={rep.elapsed:.2f}s")


def test_acceptance_5_width_split_and_rank_identity():
    rep = check_lemma5_and_lemma2(4)
    witnessed = any("violated as expected" in note for note in rep.notes)
    ok = rep.passed and witnessed and rep.elapsed < 120
    _report(5, "restriction width identities, all n<=4, non-normal witness", ok,
            rep.machine_line() + f" elapsed={rep.elapsed:.2f}s")


def test_acceptance_6_bipartite_iff_constant_term():
    rep = check_bipartite_constant_term(6)
    ok = rep.passed and rep.checked == 33868 and rep.elapsed < 60
    _report(6, "nonzero constant term iff bipartite, zero-diagonal n<=6", ok,
            rep.machine_line() + f" elapsed={rep.elapsed:.2f}s")


def test_acceptance_7_monomial_iff_components_complete_odd():
    rep = check_monomial_complete_odd(7, seed=0)
    ok = rep.passed and rep.checked == 133_868 and rep.elapsed < 300
    _report(7, "monomial iff components complete odd, n<=6 + sampled n=7", ok,
            rep.machine_line() + f" elapsed={rep.elapsed:.2f}s")


def test_acceptance_8_boundary_tracing_vs_interlacement():
    annulus = parse_signed_rotation("1 1")
    mobius = parse_signed_rotation("1 -1")
    interlaced = parse_signed_rotation("1 2 1 2")
    anchors = (
        boundary_components(annulus, 1) == 2
        and boundary_components(mobius, 1) == 1
        and boundary_components(interlaced, 3) == 1
        and euler_genus(annulus, 1) == 0
        and euler_genus(mobius, 1) == 1
        and euler_genus(interlaced, 3) == 2
    )
    rep = check_interlacement_oracle(8, seed=0)
    ok = anchors and rep.passed and rep.checked == 11_814 and rep.elapsed < 60
    _report(8, "tracing vs interlacement, 1680 diagrams at e=4 + 10^4 random", ok,
            rep.machine_line() + f" elapsed={rep.elapsed:.2f}s")


def test_acceptance_9_fast_equals_naive():
    rep = check_fast_naive_equivalence(12, seed=0)
    ok = rep.passed and rep.checked == 6633 and rep.elapsed < 60
    _report(9, "fast/naive bit-exact, all n<=4 + 500 random n=12", ok,
            rep.machine_line() + f" elapsed={rep.elapsed:.2f}s")


def test_acceptance_10_equal_interlacement_equal_polynomial():
    rep = check_same_interlacement_pairs(4)
    ok = rep.passed and rep.checked == 848
    _report(10, "equal interlacement graphs give equal polynomials", ok,
            rep.machine_line() + f" elapsed={rep.elapsed:.2f}s")
