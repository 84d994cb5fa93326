"""Instance-family enumeration and harness tests."""

from __future__ import annotations

import inspect
import re
from random import Random

import pytest

from twistpoly import verify
from twistpoly.core import SetSystem, direct_sum, is_delta_matroid, twist
from twistpoly.gf2 import SymMatrixGF2, delta_matroid_of_matrix
from twistpoly.poly import twist_polynomial_fast
from twistpoly.verify import (
    VerificationReport,
    all_delta_matroids,
    all_set_systems,
    all_signed_rotations,
    all_simple_graph_matrices,
    check_bipartite_constant_term,
    check_constant_iff_single,
    check_fast_naive_equivalence,
    check_interlacement_oracle,
    check_lemma4,
    check_lemma5_and_lemma2,
    check_monomial_complete_odd,
    check_prop1,
    check_prop2,
    check_same_interlacement_pairs,
    complete_graph_matrix,
    count_delta_matroids,
    interleaved_genus_closed_form,
    random_delta_matroid,
    run_suite,
)


def test_set_system_counts():
    assert sum(1 for _ in all_set_systems(0)) == 1
    assert sum(1 for _ in all_set_systems(1)) == 3
    assert sum(1 for _ in all_set_systems(2)) == 15
    assert sum(1 for _ in all_set_systems(3)) == 255


def test_delta_matroid_counts():
    # n = 1 has exactly {∅}, {{0}}, {∅,{0}}; larger counts are frozen
    # regressions cross-validated against the public axiom test below
    assert count_delta_matroids(0) == 1
    assert count_delta_matroids(1) == 3
    assert count_delta_matroids(2) == 15
    assert count_delta_matroids(3) == 155
    assert count_delta_matroids(4) == 5959


def test_enumeration_matches_public_axiom_check():
    # the quantifier loop is the oracle of the family bitset, in order; n = 4
    # filters all 65,535 set systems
    for n in range(5):
        expected = [s.feasible for s in all_set_systems(n) if is_delta_matroid(s)]
        assert [d.feasible for d in all_delta_matroids(n)] == expected, n


def test_delta_matroid_family_closed_under_twist():
    fams = {d.feasible for d in all_delta_matroids(3)}
    for fam in fams:
        d = SetSystem(3, fam)
        for a in range(8):
            assert twist(d, a).feasible in fams


def test_enumeration_contains_all_binary_and_sums():
    fams = {d.feasible for d in all_delta_matroids(4)}
    for bits in range(1 << 10):
        c = verify._symmetric_from_bits(4, bits, False)
        assert delta_matroid_of_matrix(c).feasible in fams
    for d1 in all_delta_matroids(2):
        for d2 in all_delta_matroids(2):
            assert direct_sum(d1, d2).feasible in fams


def test_matrix_family_counts():
    assert sum(1 for _ in all_simple_graph_matrices(3)) == 8
    assert sum(1 for _ in all_simple_graph_matrices(6)) == 32768


def test_rotation_family_counts():
    assert {str(r) for r in all_signed_rotations(1)} == {"1 1", "1 -1"}
    assert sum(1 for _ in all_signed_rotations(2)) == 12
    assert sum(1 for _ in all_signed_rotations(3)) == 120
    assert sum(1 for _ in all_signed_rotations(4)) == 1680


def test_family_bounds():
    # the bounds turn an oversized --max-n into a ValueError (exit 2)
    for family, bound in [
        (all_set_systems, 4),
        (all_delta_matroids, 4),
        (all_simple_graph_matrices, 6),
        (all_signed_rotations, 4),
    ]:
        with pytest.raises(ValueError):
            next(family(bound + 1))


def test_closed_form():
    assert interleaved_genus_closed_form(1).coeffs == (2,)
    assert interleaved_genus_closed_form(2).coeffs == (2, 0, 2)
    assert interleaved_genus_closed_form(3).coeffs == (0, 0, 8)
    assert interleaved_genus_closed_form(4).coeffs == (0, 0, 8, 0, 8)


def test_complete_graph_matrix():
    assert complete_graph_matrix(3).rows == (0b110, 0b101, 0b011)
    assert complete_graph_matrix(1).rows == (0,)


def test_random_delta_matroid_is_delta_matroid():
    rng = Random(73)
    for _ in range(30):
        assert is_delta_matroid(random_delta_matroid(rng.randint(0, 6), rng))


def test_report_lines():
    rep = VerificationReport("demo", checked=5, seed=3)
    assert rep.machine_line() == "THEOREM demo PASS checked=5 seed=3"
    rep.fail("bad instance")
    assert rep.machine_line() == "THEOREM demo FAIL checked=5 seed=3"
    assert "bad instance" in rep.render()
    assert rep.done() is rep and rep.elapsed > 0
    first = rep.render().split("\n")[0]
    assert re.fullmatch(r"THEOREM demo FAIL checked=5 seed=3 elapsed=\d+\.\d\ds rate=\d+/s", first)
    rep.elapsed = 0.5
    assert rep.render().startswith("THEOREM demo FAIL checked=5 seed=3 elapsed=0.50s rate=10/s\n")
    blank = VerificationReport("x")
    assert blank.machine_line() == "THEOREM x FAIL checked=0 seed=-"
    assert blank.render() == "THEOREM x FAIL checked=0 seed=- elapsed=0.00s rate=0/s"


def test_report_counterexample_cap():
    rep = VerificationReport("demo")
    for i in range(40):
        rep.fail(f"cex {i}")
    assert len(rep.counterexamples) == 25
    assert "15 more" in rep.render()
    assert not rep.passed


def test_prop2_example_product():
    b2 = SetSystem.from_sets(2, [[], [0, 1]])
    p = twist_polynomial_fast(direct_sum(b2, b2))
    assert p.coeffs == (4, 0, 8, 0, 4)


def test_small_checks_pass():
    assert check_prop2(2).passed
    assert check_lemma4(4).passed
    assert check_prop1(4).passed
    assert check_constant_iff_single(3).passed
    rep = check_lemma5_and_lemma2(3)
    assert rep.passed and any("violated as expected" in n for n in rep.notes)
    assert check_bipartite_constant_term(4).passed
    assert check_monomial_complete_odd(4).passed
    assert check_interlacement_oracle(6, seed=1).passed
    rep = check_same_interlacement_pairs(3)
    assert rep.passed and rep.checked == 56
    assert check_fast_naive_equivalence(8, seed=1).passed


def test_checks_take_their_size_and_seed_only():
    # the draw counts are fixed in verify, not set per call
    for checks in verify._SUITES.values():
        for check in checks:
            names = list(inspect.signature(check).parameters)
            assert names[1:] == (["seed"] if check in verify._SEEDED else []), check


def test_run_suite():
    reports = run_suite("lemma4", max_n=5)
    assert len(reports) == 1 and reports[0].theorem == "lemma4"
    assert reports[0].checked == 5
    with pytest.raises(ValueError):
        run_suite("nonsense")
    with pytest.raises(ValueError):
        run_suite("lemma4", max_n=-1)
    empty = run_suite("lemma4", max_n=0)[0]
    assert empty.checked == 0 and not empty.passed


def test_interlacement_oracle_reports_non_delta_matroid(monkeypatch):
    bad = SetSystem.from_sets(3, [[], [0, 1, 2]])
    assert not is_delta_matroid(bad)
    monkeypatch.setattr(verify, "delta_matroid_of_bouquet", lambda rot: bad)
    monkeypatch.setattr(verify, "delta_matroid_of_matrix", lambda c: bad)
    rep = check_interlacement_oracle(2)
    assert rep.checked == 10_014 and not rep.passed
    assert "counterexample: rotation 1 1: " in rep.render()
    assert "is not a delta-matroid" in rep.render()


def _full_set_when_edge_0_is_a_loop(real):
    """delta_matroid_of_bouquet, but {∅, E} where the first two half-edges
    are edge 0's, as in "1 1 2 2" and not in "1 2 2 1": the fault depends on
    the rotation, not on its interlacement matrix."""

    def fake(rot):
        return SetSystem(rot.e, (0, rot.full_mask)) if rot.seq[1][0] == 0 else real(rot)

    return fake


def test_traced_checks_report_a_broken_tracer(monkeypatch):
    real = verify.delta_matroid_of_bouquet
    monkeypatch.setattr(verify, "delta_matroid_of_bouquet", _full_set_when_edge_0_is_a_loop(real))
    lemma4 = check_lemma4()
    assert lemma4.checked == 12 and not lemma4.passed
    assert lemma4.counterexamples == ["B_1: 2z != 2"]
    for e, pairs in ((3, 56), (4, 848)):
        rep = check_same_interlacement_pairs(e)
        assert rep.checked == pairs and not rep.passed
        assert all(" vs " in c for c in rep.counterexamples)


def _unreachable(*args):
    raise AssertionError("an instance was built before the size check")


@pytest.mark.parametrize(
    "suite, max_n, error",
    [
        ("prop2", 5, "all-delta-matroids enumeration bounded at 4, got 5"),
        ("prop2", 17, "all-delta-matroids enumeration bounded at 4, got 5"),
        ("constant", 8, "all-delta-matroids enumeration bounded at 4, got 5"),
        ("lemma5", 8, "all-delta-matroids enumeration bounded at 4, got 5"),
        ("bipartite", 8, "all-simple-graphs enumeration bounded at 6, got 7"),
        ("lemma4", 17, "ground set of size 17 exceeds the enumeration limit of 16"),
        ("lemma4", 10**9, "ground set of size 17 exceeds the enumeration limit of 16"),
        ("prop1", 10**9, "ground set of size 17 exceeds the enumeration limit of 16"),
        ("all", 8, "all-delta-matroids enumeration bounded at 4, got 5"),
    ],
    ids=["prop2-5", "prop2-17", "constant-8", "lemma5-8", "bipartite-8", "lemma4-17",
         "lemma4-1e9", "prop1-1e9", "all-8"],
)
def test_oversize_sweeps_are_refused_before_any_instance(monkeypatch, suite, max_n, error):
    # the error names the first size past the bound, as the sweep would meet it
    for name in ("all_delta_matroids", "all_simple_graph_matrices",
                 "delta_matroid_of_bouquet", "delta_matroid_of_matrix"):
        monkeypatch.setattr(verify, name, _unreachable)
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        run_suite(suite, max_n)


# (THEOREM id, checked=, PASS) of `verify --suite all --seed 2` per --max-n
SUITE_ALL_AT = {
    3: [
        ("prop2", 174, True),
        ("lemma4", 3, True),
        ("lemma5-lemma2", 175, True),
        ("prop1", 3, True),
        ("constant-iff-single", 174, True),
        ("bipartite-constant", 12, True),
        ("monomial-complete-odd", 12, True),
        ("interlacement-oracle", 10134, True),
        ("same-interlacement-pairs", 56, True),
        ("fast-naive", 6633, True),
    ],
    # fast-naive stays exhaustive over n <= 4 whatever --max-n is
    0: [
        ("prop2", 1, True),
        ("lemma4", 0, False),
        ("lemma5-lemma2", 2, True),
        ("prop1", 0, False),
        ("constant-iff-single", 1, True),
        ("bipartite-constant", 1, True),
        ("monomial-complete-odd", 1, True),
        ("interlacement-oracle", 0, False),
        ("same-interlacement-pairs", 0, False),
        ("fast-naive", 6633, True),
    ],
    # the pair check fails only when it found no pair: e <= 1 has none, e = 2 has 4
    1: [
        ("prop2", 4, True),
        ("lemma4", 1, True),
        ("lemma5-lemma2", 5, True),
        ("prop1", 1, True),
        ("constant-iff-single", 4, True),
        ("bipartite-constant", 2, True),
        ("monomial-complete-odd", 2, True),
        ("interlacement-oracle", 10002, True),
        ("same-interlacement-pairs", 0, False),
        ("fast-naive", 6633, True),
    ],
    2: [
        ("prop2", 19, True),
        ("lemma4", 2, True),
        ("lemma5-lemma2", 20, True),
        ("prop1", 2, True),
        ("constant-iff-single", 19, True),
        ("bipartite-constant", 4, True),
        ("monomial-complete-odd", 4, True),
        ("interlacement-oracle", 10014, True),
        ("same-interlacement-pairs", 4, True),
        ("fast-naive", 6633, True),
    ],
}


def test_run_suite_all_small():
    for max_n, want in SUITE_ALL_AT.items():
        reports = run_suite("all", max_n=max_n, seed=2)
        assert [(r.theorem, r.checked, r.passed) for r in reports] == want, max_n


def _flip_first_edge(real):
    """matrix_of_normal with entry (0, 1) and (1, 0) flipped."""

    def fake(d):
        m = real(d)
        if m.n < 2:
            return m
        return SymMatrixGF2(m.n, (m.rows[0] ^ 0b10, m.rows[1] ^ 0b01, *m.rows[2:]))

    return fake


@pytest.mark.parametrize("suite", ["bipartite", "monomial"])
def test_graph_checks_report_a_broken_round_trip(monkeypatch, suite):
    monkeypatch.setattr(verify, "matrix_of_normal", _flip_first_edge(verify.matrix_of_normal))
    (rep,) = run_suite(suite, max_n=3)
    # the 2 graphs at n = 2 and the 8 at n = 3 fail; n <= 1 has no edge to flip
    assert rep.checked == 12 and not rep.passed
    assert len(rep.counterexamples) == 10
    assert all(c.startswith("round trip: C=") for c in rep.counterexamples)


@pytest.mark.parametrize(
    "suite, flag, text",
    [
        ("bipartite", "is_bipartite", "constant term"),
        ("monomial", "all_components_complete_odd", "monomial="),
    ],
)
def test_graph_checks_report_a_wrong_predicate(monkeypatch, suite, flag, text):
    real = verify.graph_predicates

    def inverted(g):
        props = real(g)
        return props._replace(**{flag: not getattr(props, flag)})

    monkeypatch.setattr(verify, "graph_predicates", inverted)
    (rep,) = run_suite(suite, max_n=3)
    assert rep.checked == 12 and not rep.passed
    assert len(rep.counterexamples) == 12
    assert all(text in c for c in rep.counterexamples)
