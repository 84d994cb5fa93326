"""GF(2) representation and intersection-graph tests."""

from __future__ import annotations

from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistpoly import core, gf2
from twistpoly.core import SetSystem, is_connected, is_delta_matroid, predicates
from twistpoly.gf2 import (
    IntersectionGraph,
    SymMatrixGF2,
    delta_matroid_of_matrix,
    format_gf2,
    format_graph,
    gf2_rank,
    graph_predicates,
    intersection_graph,
    is_normal_binary,
    matrix_of_normal,
    parse_gf2,
    parse_graph,
    two_coloring,
)
from twistpoly.bouquet import canonical_bouquet, delta_matroid_of_bouquet
from twistpoly.verify import (
    all_simple_graph_matrices,
    all_symmetric_matrices,
    complete_graph_matrix,
    random_symmetric_matrix,
)

X2 = SymMatrixGF2.from_entries([[0, 1], [1, 0]])
PATH3 = SymMatrixGF2.from_entries([[0, 1, 1], [1, 0, 0], [1, 0, 0]])  # center 0


def test_matrix_validation():
    with pytest.raises(ValueError):
        SymMatrixGF2(2, (2, 0))  # asymmetric
    with pytest.raises(ValueError):
        SymMatrixGF2(2, (0,))
    with pytest.raises(ValueError):
        SymMatrixGF2(1, (2,))
    assert SymMatrixGF2.zeros(3).rows == (0, 0, 0)


def test_gf2_rank_examples():
    assert gf2_rank(X2, 0b11) == 2
    assert gf2_rank(X2, 0b01) == 0
    assert gf2_rank(PATH3, 0b111) == 2
    assert gf2_rank(PATH3, 0) == 0  # C[∅]: rank 0, nonsingular by convention


def test_delta_matroid_of_matrix_examples():
    assert delta_matroid_of_matrix(X2) == SetSystem.from_sets(2, [[], [0, 1]])
    assert delta_matroid_of_matrix(SymMatrixGF2.zeros(2)) == SetSystem.from_sets(2, [[]])
    assert delta_matroid_of_matrix(SymMatrixGF2(1, (1,))) == SetSystem.from_sets(
        1, [[], [0]]
    )


def test_matrix_of_normal_examples():
    assert matrix_of_normal(SetSystem.from_sets(2, [[], [0, 1]])) == X2
    d = SetSystem.from_sets(2, [[], [0], [1], [0, 1]])
    assert matrix_of_normal(d) == SymMatrixGF2(2, (1, 2))
    assert matrix_of_normal(SetSystem.from_sets(1, [[]])) == SymMatrixGF2.zeros(1)
    with pytest.raises(ValueError):
        matrix_of_normal(SetSystem.from_sets(2, [[0], [1]]))


def test_is_normal_binary():
    rng = Random(41)
    for _ in range(20):
        d = delta_matroid_of_matrix(random_symmetric_matrix(5, rng))
        assert is_normal_binary(d)
    assert not is_normal_binary(SetSystem.from_sets(2, [[0], [1]]))  # not normal
    # the triangle family round-trips onto itself (it is D of the K_3 adjacency)
    tri = SetSystem.from_sets(3, [[], [0, 1], [1, 2], [0, 2]])
    assert is_normal_binary(tri)
    # adding the full triple keeps the exchange axiom but breaks the round
    # trip: sizes <= 2 still reconstruct the K_3 adjacency, which excludes it
    tri_plus = SetSystem.from_sets(3, [[], [0, 1], [1, 2], [0, 2], [0, 1, 2]])
    assert is_delta_matroid(tri_plus) and not is_normal_binary(tri_plus)


def test_round_trip_exhaustive():
    for n in range(6):
        for c in all_symmetric_matrices(n):
            assert matrix_of_normal(delta_matroid_of_matrix(c)) == c


def test_matrix_delta_matroids_are_normal_delta_matroids():
    for n in range(5):
        for c in all_symmetric_matrices(n):
            d = delta_matroid_of_matrix(c)
            assert d.feasible[0] == 0 and is_delta_matroid(d)


def test_evenness_iff_zero_diagonal():
    for n in range(6):
        for c in all_simple_graph_matrices(n):
            assert predicates(delta_matroid_of_matrix(c)).is_even
    rng = Random(43)
    for _ in range(50):
        c = random_symmetric_matrix(5, rng)
        d = delta_matroid_of_matrix(c)
        assert predicates(d).is_even == (c.diagonal == 0)


def _connected_by_bipartition_search(d: SetSystem) -> bool:
    # Independent reference: try every bipartition with explicit frozensets.
    elems = list(range(d.n))
    fam = {frozenset(e for e in elems if (m >> e) & 1) for m in d.feasible}
    for k in range(1, d.n):
        for left in combinations(elems, k):
            lset = frozenset(left)
            rset = frozenset(elems) - lset
            p1 = {f & lset for f in fam}
            p2 = {f & rset for f in fam}
            if {a | b for a in p1 for b in p2} == fam:
                return False
    return True


def test_is_connected_builds_dc_once(monkeypatch):
    calls = []

    def counting(c):
        calls.append(c)
        return delta_matroid_of_matrix(c)

    d = delta_matroid_of_matrix(complete_graph_matrix(5))
    monkeypatch.setattr(gf2, "delta_matroid_of_matrix", counting)
    assert is_connected(d)
    assert len(calls) == 1


def test_connectivity_matches_graph_and_bipartition_search():
    for n in range(1, 5):
        for c in all_symmetric_matrices(n):
            d = delta_matroid_of_matrix(c)
            props = graph_predicates(IntersectionGraph(c))
            expect = len(props.components) <= 1
            assert is_connected(d) == expect
            assert _connected_by_bipartition_search(d) == expect


def test_intersection_graph_examples():
    for t in (2, 3, 4):
        d = delta_matroid_of_bouquet(canonical_bouquet(t))
        g = intersection_graph(d)
        assert g.adjacency == complete_graph_matrix(t)
        assert not any(g.has_loop(v) for v in range(t))
    g1 = intersection_graph(SetSystem.from_sets(1, [[], [0]]))
    assert g1.has_loop(0)
    with pytest.raises(ValueError):
        intersection_graph(SetSystem.from_sets(2, [[0], [1]]))


def test_even_graphs_are_loop_free():
    rng = Random(47)
    for _ in range(25):
        c = random_symmetric_matrix(5, rng, zero_diagonal=True)
        g = intersection_graph(delta_matroid_of_matrix(c))
        assert not any(g.has_loop(v) for v in range(5))


def test_graph_predicates():
    k5 = graph_predicates(IntersectionGraph(complete_graph_matrix(5)))
    assert not k5.is_bipartite and k5.is_complete and k5.all_components_complete_odd
    p3 = graph_predicates(IntersectionGraph(PATH3))
    assert p3.is_bipartite and not p3.is_complete and not p3.all_components_complete_odd
    k3k1 = SymMatrixGF2.from_entries(
        [[0, 1, 1, 0], [1, 0, 1, 0], [1, 1, 0, 0], [0, 0, 0, 0]]
    )
    props = graph_predicates(IntersectionGraph(k3k1))
    assert props.all_components_complete_odd and not props.is_complete
    assert props.components == ((0, 1, 2), (3,))
    looped = graph_predicates(IntersectionGraph(SymMatrixGF2(1, (1,))))
    assert not looped.is_bipartite


def test_two_coloring():
    x, y = two_coloring(IntersectionGraph(PATH3))
    assert x | y == 0b111 and x & y == 0
    assert (x, y) == graph_predicates(IntersectionGraph(PATH3)).coloring
    assert two_coloring(IntersectionGraph(complete_graph_matrix(3))) is None
    assert two_coloring(IntersectionGraph(SymMatrixGF2(1, (1,)))) is None
    assert two_coloring(IntersectionGraph(SymMatrixGF2.zeros(0))) == (0, 0)
    # every edge of a bipartite graph crosses the coloring
    for c in all_simple_graph_matrices(5):
        coloring = graph_predicates(IntersectionGraph(c)).coloring
        if coloring is not None:
            x, y = coloring
            assert all(c.rows[v] & (x if (x >> v) & 1 else y) == 0 for v in range(5))


GF2_TEXT = """3
011
101
110
"""


def test_parse_format_gf2():
    c = parse_gf2(GF2_TEXT)
    assert c == complete_graph_matrix(3)
    assert format_gf2(c) == GF2_TEXT
    for n in range(4):
        for mat in all_symmetric_matrices(n):
            assert parse_gf2(format_gf2(mat)) == mat


@pytest.mark.parametrize(
    "text",
    ["", "2\n01\n", "2\n01\n00\n", "2\nab\ncd\n", "x\n", "1\n11\n"],
)
def test_parse_gf2_rejects(text):
    with pytest.raises(core.ParseError):
        parse_gf2(text)


GRAPH_TEXT = """3
0 1
0 2
1 1
"""


def test_parse_format_graph():
    g = parse_graph(GRAPH_TEXT)
    assert g.adjacency == SymMatrixGF2(3, (0b110, 0b011, 0b001))
    assert parse_graph(format_graph(g)).adjacency == g.adjacency
    rng = Random(53)
    for _ in range(20):
        adj = random_symmetric_matrix(6, rng)
        g2 = IntersectionGraph(adj)
        assert parse_graph(format_graph(g2)).adjacency == adj


@pytest.mark.parametrize("text", ["", "2\n0 2\n", "2\n0\n", "2\n0 x\n", "y\n"])
def test_parse_graph_rejects(text):
    with pytest.raises(core.ParseError):
        parse_graph(text)


# D(C) is computed for all 2^n subsets in one batch of bit lanes
# (gf2.dc_bits); gf2._dc_loop, one elimination per subset, is its oracle.


def test_batched_dc_matches_loop_on_all_small_matrices():
    for n in range(5):
        for c in all_symmetric_matrices(n):
            assert delta_matroid_of_matrix(c).feasible == tuple(gf2._dc_loop(c.rows, n)), c


@pytest.mark.parametrize("n", [7, 9, 10, 11, 12, 13])
def test_batched_dc_matches_loop_on_random_matrices(n):
    rng = Random(n)
    for zero_diagonal in (False, True):
        c = random_symmetric_matrix(n, rng, zero_diagonal)
        assert delta_matroid_of_matrix(c).feasible == tuple(gf2._dc_loop(c.rows, n))


def test_batched_dc_on_k16():
    # det over GF(2) of J - I of order k is k - 1 mod 2: the even sets
    expected = tuple(a for a in range(1 << 16) if a.bit_count() % 2 == 0)
    assert delta_matroid_of_matrix(complete_graph_matrix(16)).feasible == expected


@st.composite
def symmetric_matrices(draw, max_n):
    n = draw(st.integers(0, max_n))
    upper = [draw(st.integers(0, (1 << (n - i)) - 1)) << i for i in range(n)]
    rows = [
        upper[i] | sum(((upper[j] >> i) & 1) << j for j in range(i))
        for i in range(n)
    ]
    return SymMatrixGF2(n, tuple(rows))


@settings(deadline=None)
@given(symmetric_matrices(9))
def test_batched_dc_matches_loop_on_drawn_matrices(c):
    assert delta_matroid_of_matrix(c).feasible == tuple(gf2._dc_loop(c.rows, c.n))
