"""Signed rotation, boundary tracing, and interlacement tests."""

from __future__ import annotations

from random import Random

import pytest

from twistpoly.core import ParseError, SetSystem, UnsupportedSizeError, is_delta_matroid
from twistpoly.bouquet import (
    SignedRotation,
    boundary_components,
    canonical_bouquet,
    delta_matroid_of_bouquet,
    euler_genus,
    interlacement_matrix,
    parse_signed_rotation,
    partial_duality_polynomial,
)
from twistpoly.gf2 import SymMatrixGF2, delta_matroid_of_matrix
from twistpoly.poly import twist_polynomial_fast, width
from twistpoly.verify import (
    _rotation,
    all_signed_rotations,
    complete_graph_matrix,
    random_signed_rotation,
)

ANNULUS = parse_signed_rotation("1 1")
MOBIUS = parse_signed_rotation("1 -1")
INTERLACED = parse_signed_rotation("1 2 1 2")


def test_parse_figure_rotation():
    rot = parse_signed_rotation("(-1, -2, 3, 4, 2, 1, 3, 4)")
    assert rot.e == 4
    assert rot.labels == (1, 2, 3, 4)
    assert rot.chords() == [(0, 5, False), (1, 4, False), (2, 6, True), (3, 7, True)]
    assert str(rot) == "-1 -2 3 4 2 1 3 4"


def test_parse_whitespace_form():
    assert parse_signed_rotation("-1 -2 3 4 2 1 3 4") == parse_signed_rotation(
        "(-1, -2, 3, 4, 2, 1, 3, 4)"
    )
    assert ANNULUS.e == 1 and ANNULUS.chords() == [(0, 1, True)]
    # labels re-indexed by first appearance: 7 before 2
    rot = parse_signed_rotation("7 2 7 2")
    assert rot.labels == (7, 2)


@pytest.mark.parametrize(
    "text",
    ["1 2 1", "", "( )", "1 1 1 1 x", "0 0", "1, 1, 2", "--1 1"],
)
def test_parse_rejects(text):
    with pytest.raises(ParseError):
        parse_signed_rotation(text)


def test_parse_rejects_too_many_edges():
    labels = " ".join(str(i) for i in range(1, 18) for _ in range(1))
    with pytest.raises(ParseError, match="^ground set of size 17 exceeds"):
        parse_signed_rotation(labels + " " + labels)


def test_boundary_component_anchors():
    assert boundary_components(ANNULUS, 0b1) == 2
    assert boundary_components(MOBIUS, 0b1) == 1
    assert boundary_components(INTERLACED, 0b11) == 1
    assert boundary_components(INTERLACED, 0b01) == 2
    assert boundary_components(INTERLACED, 0b10) == 2
    assert boundary_components(ANNULUS, 0) == 1
    with pytest.raises(ValueError):
        boundary_components(ANNULUS, 2)


def test_euler_genus_anchors():
    assert euler_genus(ANNULUS, 0b1) == 0
    assert euler_genus(MOBIUS, 0b1) == 1
    assert euler_genus(INTERLACED, 0b11) == 2
    assert euler_genus(ANNULUS, 0) == 0


def test_delta_matroid_of_bouquet_examples():
    assert delta_matroid_of_bouquet(ANNULUS) == SetSystem.from_sets(1, [[]])
    assert delta_matroid_of_bouquet(MOBIUS) == SetSystem.from_sets(1, [[], [0]])
    assert delta_matroid_of_bouquet(INTERLACED) == SetSystem.from_sets(2, [[], [0, 1]])


def test_bouquet_delta_matroids_are_normal_and_valid():
    rng = Random(59)
    for _ in range(10):
        d = delta_matroid_of_bouquet(random_signed_rotation(rng.randint(1, 6), rng))
        assert d.feasible[0] == 0 and is_delta_matroid(d)


def test_interlacement_matrix_examples():
    assert interlacement_matrix(INTERLACED) == SymMatrixGF2(2, (0b10, 0b01))
    assert interlacement_matrix(parse_signed_rotation("1 1 2 2")) == SymMatrixGF2(2, (0, 0))
    assert interlacement_matrix(MOBIUS) == SymMatrixGF2(1, (1,))


def _alternating_rows(rot):
    """Interlacement by the definition: chords (p1, p2) and (q1, q2)
    alternate iff exactly one of q1, q2 lies between p1 and p2."""
    chords = rot.chords()
    rows = []
    for u, (p1, p2, orientable) in enumerate(chords):
        row = 0 if orientable else 1 << u
        for v, (q1, q2, _) in enumerate(chords):
            if (p1 < q1 < p2) != (p1 < q2 < p2):
                row |= 1 << v
        rows.append(row)
    return tuple(rows)


def test_interlacement_matrix_matches_alternation_definition():
    rng = Random(89)
    rots = [rot for e in range(1, 5) for rot in all_signed_rotations(e)]
    rots += [random_signed_rotation(rng.randint(1, 16), rng) for _ in range(2000)]
    for rot in rots:
        assert interlacement_matrix(rot).rows == _alternating_rows(rot), str(rot)


def test_canonical_bouquet():
    assert str(canonical_bouquet(2)) == "1 2 1 2"
    assert str(canonical_bouquet(1)) == "1 1"
    for t in range(1, 13):
        assert interlacement_matrix(canonical_bouquet(t)) == complete_graph_matrix(t)
    with pytest.raises(ValueError):
        canonical_bouquet(0)


def test_partial_duality_polynomial_examples():
    assert partial_duality_polynomial(canonical_bouquet(3)).coeffs == (0, 0, 8)
    assert partial_duality_polynomial(canonical_bouquet(4)).coeffs == (0, 0, 8, 0, 8)
    assert partial_duality_polynomial(ANNULUS).coeffs == (2,)


def test_genus_width_consistency():
    rng = Random(61)
    for _ in range(40):
        rot = random_signed_rotation(rng.randint(1, 8), rng)
        d = delta_matroid_of_bouquet(rot)
        assert euler_genus(rot, rot.full_mask) == width(d)


def test_orientable_bouquets_have_even_genus():
    rng = Random(67)
    for _ in range(20):
        e = rng.randint(1, 6)
        rot = random_signed_rotation(e, rng)
        rot = SignedRotation(tuple((edge, 1) for edge, _ in rot.seq), rot.labels)
        for a in range(1 << e):
            assert euler_genus(rot, a) % 2 == 0


def test_tracing_matches_interlacement_exhaustive_small():
    for e in range(1, 5):
        for rot in all_signed_rotations(e):
            traced = delta_matroid_of_bouquet(rot)
            assert traced == delta_matroid_of_matrix(interlacement_matrix(rot))
            assert partial_duality_polynomial(rot) == twist_polynomial_fast(traced)


def test_whole_family_tracing_matches_subset_tracing():
    # delta_matroid_of_bouquet traces from one chord table per rotation,
    # boundary_components from a fresh one per call
    rng = Random(83)
    rots = [rot for e in range(1, 5) for rot in all_signed_rotations(e)]
    rots += [random_signed_rotation(rng.randint(1, 8), rng) for _ in range(200)]
    for rot in rots:
        want = tuple(a for a in range(1 << rot.e) if boundary_components(rot, a) == 1)
        assert delta_matroid_of_bouquet(rot).feasible == want, str(rot)


def test_equal_interlacement_gives_equal_polynomial():
    a = parse_signed_rotation("1 1 2 2")
    b = parse_signed_rotation("1 2 2 1")
    assert interlacement_matrix(a) == interlacement_matrix(b)
    traced_a = twist_polynomial_fast(delta_matroid_of_bouquet(a))
    assert traced_a == twist_polynomial_fast(delta_matroid_of_bouquet(b))
    assert traced_a == partial_duality_polynomial(a) == partial_duality_polynomial(b)


def test_rotation_from_pairing():
    rot = _rotation([(0, 2), (1, 3)], 0b11)
    assert str(rot) == "1 2 1 2"
    flipped = _rotation([(0, 2), (1, 3)], 0b00)
    assert str(flipped) == "1 2 -1 -2"


def test_signed_rotation_validation():
    with pytest.raises(ValueError):
        SignedRotation(((0, 1), (0, 1), (0, 1)), (1,))
    with pytest.raises(ValueError):
        SignedRotation(((0, 2), (0, 1)), (1,))
    with pytest.raises(UnsupportedSizeError):
        SignedRotation(
            tuple((i, 1) for i in range(17)) * 2, tuple(range(1, 18))
        )
