"""Set-system and delta-matroid operation tests."""

from __future__ import annotations

import importlib
import pkgutil
from random import Random

import pytest

import twistpoly
from twistpoly import core
from twistpoly.core import (
    SetSystem,
    delete,
    direct_sum,
    dual,
    format_dm,
    is_delta_matroid,
    loops_coloops,
    mask_of,
    min_max_parts,
    parse_dm,
    predicates,
    restrict,
    rho,
    twist,
)
from twistpoly.bouquet import boundary_components, parse_signed_rotation
from twistpoly.poly import twist_width
from twistpoly.verify import all_delta_matroids, all_set_systems, random_delta_matroid

REMARK = SetSystem.from_sets(2, [[0], [1]])  # ({1,2}, {{1},{2}}) 0-indexed
PAIR = SetSystem.from_sets(2, [[], [0, 1]])
TRIVIAL = SetSystem(0, (0,))  # empty ground set, feasible family {∅}


def test_mask_helpers():
    assert mask_of([0, 2]) == 5
    assert list(core.iter_elements(0b1011)) == [0, 1, 3]
    assert mask_of([]) == 0


def test_set_system_canonical_form():
    s = SetSystem.from_masks(3, [6, 1, 6, 0])
    assert s.feasible == (0, 1, 6)
    assert SetSystem.from_sets(0, [[], []]) == TRIVIAL


def test_set_system_validation():
    with pytest.raises(ValueError):
        SetSystem(2, (1, 1))
    with pytest.raises(ValueError):
        SetSystem(2, (4,))
    with pytest.raises(ValueError):
        SetSystem(-1, ())


def test_is_delta_matroid_examples():
    assert is_delta_matroid(REMARK)
    assert is_delta_matroid(SetSystem.from_sets(2, [[]]))
    assert not is_delta_matroid(SetSystem.from_sets(3, [[], [0, 1, 2]]))
    assert is_delta_matroid(TRIVIAL)
    assert not is_delta_matroid(SetSystem(2, ()))  # improper


def test_twist_examples():
    assert twist(REMARK, 1) == PAIR
    d = SetSystem.from_sets(3, [[0], [1, 2]])
    assert twist(d, 0) == d
    with pytest.raises(ValueError):
        twist(REMARK, 4)


def test_twist_involution_random():
    rng = Random(7)
    for _ in range(50):
        d = random_delta_matroid(rng.randint(0, 8), rng)
        a = rng.getrandbits(d.n) if d.n else 0
        assert twist(twist(d, a), a) == d


def test_twist_is_delta_matroid_and_preserves_evenness():
    rng = Random(11)
    for _ in range(30):
        d = random_delta_matroid(rng.randint(1, 7), rng)
        a = rng.getrandbits(d.n)
        t = twist(d, a)
        assert is_delta_matroid(t)
        assert predicates(t).is_even == predicates(d).is_even


def test_dual_examples():
    assert dual(PAIR) == PAIR
    assert dual(REMARK) == REMARK
    rng = Random(3)
    for _ in range(20):
        d = random_delta_matroid(rng.randint(0, 8), rng)
        assert dual(dual(d)) == d


def test_direct_sum_examples():
    d1 = SetSystem.from_sets(1, [[]])
    d2 = SetSystem.from_sets(1, [[], [0]])
    assert direct_sum(d1, d2) == SetSystem.from_sets(2, [[], [1]])
    assert direct_sum(REMARK, TRIVIAL) == REMARK
    assert direct_sum(TRIVIAL, REMARK) == REMARK
    rng = Random(5)
    for _ in range(20):
        a = random_delta_matroid(rng.randint(0, 5), rng)
        b = random_delta_matroid(rng.randint(0, 5), rng)
        s = direct_sum(a, b)
        assert len(s.feasible) == len(a.feasible) * len(b.feasible)
        assert is_delta_matroid(s)


def test_direct_sum_twist_decomposition():
    # (D ⊕ D~)*B = (D*(B∩E)) ⊕ (D~*(B∩E~)) for every B
    rng = Random(13)
    for _ in range(15):
        a = random_delta_matroid(rng.randint(0, 4), rng)
        b = random_delta_matroid(rng.randint(0, 4), rng)
        s = direct_sum(a, b)
        for bmask in range(1 << s.n):
            left = twist(a, bmask & a.full_mask)
            right = twist(b, bmask >> a.n)
            assert twist(s, bmask) == direct_sum(left, right)


def test_delete_examples():
    assert delete(PAIR, 1) == SetSystem.from_sets(1, [[]])
    assert delete(SetSystem.from_sets(1, [[0]]), 0) == TRIVIAL
    for e in (2, -1):
        with pytest.raises(ValueError):
            delete(PAIR, e)


@pytest.mark.parametrize("a", [-1, 4])
@pytest.mark.parametrize(
    "call",
    [
        lambda a: twist(PAIR, a),
        lambda a: restrict(PAIR, a),
        lambda a: rho(PAIR, a),
        lambda a: twist_width(PAIR, a),
        lambda a: boundary_components(parse_signed_rotation("1 2 1 2"), a),
    ],
    ids=["twist", "restrict", "rho", "twist_width", "boundary_components"],
)
def test_subset_masks_have_one_guard(call, a):
    with pytest.raises(ValueError, match="^mask (-1|4) out of range for ground set of size 2$"):
        call(a)


def test_delete_order_independence():
    rng = Random(17)
    for _ in range(25):
        d = random_delta_matroid(rng.randint(2, 7), rng)
        a, b = sorted(rng.sample(range(d.n), 2))
        # delete a then b (b shifts down by one) vs b then a
        assert delete(delete(d, a), b - 1) == delete(delete(d, b), a)


def test_delete_stays_proper_delta_matroid():
    for d in all_delta_matroids(3):
        for e in range(3):
            out = delete(d, e)
            assert out.feasible  # proper
            assert is_delta_matroid(out)


def test_restrict_examples():
    assert restrict(REMARK, 0b01) == SetSystem.from_sets(1, [[0]])
    assert restrict(REMARK, 0b10) == SetSystem.from_sets(1, [[0]])
    assert restrict(REMARK, 0b11) == REMARK
    assert restrict(PAIR, 0) == TRIVIAL


def test_delete_matches_its_definition_on_every_small_set_system():
    """A coloop is contracted, otherwise the sets containing e are dropped;
    the elements above e move down by one."""
    for n in range(4):
        for d in all_set_systems(n):
            for e in range(n):
                coloop = all((f >> e) & 1 for f in d.feasible)
                kept = [f for f in d.feasible if coloop or not (f >> e) & 1]
                fam = {
                    mask_of(i - (i > e) for i in core.iter_elements(f) if i != e) for f in kept
                }
                assert delete(d, e) == SetSystem.from_masks(n - 1, fam)


def test_restrict_equals_deletions_from_high_to_low_on_delta_matroids():
    for n in range(5):
        for d in all_delta_matroids(n):
            for a in range(1 << n):
                chain = d
                for e in range(n - 1, -1, -1):
                    if not (a >> e) & 1:
                        chain = delete(chain, e)
                assert restrict(d, a) == chain


def test_loops_coloops():
    assert loops_coloops(SetSystem.from_sets(2, [[]])) == (0b11, 0)
    assert loops_coloops(SetSystem.from_sets(2, [[0, 1]])) == (0, 0b11)
    assert loops_coloops(PAIR) == (0, 0)


def test_predicates():
    assert predicates(PAIR) == (True, True, False)
    assert not predicates(SetSystem.from_sets(1, [[], [0]])).is_even
    p = predicates(REMARK)
    assert p.is_matroid and not p.is_normal and p.is_even


def test_rho():
    d = SetSystem.from_sets(3, [[], [0, 1]])
    assert rho(d, 0) == 3  # normal: min |∅ △ F| = 0
    assert rho(REMARK, 0b01) == 2
    assert rho(REMARK, 0) == 1


def test_matroid_rank_monotone_submodular():
    # the rank of D_min, max |A ∩ B| over its bases, as Lemma 5 computes it
    for d in all_delta_matroids(3):
        m, _ = min_max_parts(d)
        size = 1 << 3
        ranks = [max((a & b).bit_count() for b in m.feasible) for a in range(size)]
        for x in range(size):
            for y in range(size):
                if x & ~y == 0:
                    assert ranks[x] <= ranks[y]
                assert ranks[x | y] + ranks[x & y] <= ranks[x] + ranks[y]


def test_min_max_parts():
    d = SetSystem.from_sets(2, [[], [0], [0, 1]])
    lo, hi = min_max_parts(d)
    assert lo == SetSystem.from_sets(2, [[]])
    assert hi == SetSystem.from_sets(2, [[0, 1]])
    assert min_max_parts(REMARK) == (REMARK, REMARK)
    lo2, _ = min_max_parts(SetSystem.from_sets(2, [[0], [1], [0, 1]]))
    assert lo2 == REMARK


def test_twist_and_min_max_parts_keep_the_axiom():
    d = random_delta_matroid(5, Random(1))
    assert is_delta_matroid(twist(d, 3))
    assert all(is_delta_matroid(part) for part in min_max_parts(d))


DM_TEXT = """2
2
-
0,1
"""


def test_parse_format_roundtrip():
    assert parse_dm(DM_TEXT) == PAIR
    assert format_dm(PAIR) == DM_TEXT
    for d in [TRIVIAL, REMARK, SetSystem.from_sets(3, [[0, 2], [1]])]:
        assert parse_dm(format_dm(d)) == d


@pytest.mark.parametrize(
    "text",
    [
        "",  # no header
        "2\n0\n",  # k = 0
        "2\n1\n2\n",  # out of range
        "2\n2\n0\n0\n",  # duplicate feasible sets
        "2\n1\n0,0\n",  # duplicate index
        "2\n1\n1,0\n",  # not ascending
        "2\n2\n0\n",  # missing line
        "x\n1\n-\n",  # malformed n
        "2\n1\na\n",  # malformed index
        # a token read once is checked again for order where it recurs
        "3\n2\n0,1\n2,1\n",  # out of order on a later line
        "3\n2\n1\n1,1\n",  # repeated on a later line
        "3\n2\n02\n0,2,02\n",  # two texts of one element
    ],
)
def test_parse_dm_rejects(text):
    with pytest.raises(core.ParseError):
        parse_dm(text)


def test_parse_dm_bounds_the_mask_bits_of_its_header():
    n = 1_000_000
    k = core.MAX_MASK_BITS // n
    lines = "".join(f"{e}\n" for e in range(k))
    assert len(parse_dm(f"{n}\n{k}\n{lines}").feasible) == k
    with pytest.raises(core.ParseError, match="mask bits exceed the limit"):
        parse_dm(f"{n}\n{k + 1}\n{lines}{k}\n")


def test_no_module_holds_a_functools_cache():
    # lru_cache and cache wrappers carry cache_info; a module holding one keeps
    # state between calls
    for info in pkgutil.iter_modules(twistpoly.__path__):
        module = importlib.import_module(f"twistpoly.{info.name}")
        cached = [name for name, obj in vars(module).items() if hasattr(obj, "cache_info")]
        assert cached == [], info.name


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 16, 17, 40])
def test_format_dm_matches_element_text_and_round_trips(n):
    rng = Random(n)
    full = (1 << n) - 1
    masks = {0, full, *(rng.getrandbits(n) for _ in range(50))}
    masks |= {1 << e for e in range(n)}
    d = SetSystem.from_masks(n, masks)
    lines = [",".join(str(e) for e in core.iter_elements(m)) or "-" for m in d.feasible]
    text = format_dm(d)
    assert text == "\n".join([str(n), str(len(d.feasible)), *lines]) + "\n"
    assert parse_dm(text) == d

