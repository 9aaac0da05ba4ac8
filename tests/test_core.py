"""Cone axioms, comparisons, and witness searches on small balls."""

import collections
import gc
import itertools
import math
import re
import tracemalloc
import weakref

import pytest

from ordlib import core, verify
from ordlib.braid import BraidGroup, braid_group
from ordlib.core import (
    EQ,
    GT,
    LT,
    BALL_CACHE_RADII,
    BallData,
    Group,
    IdentitySignError,
    NoPositiveError,
    SignOracle,
    SizeLimitError,
    act_automorphism,
    check_bi_invariance,
    compare,
    distinguishing_witness,
    inner_automorphism,
    least_positive_in_ball,
    separating_element,
    verify_cone_axioms,
)
from ordlib.extensions import KleinGroup, g_group, k_group, klein_group, rational_plane
from ordlib.lattice import LatticeGroup, flag_ordering, lattice_group, matrix_automorphism
from ordlib.magnus import FreeGroup, free_group

Z2 = lattice_group(2)
LEX = flag_ordering(Z2, [(1, 0), (0, 1)])
REV = flag_ordering(Z2, [(-1, 0), (0, -1)])
SWAPPED = flag_ordering(Z2, [(0, 1), (1, 0)])


def test_ball_conventions():
    sizes = [len(Z2.ball(r)) for r in range(4)]
    assert sizes == [1, 5, 13, 25]
    ball = Z2.ball(2)
    assert ball[0] == (0, 0)
    assert set(Z2.ball(1)) <= set(ball)
    assert {Z2.invert(g) for g in ball} == set(ball)
    assert ball == sorted(ball, key=Z2.sort_key)


@pytest.mark.parametrize("group", [
    lattice_group(1), lattice_group(2), lattice_group(3), klein_group(),
    free_group(1, ("y",)), free_group(2), braid_group(3), braid_group(4),
    rational_plane(), k_group(), g_group(),
], ids=lambda g: g.name)
def test_every_ball_lists_the_identity_first_and_only_there(group):
    ident = group.key(group.identity)
    for r in range(4):
        ball = group.ball(r)
        assert [i for i, g in enumerate(ball) if group.key(g) == ident] == [0]


class _IdentityLastLine(LatticeGroup):
    """Z with a sort key that puts the identity last."""

    def sort_key(self, g):
        return (-abs(g[0]), g)


class _IdentityTwiceLine(LatticeGroup):
    """Z whose ball lists the identity twice."""

    def _ball_elements(self, radius):
        yield (0,)
        yield from super()._ball_elements(radius)


@pytest.mark.parametrize("toy", [_IdentityLastLine, _IdentityTwiceLine])
def test_ball_data_rejects_a_misplaced_identity(toy):
    group = toy(1)
    with pytest.raises(ValueError, match="identity first"):
        group.ball(1)
    elements = sorted(group._ball_elements(1), key=group.sort_key)
    with pytest.raises(ValueError, match="identity first"):
        BallData(group, 1, elements)


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_lattice_balls_walk_the_l1_ball(rank):
    for r in range(5):
        walked = list(LatticeGroup(rank)._ball_elements(r))
        cube = itertools.product(range(-r, r + 1), repeat=rank)
        assert len(walked) == len(set(walked))
        assert set(walked) == {v for v in cube if sum(map(abs, v)) <= r}


def _count_walked(monkeypatch, group) -> list:
    """Record every element that the group's ball walks yield."""
    walked = []
    walk = group._ball_elements

    def counted(radius):
        for g in walk(radius):
            walked.append(g)
            yield g

    monkeypatch.setattr(group, "_ball_elements", counted)
    return walked


def test_ball_data_refuses_a_huge_ball_as_it_walks(monkeypatch):
    group = LatticeGroup(3)
    walked = _count_walked(monkeypatch, group)
    with pytest.raises(SizeLimitError, match=r"^ball\(1000000\) of Z\^3 has more than 5000 elements$"):
        group.ball_data(10**6)
    assert group._balls == {}
    assert len(walked) == core.MAX_BALL + 1 == 5001


def test_the_ball_cap_is_exact(monkeypatch):
    monkeypatch.setattr(core, "MAX_BALL", 63)
    assert len(LatticeGroup(3).ball(3)) == 63
    monkeypatch.setattr(core, "MAX_BALL", 62)
    group = LatticeGroup(3)
    with pytest.raises(SizeLimitError, match="more than 62 elements"):
        group.ball(3)
    assert group._balls == {}


def test_lattice_ball_count_is_closed_form():
    """The l1 ball of Z^n has sum over k of 2^k C(n, k) C(r, k) points."""
    for rank in range(1, 5):
        group = LatticeGroup(rank)
        for r in range(9):
            size = sum(2**k * math.comb(rank, k) * math.comb(r, k) for k in range(rank + 1))
            assert len(group.ball(r)) == size


@pytest.mark.parametrize("make", [braid_group, lattice_group])
def test_group_caches_are_bounded(make):
    for n in range(2, 201):
        make(n)
    info = make.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize


def test_ball_cache_keeps_the_most_recently_used_radii():
    group = LatticeGroup(2)
    built = [group.ball_data(r) for r in range(8)]
    assert list(group._balls) == [4, 5, 6, 7]
    group.ball(5)
    group.ball(3)
    assert list(group._balls) == [6, 7, 5, 3]
    rebuilt = group.ball_data(3)
    assert rebuilt is not built[3]
    assert (rebuilt.elements, rebuilt.keys) == (built[3].elements, built[3].keys)
    assert group.ball(0) == built[0].elements
    assert len(group._balls) == BALL_CACHE_RADII == 4


def test_a_dropped_group_frees_its_balls_at_once():
    """Balls refer to their group weakly, so dropping the group frees its
    balls by reference counting alone; a ball kept past its group refuses
    to answer."""
    gc.disable()
    try:
        group = LatticeGroup(2)
        group.ball_data(3).product_table()
        ball = weakref.ref(group.ball_data(3))
        del group
        assert ball() is None
    finally:
        gc.enable()
    orphan = LatticeGroup(1).ball_data(1)
    with pytest.raises(ReferenceError, match="outlived its group"):
        orphan.index_of((1,))


@pytest.mark.parametrize("group,size3", [
    (FreeGroup(2), 53), (BraidGroup(3), 47), (BraidGroup(4), 131)])
def test_word_balls_are_capped_as_they_are_walked(monkeypatch, group, size3):
    walked = _count_walked(monkeypatch, group)
    with pytest.raises(SizeLimitError, match=rf"^ball\(1000000\) of {re.escape(group.name)} has"):
        group.ball_data(10**6)
    assert group._balls == {}
    assert len(walked) == core.MAX_BALL + 1
    assert len(group.ball(3)) == size3


@pytest.mark.parametrize("r", range(9))
def test_klein_balls_are_the_l1_balls_of_the_normal_form(r):
    ball = klein_group().ball(r)
    assert len(ball) == len(set(ball))
    assert set(ball) == {(a, b) for a in range(-r, r + 1) for b in range(-r, r + 1)
                         if abs(a) + abs(b) <= r}


@pytest.mark.parametrize("r", range(7))
def test_free_balls_are_all_reduced_words(r):
    words = {w for n in range(r + 1) for w in itertools.product((1, -1, 2, -2), repeat=n)
             if all(a != -b for a, b in zip(w, w[1:]))}
    ball = free_group(2).ball(r)
    assert len(ball) == len(words) and set(ball) == words


@pytest.mark.parametrize("strands", [3, 4])
def test_braid_ball_elements_carry_their_least_geodesic(strands):
    """Brute force over every word of length <= 4: each braid's
    representative in ball(4) is the least word, in canonical order, among
    the shortest words with its Dynnikov key."""
    group = braid_group(strands)
    letters = [a for i in range(1, strands) for a in (i, -i)]
    least = {}
    for n in range(5):
        for w in itertools.product(letters, repeat=n):
            k = group.key(w)
            if k not in least or group.sort_key(w) < group.sort_key(least[k]):
                least[k] = w
    ball = group.ball(4)
    assert len(ball) == len(least)
    assert all(least[group.key(g)] == g for g in ball)


class _NoGenerators(Group):
    """Z under addition, with neither generators nor a walk of its own."""

    identity = 0

    def multiply(self, g, h):
        return g + h

    def invert(self, g):
        return -g

    def sort_key(self, g):
        return (abs(g), g < 0)


def test_a_group_without_generators_or_a_walk_has_no_ball():
    with pytest.raises(NotImplementedError, match="no generators"):
        _NoGenerators().ball(1)


# Z^2 and Z^3 have cells that return to the ball after their parent cell
# left it: in Z^2 ball(3), (0,3)*(1,-1) = (1,2) is reached through (1,3).
# Q^2, K and G list no generators, so every cell of theirs takes the
# fallback.
TABLE_CASES = [
    (klein_group(), 8), (Z2, 3), (Z2, 5), (lattice_group(3), 3), (free_group(2), 3),
    (braid_group(3), 4), (braid_group(4), 3), (Z2, 0), (braid_group(3), 0),
    (rational_plane(), 2), (k_group(), 2), (g_group(), 2),
    (klein_group(), 12), (free_group(2), 4), (lattice_group(3), 4),
]


@pytest.mark.parametrize("group,radius", TABLE_CASES,
                         ids=[f"{g.name}-{r}" for g, r in TABLE_CASES])
def test_product_table_matches_spelt_products(group, radius):
    """Every cell of the walked table is the index of the spelt product's
    key, or -1."""
    data = group.ball_data(radius)
    elems, pos = data.elements, data.pos
    assert data.product_table() == [
        [pos.get(group.key(group.multiply(g, h)), -1) for h in elems] for g in elems]


# key_times calls of one product_table(): one per element and letter to
# step the ball, plus one per product outside the ball and letter that a
# row gathers through
TABLE_WORK = [
    (BraidGroup(3), 5, 14_681), (BraidGroup(4), 3, 7_242), (KleinGroup(), 16, 5_600),
    (LatticeGroup(3), 4, 2_528), (FreeGroup(2), 4, 13_280),
]


@pytest.mark.parametrize("group,radius,calls", TABLE_WORK,
                         ids=[f"{g.name}-{r}" for g, r, _ in TABLE_WORK])
def test_product_table_work_is_pinned(group, radius, calls):
    """Counted, not timed, on a group of its own: one table calls key_times
    exactly this often.  Each product outside the ball is stepped once per
    letter, not once per row that meets it.  Computing every cell from its
    row's key would take len(ball)^2 calls."""
    data = group.ball_data(radius)
    count = [0]
    key_times = group.key_times

    def counted(key_g, h):
        count[0] += 1
        return key_times(key_g, h)

    group.key_times = counted
    data.product_table()
    assert count[0] == calls < len(data.elements) ** 2


@pytest.mark.parametrize("group,radius", [(FreeGroup(2), 4), (BraidGroup(3), 5)],
                         ids=["F2-4", "B3-5"])
def test_product_table_memory_is_bounded(group, radius):
    """The products outside the ball that rows gather through are interned
    only while a later row gathers from the row that meets them, and are
    dropped with the build: one table peaks under 2.5 MiB."""
    data = group.ball_data(radius)
    tracemalloc.start()
    try:
        data.product_table()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2**20


SPHERE_BALLS = [
    (lattice_group(1), 30), (lattice_group(2), 8), (lattice_group(3), 4), (klein_group(), 8),
    (free_group(2), 4), (braid_group(3), 4), (braid_group(4), 3),
]


@pytest.mark.parametrize("group,radius", SPHERE_BALLS,
                         ids=[f"{g.name}-{r}" for g, r in SPHERE_BALLS])
def test_gathered_rows_hold_one_sphere(group, radius):
    """On a word-metric ball every row i > 0 is gathered from a parent row
    one sphere nearer the identity, spheres read off sort_key's length, so
    while the rows of one sphere are built the generator holds rows of
    that sphere and the one before, never more than the largest sphere."""
    data = group.ball_data(radius)
    sphere = [group.sort_key(g)[0] for g in data.elements]
    widest = max(collections.Counter(sphere).values())
    rows = data.product_rows(True)
    next(rows)
    parent = rows.gi_frame.f_locals["parent"]
    assert all(sphere[parent[i][0]] == sphere[i] - 1 for i in range(1, len(sphere)))
    for i, _ in enumerate(rows, 1):
        held = rows.gi_frame.f_locals["held"]
        assert {sphere[p] for p in held} <= {sphere[i] - 1, sphere[i]}
        assert len(held) <= widest


def test_sign_at_identity_raises():
    assert LEX.fn((0, 0)) == 0
    with pytest.raises(IdentitySignError):
        LEX.sign((0, 0))


def test_compare_maps_sign_to_order():
    assert compare(LEX, (0, 0), (0, 1)) == LT
    assert compare(LEX, (0, 1), (0, 0)) == GT
    assert compare(LEX, (3, -2), (3, -2)) == EQ
    assert compare(LEX, (0, 5), (1, -5)) == LT


def test_compare_reads_equality_and_order_from_one_sign():
    """compare gives EQ exactly on equal elements and is antisymmetric,
    for every ordering the battery checks, on all pairs of ball(2).  A
    braid spelt with a cancelling pair compares as the braid itself."""
    for oracle, group, _ in verify._axiom_jobs():
        ball = group.ball(2)
        for g, h in itertools.product(ball, repeat=2):
            c = compare(oracle, g, h)
            assert (c == EQ) == group.same(g, h), (oracle, g, h)
            assert c == -compare(oracle, h, g), (oracle, g, h)
        if isinstance(group, BraidGroup):
            for g in ball:
                spelt = g + (1, -1)
                assert compare(oracle, g, spelt) == EQ, (oracle, g)
                for h in ball:
                    assert compare(oracle, spelt, h) == compare(oracle, g, h), (oracle, g, h)


def test_least_positive_and_certificate():
    least = least_positive_in_ball(LEX, Z2, 2)
    assert least == (0, 1)


def test_no_positive_raises():
    all_neg = SignOracle(Z2, lambda g: -1 if g != (0, 0) else 0, "neg")
    with pytest.raises(NoPositiveError):
        least_positive_in_ball(all_neg, Z2, 2)


def test_axioms_pass_for_flag_orderings():
    for oracle in (LEX, REV, SWAPPED):
        report = verify_cone_axioms(oracle, Z2, 3)
        assert report.passed and str(report) == "passed"


def test_axioms_catch_broken_antisymmetry():
    bad = SignOracle(Z2, lambda g: 0 if g == (0, 0) else 1, "junk")
    report = verify_cone_axioms(bad, Z2, 1)
    assert not report.passed
    assert report.violations[0][0] == "inverse-sign"


def test_axioms_catch_broken_closure():
    pos = {(1, 0), (0, 1)}

    def fn(g):
        if g == (0, 0):
            return 0
        if g in pos:
            return 1
        if Z2.invert(g) in pos:
            return -1
        return -LEX.fn(g)

    report = verify_cone_axioms(SignOracle(Z2, fn, "junk"), Z2, 1)
    assert not report.passed
    assert ("closure", ((1, 0), (0, 1))) in report.violations


def test_pushforward_by_swap():
    phi = matrix_automorphism(Z2, [[0, 1], [1, 0]])
    pushed = act_automorphism(phi, LEX)
    assert pushed.sign((0, 1)) == 1
    assert pushed.sign((0, -1)) == -1
    assert pushed.sign((-1, 5)) == 1
    assert separating_element(pushed, SWAPPED, Z2, 3) is None
    assert pushed.descriptor.endswith(LEX.descriptor)
    again = act_automorphism(phi, pushed)
    assert separating_element(again, LEX, Z2, 3) is None


def test_conjugation_is_trivial_on_abelian():
    inner = inner_automorphism(Z2, (5, 7))
    assert inner.forward((1, 2)) == (1, 2)
    assert check_bi_invariance(LEX, Z2, 3) is None


def test_distinguishing_witness():
    neg = matrix_automorphism(Z2, [[-1, 0], [0, -1]])
    hit = distinguishing_witness(neg, [LEX], Z2, 1)
    assert hit is not None
    oracle, g = hit
    assert oracle is LEX and g == (1, 0)
    ident = matrix_automorphism(Z2, [[1, 0], [0, 1]])
    assert distinguishing_witness(ident, [LEX, SWAPPED], Z2, 2) is None


def test_separating_element():
    assert separating_element(LEX, REV, Z2, 1) == (1, 0)
    assert separating_element(LEX, SWAPPED, Z2, 1) is None
    assert separating_element(LEX, SWAPPED, Z2, 2) == (1, -1)
    assert separating_element(LEX, LEX, Z2, 2) is None
