"""Cone axioms, comparisons, and witness searches on small balls."""

import itertools

import pytest

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
    act_automorphism,
    certify_least_positive,
    check_bi_invariance,
    check_convex_in_ball,
    compare,
    distinguishing_witness,
    inner_automorphism,
    least_positive_in_ball,
    separating_element,
    verify_cone_axioms,
)
from ordlib.extensions import g_group, k_group, klein_group, rational_plane
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


def test_ball_exceeds_counts_without_building():
    group = LatticeGroup(3)
    assert group.ball_exceeds(10**6, 5000)
    assert not group.ball_exceeds(3, 63) and group.ball_exceeds(3, 62)
    assert group._balls == {}
    group.ball(3)
    assert not group.ball_exceeds(3, 63) and group.ball_exceeds(3, 62)


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


@pytest.mark.parametrize("group,size3", [
    (FreeGroup(2), 53), (BraidGroup(3), 47), (BraidGroup(4), 131)])
def test_ball_exceeds_counts_word_balls_without_building(group, size3):
    assert group.ball_exceeds(10**6, 5000)
    assert not group.ball_exceeds(3, size3) and group.ball_exceeds(3, size3 - 1)
    assert group._balls == {}
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


def test_sign_at_identity_raises():
    assert LEX.fn((0, 0)) == 0
    with pytest.raises(IdentitySignError):
        LEX.sign((0, 0))


def test_compare_maps_sign_to_order():
    assert compare(LEX, (0, 0), (0, 1)) == LT
    assert compare(LEX, (0, 1), (0, 0)) == GT
    assert compare(LEX, (3, -2), (3, -2)) == EQ
    assert compare(LEX, (0, 5), (1, -5)) == LT


def test_least_positive_and_certificate():
    least = least_positive_in_ball(LEX, Z2, 2)
    assert least == (0, 1)
    assert certify_least_positive(LEX, Z2, 2, (0, 1))
    assert not certify_least_positive(LEX, Z2, 2, (1, 0))
    assert not certify_least_positive(LEX, Z2, 2, (0, -1))


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


def test_convexity_scan():
    axis = lambda g: g[0] == 0
    assert check_convex_in_ball(axis, LEX, Z2, 2) is None
    hit = check_convex_in_ball(axis, SWAPPED, Z2, 2)
    assert hit is not None
    g, f, h = hit
    assert axis(g) and axis(h) and not axis(f)
    assert compare(SWAPPED, g, f) == LT and compare(SWAPPED, f, h) == LT


def test_convexity_validates_the_predicate():
    with pytest.raises(ValueError):
        check_convex_in_ball(lambda g: g in {(0, 0), (1, 0)}, LEX, Z2, 1)
    with pytest.raises(ValueError):
        check_convex_in_ball(lambda g: g != (0, 0), LEX, Z2, 1)
