"""Cone axioms, comparisons, and witness searches on small balls."""

import pytest

from ordlib.core import (
    EQ,
    GT,
    LT,
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
from ordlib.lattice import flag_ordering, lattice_group, matrix_automorphism

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
