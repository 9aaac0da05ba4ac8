"""Partial-cone enumeration checked against brute force, plus the bounded
isolator and power-agreement searches."""

import itertools

import pytest

from ordlib.braid import braid_group, dehornoy_oracle
from ordlib.core import IdentitySignError, SizeLimitError
from ordlib.extensions import KleinAut, klein_group, klein_orderings
from ordlib.lattice import lattice_group
from ordlib.lospace import (
    NOT_FOUND,
    PartialCone,
    condition_star_check,
    enumerate_partial_cones,
    extend_partial_cone,
    isolator_dichotomy_check,
    isolator_member,
)
from ordlib.magnus import free_group, swap_generators

Z = lattice_group(1)
Z2 = lattice_group(2)
KLEIN = klein_group()


def _brute_force_cones(group, radius):
    """Every sign assignment on inverse pairs that closes under products
    staying in the ball."""
    ball = group.ball(radius)
    nonid = [g for g in ball if not group.is_identity(g)]
    reps, seen = [], set()
    for g in nonid:
        if g not in seen:
            seen.add(g)
            seen.add(group.invert(g))
            reps.append(g)
    inside = set(ball)
    cones = []
    for bits in itertools.product((1, -1), repeat=len(reps)):
        sign = {}
        for g, s in zip(reps, bits):
            sign[g] = s
            sign[group.invert(g)] = -s
        positives = [g for g in nonid if sign[g] == 1]
        if all(sign.get(group.multiply(g, h), 1) == 1
               for g in positives for h in positives
               if group.multiply(g, h) in inside
               and not group.is_identity(group.multiply(g, h))):
            cones.append(tuple((g, sign[g]) for g in nonid))
    return cones


@pytest.mark.parametrize("radius,count", [(1, 4), (2, 8)])
def test_enumeration_matches_brute_force_on_small_lattice_balls(radius, count):
    brute = _brute_force_cones(Z2, radius)
    enum = enumerate_partial_cones(Z2, radius)
    assert len(brute) == len(enum) == count
    assert {c.signs for c in enum} == set(brute)


def test_integer_line_has_two_cones():
    cones = enumerate_partial_cones(Z, 3)
    assert [c.serialize() for c in cones] == [
        "(1):+\n(-1):-\n(2):+\n(-2):-\n(3):+\n(-3):-",
        "(1):-\n(-1):+\n(2):-\n(-2):+\n(3):-\n(-3):+",
    ]


def test_klein_radius_six_cones_are_the_four_orderings():
    cones = enumerate_partial_cones(KLEIN, 6)
    assert len(cones) == 4
    restrictions = {PartialCone.from_oracle(o, KLEIN, 6).signs
                    for o in klein_orderings(KLEIN)}
    assert {c.signs for c in cones} == restrictions
    for cone in cones:
        assert len(extend_partial_cone(cone, KLEIN, 8)) == 1


def test_partial_cone_accessors():
    oracle = klein_orderings(KLEIN)[0]
    cone = PartialCone.from_oracle(oracle, KLEIN, 3)
    for g in cone.elements():
        assert cone.sign(g) == oracle.sign(g)
    assert cone.serialize().splitlines()[0] == "x:+"
    assert cone.restricted(1).signs == PartialCone.from_oracle(oracle, KLEIN, 1).signs
    with pytest.raises(IdentitySignError):
        cone.sign(KLEIN.identity)
    with pytest.raises(KeyError):
        cone.sign((9, 9))
    with pytest.raises(ValueError):
        cone.restricted(5)
    with pytest.raises(ValueError):
        extend_partial_cone(cone, KLEIN, 3)


def test_partial_cone_signs_any_spelling():
    b3 = braid_group(3)
    cone = PartialCone.from_oracle(dehornoy_oracle(b3), b3, 3)
    assert cone.sign((2, 1, 2)) == cone.sign((1, 2, 1)) == 1


def test_node_limit_and_ball_cap(monkeypatch):
    with pytest.raises(SizeLimitError):
        enumerate_partial_cones(free_group(2), 2, node_limit=3)
    monkeypatch.setenv("ORD_MAX_NODES", "3")
    with pytest.raises(SizeLimitError):
        enumerate_partial_cones(free_group(2), 2)
    monkeypatch.delenv("ORD_MAX_NODES")
    with pytest.raises(SizeLimitError):
        enumerate_partial_cones(Z2, 50)


def test_isolator_membership():
    assert isolator_member(Z2, (1, 1), (2, 2)) is True
    assert isolator_member(Z2, (-3, 0), (1, 0)) is True
    assert isolator_member(Z2, (1, 0), (0, 1)) is False
    assert isolator_member(Z2, (0, 0), (0, 1)) is True
    assert isolator_member(KLEIN, (3, 0), (1, 0)) is True
    assert isolator_member(KLEIN, (0, 2), (1, 0)) == NOT_FOUND
    with pytest.raises(ValueError):
        isolator_member(Z2, (1, 0), (0, 0))


def test_isolator_dichotomy():
    # same line, detected memberships agree
    assert isolator_dichotomy_check(Z2, (1, 0), (2, 0), 3) is None
    # transverse lines share only the identity
    assert isolator_dichotomy_check(Z2, (1, 0), (0, 1), 3) is None
    assert isolator_dichotomy_check(KLEIN, (0, 1), (0, 2), 3) is None
    assert isolator_dichotomy_check(KLEIN, (1, 0), (0, 1), 3) is None
    with pytest.raises(ValueError):
        isolator_dichotomy_check(Z2, (0, 0), (1, 0), 2)


def test_power_agreement_probe():
    assert condition_star_check(lambda g: (2 * g[0], 2 * g[1]), Z2, 3) is None
    shear = lambda g: (g[0] + g[1], g[1])
    assert condition_star_check(shear, Z2, 3) == (0, 1)
    flip = KleinAut(1, -1, 0).to_automorphism(KLEIN)
    assert condition_star_check(flip, KLEIN, 3) == (1, 0)
    F2 = free_group(2)
    assert condition_star_check(swap_generators(F2), F2, 2, bound=6) == (1,)
