"""Products signed and located from cached Dynnikov keys.

The key of g*h is h's letters acting on key(g), and a product's sign is read
from the coordinates that action produces.  The word path spells g*h,
reduces it and walks it from the start vector; these tests hold the two
paths to the same keys, signs, tables, violations and budget refusals, and
count that the key path spells no product at all.
"""

import random

import pytest

import ordlib.braid as braid
import ordlib.magnus as magnus
from ordlib.braid import (
    BraidGroup,
    braid_group,
    braid_ordering_catalog,
    dehornoy_oracle,
    dynnikov_act,
    dynnikov_coordinates,
    flipped_dehornoy_oracle,
)
from ordlib.core import BudgetExceededError, SignOracle, verify_cone_axioms

BALLS = [(3, 3), (4, 3), (5, 3), (6, 3), (3, 4), (4, 4)]
PAIRS_PER_BALL = 400
TABLE_ROWS = 24


def _oracles(group, budget=braid.DEFAULT_BUDGET):
    return ([dehornoy_oracle(group, budget), flipped_dehornoy_oracle(group, budget)]
            + braid_ordering_catalog(group, budget))


def _word_only(oracle):
    """The same ordering without its key path: products are spelt."""
    return SignOracle(oracle.group, oracle.fn, oracle.descriptor)


def test_the_action_is_a_right_action():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(2, 7)
        u = braid.random_word(rng, n, rng.randint(0, 10))
        v = braid.random_word(rng, n, rng.randint(0, 10))
        assert dynnikov_act(dynnikov_coordinates(n, u), v) == dynnikov_coordinates(n, u + v)


@pytest.mark.parametrize("strands,radius", BALLS)
def test_key_path_matches_the_word_path(strands, radius):
    """On seeded pairs of the ball: key_times is the key of the spelt
    product, every braid oracle signs the product as fn does on its word,
    and the product table matches one built from words, row by row."""
    group = BraidGroup(strands)
    data = group.ball_data(radius)
    elems, keys = data.elements, data.keys
    rng = random.Random(1000 * strands + radius)
    oracles = _oracles(group)
    for _ in range(PAIRS_PER_BALL):
        i, j = rng.randrange(len(elems)), rng.randrange(len(elems))
        g, h = elems[i], elems[j]
        gh = group.multiply(g, h)
        assert group.key_times(keys[i], g, h) == group.key(gh)
        for oracle in oracles:
            assert oracle.left_fn(g)(h) == oracle.fn(gh), (oracle.descriptor, g, h)
    table = data.product_table()
    for i in rng.sample(range(len(elems)), TABLE_ROWS):
        g = elems[i]
        assert table[i] == [data.pos.get(group.key(group.multiply(g, h)), -1)
                            for h in elems]


def _parity(w) -> int:
    return -1 if sum(1 if a > 0 else -1 for a in w) % 2 else 1


def _odd_flipped(group):
    """Not a cone: the Dehornoy sign, negated on braids of odd exponent
    sum.  Inverses keep their parity, so only closure fails."""
    plain = dehornoy_oracle(group)

    def left(g):
        sign_gh = plain.left_fn(g)
        return lambda h: _parity(g) * _parity(h) * sign_gh(h)

    return SignOracle(group, lambda w: _parity(w) * plain.fn(w), "odd-flipped", left)


@pytest.mark.parametrize("max_violations", [1, 7, 100, 10**6])
def test_violations_are_the_word_path_witnesses(max_violations):
    group = braid_group(4)
    keyed = _odd_flipped(group)
    by_key = verify_cone_axioms(keyed, group, 3, max_violations)
    by_word = verify_cone_axioms(_word_only(keyed), group, 3, max_violations)
    assert not by_key.passed
    assert by_key.violations == by_word.violations
    assert len(by_key.violations) == min(max_violations, len(by_word.violations))
    if max_violations == 10**6:
        assert len(by_key.violations) > 100


def _outcome(f, *args):
    try:
        return f(*args)
    except BudgetExceededError:
        return "budget"


@pytest.mark.parametrize("budget", [0, 2, 4])
def test_budget_refusals_match_the_word_path(budget):
    """The budget bounds the reduced product on both paths: products that
    cancel down to it are signed, longer ones raise."""
    group = braid_group(4)
    ball = group.ball(3)
    refused = signed = 0
    for oracle in _oracles(group, budget):
        for g in ball[::3]:
            sign_gh = oracle.left_fn(g)
            for h in ball[::5]:
                got = _outcome(sign_gh, h)
                assert got == _outcome(oracle.fn, group.multiply(g, h)), (g, h)
                refused += got == "budget"
                signed += got != "budget"
    assert refused and signed
    with pytest.raises(BudgetExceededError):
        verify_cone_axioms(dehornoy_oracle(group, 2), group, 3)


def test_key_path_spells_no_product(monkeypatch):
    """Counted, not timed: once B4 ball(3) is built, the Dehornoy cone
    check and the product table never call multiply or reduce_word."""
    group = BraidGroup(4)
    group.ball(3)
    calls = {"multiply": 0, "reduce_word": 0}
    multiply, reduce_word = BraidGroup.multiply, magnus.reduce_word

    def counted_multiply(self, g, h):
        calls["multiply"] += 1
        return multiply(self, g, h)

    def counted_reduce(letters):
        calls["reduce_word"] += 1
        return reduce_word(letters)

    monkeypatch.setattr(BraidGroup, "multiply", counted_multiply)
    monkeypatch.setattr(magnus, "reduce_word", counted_reduce)
    monkeypatch.setattr(braid, "reduce_word", counted_reduce)
    oracle = dehornoy_oracle(group)
    assert verify_cone_axioms(oracle, group, 3).passed
    group.ball_data(3).product_table()
    assert calls == {"multiply": 0, "reduce_word": 0}
    # the counters do see the word path
    assert verify_cone_axioms(_word_only(oracle), group, 3).passed
    assert calls["multiply"] > 1000 and calls["reduce_word"] == calls["multiply"]
