"""Series orderings of free groups and the closure-dominant family."""

import math
import random

import pytest

from ordlib.core import (
    InconclusiveTruncationError,
    act_automorphism,
    check_bi_invariance,
    distinguishing_witness,
    inner_automorphism,
    verify_cone_axioms,
)
from ordlib.lospace import condition_star_check
from ordlib.magnus import (
    closure_lex_oracle,
    closure_lex_sign,
    closure_rewrite,
    expand_letters,
    FREE_PROBES,
    free_automorphism,
    free_group,
    free_probe,
    free_probe_catalog,
    magnus_oracle,
    magnus_sign,
    parse_word,
    reduce_word,
    series_sign,
    substitute,
)

F2 = free_group(2)
MAG = magnus_oracle(F2)
NCX = closure_lex_oracle(F2, 1)

COMM = (1, 2, -1, -2)
DEEP = F2.multiply(F2.multiply(COMM, (2,)), F2.multiply(F2.invert(COMM), (-2,)))


def test_reduce_word():
    assert reduce_word([1, -1]) == ()
    assert reduce_word([1, 2, -2, -1, 1]) == (1,)
    assert reduce_word([1, 2, 1]) == (1, 2, 1)


@pytest.mark.parametrize("rank,radius", [(2, 4), (3, 3)])
def test_key_times_cancels_at_the_junction(rank, radius):
    """On every pair of the ball, key_times, which cancels only where the
    two reduced words meet, is the freely reduced product."""
    group = free_group(rank)
    ball = group.ball(radius)
    for g in ball:
        for h in ball:
            assert group.key_times(g, h) == group.multiply(g, h), (g, h)
    assert group.key_times((1, 2, -1), (1, -2, -1, 2)) == (2,)


def test_parse_word_forms():
    assert parse_word(F2, "xyX") == (1, 2, -1)
    assert parse_word(F2, "x y^-1 x^2") == (1, -2, 1, 1)
    assert parse_word(F2, "1 2 -1") == (1, 2, -1)
    assert parse_word(F2, "x * y") == (1, 2)
    assert parse_word(F2, "1") == ()
    assert parse_word(F2, "") == ()
    with pytest.raises(ValueError):
        parse_word(F2, "q")
    with pytest.raises(ValueError):
        parse_word(F2, "3 1")


def test_labels_and_ball():
    assert F2.label(()) == "1"
    assert F2.label((1, -2, -2)) == "x y^-2"
    assert [len(F2.ball(r)) for r in range(4)] == [1, 5, 17, 53]


def test_expansion_terms():
    x = expand_letters(((1, 1),), 4).terms
    assert x == {(): 1, (1,): 1}
    xinv = expand_letters(((1, -1),), 3).terms
    assert xinv == {(): 1, (1,): -1, (1, 1): 1, (1, 1, 1): -1}
    comm = expand_letters(tuple((abs(a), 1 if a > 0 else -1) for a in COMM), 2).terms
    assert comm[(1, 2)] == 1 and comm[(2, 1)] == -1
    assert (1,) not in comm and (2,) not in comm


def test_magnus_signs():
    assert magnus_sign(()) == 0
    assert magnus_sign((1,)) == 1
    assert magnus_sign((-1,)) == -1
    assert magnus_sign(COMM) == 1
    assert magnus_sign(F2.invert(COMM)) == -1
    assert magnus_sign((1, -2)) == 1
    assert magnus_sign((-1, 2)) == -1
    assert magnus_sign(DEEP) == 1


def test_escalation_and_cap():
    pairs = tuple((abs(a), 1 if a > 0 else -1) for a in DEEP)
    assert series_sign(pairs, cap=8) == 1
    with pytest.raises(InconclusiveTruncationError):
        series_sign(pairs, cap=2)


def _walk(rng, length):
    """A reduced F2 word of exactly ``length`` letters."""
    word = []
    while len(word) < length:
        a = rng.choice((1, -1, 2, -2))
        if not word or word[-1] != -a:
            word.append(a)
    return tuple(word)


def _commutators(rng, count):
    """Iterated commutators [u, v] of generators and of earlier commutators,
    of degree at most 7 and at most 64 letters."""
    pool = [((a,), 1) for a in (1, -1, 2, -2)]
    out = []
    while len(out) < count:
        (u, du), (v, dv) = rng.choice(pool), rng.choice(pool)
        w = F2.multiply(F2.multiply(u, v), F2.invert(F2.multiply(v, u)))
        if w and du + dv <= 7 and len(w) <= 64:
            pool.append((w, du + dv))
            out.append(w)
    return out


def _truncation_8_sign(pairs):
    term = expand_letters(pairs, 8).minimal_term()
    return None if term is None else (1 if term[1] > 0 else -1)


def test_signs_match_truncation_8():
    # expanding at truncation 8 costs about 0.4 ms per letter past 16 letters
    # (2-core x86-64, CPython 3.11), so most walks are short and a few reach 64
    rng = random.Random(2016)
    words = [_walk(rng, round(math.exp(rng.uniform(0, math.log(20)))))
             for _ in range(1840)]
    words += [_walk(rng, rng.randint(21, 64)) for _ in range(60)]
    words += _commutators(rng, 100)
    decided = 0
    for w in words:
        want = _truncation_8_sign(tuple((abs(a), 1 if a > 0 else -1) for a in w))
        if want is not None:
            decided += 1
            assert magnus_sign(w) == want, w
    closure = []
    while len(closure) < 300:
        # a product of conjugates y^i x^+-1 y^-i lies in the closure of x
        letters = []
        for _ in range(rng.randint(1, 8)):
            i = rng.randint(-2, 2)
            y = (2 if i > 0 else -2,) * abs(i)
            letters += y + (rng.choice((1, -1)),) + F2.invert(y)
        w = reduce_word(letters)
        if w:
            closure.append(w)
    for w in closure:
        want = _truncation_8_sign(closure_rewrite(F2, w, 1))
        if want is not None:
            decided += 1
            assert closure_lex_sign(F2, w) == want, w
    assert decided >= 2000


@pytest.mark.parametrize("length", [2000, 10000])
def test_long_words_get_opposite_signs(length):
    w = _walk(random.Random(length), length)
    assert len(w) == length
    assert magnus_sign(w) == -magnus_sign(F2.invert(w)) != 0


def test_series_ordering_is_bi_invariant():
    assert verify_cone_axioms(MAG, F2, 3).passed
    assert check_bi_invariance(MAG, F2, 2) is None
    rng = random.Random(7)
    for _ in range(50):
        w = reduce_word(rng.choice([1, -1, 2, -2]) for _ in range(8))
        if not w:
            continue
        u = reduce_word(rng.choice([1, -1, 2, -2]) for _ in range(5))
        conj = F2.multiply(F2.multiply(u, w), F2.invert(u))
        assert magnus_sign(conj) == magnus_sign(w)


def test_closure_rewrite():
    assert closure_rewrite(F2, (1,), 1) == ((0, 1),)
    assert closure_rewrite(F2, (2, 1, -2), 1) == ((1, 1),)
    assert closure_rewrite(F2, (1, 2, 1, -2), 1) == ((0, 1), (1, 1))
    with pytest.raises(ValueError):
        closure_rewrite(F2, (2,), 1)


def test_closure_lex_signs():
    assert NCX.fn(()) == 0
    assert NCX.sign((1,)) == 1
    assert NCX.sign((2,)) == 1
    assert NCX.sign((-2,)) == -1
    assert NCX.sign((1, -2)) == 1
    assert NCX.sign((-1, 2)) == -1
    assert verify_cone_axioms(NCX, F2, 3).passed


def test_closure_ordering_is_not_bi_invariant():
    assert check_bi_invariance(NCX, F2, 2) == ((1,), (1, -2))


def test_automorphism_helpers():
    swap = free_probe(F2, "swap")
    assert swap.forward((1, -2)) == (2, -1)
    shear = free_probe(F2, "shear")
    assert shear.forward((1,)) == (1, 2)
    assert shear.backward((1,)) == (1, -2)
    inv = free_probe(F2, "invert")
    assert inv.forward((1, 2)) == (-1, 2)
    assert substitute(F2, (1, 2), {1: (2,), 2: (-1,)}) == (2, -1)
    with pytest.raises(ValueError):
        free_automorphism(F2, {1: (1, 2), 2: (2,)}, {1: (1, 2), 2: (2,)}, "bad")


def test_pushforward_descriptor_and_signs():
    pushed = act_automorphism(free_probe(F2, "swap"), MAG)
    assert pushed.descriptor == "swap.series[deg6]"
    assert pushed.sign((2,)) == 1
    assert pushed.sign((1, -2)) == -1


def test_inner_is_invisible_to_conjugation_invariant_orderings():
    inner = inner_automorphism(F2, (1,))
    catalog = [MAG] + [
        act_automorphism(free_probe(F2, name), MAG)
        for name in ("swap", "invert", "shear")]
    assert distinguishing_witness(inner, catalog, F2, 2) is None
    hit = distinguishing_witness(inner, [NCX], F2, 2)
    assert hit is not None
    oracle, g = hit
    assert oracle is NCX and g == (1, -2)


def test_power_compatibility_failures():
    assert condition_star_check(free_probe(F2, "swap"), F2) == (1,)
    assert condition_star_check(inner_automorphism(F2, (1,)), F2) == (2,)
    ident = free_automorphism(F2, {1: (1,), 2: (2,)}, {1: (1,), 2: (2,)}, "id")
    assert condition_star_check(ident, F2) is None


PROBE_DESCRIPTORS = {"swap": "swap", "invert": "invert-first", "shear": "shear",
                     "inner": "inner[x]"}


@pytest.mark.parametrize("name", list(FREE_PROBES))
def test_every_probe_row_is_an_automorphism(name):
    phi = free_probe(F2, name)
    assert phi.descriptor == PROBE_DESCRIPTORS[name]
    for w in F2.ball(4):
        assert phi.backward(phi.forward(w)) == w
        assert phi.forward(phi.backward(w)) == w


def test_inner_row_is_conjugation_by_x():
    row, inner = free_probe(F2, "inner"), inner_automorphism(F2, (1,))
    assert row.descriptor == inner.descriptor
    for w in F2.ball(4):
        assert row.forward(w) == inner.forward(w)
        assert row.backward(w) == inner.backward(w)


def test_probe_catalog_order_and_rank():
    assert [o.descriptor for o in free_probe_catalog(F2)] == [
        "series[deg6]", "swap.series[deg6]", "invert-first.series[deg6]",
        "shear.series[deg6]", "inner[x].series[deg6]", "nclex[x]", "nclex[y]"]
    with pytest.raises(ValueError):
        free_probe(free_group(3), "swap")
