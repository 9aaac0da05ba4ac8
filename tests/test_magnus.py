"""Series orderings of free groups and the closure-dominant family."""

import math
import random

import pytest

import ordlib.magnus as magnus
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
    least_term,
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


@pytest.mark.parametrize("rank", [2, 3])
def test_key_times_one_letter_matches_multiply(rank):
    """On seeded reduced words and every letter, key_times takes the
    one-letter step of a product table exactly as the reduced product does."""
    group = free_group(rank)
    rng = random.Random(44 + rank)
    letters = [a for i in range(1, rank + 1) for a in (i, -i)]
    for _ in range(2000):
        w = reduce_word(rng.choice(letters) for _ in range(rng.randrange(16)))
        for a in letters:
            assert group.key_times(w, (a,)) == group.multiply(w, (a,)), (w, a)


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


@pytest.mark.parametrize("factor", ["x^2^3", "x^", "y^x", "x^2_0", "x^1.5"])
def test_parse_word_names_a_bad_exponent(factor):
    with pytest.raises(ValueError) as info:
        parse_word(F2, f"y {factor}")
    assert str(info.value) == f"bad exponent in factor {factor!r}"


def test_labels_and_ball():
    assert F2.label(()) == "1"
    assert F2.label((1, -2, -2)) == "x y^-2"
    assert [len(F2.ball(r)) for r in range(4)] == [1, 5, 17, 53]


def test_expansion_terms():
    x = expand_letters(((1, 1),), 4)
    assert x == {(): 1, (1,): 1}
    xinv = expand_letters(((1, -1),), 3)
    assert xinv == {(): 1, (1,): -1, (1, 1): 1, (1, 1, 1): -1}
    comm = expand_letters(tuple((abs(a), 1 if a > 0 else -1) for a in COMM), 2)
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


def test_escalation_and_cap(monkeypatch):
    pairs = tuple((abs(a), 1 if a > 0 else -1) for a in DEEP)
    assert magnus.ESCALATION_CAP >= 8
    monkeypatch.setattr(magnus, "ESCALATION_CAP", 8)
    assert series_sign(pairs) == 1
    monkeypatch.setattr(magnus, "ESCALATION_CAP", 2)
    with pytest.raises(InconclusiveTruncationError):
        series_sign(pairs)


def test_escalation_steps_the_degree(monkeypatch):
    """[[[[x, y], x], x], x] has its least term at degree 5, and the
    expansion steps up to it one degree at a time."""
    word = (1,)
    for a in (2, 1, 1, 1):
        word = reduce_word(word + (a,) + F2.invert(word) + (-a,))
    degrees = []
    expand = magnus.expand_letters

    def recorded(pairs, degree):
        degrees.append(degree)
        return expand(pairs, degree)

    monkeypatch.setattr(magnus, "expand_letters", recorded)
    assert series_sign(_pairs(word)) == -1
    assert degrees == [1, 2, 3, 4, 5]


def _pairs(letters):
    return tuple((abs(a), 1 if a > 0 else -1) for a in letters)


def _reference_expansion(pairs, degree):
    """The definition: the product of the letter series, x -> 1 + X and
    x^-1 -> 1 - X + X^2 - ..., each truncated at ``degree``, multiplied as
    plain dicts."""
    terms = {(): 1}
    for label, e in pairs:
        letter = ({(): 1, (label,): 1} if e > 0
                  else {(label,) * j: (-1) ** j for j in range(degree + 1)})
        out = {}
        for m1, c1 in terms.items():
            for m2, c2 in letter.items():
                if len(m1) + len(m2) <= degree:
                    out[m1 + m2] = out.get(m1 + m2, 0) + c1 * c2
        terms = {m: c for m, c in out.items() if c}
    return terms


def test_expansion_matches_the_definition():
    """Seeded F2 words of 0-64 letters and closure pair sequences with
    labels -3..3, at every truncation 1-8."""
    rng = random.Random(29)
    lengths = [0, 64] + [rng.randint(1, 63) for _ in range(16)]
    cases = [_pairs(_walk(rng, n)) for n in lengths]
    # unreduced letter sequences expand as well
    cases += [_pairs(rng.choice((1, -1, 2, -2)) for _ in range(n)) for n in lengths[:8]]
    # 7 labels make the expansion grow fast, so these stay short
    cases += [tuple((rng.randint(-3, 3), rng.choice((1, -1)))
                    for _ in range(rng.randint(0, 10))) for _ in range(60)]
    for pairs in cases:
        for degree in range(1, 9):
            assert expand_letters(pairs, degree) == _reference_expansion(pairs, degree), (
                pairs, degree)


def _three_step_closure_sign(word, closed):
    """The closure sign read in three steps: the exponent sum e of the other
    generator y, the closure part w y^-e, and that part rewritten in the
    conjugates y^i x y^-i and signed as a series."""
    other = 3 - closed
    e = sum(1 if a == other else -1 if a == -other else 0 for a in word)
    kpart = F2.multiply(word, (other,) * (-e) if e < 0 else (-other,) * e)
    if not kpart:
        return 0 if e == 0 else (1 if e > 0 else -1)
    t, pairs = 0, []
    for a in kpart:
        if abs(a) == other:
            t += 1 if a > 0 else -1
        else:
            pairs.append((t, 1 if a > 0 else -1))
    assert t == 0
    return series_sign(pairs)


def test_closure_sign_matches_three_steps():
    rng = random.Random(2929)
    words = F2.ball(5) + [_walk(rng, rng.randint(0, 24)) for _ in range(5000)]
    for closed in (1, 2):
        for w in words:
            assert closure_lex_sign(F2, w, closed) == _three_step_closure_sign(w, closed), (
                w, closed)


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
    term = least_term(expand_letters(pairs, 8))
    return None if term is None else (1 if term[1] > 0 else -1)


def test_signs_match_truncation_8():
    # expanding at truncation 8 costs about 0.25 ms per letter at 16 letters
    # and 0.5 ms at 64 (2-vCPU x86-64, CPython 3.11.7), so most walks are
    # short and a few reach 64
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
        want = _truncation_8_sign(closure_rewrite(w, 1)[0])
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
    assert closure_rewrite((1,), 1) == (((0, 1),), 0)
    assert closure_rewrite((2, 1, -2), 1) == (((1, 1),), 0)
    assert closure_rewrite((1, 2, 1, -2), 1) == (((0, 1), (1, 1)), 0)
    assert closure_rewrite((2,), 1) == ((), 1)
    assert closure_rewrite((-2, 1, -2, -1), 1) == (((-1, 1), (-2, -1)), -2)
    assert closure_rewrite((1, -2, 1), 2) == (((1, -1),), 2)


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
