"""Handle reduction, the sign cascade, and the braid ordering family.

The independent referee here is the faithful action of a braid on a free
group, with the i-th generator mapping x_i to x_i x_{i+1} x_i^-1 and
x_{i+1} to x_i.  A word acts trivially exactly when it is the trivial
braid, which cross-checks both the sign computation and the claim that
handle reduction preserves the element.  Signs and keys come from Dynnikov
coordinates, so handle reduction is the second referee: a cascade built
from it must give the same sign and level on seeded corpora.
"""

import random
from collections import deque

import pytest

from ordlib import verify
from ordlib.braid import (
    braid_group,
    braid_ordering_catalog,
    dehornoy_oracle,
    dehornoy_sign,
    dynnikov_coordinates,
    flip_word,
    flipped_dehornoy_oracle,
    handle_reduce,
    invert_generators,
    ordering_oracle,
    random_word,
    sign_cascade,
)
from ordlib.core import (
    BudgetExceededError,
    IdentitySignError,
    check_bi_invariance,
    distinguishing_witness,
    inner_automorphism,
    least_positive_in_ball,
    verify_cone_axioms,
)
from ordlib.magnus import reduce_word

B3 = braid_group(3)
B4 = braid_group(4)
D3 = dehornoy_oracle(B3)
D4 = dehornoy_oracle(B4)

BLOWUP = (1, 3, 2, 3, -2, -3, -2, -1)


def _artin_images(n, braid_word):
    """Image of each free generator under the braid's action."""

    def letter_images(a):
        i = abs(a)
        imgs = {j: (j,) for j in range(1, n + 1)}
        if a > 0:
            imgs[i] = (i, i + 1, -i)
            imgs[i + 1] = (i,)
        else:
            imgs[i] = (i + 1,)
            imgs[i + 1] = (-(i + 1), i, i + 1)
        return imgs

    cur = {j: (j,) for j in range(1, n + 1)}
    for a in reversed(braid_word):
        imgs = letter_images(a)
        cur = {
            j: reduce_word(
                c for b in w for c in (imgs[b] if b > 0 else
                                       tuple(-x for x in reversed(imgs[-b]))))
            for j, w in cur.items()}
    return cur


def _artin_trivial(n, braid_word) -> bool:
    return all(w == (j,) for j, w in _artin_images(n, braid_word).items())


def test_reduce_free():
    assert reduce_word([1, -1]) == ()
    assert reduce_word([2, 1, -1, -2, 3]) == (3,)
    assert B3.multiply((1, 2), (-2, -1)) == ()


def test_artin_referee_sanity():
    assert _artin_trivial(4, ())
    assert _artin_trivial(4, (2, -2))
    assert _artin_trivial(3, (1, 2, 1, -2, -1, -2))
    assert _artin_trivial(4, (1, 3, -1, -3))
    assert _artin_trivial(4, BLOWUP)
    assert not _artin_trivial(4, (1,))
    assert not _artin_trivial(3, (1, 2, -1, -2))


def test_handle_reduce_examples():
    assert handle_reduce((1, 2, -1)) == (-2, 1, 2)
    assert handle_reduce((1, 2, 1, -2, -1, -2)) == ()
    assert handle_reduce(BLOWUP) == ()
    assert handle_reduce((2,)) == (2,)
    assert handle_reduce(()) == ()


def test_handle_reduce_is_sign_definite_and_element_preserving():
    rng = random.Random(11)
    for _ in range(150):
        w = random_word(rng, 4, rng.randint(1, 12))
        r = handle_reduce(w)
        low = [a for a in r if abs(a) == 1]
        assert all(a > 0 for a in low) or all(a < 0 for a in low)
        assert _artin_images(4, w) == _artin_images(4, r)


def test_budget_exhaustion_raises():
    with pytest.raises(BudgetExceededError):
        handle_reduce((1, 2, -1), budget=0)


def _reference_reduce(word) -> tuple:
    """Handle reduction spelt plainly, with no budget, the referee of
    handle_reduce: a dict of position stacks that may be empty, a deque of
    pending letters, and every stack trimmed after a handle fires."""
    pending = deque(reduce_word(word))
    out: list = []
    stacks: dict[int, list] = {}
    while pending:
        a = pending.popleft()
        j = abs(a)
        if out and out[-1] == -a:
            top = stacks.get(j)
            if top and top[-1] == len(out) - 1:
                top.pop()
            out.pop()
            continue
        stack = stacks.setdefault(j, [])
        if stack and out[stack[-1]] == -a and not any(
                s and s[-1] > stack[-1]
                for k, s in stacks.items() if k < j):
            start = stack.pop()
            inner = out[start + 1:]
            del out[start:]
            for s in stacks.values():
                while s and s[-1] >= start:
                    s.pop()
            e = 1 if a < 0 else -1
            step = j + 1
            repl = []
            for b in inner:
                if abs(b) == step:
                    repl.extend((-e * step, j if b > 0 else -j, e * step))
                else:
                    repl.append(b)
            pending.extendleft(reversed(repl))
        else:
            stack.append(len(out))
            out.append(a)
    return tuple(out)


@pytest.mark.parametrize("n", [3, 4, 10])
def test_handle_reduce_matches_the_reference(n):
    """handle_reduce gives the reference's word on seeded unreduced words
    of every length band up to 2048 letters, on their mirrors (each s_i^e
    becomes s_i^-e), and on BLOWUP where it fits."""
    rng = random.Random(2800 + n)
    letters = [s * i for i in range(1, n) for s in (1, -1)]
    words = [BLOWUP] if n > 3 else []
    for length in (0, 1, 2, 5, 17, 64, 257, 1024, 2048):
        for _ in range(2 if length > 257 else 8):
            words.append(tuple(rng.choice(letters) for _ in range(length)))
    for w in words:
        for v in (w, tuple(-a for a in w)):
            assert handle_reduce(v) == _reference_reduce(v), (n, v)


# Handle counts of seeded unreduced words over B3, B4 and B10, two each at
# 32, 128 and 512 letters.  A change to the algorithm moves them; a change
# to its bookkeeping does not.
HANDLE_WORK = [7, 2, 64, 45, 224, 102, 9, 13, 73, 25, 605, 1048, 1, 4, 49, 35, 473, 307]


def test_handle_reduction_work_is_pinned():
    """Each word's handle count f, read at the budget edge: budget f is
    enough and budget f - 1 raises."""
    rng = random.Random(2801)
    words = []
    for n in (3, 4, 10):
        letters = [s * i for i in range(1, n) for s in (1, -1)]
        for length in (32, 128, 512):
            words += [tuple(rng.choice(letters) for _ in range(length)) for _ in range(2)]
    for w, f in zip(words, HANDLE_WORK, strict=True):
        assert handle_reduce(w, budget=f) == handle_reduce(w)
        with pytest.raises(BudgetExceededError):
            handle_reduce(w, budget=f - 1)
    assert sum(HANDLE_WORK) == 3086


def test_handle_robustness_counts_reduction_budget_failures(monkeypatch):
    """A triple whose handle reduction runs out of budget is counted and
    skipped; the error does not escape the suite."""
    monkeypatch.setattr(verify, "handle_reduce", lambda w: handle_reduce(w, budget=2))
    passed, facts = verify.suite_handle_robustness()
    assert 0 < int(facts["budget-failures"]) < 1000
    assert facts["triple-failures"] == facts["trichotomy-failures"] == "0"
    assert not passed


def test_sign_cascade():
    assert sign_cascade(()) == (0, 0)
    assert sign_cascade((1,)) == (1, 1)
    assert sign_cascade((-1, 2)) == (-1, 1)
    assert sign_cascade((2, 3)) == (1, 2)
    assert sign_cascade((-3,)) == (-1, 3)


def test_sign_against_the_referee():
    rng = random.Random(23)
    for _ in range(200):
        w = random_word(rng, 4, rng.randint(1, 12))
        s = dehornoy_sign(w)
        assert (s == 0) == _artin_trivial(4, w)
        assert dehornoy_sign(tuple(-a for a in reversed(w))) == -s


def test_flip_word():
    assert flip_word(4, (1, -2, 3)) == (3, -2, 1)


def test_equality_through_keys():
    assert B4.same((1, 3), (3, 1))
    assert B3.same((1, 2, 1), (2, 1, 2))
    assert not B3.same((1,), (2,))
    assert B4.is_identity(BLOWUP)
    assert not B4.is_identity((1, -2))
    assert B3.key(()) == dynnikov_coordinates(3, ()) == (0, 1, 0, 1, 0, 1)


def _respell(rng, n, w) -> tuple:
    """Another spelling of the braid w: far commutations, braid relations
    (x y x = y x y for adjacent generators of one sign) and cancelling
    pairs inserted at random places."""
    out = list(w)
    for _ in range(1 + len(out) // 3):
        p = rng.randrange(len(out) + 1)
        x, y, z = (out[p:p + 3] + [0, 0, 0])[:3]
        if y and abs(abs(x) - abs(y)) >= 2:
            out[p:p + 2] = [y, x]
        elif z == x and abs(abs(x) - abs(y)) == 1 and (x > 0) == (y > 0):
            out[p:p + 3] = [y, x, y]
        else:
            a = rng.choice([s * i for i in range(1, n) for s in (1, -1)])
            out[p:p] = [a, -a]
    return tuple(out)


def test_key_matches_the_sign_cascade():
    """key(u) == key(v) exactly when handle reduction takes u v^-1 to the
    empty word, on 3,000 seeded pairs: respellings of one braid, unrelated
    words, and near misses that swap two adjacent letters or invert one."""
    rng = random.Random(41)
    pairs = 0
    equal = 0
    for n in (3, 4, 5, 6):
        group = braid_group(n)
        for _ in range(250):
            w = random_word(rng, n, rng.randint(0, 12))
            near = list(_respell(rng, n, w))
            p = rng.randrange(len(near))
            if p + 1 < len(near) and abs(abs(near[p]) - abs(near[p + 1])) == 1:
                near[p], near[p + 1] = near[p + 1], near[p]
            else:
                near[p] = -near[p]
            for v in (_respell(rng, n, w), random_word(rng, n, rng.randint(0, 12)),
                      tuple(near)):
                same = group.key(w) == group.key(v)
                assert same == (handle_reduce(w + group.invert(v)) == ()), (n, w, v)
                assert same == group.same(w, v)
                pairs += 1
                equal += same
    assert pairs == 3000
    assert 1000 <= equal < 1100


def _handle_cascade(word):
    """(sign, level) by handle reduction alone: reduce, read the sign of the
    first-generator letters, or shift every index down and go one level up."""
    w = handle_reduce(word)
    level = 1
    while w:
        lowest = [a for a in w if abs(a) == 1]
        if lowest:
            return (1 if lowest[0] > 0 else -1), level
        w = handle_reduce([(abs(a) - 1) * (1 if a > 0 else -1) for a in w])
        level += 1
    return (0, 0)


def test_dynnikov_cascade_against_handle_reduction():
    """sign_cascade and ordering_oracle agree with the handle-reduction
    cascade on 10,080 seeded words over B3-B7, 720 per corpus; the corpora
    without s1, and without s1 and s2, reach levels 2 and 3."""
    rng = random.Random(59)
    words = 0
    levels = {}
    for n in (3, 4, 5, 6, 7):
        for lowest in range(1, min(n, 4)):
            letters = [s * i for i in range(lowest, n) for s in (1, -1)]
            for _ in range(720):
                w = tuple(rng.choice(letters) for _ in range(rng.randint(0, 24)))
                expected = _handle_cascade(w)
                assert sign_cascade(w) == expected, (n, w)
                levels[expected[1]] = levels.get(expected[1], 0) + 1
                i = rng.randrange(1, n)
                s_flip, level = _handle_cascade(flip_word(n, w))
                inside = s_flip and n - level + 1 <= i + 1
                want = expected[0] if inside else s_flip
                oracle = ordering_oracle(braid_group(n), i)
                if want == 0:
                    with pytest.raises(IdentitySignError):
                        oracle.sign(w)
                else:
                    assert oracle.sign(w) == want, (n, i, w)
                words += 1
    assert words == 10_080
    assert min(levels[1], levels[2], levels[3]) >= 1000
    assert levels[0] >= 100


def test_long_words_satisfy_trichotomy():
    rng = random.Random(61)
    for n, length in ((4, 16384), (10, 4096)):
        for _ in range(2):
            w = random_word(rng, n, length)
            s, level = sign_cascade(w)
            assert s != 0
            assert sign_cascade(braid_group(n).invert(w)) == (-s, level)


def test_ball_lookup_by_key():
    data = B3.ball_data(3)
    idx = data.index_of((2, 1, 2))
    assert idx is not None and data.elements[idx] == (1, 2, 1)
    assert data.index_of((1, 2, 1, -2, 2)) == idx
    assert data.index_of((1, 1, 1, 1)) is None


def test_ball_sizes():
    assert [len(B3.ball(r)) for r in range(5)] == [1, 5, 17, 47, 115]
    assert [len(B4.ball(r)) for r in range(5)] == [1, 7, 33, 131, 469]


def test_cone_axioms_on_small_balls():
    assert verify_cone_axioms(D3, B3, 3).passed
    assert verify_cone_axioms(ordering_oracle(B4, 2), B4, 2).passed
    assert verify_cone_axioms(flipped_dehornoy_oracle(B3), B3, 3).passed


def test_least_positive_elements():
    assert least_positive_in_ball(D3, B3, 4) == (2,)
    assert least_positive_in_ball(D4, B4, 4) == (3,)
    assert least_positive_in_ball(flipped_dehornoy_oracle(B3), B3, 3) == (1,)
    for group in (B3, B4):
        for i in range(1, group.strands):
            oracle = ordering_oracle(group, i)
            assert least_positive_in_ball(oracle, group, 3) == (i,)


def test_graft_agrees_with_flip_at_the_bottom():
    """The family's ends sign as the cascades they stand for: dehornoy as
    dehornoy_sign, flip-dehornoy as dehornoy_sign of the flipped word, on
    seeded words and on products through left_fn.  Powers of s1, where
    flip-dehornoy reads the plain cascade, are among the words."""
    rng = random.Random(293)
    for n in range(2, 11):
        group = braid_group(n)
        plain, flipped = dehornoy_oracle(group), flipped_dehornoy_oracle(group)
        words = [(), (1,), (-1, -1)]
        words += [random_word(rng, n, rng.randrange(1, 30)) for _ in range(80)]
        for w in words:
            assert plain.fn(w) == dehornoy_sign(w), (n, w)
            assert flipped.fn(w) == dehornoy_sign(flip_word(n, w)), (n, w)
        for g in words[:16]:
            after_plain, after_flipped = plain.left_fn(g), flipped.left_fn(g)
            for w in words:
                gw = group.multiply(g, w)
                assert after_plain(w) == dehornoy_sign(gw), (n, g, w)
                assert after_flipped(w) == dehornoy_sign(flip_word(n, gw)), (n, g, w)


def test_not_bi_invariant():
    assert check_bi_invariance(D3, B3, 2) is not None


def test_automorphism_witnesses():
    for group, oracle in ((B3, D3), (B4, D4)):
        catalog = [oracle] + braid_ordering_catalog(group)
        hit = distinguishing_witness(invert_generators(group), catalog, group, 3)
        assert hit is not None and hit[0].descriptor == "dehornoy" and hit[1] == (1,)
        hit = distinguishing_witness(
            inner_automorphism(group, (1,)), catalog, group, 3)
        assert hit is not None and hit[0].descriptor == "dehornoy"
        assert hit[1] == (1, -2)


def test_random_word_determinism():
    rng1, rng2 = random.Random(5), random.Random(5)
    a = [random_word(rng1, 4, 20) for _ in range(3)]
    b = [random_word(rng2, 4, 20) for _ in range(3)]
    assert a == b
    with pytest.raises(ValueError):
        random_word(rng1, 1, 5)


def _choice_word(rng, strands, length):
    """random_word spelt with rng.choice, the draw it must reproduce."""
    letters = [a for i in range(1, strands) for a in (i, -i)]
    return reduce_word(rng.choice(letters) for _ in range(length))


@pytest.mark.parametrize("strands", [2, 3, 4, 10])
def test_random_word_draws_as_rng_choice(strands):
    """random_word inlines CPython's getrandbits draw of random.choice, a
    private routine: on 20,000 seeded words it gives rng.choice's words
    and leaves the generator in rng.choice's state."""
    got, want = random.Random(strands), random.Random(strands)
    for _ in range(20_000):
        length = want.randint(0, 64)
        assert got.randint(0, 64) == length
        assert random_word(got, strands, length) == _choice_word(want, strands, length)
    assert got.getstate() == want.getstate()
