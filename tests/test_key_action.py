"""Products signed and located from state cached for the left factor.

The key of g*h is h's letters acting on key(g), and a product's sign is read
from the coordinates that action produces.  The word path spells g*h,
reduces it and walks it from the start vector; these tests hold the two
paths to the same keys, signs, tables and violations, and count that the key path spells no product at all.  The G-ordering's hook
reads the exponents first; it is held to the sign of the full product, and
counted to build the plane part only where the K exponents cancel.
"""

import importlib
import inspect
import pkgutil
import random

import pytest

import ordlib

import ordlib.braid as braid
import ordlib.extensions as extensions
import ordlib.magnus as magnus
from ordlib import verify
from ordlib.braid import (
    BraidGroup,
    braid_group,
    braid_ordering_catalog,
    dehornoy_oracle,
    dynnikov_act,
    dynnikov_coordinates,
    flip_word,
    flipped_dehornoy_oracle,
    ordering_oracle,
)
from ordlib.core import Group, SignOracle, verify_cone_axioms
from ordlib.extensions import g_group, g_ordering

BALLS = [(3, 3), (4, 3), (5, 3), (6, 3), (3, 4), (4, 4)]
PAIRS_PER_BALL = 400
PAIRS_PER_JOB = 2000
TABLE_ROWS = 24
LEFT_JOBS = [(oracle, group, radius) for oracle, group, radius in verify._axiom_jobs()
             if oracle.left is not None]


def _oracles(group):
    return ([dehornoy_oracle(group), flipped_dehornoy_oracle(group)]
            + braid_ordering_catalog(group))


def _word_only(oracle):
    """The same ordering without its key path: products are spelt."""
    return SignOracle(oracle.group, oracle.fn, oracle.descriptor)


def _slice_act(c, word) -> tuple:
    """The letter loop as first written, reading and writing the four
    coordinates of a letter as one slice: the reference for dynnikov_act."""
    c = list(c)
    for x in word:
        k = 2 * abs(x) - 2
        a, b, a2, b2 = c[k:k + 4]
        bp = b if b > 0 else 0
        bm = b - bp
        b2p = b2 if b2 > 0 else 0
        b2m = b2 - b2p
        if x > 0:
            t = a - bm - a2 + b2p
            tp = t if t > 0 else 0
            u, v = b2p - t, bm + t
            c[k:k + 4] = (a + bp + (u if u > 0 else 0), b2 - tp,
                          a2 + b2m + (v if v < 0 else 0), b + tp)
        else:
            t = a + bm - a2 - b2p
            tm = t if t < 0 else 0
            u, v = b2p + t, bm - t
            c[k:k + 4] = (a - bp - (u if u > 0 else 0), b2 + tm,
                          a2 - b2m - (v if v < 0 else 0), b - tm)
    return tuple(c)


KERNEL_LENGTHS = (1, 2, 3, 4, 5, 8, 13, 64, 255, 1024, 4096)


@pytest.mark.parametrize("strands", [3, 4, 10])
def test_the_letter_loop_matches_the_slice_formulas(strands):
    """On seeded words of every listed length, unreduced, acting on the
    start vector and on the coordinates of another word: dynnikov_act gives
    the slice formulas' coordinates.  The longest words drive coordinates
    far past 64 bits."""
    rng = random.Random(7000 + strands)
    letters = [a for i in range(1, strands) for a in (i, -i)]
    start = (0, 1) * strands
    widest = 0
    for length in KERNEL_LENGTHS:
        for _ in range(4):
            w = tuple(rng.choice(letters) for _ in range(length))
            u = tuple(rng.choice(letters) for _ in range(rng.randint(1, 40)))
            c = _slice_act(start, u)
            for base in (start, c):
                got = dynnikov_act(base, w)
                assert got == _slice_act(base, w), (strands, length, w)
                widest = max(widest, *(abs(x).bit_length() for x in got))
    assert widest > 256


@pytest.mark.parametrize("strands", [3, 4])
def test_flipped_cascade_looks_up_the_flip_word(strands):
    """On every pair of ball(3): the flipped cascade after g, which flips
    letters by lookup as they act, reads what the flipped words would."""
    n = strands
    ball = braid_group(n).ball(3)
    for g in ball:
        after = braid._cascade_after(n, g, flipped=True)
        c = dynnikov_coordinates(n, flip_word(n, g))
        for h in ball:
            assert after(h) == braid._first_move(dynnikov_act(c, flip_word(n, h))), (g, h)


@pytest.mark.parametrize("strands", [3, 4])
def test_named_ends_are_the_family_members(strands):
    """dehornoy is least[s_(n-1)] and flip-dehornoy least[s1]: the same
    sign on ball(4), the same left_fn(g)(h) on ball(2) x ball(2), and the
    same fn, which is how the cone-axioms suite checks each once."""
    group = braid_group(strands)
    pairs = ((dehornoy_oracle(group), ordering_oracle(group, strands - 1)),
             (flipped_dehornoy_oracle(group), ordering_oracle(group, 1)))
    small = group.ball(2)
    for named, member in pairs:
        assert named.fn is member.fn and named.left is member.left
        for g in group.ball(4)[1:]:
            assert named.sign(g) == member.sign(g), (named.descriptor, g)
        for g in small:
            after_named, after_member = named.left_fn(g), member.left_fn(g)
            for h in small:
                assert after_named(h) == after_member(h), (named.descriptor, g, h)


# dynnikov_act calls and letters of each braid suite of the battery, on
# fresh groups, so every ball a suite scans is built and counted within it
SUITE_WORK = {
    "cone-axioms": [180_482, 654_318],
    "least-elements": [3_705, 12_075],
    "handle-robustness": [22_000, 503_308],
    "braid-witnesses": [487, 1_157],
}


def test_cone_axioms_work_is_pinned(monkeypatch):
    """Counted, not timed: on braid groups of their own, balls built inside,
    the battery's braid suites call dynnikov_act this often with this many
    letters in all.  The ordering hooks are built afresh for each suite
    too, so a count depends neither on the tests run before nor on the
    suites before it.  One report per distinct ordering: checking dehornoy
    and flip-dehornoy apart from least[s_(n-1)] and least[s1] took
    cone-axioms 299,763 calls and 1,086,961 letters.  least-elements
    compares its seven least elements by key, two one-letter keys each,
    where ``Group.same`` returned early on equal words (3,691 and 12,061)."""
    count = [0, 0]
    act = braid.dynnikov_act

    def counted(c, word):
        word = tuple(word)
        count[0] += 1
        count[1] += len(word)
        return act(c, word)

    monkeypatch.setattr(verify, "braid_group", BraidGroup)
    monkeypatch.setattr(braid, "dynnikov_act", counted)
    suites = dict(verify.SUITES)
    work = {}
    for name in SUITE_WORK:
        count[:] = [0, 0]
        braid._ordering_hooks.cache_clear()
        passed, facts = suites[name]()
        assert passed, name
        work[name] = list(count)
        if name == "cone-axioms":
            assert facts["B4/dehornoy"] == facts["B4/least[s3]"] == "pass"
    assert work == SUITE_WORK


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
        assert group.key_times(keys[i], h) == group.key(gh)
        for oracle in oracles:
            assert oracle.left_fn(g)(h) == oracle.fn(gh), (oracle.descriptor, g, h)
    table = data.product_table()
    for i in rng.sample(range(len(elems)), TABLE_ROWS):
        g = elems[i]
        assert table[i] == [data.pos.get(group.key(group.multiply(g, h)), -1)
                            for h in elems]


def _owner(cls, name):
    """The class in cls's MRO that defines name."""
    return next(c for c in cls.__mro__ if name in vars(c))


def _acts_on_its_key(cls) -> bool:
    """key_times is defined where key is, or below it: the default
    multiplies the key itself, which is right only where key(g) == g."""
    return issubclass(_owner(cls, "key_times"), _owner(cls, "key"))


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_group_with_its_own_key_acts_on_it():
    for info in pkgutil.iter_modules(ordlib.__path__):
        importlib.import_module(f"ordlib.{info.name}")
    groups = {c for c in _subclasses(Group)
              if c.__module__.startswith("ordlib.") and not inspect.isabstract(c)}
    assert BraidGroup in groups and len(groups) >= 8
    assert [c.__name__ for c in groups if not _acts_on_its_key(c)] == []

    # the check does catch a key without its action
    class Rekeyed(BraidGroup):
        def key(self, g):
            return ("rekeyed",) + super().key(g)

    assert not _acts_on_its_key(Rekeyed)


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


@pytest.mark.parametrize("oracle,group,radius", LEFT_JOBS,
                         ids=[f"{g.name}/{o.descriptor}" for o, g, _ in LEFT_JOBS])
def test_left_hooks_sign_the_product(oracle, group, radius):
    """Every battery oracle with a left hook: left_fn(g)(h) is fn of the
    spelt product, on seeded pairs of the job's ball and, for G, on every
    pair of ball(2)."""
    ball = group.ball(radius)
    rng = random.Random(f"{group.name}/{oracle.descriptor}")
    pairs = [(rng.choice(ball), rng.choice(ball)) for _ in range(PAIRS_PER_JOB)]
    if group is g_group():
        small = group.ball(2)
        pairs += [(g, h) for g in small for h in small]
    for g, h in pairs:
        assert oracle.left_fn(g)(h) == oracle.fn(group.multiply(g, h)), (g, h)


def test_g_hook_covers_cancelling_exponents_and_the_identity():
    """On G ball(2), the pairs whose K exponents cancel sign through the
    plane part, or through t when that vanishes too, and g * g^-1 reads 0."""
    group, oracle = g_group(), g_ordering()
    ball = group.ball(2)
    seen = {"k": 0, "plane": 0, "t": 0, "identity": 0}
    for g in ball:
        sign_gh = oracle.left_fn(g)
        for h in ball:
            (v, c), t = gh = group.multiply(g, h)
            kind = "k" if c else "plane" if any(v) else "t" if t else "identity"
            seen[kind] += 1
            assert sign_gh(h) == oracle.fn(gh), (g, h)
        assert sign_gh(group.invert(g)) == 0
    assert min(seen.values()) > 0, seen
    assert seen["identity"] == len(ball)


def test_g_closure_pass_builds_planes_only_where_k_exponents_cancel(monkeypatch):
    """Counted, not timed: the G closure pass on ball(3) never calls
    _GGroup.multiply, and does plane arithmetic once per pair of positives
    whose K exponents cancel; the inverse pass is counted apart."""
    group, oracle = g_group(), g_ordering()
    ball = group.ball(3)[1:]
    positives = [g for g in ball if oracle.sign(g) == 1]
    cancel = sum(1 for (_, c1), _ in positives for (_, c2), _ in positives
                 if c1 + c2 == 0)
    assert 0 < cancel < len(positives) ** 2
    calls = {"multiply": 0, "numerators": 0, "fractions": 0}
    multiply = extensions._GGroup.multiply
    numerators, add_times = extensions._plane_numerators, extensions._plane_add_times

    def counted(name, f):
        def wrapped(*args):
            calls[name] += 1
            return f(*args)
        return wrapped

    monkeypatch.setattr(extensions._GGroup, "multiply", counted("multiply", multiply))
    monkeypatch.setattr(extensions, "_plane_numerators", counted("numerators", numerators))
    monkeypatch.setattr(extensions, "_plane_add_times", counted("fractions", add_times))
    for g in ball:
        group.invert(g)
    inverse_pass = dict(calls)
    assert inverse_pass["multiply"] == 0
    assert verify_cone_axioms(oracle, group, 3).passed
    assert calls == {"multiply": 0,
                     "numerators": 2 * inverse_pass["numerators"] + cancel,
                     "fractions": 2 * inverse_pass["fractions"]}
    # the counters do see the word path
    calls.update(multiply=0)
    assert verify_cone_axioms(_word_only(oracle), group, 3).passed
    assert calls["multiply"] == len(positives) ** 2
