"""Braid groups ordered by lowest-generator sign.

Words are tuples of nonzero ints: i stands for the i-th Artin generator,
-i for its inverse.  Signs and equality come from Dynnikov coordinates,
one right action of the braid group on integer vectors (a1, b1, ..., an,
bn), carried out letter by letter by dynnikov_act.  The action is faithful,
so a braid's key, the start vector (0, 1, ..., 0, 1) acted on by its word,
is canonical and costs O(n + L).  The sign is read off the key: the first
coordinate that moves decides it, and its pair index is the lowest
generator the braid genuinely involves.  Because the action is a right
action, the key of g*h is h's letters acting on key(g), so scans over
products act on cached keys and never spell, reduce or rewalk g*h.

The orderings form one family, least[s_i], with one member per generator
s_i, its least positive element: an element outside the prefix parabolic
subgroup on i + 1 strands is signed by the cascade of its flipped word (the
index-reversing automorphism applied), and every other element by the plain
cascade.  The family's ends are the two classical orderings.  At i = n - 1
the parabolic is the whole group and the member is the Dehornoy ordering,
with the last generator least; at i = 1 it is the Dehornoy ordering pushed
through the flip, with the first generator least.

Handle reduction rewrites words instead: a handle is a subword
s1^e ... s1^-e with no other occurrence of the first generator between the
pair; deleting the pair and replacing every s2^d inside by s2^-e s1^d s2^e
yields the same braid, and the reduced word has first-generator letters of
one sign.  Rewriting can grow the word, so handle reduction runs under a
budget of reductions; a sign is one linear pass and needs none.  Handle
reduction serves `ord braid reduce` and is the engine independent of the
coordinates, which the battery and the tests check them against.
"""

from __future__ import annotations

import dataclasses
import functools

from .core import BudgetExceededError, GroupAutomorphism, SignOracle
from .magnus import WordGroup, reduce_word

DEFAULT_BUDGET = 10 ** 6


def handle_reduce(word, budget: int = DEFAULT_BUDGET) -> tuple:
    """Reduce every handle of the first generator, returning the final word.

    Letters arrive from a pending stack, the word's letters with the first
    on top.  Each one first cancels freely against the output's last
    letter, then closes the innermost handle of its own index, but only
    when no lower-index letter sits inside the pair; such a letter would
    invalidate the rewriting, so the pair is left in place instead.  The
    conjugated interior goes back on top of the pending stack for
    reprocessing.  Fired handles therefore never contain a live handle of
    the next generator up, which is what makes the loop terminate, and
    handles of generator 1 are never blocked, so the result has all its
    first-generator letters of one sign.

    The output starts with a sentinel 0 at position 0.  stacks[k] lists the
    positions of the output's letters of index k, in order, on top of a
    bottom 0 that points at the sentinel, so no read needs an emptiness
    test.  A handle of index j holds no letter of index j or below, so
    firing it trims only the stacks above j.  The (budget + 1)-th handle
    raises BudgetExceededError.
    """
    word = reduce_word(word)
    stacks = [[0] for _ in range(max(map(abs, word), default=0) + 1)]
    out = [0]
    pending = list(reversed(word))
    pop = pending.pop
    push = pending.append
    left = budget
    while pending:
        a = pop()
        j = a if a > 0 else -a
        stack = stacks[j]
        if out[-1] == -a:
            # the last letter has index j, so its position tops stacks[j]
            stack.pop()
            out.pop()
            continue
        start = stack[-1]
        if out[start] == -a:
            for k in range(1, j):
                if stacks[k][-1] > start:
                    break
            else:
                left -= 1
                if left < 0:
                    raise BudgetExceededError(
                        f"handle reduction budget of {budget} reductions exhausted")
                stack.pop()
                inner = out[:start:-1]  # the interior, last letter first
                del out[start:]
                for s in stacks[j + 1:]:
                    while s[-1] >= start:
                        s.pop()
                # each s_(j+1)^d inside becomes s_(j+1)^-e s_j^d s_(j+1)^e, with
                # e the sign of the opener -a, pushed last letter first
                step = j + 1
                t = step if a < 0 else -step  # the letter s_(j+1)^e
                for b in inner:
                    if b == step:
                        pending += (t, j, -t)
                    elif b == -step:
                        pending += (t, -j, -t)
                    else:
                        push(b)
                continue
        stack.append(len(out))
        out.append(a)
    return tuple(out[1:])


def _first_move(c) -> tuple:
    """(sign, level) read from coordinates: the first c[k] that differs from
    the start vector gives the sign of the difference and the level
    k // 2 + 1; the start vector itself gives (0, 0)."""
    for k, x in enumerate(c):
        start = k & 1
        if x != start:
            return (1 if x > start else -1), k // 2 + 1
    return (0, 0)


def sign_cascade(word):
    """(sign, level) of a word, from its Dynnikov coordinates.

    The level is the lowest generator the braid genuinely involves: the
    braid is free of the generators below it, and its letters of that
    generator share the sign after handle reduction.  The trivial braid
    gives (0, 0).
    """
    word = tuple(word)
    return _first_move(dynnikov_coordinates(max(map(abs, word), default=0) + 1, word))


def dehornoy_sign(word) -> int:
    """The sign of the ordering whose least positive element is the last
    generator: the sign half of sign_cascade."""
    return sign_cascade(word)[0]


def flip_word(n: int, word) -> tuple:
    return tuple((1 if a > 0 else -1) * (n - abs(a)) for a in word)


def dynnikov_act(c, word) -> tuple:
    """Coordinates c acted on by a braid word, letters left to right.

    The letter s_i^{+-1} rewrites (a_i, b_i, a_{i+1}, b_{i+1}) alone, by
    Dynnikov's piecewise-linear formulas, read and written back in place.
    This is a right action, so
    dynnikov_act(dynnikov_act(c, u), v) == dynnikov_act(c, u + v).  word
    may be any iterable of letters, read once.
    """
    c = list(c)
    for x in word:
        k = 2 * abs(x) - 2
        a = c[k]
        b = c[k + 1]
        a2 = c[k + 2]
        b2 = c[k + 3]
        bp = b if b > 0 else 0
        bm = b - bp
        b2p = b2 if b2 > 0 else 0
        b2m = b2 - b2p
        if x > 0:
            t = a - bm - a2 + b2p
            tp = t if t > 0 else 0
            u, v = b2p - t, bm + t
            c[k] = a + bp + (u if u > 0 else 0)
            c[k + 1] = b2 - tp
            c[k + 2] = a2 + b2m + (v if v < 0 else 0)
            c[k + 3] = b + tp
        else:
            t = a + bm - a2 - b2p
            tm = t if t < 0 else 0
            u, v = b2p + t, bm - t
            c[k] = a - bp - (u if u > 0 else 0)
            c[k + 1] = b2 + tm
            c[k + 2] = a2 - b2m - (v if v < 0 else 0)
            c[k + 3] = b - tm
    return tuple(c)


def dynnikov_coordinates(n: int, word) -> tuple:
    """The Dynnikov coordinates (a1, b1, ..., an, bn) of a braid word: the
    start vector (0, 1, ..., 0, 1) acted on by the word.

    The action is faithful, so two words give equal coordinates exactly
    when they are the same braid.  Pairs beyond the word's largest letter
    stay at (0, 1), so the first moved coordinate, and with it the sign,
    does not depend on n.
    """
    return dynnikov_act([0, 1] * n, word)


class BraidGroup(WordGroup):
    """The braid group on n strands; elements are freely reduced words in
    s1, ..., s(n-1), keyed by their Dynnikov coordinates.  Ball elements
    carry their least geodesic word.
    """

    def __init__(self, strands: int):
        if strands < 2:
            raise ValueError("need at least 2 strands")
        super().__init__(tuple(f"s{i}" for i in range(1, strands)))
        self.strands = strands
        self.name = f"B{strands}"

    def key(self, g) -> tuple:
        return dynnikov_coordinates(self.strands, g)

    def key_times(self, key_g, h) -> tuple:
        return dynnikov_act(key_g, h)


# each group keeps its own balls, so only the most recent are kept
@functools.lru_cache(maxsize=16)
def braid_group(strands: int) -> BraidGroup:
    return BraidGroup(strands)


@functools.lru_cache(maxsize=64)
def _flip_letters(n: int) -> tuple:
    """The flip on letters as a lookup: the entry at index a is
    flip_word(n, (a,))[0], negative letters indexing from the end."""
    return (0,) + tuple(range(n - 1, 0, -1)) + tuple(range(-1, -n, -1))


def _cascade_after(n: int, g, flipped: bool = False):
    """h -> sign_cascade(g*h), or of flip(g*h) when flipped: h's letters act
    on g's coordinates, which are computed once.  Flipped letters are looked
    up one at a time as they act, so no flipped word is spelt."""
    if not flipped:
        c = dynnikov_coordinates(n, g)
        return lambda h: _first_move(dynnikov_act(c, h))
    flip = _flip_letters(n).__getitem__
    c = dynnikov_coordinates(n, map(flip, g))
    return lambda h: _first_move(dynnikov_act(c, map(flip, h)))


def invert_generators(group: BraidGroup) -> GroupAutomorphism:
    fn = lambda w: tuple(-a for a in w)
    return GroupAutomorphism(group=group, forward=fn, backward=fn, descriptor="invert-gens")


@functools.lru_cache(maxsize=64)
def _ordering_hooks(n: int, index: int) -> tuple:
    """(fn, left) of least[s_index] on n strands, built once, so that every
    oracle of this ordering shares them whatever its name."""

    def left(g):
        plain = _cascade_after(n, g)
        if index == n - 1:
            return lambda h: plain(h)[0]
        flipped = _cascade_after(n, g, flipped=True)

        def sign(h):
            s, level = flipped(h)
            # flipped level k is s_(n-k), the highest generator g*h involves
            if s and n - level > index:
                return s
            return plain(h)[0]

        return sign

    return left(()), left


def ordering_oracle(group: BraidGroup, index: int) -> SignOracle:
    """The ordering whose least positive element is the generator s_index.

    Elements outside the prefix parabolic on (index + 1) strands take the
    cascade of the flipped word; every other element takes the plain
    cascade.  The parabolic is a convex subgroup, lowest in the ordering's
    chain.  At index n - 1 it is the whole group, the flipped cascade is
    never read, and the ordering is the Dehornoy ordering; at index 1 every
    element outside <s1> takes the flipped cascade, and inside <s1> the two
    agree, so the ordering is the Dehornoy ordering pushed through the flip.
    Every oracle of one ordering on n strands has the same fn and left.
    The oracle states its least positive element, s_index: the parabolic
    is convex, so the least is the parabolic's own, and there the ordering
    is the Dehornoy ordering, whose last generator is least.
    """
    n = group.strands
    if not 1 <= index < n:
        raise ValueError(f"generator index out of range: {index}")
    fn, left = _ordering_hooks(n, index)
    return SignOracle(group=group, fn=fn, descriptor=f"least[s{index}]", left=left,
                      least=(index,))


def dehornoy_oracle(group: BraidGroup) -> SignOracle:
    """The Dehornoy ordering: the member of the family whose least positive
    element is the last generator, renamed; its fn and left are that
    member's."""
    return dataclasses.replace(ordering_oracle(group, group.strands - 1),
                               descriptor="dehornoy")


def flipped_dehornoy_oracle(group: BraidGroup) -> SignOracle:
    """The Dehornoy ordering pushed through the flip: the member of the
    family whose least positive element is the first generator, renamed;
    its fn and left are that member's."""
    return dataclasses.replace(ordering_oracle(group, 1), descriptor="flip-dehornoy")


def braid_ordering_catalog(group: BraidGroup) -> list:
    """One ordering per generator, least-positive s1 through s(n-1)."""
    return [ordering_oracle(group, i) for i in range(1, group.strands)]


def random_word(rng, strands: int, length: int) -> tuple:
    """length letters drawn uniformly from the generators and their
    inverses, then freely reduced.

    Each letter is letters[r], r = rng.getrandbits(k) redrawn while
    r >= len(letters), with k = len(letters).bit_length(): the draw that
    rng.choice(letters) makes in CPython 3.11, without its two method calls
    per letter, so the words and the generator's state after them are
    rng.choice's.  The tests pin that.
    """
    if strands < 2:
        raise ValueError("need at least 2 strands")
    letters = [a for i in range(1, strands) for a in (i, -i)]
    n = len(letters)
    k = n.bit_length()
    bits = rng.getrandbits
    out = []
    for _ in range(length):
        r = bits(k)
        while r >= n:
            r = bits(k)
        out.append(letters[r])
    return reduce_word(out)
