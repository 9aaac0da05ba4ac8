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

The resulting ordering has the last generator as its least positive element.
Composing with the index-reversing flip gives the mirror ordering, whose
least positive element is the first generator, and grafting the plain
ordering onto the flip ordering's convex chain of prefix parabolic subgroups
produces one ordering per generator, each with that generator least.

Handle reduction rewrites words instead: a handle is a subword
s1^e ... s1^-e with no other occurrence of the first generator between the
pair; deleting the pair and replacing every s2^d inside by s2^-e s1^d s2^e
yields the same braid, and the reduced word has first-generator letters of
one sign.  It serves `ord braid reduce` and is the engine independent of
the coordinates, which the battery and the tests check them against.
"""

from __future__ import annotations

import functools
from collections import deque

from .core import BudgetExceededError, GroupAutomorphism, SignOracle
from .magnus import WordGroup, reduce_word

DEFAULT_BUDGET = 10 ** 6


def _reduce_main(word, budget: list) -> list:
    """Reduce handles until the lowest generator is sign definite.

    One stack of letter positions per generator index: an arriving letter
    first tries to cancel freely, then closes the innermost handle of its
    own index, but only when no lower-index letter sits inside the pair;
    such a letter would invalidate the rewriting, so the pair is left in
    place instead.  The conjugated interior goes back on the pending queue
    for reprocessing.  Fired handles therefore never contain a live handle
    of the next generator up, which is what makes the loop terminate, and
    handles of generator 1 are never blocked, so the result has all its
    first-generator letters of one sign.  budget is a one-cell list
    counting remaining handle reductions.
    """
    pending = deque(word)
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
            budget[0] -= 1
            if budget[0] < 0:
                raise BudgetExceededError("handle reduction budget exhausted")
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
    return out


def handle_reduce(word, budget: int = DEFAULT_BUDGET) -> tuple:
    """Reduce every handle of the first generator, returning the final word."""
    return tuple(_reduce_main(reduce_word(word), [budget]))


def _first_move(c) -> tuple:
    """(sign, level) read from coordinates: the first c[k] that differs from
    the start vector gives the sign of the difference and the level
    k // 2 + 1; the start vector itself gives (0, 0)."""
    for k, x in enumerate(c):
        start = k & 1
        if x != start:
            return (1 if x > start else -1), k // 2 + 1
    return (0, 0)


def sign_cascade(word, budget: int = DEFAULT_BUDGET):
    """(sign, level) of a word, from its Dynnikov coordinates.

    The level is the lowest generator the braid genuinely involves: the
    braid is free of the generators below it, and its letters of that
    generator share the sign after handle reduction.  The trivial braid
    gives (0, 0).  budget bounds the letter steps of the action; a longer
    word raises BudgetExceededError before any work.
    """
    word = tuple(word)
    if len(word) > budget:
        raise BudgetExceededError("dynnikov step budget exhausted")
    return _first_move(dynnikov_coordinates(max(map(abs, word), default=0) + 1, word))


def dehornoy_sign(word, budget: int = DEFAULT_BUDGET) -> int:
    """The sign of the ordering whose least positive element is the last
    generator: the sign half of sign_cascade."""
    return sign_cascade(word, budget)[0]


def flip_word(n: int, word) -> tuple:
    return tuple((1 if a > 0 else -1) * (n - abs(a)) for a in word)


def dynnikov_act(c, word) -> tuple:
    """Coordinates c acted on by a braid word, letters left to right.

    The letter s_i^{+-1} rewrites (a_i, b_i, a_{i+1}, b_{i+1}) alone, by
    Dynnikov's piecewise-linear formulas.  This is a right action, so
    dynnikov_act(dynnikov_act(c, u), v) == dynnikov_act(c, u + v).
    """
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


def dynnikov_coordinates(n: int, word) -> tuple:
    """The Dynnikov coordinates (a1, b1, ..., an, bn) of a braid word: the
    start vector (0, 1, ..., 0, 1) acted on by the word.

    The action is faithful, so two words give equal coordinates exactly
    when they are the same braid.  Pairs beyond the word's largest letter
    stay at (0, 1), so the first moved coordinate, and with it the sign,
    does not depend on n.
    """
    return dynnikov_act([0, 1] * n, word)


def _product_length(g, h) -> int:
    """len(g*h) for freely reduced g and h, without spelling the product."""
    k = 0
    while k < len(g) and k < len(h) and g[-1 - k] == -h[k]:
        k += 1
    return len(g) + len(h) - 2 * k


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

    def key_times(self, key_g, g, h) -> tuple:
        return dynnikov_act(key_g, h)


@functools.cache
def braid_group(strands: int) -> BraidGroup:
    return BraidGroup(strands)


def _cascade_after(n: int, g, budget: int, flipped: bool = False):
    """h -> sign_cascade(g*h), or of flip(g*h) when flipped: h's letters act
    on g's coordinates, which are computed once.  The budget bounds the
    length of the reduced product, as for the word."""
    c = dynnikov_coordinates(n, flip_word(n, g) if flipped else g)
    room = budget - len(g)

    def cascade(h):
        if len(h) > room and _product_length(g, h) > budget:
            raise BudgetExceededError("dynnikov step budget exhausted")
        return _first_move(dynnikov_act(c, flip_word(n, h) if flipped else h))

    return cascade


def dehornoy_oracle(group: BraidGroup, budget: int = DEFAULT_BUDGET) -> SignOracle:
    """The lowest-generator sign ordering; its least positive element is the
    last generator."""
    n = group.strands

    def left(g):
        cascade = _cascade_after(n, g, budget)
        return lambda h: cascade(h)[0]

    return SignOracle(
        group=group,
        fn=lambda w: dehornoy_sign(w, budget),
        descriptor="dehornoy",
        left=left,
    )


def flip_automorphism(group: BraidGroup) -> GroupAutomorphism:
    n = group.strands
    fn = lambda w: flip_word(n, w)
    return GroupAutomorphism(group=group, forward=fn, backward=fn, descriptor="flip")


def invert_generators(group: BraidGroup) -> GroupAutomorphism:
    fn = lambda w: tuple(-a for a in w)
    return GroupAutomorphism(group=group, forward=fn, backward=fn, descriptor="invert-gens")


def ordering_oracle(group: BraidGroup, index: int, budget: int = DEFAULT_BUDGET) -> SignOracle:
    """The ordering whose least positive element is the generator s_index.

    Elements of the prefix parabolic on (index + 1) strands are compared by
    the plain cascade; everything else by the cascade of the flipped word.
    The parabolic is a convex subgroup, lowest in the ordering's chain.
    """
    n = group.strands
    if not 1 <= index < n:
        raise ValueError(f"generator index out of range: {index}")

    def sign_fn(w):
        s_flip, level = sign_cascade(flip_word(n, w), budget)
        if s_flip == 0:
            return 0
        if n - level + 1 <= index + 1:
            return dehornoy_sign(w, budget)
        return s_flip

    def left(g):
        flipped = _cascade_after(n, g, budget, flipped=True)
        plain = _cascade_after(n, g, budget)

        def sign(h):
            s_flip, level = flipped(h)
            if s_flip == 0:
                return 0
            if n - level + 1 <= index + 1:
                return plain(h)[0]
            return s_flip

        return sign

    return SignOracle(group=group, fn=sign_fn, descriptor=f"least[s{index}]", left=left)


def flipped_dehornoy_oracle(group: BraidGroup, budget: int = DEFAULT_BUDGET) -> SignOracle:
    """The mirror ordering: the plain ordering pushed through the flip.  Its
    least positive element is the first generator, and it coincides with
    ordering_oracle(group, 1)."""
    n = group.strands

    def left(g):
        cascade = _cascade_after(n, g, budget, flipped=True)
        return lambda h: cascade(h)[0]

    return SignOracle(
        group=group,
        fn=lambda w: dehornoy_sign(flip_word(n, w), budget),
        descriptor="flip-dehornoy",
        left=left,
    )


def braid_ordering_catalog(group: BraidGroup, budget: int = DEFAULT_BUDGET) -> list:
    """One ordering per generator, least-positive s1 through s(n-1)."""
    return [ordering_oracle(group, i, budget) for i in range(1, group.strands)]


def random_word(rng, strands: int, length: int) -> tuple:
    letters = [a for i in range(1, strands) for a in (i, -i)]
    return reduce_word(rng.choice(letters) for _ in range(length))
