"""Finite shadows of the space of left-orderings.

A partial cone assigns a sign to every nonidentity element of a ball so
that inverses get opposite signs and products of positives landing inside
the ball are positive.  Restrictions of genuine orderings are partial
cones; enumerating all of them and searching for extensions to larger
balls gives desk-scale evidence about the full ordering space, such as the
Klein group's four orderings exhausting what radius-6 data allows.  A cone
is stored as one signed byte per inverse pair of the ball, the sign of the
pair's first element in canonical ball order; the ball's literal codes say
which pair, and which side of it, each element is.

Enumeration is a small backtracking solver with one boolean per inverse
pair.  Each product gh = k in the ball gives the triple (g, h, k^-1) with
product 1 and the clause "not all three positive"; the clause is built
once per rotation class of its triple, in one pass over the upper
triangle of the ball's product rows as they are gathered, so no product
table is kept.  Literals are integer codes, and
the clause index is one flat list per literal holding the other two codes
of each clause that contains it, so a new assignment reads only the
clauses of the literal it makes false.  The search is one loop over a
stack of open choices, positive branch first, that yields each solution's
literal values as it finds them, in a canonical order: a caller packs a
cone's pair signs off them with one slice, stops early, or only counts.
The clause index is built once per ball and shared by every search on it;
it is dropped with the ball, so the group's ball cache bounds it.  Each
search keeps only its own value list, trail, stack and node count.

Isolator membership and the power-agreement condition are exact: both
compare the groups' ray keys, which are equal exactly when two elements
have a common positive power.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from itertools import islice
from struct import Struct, pack, unpack

from .core import (
    BallData,
    Group,
    IdentitySignError,
    SignOracle,
    SizeLimitError,
)

__all__ = [
    "PartialCone",
    "count_partial_cones",
    "enumerate_partial_cones",
    "extend_partial_cone",
    "isolator_member",
    "partial_cone_at",
    "condition_star_check",
]

DEFAULT_NODE_LIMIT = 2_000_000
# a cone search first reads the n(n+1)/2 products of the upper triangle of
# the ball's product table, so its ball, once built, is capped at 1000
# elements
MAX_CONE_BALL = 1000


@dataclass(frozen=True, slots=True)
class PartialCone:
    """A consistent sign assignment on ball(radius) minus the identity:
    ``pairs[v]`` is the sign of the first element of the v-th inverse pair
    in ball order, a signed byte (read back as 1 or 255), and ``code`` the
    ball's ``_literals``.  Cones of one group and radius are equal exactly
    when their signs are."""

    group: Group
    radius: int
    pairs: bytes
    code: tuple = field(compare=False, repr=False)

    def sign(self, g) -> int:
        i = self.group.ball_data(self.radius).index_of(g)
        if i is None:
            raise KeyError(f"{self.group.label(g)} is outside the cone's ball")
        if i == 0:
            raise IdentitySignError("the identity has no sign")
        c = self.code[i]
        return 1 if (self.pairs[c >> 1] == 1) != (c & 1) else -1

    @property
    def signs(self) -> tuple:
        """One +1 or -1 per element of ``ball(radius)[1:]``, in ball order."""
        s = unpack(f"{len(self.pairs)}b", self.pairs)
        return tuple(-s[c >> 1] if c & 1 else s[c >> 1] for c in self.code[1:])

    def elements(self) -> tuple:
        return tuple(self.group.ball(self.radius)[1:])

    @classmethod
    def from_oracle(cls, oracle: SignOracle, group: Group, radius: int) -> "PartialCone":
        """The cone of oracle.sign, read at the first element of each pair."""
        data = group.ball_data(radius)
        code = _literals(data.inverse_index())
        firsts = [oracle.sign(g) for g, c in zip(data.elements, code) if not c & 1]
        return cls(group, radius, pack(f"{len(firsts)}b", *firsts), code)

    def serialize(self) -> str:
        return "\n".join(
            "{}:{}".format(self.group.label(g), "+" if s > 0 else "-")
            for g, s in zip(self.elements(), self.signs))


def _literals(inv) -> tuple:
    """The code of "element i is positive" for each i of a ball with inverse
    index inv: the v-th inverse pair in ball order has codes 2v for its first
    element and 2v + 1 for the other, so code ^ 1 negates; the identity, -1."""
    code = [-1] * len(inv)
    nvars = 0
    for i in range(1, len(inv)):
        if code[i] < 0:
            code[i] = 2 * nvars
            code[inv[i]] = 2 * nvars + 1
            nvars += 1
    return tuple(code)


def _build_clauses(rows, code) -> list:
    """Watch lists over the literal codes of ``_literals``, code[i] saying
    "element i is positive"; code 2 * nvars is always false.  watch[c]
    holds, two codes per clause, the other literals of every clause that
    contains c.

    Positives g, h with gh = k in the ball force k positive, so the triple
    (g, h, m = k^-1), with g h m = 1, gives the clause "g, h and m are not
    all positive".  Its rotations give the same clause, and so does the
    reversed triple (g, m, h) where that is a triple too, as in an abelian
    group; the clause is added from the triple's least rotation unless the
    reversed triple's sorts first.  A triple that repeats an element (g = h
    or h = m) gives a two-literal clause, padded with the false code.  No
    clause is a tautology: that needs one of g, h, m to be the identity,
    which is not indexed, or two of them mutually inverse, which makes the
    third the identity.
    """
    n = len(code)
    false = 2 * ((max(code) >> 1) + 1)
    # neg[i]: the code of "element i is not positive", that is of inv[i]
    neg = [c ^ 1 for c in code]
    where = {c: i for i, c in enumerate(code)}
    inv = [where.get(c, 0) for c in neg]
    watch = [[] for _ in range(false)]
    for i, row in islice(enumerate(rows), 1, None):
        a = neg[i]
        watch_a = watch[a]
        for j, k in enumerate(row, i):
            if k >= n:
                continue
            m = inv[k]
            # (i, j, m) must be the least rotation (j >= i holds), and the
            # reversed (i, m, j) must not be a smaller triple of the clause;
            # with m = i < j that is the rotation (i, i, j); k = 0 gives
            # m = 0 < i
            if m < i or (m < j and row[m - i] == inv[j]):
                continue
            b, c = neg[j], neg[m]
            if b == c:
                c = false
            elif a == b:
                b, c = c, false
            watch_a += (b, c)
            watch[b] += (a, c)
            if c != false:
                watch[c] += (a, b)
    return watch


class _ClauseIndex:
    """The clauses of one ball over inverse-pair variables, never changed
    once built.  Element 0 is the identity, so every index loop starts at
    1."""

    def __init__(self, data: BallData):
        inv = data.inverse_index()
        self.impossible = any(inv[i] == i for i in range(1, len(inv)))
        # code[i]: the literal code of "element i is positive"
        self.code = _literals(inv)
        self.nvars = (max(self.code) >> 1) + 1
        # one cone's pair signs, packed from a solution's literal values
        self.pack = Struct(f"{self.nvars}b").pack
        # an element that is its own inverse leaves no cone to search for
        self.watch = [] if self.impossible else _build_clauses(data.product_rows(True), self.code)


# one clause index per ball, dropped with the ball, so the group's ball
# cache bounds it
_CLAUSE_INDEX: weakref.WeakKeyDictionary[BallData, _ClauseIndex] = weakref.WeakKeyDictionary()


def _clause_index(group: Group, radius: int) -> _ClauseIndex:
    cached = group._balls.copy()
    data = group.ball_data(radius)
    if len(data.elements) > MAX_CONE_BALL:
        # a refused ball neither stays cached nor evicts one that was
        group._balls = cached
        raise SizeLimitError(
            f"ball({radius}) of {group.name} has more than {MAX_CONE_BALL} "
            "elements, too many for a cone search")
    index = _CLAUSE_INDEX.get(data)
    if index is None:
        index = _CLAUSE_INDEX[data] = _ClauseIndex(data)
    return index


class _ConeSearch:
    """One search's solver state over the shared clause index of a ball:
    the literal values (1 true, -1 false, 0 unassigned, by code), the trail
    of codes set true, and the nodes spent against DEFAULT_NODE_LIMIT."""

    def __init__(self, group: Group, radius: int):
        index = _clause_index(group, radius)
        self.impossible = index.impossible
        self.nvars, self.code = index.nvars, index.code
        self.watch, self.pack = index.watch, index.pack
        self.limit = DEFAULT_NODE_LIMIT
        self.nodes = 0
        self.val = [0] * (2 * self.nvars) + [-1]
        self.trail = []

    def _propagate(self, pending: list) -> bool:
        """Set each pending code true and whatever that forces; False on a
        conflict.  Only the clauses of a literal just made false are read:
        one with its other two literals false is a conflict, and one with
        one false and one unassigned forces the unassigned one."""
        val, trail, watch = self.val, self.trail, self.watch
        while pending:
            c = pending.pop()
            cur = val[c]
            if cur:
                if cur < 0:
                    return False
                continue
            self.nodes += 1
            if self.nodes > self.limit:
                raise SizeLimitError(
                    f"cone search exceeded {self.limit} nodes")
            val[c] = 1
            val[c ^ 1] = -1
            trail.append(c)
            others = iter(watch[c ^ 1])
            for a, b in zip(others, others):
                s = val[a] + val[b]
                if s < 0:
                    if s == -2:
                        return False
                    pending.append(b if val[a] else a)
        return True

    def solutions(self, preset):
        """Yield the live literal values of every solution extending the
        preset codes, in canonical order: read each before the next."""
        if self.impossible or not self._propagate(list(preset)):
            return
        val, trail, nvars = self.val, self.trail, self.nvars
        # open choices: a variable's negative code, tried once its positive
        # branch is exhausted, and the trail length before that branch
        stack = []
        v = 0
        while True:
            while v < nvars and val[2 * v]:
                v += 1
            if v == nvars:
                yield val
                c = None
            else:
                stack.append((2 * v + 1, len(trail)))
                c = 2 * v
            # on a conflict or a solution, back up to the last open choice
            while c is None or not self._propagate([c]):
                if not stack:
                    return
                c, mark = stack.pop()
                while len(trail) > mark:
                    t = trail.pop()
                    val[t] = val[t ^ 1] = 0
            v = (c >> 1) + 1

    def cones(self, group: Group, radius: int, preset, max_results) -> list:
        """The cones of the first max_results (all if None) solutions."""
        pack, code, end = self.pack, self.code, 2 * self.nvars
        return [PartialCone(group, radius, pack(*val[0:end:2]), code)
                for val in islice(self.solutions(preset), max_results)]


def _check_max_results(max_results) -> None:
    if max_results is not None and max_results < 1:
        raise ValueError(f"max_results must be at least 1, got {max_results}")


def enumerate_partial_cones(group: Group, radius: int,
                            max_results: int | None = None) -> list:
    """All partial cones on ball(radius), in canonical order; max_results
    stops the search once that many exist, keeping the first ones."""
    _check_max_results(max_results)
    return _ConeSearch(group, radius).cones(group, radius, (), max_results)


def partial_cone_at(group: Group, radius: int, index: int) -> PartialCone:
    """The cone at index in canonical order, the only one built; a missed
    or negative index raises IndexError with the count of one pass."""
    search = _ConeSearch(group, radius)
    solutions = search.solutions(())
    seen = sum(1 for _ in islice(solutions, index if index >= 0 else None))
    val = next(solutions, None)
    if val is None:
        raise IndexError(f"index {index} out of range for {seen} cones")
    return PartialCone(group, radius, search.pack(*val[0:2 * search.nvars:2]), search.code)


def count_partial_cones(group: Group, radius: int, base: PartialCone | None = None,
                        max_results: int | None = None) -> int:
    """The number of partial cones on ball(radius), or of up to max_results
    (all if None) completions of the base cone to it; none is built."""
    if base is None:
        return sum(1 for _ in _ConeSearch(group, radius).solutions(()))
    search, preset = _completion_search(base, group, radius, max_results)
    return sum(1 for _ in islice(search.solutions(preset), max_results))


def _completion_search(cone: PartialCone, group: Group, radius2: int, max_results) -> tuple:
    """The search on ball(radius2) and the codes that preset the cone's
    signs in it, after checking the arguments of a completion."""
    if cone.group.name != group.name:
        raise ValueError(f"a cone on {cone.group.name} does not extend in {group.name}")
    if radius2 <= cone.radius:
        raise ValueError("extension radius must exceed the cone's radius")
    _check_max_results(max_results)
    search = _ConeSearch(group, radius2)
    data = group.ball_data(radius2)
    preset = []
    for g, s in zip(cone.elements(), cone.signs):
        idx = data.index_of(g)
        if idx is None:
            raise ValueError(
                f"cone element {group.label(g)} is missing from ball({radius2})")
        code = search.code[idx]
        preset.append(code if s > 0 else code ^ 1)
    return search, preset


def extend_partial_cone(cone: PartialCone, group: Group, radius2: int,
                        max_results: int | None = None) -> list:
    """All completions of the cone to ball(radius2); an empty list
    certifies that no ordering-restriction through radius2 agrees with it.
    max_results stops the search early once enough completions exist."""
    search, preset = _completion_search(cone, group, radius2, max_results)
    return search.cones(group, radius2, preset, max_results)


def isolator_member(group: Group, h, g) -> bool:
    """Is h in the isolator of <g>, that is, is some h^n with n > 0 a power
    of g?  Exact: h = 1, or h shares its ray with g or with g^-1."""
    identity = group.key(group.identity)
    if group.key(g) == identity:
        raise ValueError("the isolator of the identity is not considered")
    if group.key(h) == identity:
        return True
    return group.ray(h) in (group.ray(g), group.ray(group.invert(g)))


def condition_star_check(phi, group: Group):
    """Decide the power condition (*): every g needs n, m > 0 with
    phi(g)^n = g^m, and each g is decided exactly by comparing rays.
    Returns None when (*) holds, else the first g of ball(2) where it fails.

    ball(2) decides it for the maps this is used on: an automorphism of a
    free group that moves some generator's ray fails at the first such
    generator, and otherwise fixes every ray; a Klein automorphism fails at
    x or y or nowhere; a linear map v -> vM of Z^n fails at some e_j unless
    every e_j is an eigenvector with a positive eigenvalue, and then at some
    e_1 + e_j unless M is a positive scalar.  Balls list elements shortest
    first, so the witness is the first failure in every larger ball too.

    phi may be a GroupAutomorphism, or any callable on elements, so
    commensuration representatives that leave the group (scalar maps on a
    lattice) probe as well.
    """
    fwd = getattr(phi, "forward", phi)
    for g in group.ball(2)[1:]:
        if group.ray(fwd(g)) != group.ray(g):
            return g
    return None
