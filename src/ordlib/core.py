"""Left-orderings of concrete groups as computable sign oracles.

An ordering is represented by its positive cone: a total sign function
``sign: G \\ {1} -> {+1, -1}`` with ``sign(g^-1) = -sign(g)`` and with the
positives closed under multiplication.  ``g < h`` means ``sign(g^-1 h) = +1``.
All checks here are desk scale: they quantify over finite balls that every
concrete group exposes.

Ball conventions.  By default ``ball(r)`` is the word-metric ball of the
group's ``generators``, walked breadth first, each generator followed by its
inverse, and deduplicated by key; on word groups each element keeps the
first word that reaches it, its least geodesic.  Groups that are not
finitely generated, or whose balls are graded otherwise, walk their own.
``ball(r)`` is closed under inversion and nested in ``ball(r+1)``.  Elements
are listed in canonical order: sorted by (length, letter key) where positive
letters precede negative ones and lower generator indices come first.  The
identity is the only element of length 0, so element 0 is always the
identity and no other element is; scans over the nonidentity elements walk
``ball(r)[1:]``.  Witness searches walk that order, so results are
deterministic.  Every ball is capped at ``MAX_BALL`` elements as it is
walked: the walk stops after ``MAX_BALL + 1`` elements and a ball that
reaches them is refused with ``SizeLimitError``, keeping none.
"""

from __future__ import annotations

import itertools
import weakref
from abc import ABC, abstractmethod
from collections import OrderedDict
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterable, Optional

LT, EQ, GT = -1, 0, 1
POSITIVE, NEGATIVE = 1, -1

# each group keeps the balls of its most recently used radii, this many
BALL_CACHE_RADII = 4
# a ball of more than this many elements is refused as it is walked
MAX_BALL = 5000


class BudgetExceededError(RuntimeError):
    """A rewriting budget ran out before the computation settled."""


class SizeLimitError(RuntimeError):
    """A search exceeded its configured node or ball-size limit."""


class InconclusiveTruncationError(RuntimeError):
    """A truncated expansion stayed zero up to the escalation cap."""


class IdentitySignError(ValueError):
    """Sign was queried at the identity; callers must filter it out."""


class NoPositiveError(ValueError):
    """A least-element search found no positive elements in the ball."""


class RefusedConstructionError(ValueError):
    """A construction precondition failed; carries the witness."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class BallData:
    """A ball with its membership index, and its product table as rows.

    ``keys[i]`` is the key of ``elements[i]``, and ``pos`` maps each key to
    its index, so any representative of a ball element is found in one
    lookup.  Element 0 must be the identity, and no other element may be.

    The product table is never kept: ``product_rows`` yields it a row at a
    time.  A cell is a product g*h, known by the key of its inverse
    h^-1 g^-1: cell k < n is elements[k], and a product outside the ball
    is numbered when a row first meets it.  On a word-metric ball every
    element i > 0 is a^-1 * elements[p] for an earlier element p and a
    generator letter a, so row i is row p gathered through the step list
    of a, which maps each cell to the cell a^-1 times it, and row p is
    dropped once its last such row is built.  A step entry is filled when
    a row first needs it, so each product outside the ball is stepped at
    most once per letter.  Once no later row gathers from the rows still
    to be built, a product outside the ball is not numbered.  Elements
    with no such parent, and every element of a group that lists no
    ``generators``, take one ``key_times`` per cell.

    The ball refers to its group weakly: the group's ball cache holds the
    ball, so a strong reference back would make a cycle, and a dropped
    group would keep its balls and whatever is keyed by them until the
    cyclic collector ran.
    """

    def __init__(self, group: "Group", radius: int, elements: list):
        self._group = weakref.ref(group)
        self.radius = radius
        self.elements = elements
        self.keys = [group.key(g) for g in elements]
        self.pos = {k: i for i, k in enumerate(self.keys)}
        if self.pos.get(group.key(group.identity)) != 0:
            raise ValueError(
                f"ball({radius}) of {group.name} does not list the identity "
                "first and only there")
        self._inverse: list[int] | None = None

    @property
    def group(self) -> "Group":
        group = self._group()
        if group is None:
            raise ReferenceError(f"ball({self.radius}) outlived its group")
        return group

    def index_of(self, g) -> Optional[int]:
        """Index of g in the ball, or None.  g may be any representative."""
        return self.pos.get(self.group.key(g))

    def inverse_index(self) -> list[int]:
        if self._inverse is None:
            grp = self.group
            inv = []
            for g in self.elements:
                j = self.index_of(grp.invert(g))
                if j is None:
                    raise SizeLimitError(
                        f"ball({self.radius}) of {grp.name} is not closed under inversion")
                inv.append(j)
            self._inverse = inv
        return self._inverse

    def product_rows(self, upper: bool):
        """Yield the rows of the product table in ball order, lists that
        later rows may still gather from: cell j of row i is the product
        elements[i]*elements[j], its ball index when it lies in the ball
        and a cell number >= n otherwise (n for every product not numbered
        yet, once no later row gathers from the rows still to come).  With
        ``upper`` row i covers only the columns j >= i, cell j at
        row[j - i].  A row is held only until the last row that gathers
        from it is built: on a word-metric ball, a sphere's rows gather
        from the sphere before."""
        grp = self.group
        keys, key_times = self.keys, grp.key_times
        n = len(keys)
        inv = self.inverse_index()
        letters = [x for g in grp.generators for x in (g, grp.invert(g))]
        # a cell is a product, known by the key of its inverse: cell k < n
        # is elements[k], and later cells are products outside the ball
        ikeys = list(map(keys.__getitem__, inv))
        cell = dict(zip(keys, inv))
        # no row after row `last` is gathered from; until the left tree
        # is known, every product is numbered
        last = n

        def cell_of(key, i):
            # the cell that row i meets; past `last`, n for any product
            # outside the ball
            c = cell.get(key)
            if c is None:
                if i > last:
                    return n
                c = cell[key] = len(ikeys)
                ikeys.append(key)
            return c

        # steps[a][c]: the cell of letters[a]^-1 * (cell c), as
        # key((a^-1 x)^-1) = key(x^-1 a); filled over the ball, and past
        # it -2 until a row needs it
        steps = [[cell_of(key_times(k, a), 0) for k in ikeys[:n]] for a in letters]
        # the left tree: row i gathers over row p < i when elements[i] is
        # letters[a]^-1 * elements[p]; last_child[p] is the last such i
        parent = [None] * n
        last_child = {}
        for k in range(n):
            for a, step in enumerate(steps):
                i = step[k]
                if k < i < n and parent[i] is None:
                    parent[i] = (k, a)
        for i, pa in enumerate(parent):
            if pa:
                last_child[pa[0]] = i
        last = max(last_child, default=0)
        # held[p]: row p, while a later row gathers from it
        held = {}
        row = list(range(n))
        if 0 in last_child:
            held[0] = row
        yield row
        for i in range(1, n):
            if parent[i] is None:
                # (elements[i]*h)^-1 = h^-1 * elements[i]^-1
                g_inv = self.elements[inv[i]]
                row = [cell_of(key_times(k, g_inv), i) for k in ikeys[i if upper else 0:n]]
            else:
                p, a = parent[i]
                step = steps[a]
                src = held.pop(p) if last_child[p] == i else held[p]
                if upper:
                    src = src[i - p:]
                step += [-2] * (len(ikeys) - len(step))
                # itemgetter of one item returns it bare
                row = [*itemgetter(*src)(step)] if len(src) > 1 else [step[src[0]]]
                j = -1
                # the cells of a row are distinct, so each -2 is one step
                for _ in range(row.count(-2)):
                    j = row.index(-2, j + 1)
                    c = src[j]
                    row[j] = step[c] = cell_of(key_times(ikeys[c], letters[a]), i)
            if i in last_child:
                held[i] = row
            yield row

    def product_table(self) -> list[list[int]]:
        """table[i][j] = index of elements[i]*elements[j] in the ball, or -1,
        built anew on every call from the full-width product rows."""
        n = len(self.keys)
        ball = dict(zip(range(n), range(n)))
        outside = itertools.repeat(-1)
        return [list(map(ball.get, row, outside)) for row in self.product_rows(False)]


class Group(ABC):
    """A concrete group with hashable elements and graded balls.

    ``key(g)`` is the element's canonical hashable key: two representatives
    have equal keys exactly when they are the same group element.  Groups
    whose elements are normal forms use the element itself; equality,
    identity tests and ball membership all go through the key.
    """

    name: str = "group"
    generators: tuple = ()  # their word-metric balls are the default balls

    @property
    @abstractmethod
    def identity(self):
        ...

    @abstractmethod
    def multiply(self, g, h):
        ...

    @abstractmethod
    def invert(self, g):
        ...

    @abstractmethod
    def sort_key(self, g) -> tuple:
        """Canonical order key: (length, letter key), deterministic."""

    def _ball_elements(self, radius: int) -> Iterable:
        """All elements of ball(radius), deduplicated, any order; by
        default the word-metric ball of ``generators``, yielded lazily."""
        if not self.generators:
            raise NotImplementedError(f"{self.name} lists no generators and walks no ball")
        letters = [x for g in self.generators for x in (g, self.invert(g))]
        seen = {self.key(self.identity)}
        level = [self.identity]
        yield self.identity
        for _ in range(radius):
            grown = []
            for w in level:
                for a in letters:
                    c = self.multiply(w, a)
                    k = self.key(c)
                    if k not in seen:
                        seen.add(k)
                        grown.append(c)
                        yield c
            level = grown

    def __init__(self):
        self._balls: OrderedDict[int, BallData] = OrderedDict()

    def key(self, g):
        return g

    def key_times(self, key_g, h):
        """key(g*h), given only key_g = key(g).  The default multiplies key_g
        itself, which is right only where key(g) == g; a group whose key is
        not the element overrides this to act on key_g, as braids act on
        their Dynnikov coordinates."""
        return self.key(self.multiply(key_g, h))

    def same(self, g, h) -> bool:
        return g == h or self.key(g) == self.key(h)

    def is_identity(self, g) -> bool:
        return self.same(g, self.identity)

    def label(self, g) -> str:
        return str(g)

    def ray(self, g):
        """Canonical key of g's power ray: ray(x) == ray(y) exactly when
        x^n = y^m for some n, m > 0."""
        raise NotImplementedError(f"{self.name} has no ray key")

    def ball(self, radius: int) -> list:
        return self.ball_data(radius).elements

    def ball_data(self, radius: int) -> BallData:
        if radius < 0:
            raise ValueError("radius must be non-negative")
        data = self._balls.get(radius)
        if data is None:
            elems = list(itertools.islice(self._ball_elements(radius), MAX_BALL + 1))
            if len(elems) > MAX_BALL:
                raise SizeLimitError(
                    f"ball({radius}) of {self.name} has more than {MAX_BALL} elements")
            elems.sort(key=self.sort_key)
            data = self._balls[radius] = BallData(self, radius, elems)
            if len(self._balls) > BALL_CACHE_RADII:
                self._balls.popitem(last=False)
        else:
            self._balls.move_to_end(radius)
        return data


@dataclass(frozen=True)
class SignOracle:
    """A total, computable positive cone on a group.

    ``fn`` returns +1 or -1 on every nonidentity element and 0 exactly at
    the identity; ``sign`` is ``fn`` with the identity refused.  ``fn`` is
    the definition.  ``left``, when given, maps g to the function
    h -> fn(g*h) and computes its state for g once; scans that sign many
    products with one left factor use it through ``left_fn``.  The braid
    oracles (``dehornoy``, ``flip-dehornoy``, every ``least[s_i]``) give one
    that acts on g's cached Dynnikov coordinates, and the G-ordering one
    that reads the exponents before any plane arithmetic; the others
    multiply.
    """

    group: Group
    fn: Callable
    descriptor: str
    left: Optional[Callable] = None

    def left_fn(self, g) -> Callable:
        """The function h -> fn(g*h)."""
        if self.left is not None:
            return self.left(g)
        grp, fn = self.group, self.fn
        return lambda h: fn(grp.multiply(g, h))

    def sign(self, g) -> int:
        s = self.fn(g)
        if s == 0:
            raise IdentitySignError(
                f"sign({self.group.label(g)}) queried at the identity under {self.descriptor}")
        return s

    def __repr__(self):
        return f"SignOracle({self.descriptor})"


@dataclass(frozen=True)
class GroupAutomorphism:
    """An automorphism with explicit forward and backward maps."""

    group: Group
    forward: Callable
    backward: Callable
    descriptor: str

    def __repr__(self):
        return f"GroupAutomorphism({self.descriptor})"


def inner_automorphism(group: Group, g) -> GroupAutomorphism:
    ginv = group.invert(g)
    return GroupAutomorphism(
        group=group,
        forward=lambda h: group.multiply(group.multiply(g, h), ginv),
        backward=lambda h: group.multiply(group.multiply(ginv, h), g),
        descriptor=f"inner[{group.label(g)}]",
    )


@dataclass
class AxiomReport:
    passed: bool
    violations: list = field(default_factory=list)

    def __str__(self):
        if self.passed:
            return "passed"
        head = ", ".join(f"{kind}{tuple(map(str, w))}" for kind, w in self.violations[:3])
        return f"failed ({len(self.violations)} violations: {head})"


def compare(oracle: SignOracle, g, h) -> int:
    """LT, EQ or GT (-1, 0, 1) for g versus h, read from the one sign
    fn(g^-1 h), which is 0 exactly when g = h and +1 exactly when g < h."""
    grp = oracle.group
    return -oracle.fn(grp.multiply(grp.invert(g), h))


def verify_cone_axioms(oracle: SignOracle, group: Group, radius: int,
                       max_violations: int = 100) -> AxiomReport:
    """Check the cone axioms on ball(radius).

    Every nonidentity g must satisfy sign(g^-1) = -sign(g), and the product
    of any two positives from the ball must be positive.  Products are
    signed directly by the oracle, through ``left_fn`` once per left
    factor, so closure is not clipped to the ball;
    a product of positives collapsing to the identity is caught the same
    way.  Violations carry their witnesses.
    """
    violations = []
    positives = []
    for g in group.ball(radius)[1:]:
        s = oracle.sign(g)
        if oracle.fn(group.invert(g)) != -s:
            violations.append(("inverse-sign", (g,)))
            if len(violations) >= max_violations:
                return AxiomReport(False, violations)
        if s == POSITIVE:
            positives.append(g)
    for g in positives:
        sign_gh = oracle.left_fn(g)
        for h in positives:
            if sign_gh(h) != POSITIVE:
                violations.append(("closure", (g, h)))
                if len(violations) >= max_violations:
                    return AxiomReport(False, violations)
    return AxiomReport(not violations, violations)


def act_automorphism(phi: GroupAutomorphism, oracle: SignOracle) -> SignOracle:
    """Pushforward ordering: the new sign of g is the old sign of phi^-1(g)."""
    return SignOracle(
        group=oracle.group,
        fn=lambda g: oracle.fn(phi.backward(g)),
        descriptor=f"{phi.descriptor}.{oracle.descriptor}",
    )


def check_bi_invariance(oracle: SignOracle, group: Group, radius: int):
    """None if conjugation preserves signs on the ball, else the first (g, p)
    in canonical order with sign(p) = + and sign(g p g^-1) = -.  Each
    conjugate is signed as g * (p g^-1) through ``left_fn(g)``."""
    ball = group.ball(radius)[1:]
    positives = [p for p in ball if oracle.sign(p) == POSITIVE]
    for g in ball:
        ginv = group.invert(g)
        sign_g = oracle.left_fn(g)
        for p in positives:
            if sign_g(group.multiply(p, ginv)) == NEGATIVE:
                return (g, p)
    return None


def least_positive_in_ball(oracle: SignOracle, group: Group, radius: int):
    """The minimum, under the ordering, of the positive elements of the ball."""
    best = None
    for g in group.ball(radius)[1:]:
        if oracle.sign(g) != POSITIVE:
            continue
        if best is None or compare(oracle, g, best) == LT:
            best = g
    if best is None:
        raise NoPositiveError(f"no positive elements in ball({radius}) of {group.name}")
    return best


def distinguishing_witness(phi: GroupAutomorphism, catalog: list[SignOracle],
                           group: Group, radius: int):
    """First (oracle, g) in catalog-then-ball order with sign(g) = + and
    sign(phi(g)) = -, certifying that phi moves that ordering."""
    ball = group.ball(radius)[1:]
    for P in catalog:
        for g in ball:
            if P.sign(g) == POSITIVE and P.sign(phi.forward(g)) == NEGATIVE:
                return (P, g)
    return None


def separating_element(o1, o2, group: Group, radius: int):
    """First ball element where the two orderings disagree, or None.

    Accepts anything with a ``sign`` method defined on the ball, so partial
    cones work as well as full oracles.
    """
    for g in group.ball(radius)[1:]:
        if o1.sign(g) != o2.sign(g):
            return g
    return None

