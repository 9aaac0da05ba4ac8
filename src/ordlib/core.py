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
deterministic.
"""

from __future__ import annotations

import functools
import itertools
from abc import ABC, abstractmethod
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

LT, EQ, GT = -1, 0, 1
POSITIVE, NEGATIVE = 1, -1

# each group keeps the balls of its most recently used radii, this many
BALL_CACHE_RADII = 4


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
    """A ball with its membership index and a lazily built product table.

    ``keys[i]`` is the key of ``elements[i]``, and ``pos`` maps each key to
    its index, so any representative of a ball element is found in one
    lookup.  The product table finds each product's key with the group's
    ``key_times`` from the cached key of its left factor.  Element 0 must
    be the identity, and no other element may be.
    """

    def __init__(self, group: "Group", radius: int, elements: list):
        self.group = group
        self.radius = radius
        self.elements = elements
        self.keys = [group.key(g) for g in elements]
        self.pos = {k: i for i, k in enumerate(self.keys)}
        if self.pos.get(group.key(group.identity)) != 0:
            raise ValueError(
                f"ball({radius}) of {group.name} does not list the identity "
                "first and only there")
        self._inverse: list[int] | None = None
        self._products: list[list[int]] | None = None

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

    def product_table(self) -> list[list[int]]:
        """table[i][j] = index of elements[i]*elements[j] in the ball, or -1."""
        if self._products is None:
            grp = self.group
            elems = self.elements
            pos, key_times = self.pos, grp.key_times
            table = [[pos.get(key_times(kg, g, h), -1) for h in elems]
                     for g, kg in zip(elems, self.keys)]
            self._products = table
        return self._products


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

    def key_times(self, key_g, g, h):
        """key(g*h), given key_g = key(g).  Groups whose keys carry a right
        action of the group override this to act on key_g."""
        return self.key(self.multiply(g, h))

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

    def ball_exceeds(self, radius: int, cap: int) -> bool:
        """Does ball(radius) hold more than cap elements?  A ball not built
        yet is counted only up to cap + 1 elements, and not built."""
        if radius in self._balls:
            return len(self._balls[radius].elements) > cap
        return sum(1 for _ in itertools.islice(self._ball_elements(radius), cap + 1)) > cap

    def ball_data(self, radius: int) -> BallData:
        if radius < 0:
            raise ValueError("radius must be non-negative")
        data = self._balls.get(radius)
        if data is None:
            elems = sorted(self._ball_elements(radius), key=self.sort_key)
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
    products with one left factor use it through ``left_fn``.
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
    """LT, EQ or GT for g versus h; left-invariant by construction."""
    grp = oracle.group
    if grp.same(g, h):
        return EQ
    sign = oracle.sign(grp.multiply(grp.invert(g), h))
    return LT if sign == POSITIVE else GT


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
    in canonical order with sign(p) = + and sign(g p g^-1) = -."""
    ball = group.ball(radius)[1:]
    positives = [p for p in ball if oracle.sign(p) == POSITIVE]
    for g in ball:
        ginv = group.invert(g)
        for p in positives:
            conj = group.multiply(group.multiply(g, p), ginv)
            if oracle.sign(conj) == NEGATIVE:
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


def certify_least_positive(oracle: SignOracle, group: Group, radius: int, candidate) -> bool:
    """True iff candidate is positive and <= every positive element of the ball."""
    if oracle.sign(candidate) != POSITIVE:
        return False
    for g in group.ball(radius)[1:]:
        if oracle.sign(g) == POSITIVE and compare(oracle, candidate, g) == GT:
            return False
    return True


def check_convex_in_ball(member: Callable, oracle: SignOracle, group: Group, radius: int):
    """None if the subgroup looks convex on the ball, else a witness (g, f, h)
    with g, h in the subgroup, f outside, and g < f < h.

    ``member`` must describe a subgroup: it is validated for closure under
    inversion and under in-ball products before the convexity scan.
    """
    ball = group.ball(radius)
    data = group.ball_data(radius)
    flags = [bool(member(g)) for g in ball]
    if not flags[0]:
        raise ValueError("subgroup predicate rejects the identity")
    inv = data.inverse_index()
    for i, g in enumerate(ball):
        if flags[i] and not flags[inv[i]]:
            raise ValueError(f"subgroup predicate not closed under inversion at {group.label(g)}")
    table = data.product_table()
    for i in range(len(ball)):
        if not flags[i]:
            continue
        row = table[i]
        for j in range(len(ball)):
            if flags[j] and row[j] >= 0 and not flags[row[j]]:
                raise ValueError(
                    f"subgroup predicate not closed under products at "
                    f"{group.label(ball[i])}*{group.label(ball[j])}")
    # order the ball, then look for an outsider strictly between two members
    key = functools.cmp_to_key(lambda a, b: compare(oracle, ball[a], ball[b]))
    order = sorted(range(len(ball)), key=key)
    member_positions = [p for p, i in enumerate(order) if flags[i]]
    if len(member_positions) < 2:
        return None
    lo, hi = member_positions[0], member_positions[-1]
    candidates = [order[p] for p in range(lo + 1, hi) if not flags[order[p]]]
    if not candidates:
        return None
    f_idx = min(candidates, key=lambda i: group.sort_key(ball[i]))
    fpos = order.index(f_idx)
    g_idx = next(order[p] for p in range(fpos - 1, -1, -1) if flags[order[p]])
    h_idx = next(order[p] for p in range(fpos + 1, len(order)) if flags[order[p]])
    return (ball[g_idx], ball[f_idx], ball[h_idx])


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

