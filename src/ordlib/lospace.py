"""Finite shadows of the space of left-orderings.

A partial cone assigns a sign to every nonidentity element of a ball so
that inverses get opposite signs and products of positives landing inside
the ball are positive.  Restrictions of genuine orderings are partial
cones; enumerating all of them and searching for extensions to larger
balls gives desk-scale evidence about the full ordering space, such as the
Klein group's four orderings exhausting what radius-6 data allows.  A cone
is stored as one sign per element of ``ball(radius)[1:]``, in canonical
ball order; the ball's key index says which element each sign belongs to.

Enumeration is a small backtracking solver: one boolean per inverse pair,
three-literal clauses from the ball's product table, unit propagation, and
positive-first branching so the output comes back in a canonical order.
The clause index is built once per ball and shared by every enumeration
and extension on it; it is dropped with the ball, so the group's ball
cache bounds it.  Each search keeps only its own assignment, trail and
node count.

Isolator membership and the power-agreement condition are exact: both
compare the groups' ray keys, which are equal exactly when two elements
have a common positive power.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from .core import (
    BallData,
    Group,
    IdentitySignError,
    SignOracle,
    SizeLimitError,
    separating_element,
)

__all__ = [
    "PartialCone",
    "check_ball_size",
    "enumerate_partial_cones",
    "extend_partial_cone",
    "separating_element",
    "isolator_member",
    "condition_star_check",
]

DEFAULT_NODE_LIMIT = 2_000_000
MAX_BALL = 5000
# a cone search first builds the ball's n^2 product table, so its ball is
# capped at 10^6 cells
MAX_CONE_BALL = 1000


def check_ball_size(group: Group, radius: int) -> None:
    """Refuse ball(radius) when it holds more than MAX_BALL elements, after
    counting at most MAX_BALL + 1 of them and building none."""
    if group.ball_exceeds(radius, MAX_BALL):
        raise SizeLimitError(
            f"ball({radius}) of {group.name} has more than {MAX_BALL} elements")


@dataclass(frozen=True)
class PartialCone:
    """A consistent sign assignment on ball(radius) minus the identity:
    ``signs`` holds one +1 or -1 per element of ``group.ball(radius)[1:]``,
    in canonical ball order, and the ball's key index names the elements."""

    group: Group
    radius: int
    signs: tuple

    def sign(self, g) -> int:
        i = self.group.ball_data(self.radius).index_of(g)
        if i is None:
            raise KeyError(f"{self.group.label(g)} is outside the cone's ball")
        if i == 0:
            raise IdentitySignError("the identity has no sign")
        return self.signs[i - 1]

    def elements(self) -> tuple:
        return tuple(self.group.ball(self.radius)[1:])

    def restricted(self, radius: int) -> "PartialCone":
        if radius > self.radius:
            raise ValueError("restriction radius exceeds the cone's radius")
        return PartialCone(self.group, radius,
                           tuple(self.sign(g) for g in self.group.ball(radius)[1:]))

    @classmethod
    def from_oracle(cls, oracle: SignOracle, group: Group, radius: int) -> "PartialCone":
        return cls(group, radius, tuple(oracle.sign(g) for g in group.ball(radius)[1:]))

    def serialize(self) -> str:
        return "\n".join(
            "{}:{}".format(self.group.label(g), "+" if s > 0 else "-")
            for g, s in zip(self.elements(), self.signs))


def _build_clauses(table, lit) -> tuple:
    # positives g, h with gh in the ball force gh positive:
    # (not g+) or (not h+) or (gh)+.  No clause is a tautology: that needs
    # gh = 1, which is skipped, or g or h the identity, which is not indexed
    out = set()
    for i in range(1, len(lit)):
        row = table[i]
        not_i = -lit[i]
        for j in range(1, len(lit)):
            k = row[j]
            if k > 0:
                out.add(tuple(sorted({not_i, -lit[j], lit[k]})))
    return tuple(sorted(out))


class _ClauseIndex:
    """The clauses of one ball over inverse-pair variables, never changed
    once built.  Element 0 is the identity, so every index loop starts at
    1."""

    def __init__(self, data: BallData):
        inv = data.inverse_index()
        n = len(data.elements)
        self.impossible = any(inv[i] == i for i in range(1, n))
        # lit[i]: signed 1-based variable literal meaning "element i is positive"
        lit = [0] * n
        reps = []
        for i in range(1, n):
            if lit[i]:
                continue
            v = len(reps) + 1
            lit[i] = v
            lit[inv[i]] = -v
            reps.append(i)
        self.lit = tuple(lit)
        self.reps = tuple(reps)
        self.clauses = _build_clauses(data.product_table(), self.lit)
        adj = [[] for _ in reps]
        for ci, clause in enumerate(self.clauses):
            for x in clause:
                adj[abs(x) - 1].append(ci)
        self.adj = tuple(map(tuple, adj))


# one clause index per ball, dropped with the ball, so the group's ball
# cache bounds it
_CLAUSE_INDEX: weakref.WeakKeyDictionary[BallData, _ClauseIndex] = weakref.WeakKeyDictionary()


def _clause_index(group: Group, radius: int) -> _ClauseIndex:
    if group.ball_exceeds(radius, MAX_CONE_BALL):
        raise SizeLimitError(
            f"ball({radius}) of {group.name} has more than {MAX_CONE_BALL} "
            "elements, too many for a cone search")
    data = group.ball_data(radius)
    index = _CLAUSE_INDEX.get(data)
    if index is None:
        index = _CLAUSE_INDEX[data] = _ClauseIndex(data)
    return index


class _ConeSearch:
    """One search's solver state over the shared clause index of a ball:
    the assignment, its trail, and the nodes spent against node_limit."""

    def __init__(self, group: Group, radius: int, node_limit: int):
        self.group = group
        self.radius = radius
        index = _clause_index(group, radius)
        self.impossible = index.impossible
        self.lit, self.reps = index.lit, index.reps
        self.clauses, self.adj = index.clauses, index.adj
        self.limit = node_limit
        self.nodes = 0
        self.assign = [0] * len(self.reps)
        self.trail = []

    def _propagate(self, pending: list) -> bool:
        assign, trail, clauses, adj = self.assign, self.trail, self.clauses, self.adj
        while pending:
            v, val = pending.pop()
            cur = assign[v]
            if cur:
                if cur != val:
                    return False
                continue
            self.nodes += 1
            if self.nodes > self.limit:
                raise SizeLimitError(
                    f"cone search exceeded {self.limit} nodes")
            assign[v] = val
            trail.append(v)
            for ci in adj[v]:
                # a clause with every literal false is a conflict, and one
                # with a single unassigned literal and no true one forces it
                free = None
                for lit in clauses[ci]:
                    x = assign[abs(lit) - 1]
                    if x == 0:
                        if free is not None:
                            break
                        free = lit
                    elif (x > 0) == (lit > 0):
                        break
                else:
                    if free is None:
                        return False
                    pending.append((abs(free) - 1, 1 if free > 0 else -1))
        return True

    def solutions(self, preset, max_results=None) -> list:
        if self.impossible:
            return []
        out = []
        if self._propagate(list(preset)):
            self._dfs(0, out, max_results)
        return out

    def _dfs(self, start: int, out: list, max_results):
        v = start
        while v < len(self.reps) and self.assign[v]:
            v += 1
        if v == len(self.reps):
            out.append(tuple(self.assign))
            return
        for val in (1, -1):
            mark = len(self.trail)
            if self._propagate([(v, val)]):
                self._dfs(v + 1, out, max_results)
            while len(self.trail) > mark:
                self.assign[self.trail.pop()] = 0
            if max_results is not None and len(out) >= max_results:
                return

    def cone(self, assignment: tuple) -> PartialCone:
        signs = [assignment[v - 1] if v > 0 else -assignment[-v - 1]
                 for v in self.lit[1:]]
        return PartialCone(self.group, self.radius, tuple(signs))


def _check_max_results(max_results) -> None:
    if max_results is not None and max_results < 1:
        raise ValueError(f"max_results must be at least 1, got {max_results}")


def enumerate_partial_cones(group: Group, radius: int,
                            node_limit: int = DEFAULT_NODE_LIMIT,
                            max_results: int | None = None) -> list:
    """All partial cones on ball(radius), in canonical order; max_results
    stops the search once that many exist, keeping the first ones."""
    _check_max_results(max_results)
    search = _ConeSearch(group, radius, node_limit)
    return [search.cone(a) for a in search.solutions((), max_results)]


def extend_partial_cone(cone: PartialCone, group: Group, radius2: int,
                        max_results: int | None = None,
                        node_limit: int = DEFAULT_NODE_LIMIT) -> list:
    """All completions of the cone to ball(radius2); an empty list
    certifies that no ordering-restriction through radius2 agrees with it.
    max_results stops the search early once enough completions exist."""
    if radius2 <= cone.radius:
        raise ValueError("extension radius must exceed the cone's radius")
    _check_max_results(max_results)
    search = _ConeSearch(group, radius2, node_limit)
    data = group.ball_data(radius2)
    preset = []
    for g, s in zip(cone.elements(), cone.signs):
        idx = data.index_of(g)
        if idx is None:
            raise ValueError(
                f"cone element {group.label(g)} is missing from ball({radius2})")
        lit = search.lit[idx]
        preset.append((abs(lit) - 1, s if lit > 0 else -s))
    return [search.cone(a) for a in search.solutions(preset, max_results)]


def isolator_member(group: Group, h, g) -> bool:
    """Is h in the isolator of <g>, that is, is some h^n with n > 0 a power
    of g?  Exact: h = 1, or h shares its ray with g or with g^-1."""
    if group.is_identity(g):
        raise ValueError("the isolator of the identity is not considered")
    if group.is_identity(h):
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
