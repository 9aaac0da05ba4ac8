"""Ordered split extensions by Z, at three sizes.

The Klein bottle group <x, y | x y x^-1 = y^-1> carries exactly four
left-orderings; they are realized here as parameterized sign maps together
with the automorphism family x -> x^e y^m, y -> y^d, whose action on the
four orderings has a large kernel.

K = Q^2 x| Z twists the rational plane by a fixed hyperbolic integer matrix
and is ordered quotient-first: the Z letter dominates, and the plane is read
through a form flag.  G = K x| Z twists K by the negated matrix and is
ordered kernel-first, which is legitimate only because that twist fixes the
K-ordering; the constructor checks this on a ball and refuses otherwise.
The refusal is not a formality: rebuilding the Klein group as <y> x| Z
trips it, since conjugation by x inverts y.

Each extension by Z takes its twist as one function, twist(c, b): the c-th
power of the twist applied to the base element b.  Conjugation by the Z
letter is twist(1, -) with inverse twist(-1, -).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .core import (
    Group,
    GroupAutomorphism,
    RefusedConstructionError,
    SignOracle,
)
from .lattice import FormFlag, TotalityError, vector_ray
from .magnus import free_group
from .quadfield import QuadRat


class KleinGroup(Group):
    """The Klein bottle group; elements are normal-form pairs (a, b)
    standing for y^a x^b, so x y x^-1 = y^-1 makes x-conjugation flip
    the sign of a."""

    name = "Klein"
    # x and y; y^a x^b has word length |a| + |b|
    generators = ((0, 1), (1, 0))

    @property
    def identity(self):
        return (0, 0)

    def multiply(self, g, h):
        a, b = g
        c, d = h
        return (a + c if b % 2 == 0 else a - c, b + d)

    def invert(self, g):
        a, b = g
        return (-a if b % 2 == 0 else a, -b)

    def sort_key(self, g):
        # least geodesic spells the x-run first: y^a x^b = x^b y^{a'}
        # with a' = (-1)^b a
        a, b = g
        if b:
            ax = a if b % 2 == 0 else -a
            letters = ((0 if b > 0 else 1),) * abs(b) + ((2 if ax > 0 else 3),) * abs(ax)
        else:
            letters = ((2 if a > 0 else 3),) * abs(a)
        return (abs(a) + abs(b), letters)

    def ray(self, g):
        # the ray of g^2, which lies in <y, x^2> = Z^2 with vector addition
        a, b = g
        return vector_ray((a, b) if b % 2 == 0 else (0, b))

    def label(self, g):
        a, b = g
        if a == 0 and b == 0:
            return "1"
        parts = []
        if a:
            parts.append("y" if a == 1 else f"y^{a}")
        if b:
            parts.append("x" if b == 1 else f"x^{b}")
        return " ".join(parts)


@functools.cache
def klein_group() -> KleinGroup:
    return KleinGroup()


@dataclass(frozen=True)
class KleinOrderingParams:
    """Labels (s, t) of a Klein cone: s orients the x-direction and t the
    y-direction inside the kernel <y>."""

    s: int
    t: int

    def __post_init__(self):
        if self.s not in (1, -1) or self.t not in (1, -1):
            raise ValueError("signs must be +1 or -1")

    def descriptor(self) -> str:
        return "klein[{}{}]".format("+" if self.s > 0 else "-",
                                    "+" if self.t > 0 else "-")


KLEIN_PARAMS = tuple(KleinOrderingParams(s, t)
                     for s, t in ((1, 1), (1, -1), (-1, 1), (-1, -1)))


def _int_sign(n: int) -> int:
    return (n > 0) - (n < 0)


def klein_sign(params: KleinOrderingParams, g) -> int:
    """Sign of y^a x^b: a nonzero x-exponent decides through s, and inside
    the kernel the y-exponent decides through t; 0 at the identity."""
    a, b = g
    return _int_sign(params.s * b) or _int_sign(params.t * a)


def klein_ordering(params: KleinOrderingParams) -> SignOracle:
    return SignOracle(group=klein_group(), fn=functools.partial(klein_sign, params),
                      descriptor=params.descriptor())


def klein_orderings() -> list:
    return [klein_ordering(p) for p in KLEIN_PARAMS]


@dataclass(frozen=True)
class KleinAut:
    """The endomorphism x -> x^eps y^m, y -> y^delta; a bijection for
    eps, delta in {1, -1}, and the whole automorphism family arises
    this way.  Each such map keeps the relation x y x^-1 y = 1, since
    f(x) f(y) f(x)^-1 f(y) = y^-delta y^delta."""

    eps: int
    delta: int
    m: int

    def __post_init__(self):
        if self.eps not in (1, -1) or self.delta not in (1, -1):
            raise ValueError("eps and delta must be +1 or -1")

    def apply(self, g):
        # y^a x^b maps to y^{da} (x^e y^m)^b; squares of x^e y^m shed the
        # tail, so only the parity of b sees m
        a, b = g
        return (self.delta * a - self.m * (b % 2), self.eps * b)

    def inverse(self) -> "KleinAut":
        return KleinAut(self.eps, self.delta, -self.delta * self.m)

    def action_on_labels(self, params: KleinOrderingParams) -> KleinOrderingParams:
        """Where the pushforward sends the cone P_(s,t); m drops out."""
        return KleinOrderingParams(params.s * self.eps, params.t * self.delta)

    def descriptor(self) -> str:
        return f"klein-aut[{self.eps},{self.delta},{self.m}]"

    def to_automorphism(self) -> GroupAutomorphism:
        inv = self.inverse()
        return GroupAutomorphism(group=klein_group(), forward=self.apply,
                                 backward=inv.apply, descriptor=self.descriptor())


def klein_inner(g) -> KleinAut:
    """Conjugation by y^a x^b as a member of the family."""
    a, b = g
    return KleinAut(1, -1 if b % 2 else 1, -2 * a)


def klein_family(m_bound: int):
    """All family members with |m| <= m_bound, in canonical order."""
    for eps in (1, -1):
        for delta in (1, -1):
            for m in range(-m_bound, m_bound + 1):
                yield KleinAut(eps, delta, m)


def klein_action_kernel(m_bound: int) -> list:
    """Family members fixing all four orderings.  The four are all of
    LO(Klein), so the action on their labels decides this exactly: the
    kernel is every (1, 1, m), inner-by-y among them, which is why the
    action on the ordering space is not faithful."""
    if m_bound < 1:
        raise ValueError("m_bound must be at least 1")
    return [phi for phi in klein_family(m_bound)
            if all(phi.action_on_labels(p) == p for p in KLEIN_PARAMS)]


def klein_action_witness(phi: KleinAut):
    """(klein[++], g) with g moved across that cone by the pushforward, or
    None on the kernel.  Off the kernel phi moves klein[++]; phi^-1 sends x
    to x^eps y^m and y to y^delta, so x changes sign when eps = -1 and
    otherwise y does."""
    plus = KLEIN_PARAMS[0]
    if phi.action_on_labels(plus) == plus:
        return None
    return (klein_ordering(plus), (0, 1) if phi.eps == -1 else (1, 0))


_PLANE_ZERO = (Fraction(0), Fraction(0))


class RationalPlaneGroup(Group):
    """Q^2 as an additive group, exhausted by weighted balls.

    A coordinate p/q in lowest terms has weight |p| + q - 1, so 0 is free,
    integers cost their absolute value, and denominators up to r + 1 appear
    in ball(r).  The weight of a coordinate equals that of its negative,
    which keeps the balls inverse-closed.
    """

    name = "Q^2"
    rank = 2

    @property
    def identity(self):
        return _PLANE_ZERO

    def multiply(self, g, h):
        return (g[0] + h[0], g[1] + h[1])

    def invert(self, g):
        return (-g[0], -g[1])

    def weight(self, g) -> int:
        return sum(abs(c.numerator) + c.denominator - 1 for c in g)

    def sort_key(self, g):
        return (self.weight(g), g)

    def label(self, g):
        return f"({g[0]}, {g[1]})"

    def _ball_elements(self, radius):
        for w1 in range(radius + 1):
            for c1 in _weighted_rationals(w1):
                for w2 in range(radius + 1 - w1):
                    for c2 in _weighted_rationals(w2):
                        yield (c1, c2)


@functools.lru_cache(maxsize=256)
def _weighted_rationals(w: int) -> tuple:
    """All rationals of weight exactly w, i.e. |p| + q - 1 = w in lowest
    terms.  Balls ask only for weights up to their radius."""
    if w == 0:
        return (Fraction(0),)
    out = []
    for q in range(1, w + 2):
        p = w + 1 - q
        if p and Fraction(p, q).denominator == q:
            out.append(Fraction(p, q))
            out.append(Fraction(-p, q))
    return tuple(out)


@functools.cache
def rational_plane() -> RationalPlaneGroup:
    return RationalPlaneGroup()


class ZExtensionGroup(Group):
    """A split extension base x| Z; elements are pairs (b, c), and moving
    the Z letter c times past a base element b gives twist(c, b), the c-th
    power of the twist applied to b."""

    def __init__(self, base: Group, twist, name: str):
        super().__init__()
        self.base = base
        self.twist = twist
        self.name = name
        self._identity = (base.identity, 0)

    @property
    def identity(self):
        return self._identity

    def multiply(self, g, h):
        (b1, c1), (b2, c2) = g, h
        return (self.base.multiply(b1, self.twist(c1, b2) if c1 else b2), c1 + c2)

    def invert(self, g):
        b, c = g
        b = self.base.invert(b)
        return (self.twist(-c, b) if c else b, -c)

    def weight(self, g) -> int:
        b, c = g
        return self.base.sort_key(b)[0] + abs(c)

    def sort_key(self, g):
        b, c = g
        return (self.weight(g), abs(c), 0 if c >= 0 else 1, self.base.sort_key(b))

    def label(self, g):
        b, c = g
        return f"({self.base.label(b)}, {c})"

    def _ball_elements(self, radius):
        # twisting can push an inverse past the weight bound, so the
        # weight-graded set is symmetrized to stay inverse-closed.  The base
        # balls are walked, not built, and |c| grows from 0, so the capped
        # walk of a huge ball stops among small twists.
        seen = set()
        for m in range(radius + 1):
            for c in ((m, -m) if m else (0,)):
                for b in self.base._ball_elements(radius - m):
                    for g in ((b, c), self.invert((b, c))):
                        if g not in seen:
                            seen.add(g)
                            yield g


def twist_automorphism(ext: ZExtensionGroup) -> GroupAutomorphism:
    """Conjugation by the positive Z letter, restricted to the base."""
    return GroupAutomorphism(group=ext.base, forward=functools.partial(ext.twist, 1),
                             backward=functools.partial(ext.twist, -1),
                             descriptor=f"twist[{ext.name}]")


HYPERBOLIC_MATRIX = ((1, 2), (1, 1))


def _mat2_mul(m, n) -> tuple:
    (a, b), (e, f) = m
    (p, q), (r, s) = n
    return ((a * p + b * r, a * q + b * s), (e * p + f * r, e * q + f * s))


@functools.lru_cache(maxsize=1024)
def _hyperbolic_power(c: int, negated: bool) -> tuple:
    """The c-th power of the (negated) hyperbolic matrix, with int entries,
    by repeated squaring.

    Both matrices have determinant -1, so every power is unimodular and its
    inverse is the integer adjugate times the determinant.
    """
    sign = -1 if negated else 1
    square = tuple(tuple(sign * x for x in row) for row in HYPERBOLIC_MATRIX)
    acc = ((1, 0), (0, 1))
    k = abs(c)
    while k:
        if k & 1:
            acc = _mat2_mul(acc, square)
        k >>= 1
        if k:
            square = _mat2_mul(square, square)
    if c >= 0:
        return acc
    (a, b), (e, f) = acc
    det = a * f - b * e
    return ((det * f, -det * b), (-det * e, det * a))


@functools.lru_cache(maxsize=1024)
def _g_plane_matrix(t: int, c: int) -> tuple:
    """B^t A^c, with B = -A: the matrix by which a left factor with K-exponent c
    and t-exponent t twists the plane part of the right factor in G."""
    return _mat2_mul(_hyperbolic_power(t, True), _hyperbolic_power(c, False))


def _plane_numerators(u, v, mat) -> tuple:
    """(p, q, den) with u + v M = (p/den, q/den) for an integer matrix M and
    den > 0: all four coordinates go over one denominator."""
    (a, b), (e, f) = mat
    (x, y), (z, w) = u, v
    xn, xd = x.as_integer_ratio()
    yn, yd = y.as_integer_ratio()
    zn, zd = z.as_integer_ratio()
    wn, wd = w.as_integer_ratio()
    den = math.lcm(xd, yd, zd, wd)
    if den != 1:
        xn, yn = xn * (den // xd), yn * (den // yd)
        zn, wn = zn * (den // zd), wn * (den // wd)
    return (xn + zn * a + wn * e, yn + zn * b + wn * f, den)


def _plane_add_times(u, v, mat) -> tuple:
    """u + v M on Q^2 for an integer matrix M; each output Fraction is
    built once."""
    p, q, den = _plane_numerators(u, v, mat)
    return (Fraction(p, den), Fraction(q, den))


def _plane_twist(negated: bool, c: int, v) -> tuple:
    """v times the c-th power of the (negated) hyperbolic matrix."""
    return _plane_add_times(_PLANE_ZERO, v, _hyperbolic_power(c, negated))


def _g_twist(t: int, g) -> tuple:
    """The t-th power of G's twist on g = (v, c) in K: the negated matrix
    acts on the plane part, and the K exponent stays."""
    v, c = g
    return (_plane_twist(True, t, v), c)


class _KGroup(ZExtensionGroup):
    def multiply(self, g, h):
        # the twist and the plane addition fused into one pass
        (v1, c1), (v2, c2) = g, h
        return (_plane_add_times(v1, v2, _hyperbolic_power(c1, False)), c1 + c2)


class _GGroup(ZExtensionGroup):
    def multiply(self, g, h):
        # both twists act on the plane part only, so they fold into one matrix
        ((v1, c1), t1), ((v2, c2), t2) = g, h
        return ((_plane_add_times(v1, v2, _g_plane_matrix(t1, c1)), c1 + c2), t1 + t2)


@functools.cache
def k_group() -> ZExtensionGroup:
    """K = Q^2 x| Z: the Z letter acts on row vectors by the fixed
    hyperbolic matrix."""
    return _KGroup(rational_plane(), functools.partial(_plane_twist, False), "K")


@functools.cache
def g_group() -> ZExtensionGroup:
    """G = K x| Z: the new letter t acts on K through the negated matrix,
    which commutes with K's own twist."""
    return _GGroup(k_group(), _g_twist, "G")


@functools.cache
def k_eigen_flag() -> FormFlag:
    """The flag (-sqrt2, 1): the negated matrix scales it by sqrt2 - 1 > 0,
    so the G-twist fixes the K-ordering built on it."""
    return FormFlag.of([(-QuadRat.root(2), QuadRat.of(1, 0, 2))])


def k_ordering_sign(u: FormFlag, g) -> int:
    """Quotient-dominant sign on K: the Z exponent decides, and the plane
    part is read through the form flag when it is zero; 0 at the
    identity."""
    v, c = g
    if c:
        return _int_sign(c)
    # the zero test spares form_sign's denominator clearing at the identity
    return u.form_sign(v) if any(v) else 0


def k_ordering(u: FormFlag) -> SignOracle:
    if not u.is_total():
        raise TotalityError(f"{u.descriptor()} is not total")
    return SignOracle(group=k_group(), fn=functools.partial(k_ordering_sign, u),
                      descriptor=f"k-lex[{u.descriptor()}]")


def conjugation_preserves(pk: SignOracle, t_action: GroupAutomorphism,
                          radius: int):
    """None when the action fixes every sign on ball(radius) of the base;
    otherwise the first flipped element in canonical order."""
    for g in pk.group.ball(radius)[1:]:
        if pk.sign(t_action.forward(g)) != pk.sign(g):
            return g
    return None


def lex_extension_sign(pk: SignOracle, g) -> int:
    """Kernel-dominant sign on base x| Z: a nontrivial base part decides,
    and pure powers of the new letter take the sign of the exponent; 0 at
    the identity."""
    b, n = g
    return pk.fn(b) or _int_sign(n)


TWIST_CHECK_RADIUS = 6


def lex_extension(pk: SignOracle, ext: ZExtensionGroup) -> SignOracle:
    """Order base x| Z with the base dominant.

    Left-invariance needs conjugation by the Z letter to fix the base
    cone.  That is checked on ball(TWIST_CHECK_RADIUS) of the base, a
    bounded check, and the construction is refused, with the moved element
    as witness, when it fails.  The oracle states the Z letter as its
    least positive element: once the twist keeps the base cone, <t> is
    convex, since every element with a nontrivial base part lies above or
    below all of it.
    """
    if ext.base != pk.group:
        raise ValueError("the ordering and the extension have different bases")
    witness = conjugation_preserves(pk, twist_automorphism(ext), TWIST_CHECK_RADIUS)
    if witness is not None:
        raise RefusedConstructionError(
            f"conjugation by the Z letter moves {ext.base.label(witness)} "
            "across the cone", witness=witness)
    return SignOracle(group=ext, fn=functools.partial(lex_extension_sign, pk),
                      descriptor=f"lex[{pk.descriptor}]", least=(ext.base.identity, 1))


def _g_left(u: FormFlag, g):
    """h -> sign(g*h) under the G-ordering over u, the decision that
    ``lex_extension_sign`` of ``k_ordering_sign`` makes on
    ``_GGroup.multiply(g, h)``.  The K exponent of g*h is c1 + c2; only when
    it vanishes is the plane part built, with g's twist matrix taken once,
    and signed from its integer numerators over a positive denominator."""
    (v1, c1), t1 = g
    mat = _g_plane_matrix(t1, c1)

    def sign_gh(h):
        (v2, c2), t2 = h
        c = c1 + c2
        if c:
            return 1 if c > 0 else -1
        p, q, _ = _plane_numerators(v1, v2, mat)
        if p or q:
            return u.form_sign((p, q))
        return _int_sign(t1 + t2)

    return sign_gh


@functools.cache
def g_ordering() -> SignOracle:
    """The lexicographic ordering of G over the eigenvector flag; t is its
    least positive element.

    Its ``left`` hook signs g*h from the exponents first: a nonzero K
    exponent c1 + c2 decides alone, and only products whose K exponents
    cancel build the plane part, read through the flag, and then fall back
    to the t exponent t1 + t2.
    """
    flag = k_eigen_flag()
    oracle = lex_extension(k_ordering(flag), g_group())
    return replace(oracle, left=functools.partial(_g_left, flag))


def klein_as_extension() -> ZExtensionGroup:
    """The Klein group rebuilt as <y> x| Z, where conjugation by the Z
    letter inverts y; ordering it kernel-first is impossible, and
    lex_extension refuses with witness y."""
    base = free_group(1, ("y",))
    return ZExtensionGroup(base, lambda c, b: base.invert(b) if c % 2 else b,
                           "Klein-ext")
