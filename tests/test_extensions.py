"""Klein bottle orderings, the automorphism family, and the two towers."""

import functools
import itertools
from fractions import Fraction

import pytest

from ordlib.core import (
    IdentitySignError,
    RefusedConstructionError,
    act_automorphism,
    check_bi_invariance,
    separating_element,
    verify_cone_axioms,
)
from ordlib.extensions import (
    KLEIN_PARAMS,
    KleinAut,
    KleinOrderingParams,
    conjugation_preserves,
    g_group,
    g_least_positive,
    g_ordering,
    k_group,
    k_ordering,
    klein_action_kernel,
    klein_action_witness,
    klein_as_extension,
    klein_family,
    klein_group,
    klein_inner,
    klein_ordering,
    klein_orderings,
    klein_sign,
    lex_extension,
    lex_extension_sign,
    k_eigen_flag,
    k_ordering_sign,
    rational_plane,
    twist_automorphism,
    ZExtensionGroup,
    _hyperbolic_power,
)
from ordlib.lattice import (
    FormFlag,
    mat_from_rows,
    mat_inverse,
    mat_mul,
    row_times_mat,
)
from ordlib.magnus import free_group, magnus_oracle

KLEIN = klein_group()
X = (0, 1)
Y = (1, 0)


def _kq(p, q):
    return (Fraction(p), Fraction(q))


def test_klein_relation_and_arithmetic():
    conj = KLEIN.multiply(KLEIN.multiply(X, Y), KLEIN.invert(X))
    assert conj == KLEIN.invert(Y)
    ball = KLEIN.ball(2)
    for g, h, k in itertools.islice(itertools.product(ball, repeat=3), 0, None, 7):
        left = KLEIN.multiply(KLEIN.multiply(g, h), k)
        right = KLEIN.multiply(g, KLEIN.multiply(h, k))
        assert left == right
    for g in ball:
        assert KLEIN.multiply(g, KLEIN.invert(g)) == KLEIN.identity


def test_klein_labels_and_ball():
    assert KLEIN.label((0, 0)) == "1"
    assert KLEIN.label(Y) == "y"
    assert KLEIN.label((2, -1)) == "y^2 x^-1"
    assert [len(KLEIN.ball(r)) for r in range(3)] == [1, 5, 13]


def test_klein_signs():
    pp = KLEIN_PARAMS[0]
    assert (pp.s, pp.t) == (1, 1)
    assert klein_sign(pp, X) == 1
    assert klein_sign(pp, Y) == 1
    assert klein_sign(pp, (-1, 1)) == 1
    assert klein_sign(KleinOrderingParams(1, -1), Y) == -1
    assert klein_sign(KleinOrderingParams(-1, 1), X) == -1
    assert klein_sign(pp, (0, 0)) == 0
    with pytest.raises(ValueError):
        KleinOrderingParams(2, 1)


def test_four_orderings_are_orderings_and_distinct():
    orderings = klein_orderings()
    assert [o.descriptor for o in orderings] == [
        "klein[++]", "klein[+-]", "klein[-+]", "klein[--]"]
    for oracle in orderings:
        assert verify_cone_axioms(oracle, KLEIN, 4).passed
    for o1, o2 in itertools.combinations(orderings, 2):
        assert separating_element(o1, o2, KLEIN, 1) is not None


def test_klein_aut_family():
    phi = KleinAut(1, 1, 3)
    assert phi.apply(X) == (-3, 1)
    assert phi.apply(Y) == Y
    assert phi.apply((0, 2)) == (0, 2)
    with pytest.raises(ValueError):
        KleinAut(2, 1, 0)
    assert len(list(klein_family(2))) == 20
    for member in klein_family(3):
        # f(x) f(y) f(x)^-1 f(y) = 1: the defining relation is preserved
        fx, fy = member.apply(X), member.apply(Y)
        fxfy = KLEIN.multiply(fx, fy)
        assert KLEIN.multiply(KLEIN.multiply(fxfy, KLEIN.invert(fx)), fy) == KLEIN.identity
        auto = member.to_automorphism()
        for g in KLEIN.ball(3):
            assert auto.backward(auto.forward(g)) == g, (member, g)
            assert auto.forward(auto.backward(g)) == g, (member, g)


def test_inner_automorphisms_sit_in_the_family():
    assert klein_inner(Y) == KleinAut(1, 1, -2)
    assert klein_inner(X) == KleinAut(1, -1, 0)
    for g in ((1, 0), (0, 1), (2, 1), (-1, 2)):
        phi = klein_inner(g)
        ginv = KLEIN.invert(g)
        for h in KLEIN.ball(3):
            assert phi.apply(h) == KLEIN.multiply(KLEIN.multiply(g, h), ginv)


def test_label_action_matches_pushforward():
    for phi in (KleinAut(-1, 1, 0), KleinAut(1, -1, 2), KleinAut(-1, -1, 1)):
        auto = phi.to_automorphism()
        for params in KLEIN_PARAMS:
            pushed = act_automorphism(auto, klein_ordering(params))
            target = klein_ordering(phi.action_on_labels(params))
            assert separating_element(pushed, target, KLEIN, 3) is None


def test_action_kernel():
    kernel = klein_action_kernel(2)
    assert kernel == [KleinAut(1, 1, m) for m in range(-2, 3)]
    assert klein_inner(Y) in klein_action_kernel(3)
    assert klein_inner(X) not in kernel


def test_action_witnesses():
    oracle, g = klein_action_witness(KleinAut(-1, 1, 0))
    assert oracle.descriptor == "klein[++]" and g == X
    oracle, g = klein_action_witness(KleinAut(1, -1, 2))
    assert oracle.descriptor == "klein[++]" and g == Y
    assert klein_action_witness(KleinAut(1, 1, 5)) is None


def test_rational_plane_balls():
    plane = rational_plane()
    ball = plane.ball(2)
    assert (Fraction(1, 2), Fraction(0)) in ball
    assert (Fraction(1, 3), Fraction(0)) in plane.ball(3)
    assert {plane.invert(g) for g in ball} == set(ball)
    assert plane.weight((Fraction(3, 2), Fraction(-1))) == 5


def test_k_group_conjugation_twists_by_the_matrix():
    K = k_group()
    t = (K.base.identity, 1)
    u = ((_kq(1, 0)), 0)
    conj = K.multiply(K.multiply(t, u), K.invert(t))
    assert conj == (_kq(1, 2), 0)
    ball = K.ball(2)
    assert {K.invert(g) for g in ball} == set(ball)
    for g, h in itertools.islice(itertools.product(ball, repeat=2), 0, None, 5):
        assert K.multiply(K.multiply(g, h), K.invert(h)) == g


def test_k_ordering_signs():
    pk = k_ordering(k_eigen_flag())
    K = k_group()
    assert pk.sign((K.base.identity, 1)) == 1
    assert pk.sign((K.base.identity, -3)) == -1
    assert pk.sign((_kq(1, 0), 0)) == -1
    assert pk.sign((_kq(0, 1), 0)) == 1
    assert pk.sign((_kq(1, 0), 2)) == 1
    assert verify_cone_axioms(pk, K, 3).passed


def test_g_twist_fixes_the_eigen_flag_ordering():
    pk = k_ordering(k_eigen_flag())
    assert conjugation_preserves(pk, twist_automorphism(g_group()), 4) is None


def test_g_ordering_and_least_element():
    G = g_group()
    pg = g_ordering()
    assert pg.descriptor == "lex[k-lex[flag[(-√2,1)]]]"
    assert verify_cone_axioms(pg, G, 3).passed
    t = (k_group().identity, 1)
    assert g_least_positive(3) == t
    assert G.label(t) == "(((0, 0), 0), 1)"


def test_wrong_flag_is_refused():
    lex1 = FormFlag.of([(1, 0), (0, 1)])
    with pytest.raises(RefusedConstructionError) as info:
        lex_extension(k_ordering(lex1), g_group())
    assert info.value.witness == (_kq(-1, 0), 0)


def test_klein_as_extension_is_refused():
    base = free_group(1, ("y",))
    with pytest.raises(RefusedConstructionError) as info:
        lex_extension(magnus_oracle(base), klein_as_extension())
    assert info.value.witness == (1,)
    assert "moves y across" in str(info.value)


def test_klein_extension_multiplies_like_klein():
    """(y^a, b) in <y> x| Z is y^a x^b: the twist inverts y for odd b."""
    ext = klein_as_extension()
    lift = lambda g: ((1,) * g[0] if g[0] > 0 else (-1,) * -g[0], g[1])
    ball = KLEIN.ball(3)
    for g, h in itertools.product(ball, repeat=2):
        assert ext.multiply(lift(g), lift(h)) == lift(KLEIN.multiply(g, h))
        assert ext.invert(lift(g)) == lift(KLEIN.invert(g))


def test_twist_automorphism_is_the_unit_twist_power():
    for ext in (k_group(), g_group()):
        phi = twist_automorphism(ext)
        for b in ext.base.ball(2):
            assert phi.forward(b) == ext.twist(1, b)
            assert phi.backward(phi.forward(b)) == b


def test_sign_functions_are_zero_exactly_at_the_identity():
    """The sign functions return 0 at the identity; only the oracle's
    ``sign`` refuses it."""
    flag = k_eigen_flag()
    pk = k_ordering(flag)
    cases = [(KLEIN, functools.partial(klein_sign, p), klein_ordering(p))
             for p in KLEIN_PARAMS]
    cases.append((k_group(), functools.partial(k_ordering_sign, flag), pk))
    cases.append((g_group(), functools.partial(lex_extension_sign, pk), g_ordering()))
    for group, fn, oracle in cases:
        assert fn(group.identity) == 0
        assert oracle.fn(group.identity) == 0
        with pytest.raises(IdentitySignError):
            oracle.sign(group.identity)
        for g in group.ball(2)[1:]:
            assert fn(g) == oracle.sign(g) != 0


def test_mismatched_base_is_rejected():
    with pytest.raises(ValueError):
        lex_extension(magnus_oracle(free_group(1, ("z",))), klein_as_extension())


def test_g_is_not_bi_orderable():
    witness = check_bi_invariance(g_ordering(), g_group(), 3)
    assert witness == (((_kq(-1, 0), 0), 0), ((_kq(-1, 0), 0), -1))


def _fraction_power(c, negated):
    """The same power through Fraction matrices and Gauss-Jordan inversion."""
    sign = -1 if negated else 1
    mat = mat_from_rows([[sign * x for x in row] for row in ((1, 2), (1, 1))])
    power = mat_from_rows([[1, 0], [0, 1]])
    for _ in range(abs(c)):
        power = mat_mul(power, mat)
    return power if c >= 0 else mat_inverse(power)


@pytest.mark.parametrize("negated", [False, True])
def test_hyperbolic_powers_are_integer_and_exact(negated):
    plane = rational_plane().ball(3)
    K, G = k_group(), g_group()
    for c in range(-8, 9):
        power, reference = _hyperbolic_power(c, negated), _fraction_power(c, negated)
        assert all(type(x) is int for row in power for x in row)
        assert power == reference
        for v in plane:
            image = row_times_mat(v, reference)
            if negated:
                got = G.twist(c, (v, 5))
                assert got == (image, 5)
                got = got[0]
            else:
                got = K.twist(c, v)
                assert got == image
            assert all(type(x) is Fraction for x in got)


@pytest.mark.parametrize("group", [k_group, g_group])
def test_fused_multiply_matches_the_twist_definition(group):
    ext = group()
    ball = ext.ball(2)
    for g, h in itertools.islice(itertools.product(ball, repeat=2), 0, None, 3):
        assert ext.multiply(g, h) == ZExtensionGroup.multiply(ext, g, h)


def test_large_z_exponents_invert_exactly():
    """Twist powers come from repeated squaring, so an exponent of 10,000
    neither recurses per unit nor leaves integer arithmetic."""
    K, G = k_group(), g_group()
    v = _kq(1, Fraction(2, 3))
    for ext, g in ((K, (v, 10_000)), (K, (v, -10_000)),
                   (G, ((v, 10_000), -10_000)), (G, ((v, -3), 10_000))):
        inv = ext.invert(g)
        assert ext.is_identity(ext.multiply(g, inv))
        assert ext.is_identity(ext.multiply(inv, g))


def test_plane_identity_is_shared_and_exact():
    plane = rational_plane()
    assert plane.identity is plane.identity
    assert plane.identity == (Fraction(0), Fraction(0))
    assert k_group().identity == (plane.identity, 0)
    assert g_group().is_identity(g_group().identity)
    assert not g_group().is_identity(((_kq(0, 0), 0), 1))
    assert not k_group().is_identity((_kq(0, Fraction(1, 3)), 0))
