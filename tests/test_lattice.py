"""Flag orderings of Z^n and the matrix action on them."""

import random
import time
from fractions import Fraction

import pytest

from ordlib.core import act_automorphism, separating_element
from ordlib.extensions import _hyperbolic_power
from ordlib.lattice import (
    ALL_ORDERINGS,
    FormFlag,
    LatticeGroup,
    TotalityError,
    comm_acts_trivially,
    disagreement_vector,
    eigen_orderings,
    flag_ordering,
    is_scalar_star,
    lattice_group,
    mat_det,
    mat_from_rows,
    mat_inverse,
    mat_mul,
    matrix_automorphism,
    matrix_pushforward,
    preserves,
    probe_flags,
    row_times_mat,
    vlo_equal,
)
from ordlib.quadfield import QuadRat, UnsupportedFieldError

R2 = QuadRat.root(2)
Z2 = lattice_group(2)
A = ((1, 2), (1, 1))
LEX1 = FormFlag.of([(1, 0), (0, 1)])
LEX2 = FormFlag.of([(0, 1), (1, 0)])
PLUS = FormFlag.of([(R2, 1)])
MINUS = FormFlag.of([(-R2, 1)])


def test_form_sign_lex():
    assert LEX1.form_sign((0, 5)) == 1
    assert LEX1.form_sign((-3, 7)) == -1
    assert LEX1.form_sign((0, 0)) == 0
    assert LEX2.form_sign((-3, 7)) == 1


def test_form_sign_irrational_line():
    assert PLUS.form_sign((1, 1)) == 1
    assert PLUS.form_sign((-1, 1)) == -1
    assert PLUS.form_sign((1, -1)) == 1
    assert MINUS.form_sign((1, 0)) == -1
    assert MINUS.form_sign((1, 1)) == -1
    assert MINUS.form_sign((1, 2)) == 1


def test_descriptors():
    assert LEX1.descriptor() == "flag[(1,0);(0,1)]"
    assert MINUS.descriptor() == "flag[(-√2,1)]"


def test_totality():
    assert PLUS.is_total()
    assert not FormFlag.of([(1, 1)]).is_total()
    with pytest.raises(TotalityError):
        flag_ordering(Z2, [(1, 1)])
    oracle = flag_ordering(Z2, [(R2, 1)])
    assert oracle.sign((1, -1)) == 1


def test_mixed_field_entries_rejected():
    with pytest.raises(UnsupportedFieldError):
        FormFlag.of([(QuadRat.root(3), 1)], d=2)


def test_matrix_helpers():
    m = mat_from_rows(A)
    assert mat_det(m) == -1
    assert mat_det(mat_from_rows([[0, 2], [3, 0]])) == -6
    assert mat_mul(m, mat_inverse(m)) == mat_from_rows([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        mat_inverse(mat_from_rows([[1, 2], [2, 4]]))
    with pytest.raises(ValueError):
        mat_from_rows([[1, 2, 3], [4, 5, 6]])


def test_matrix_automorphism_requires_unimodular():
    with pytest.raises(ValueError):
        matrix_automorphism(Z2, [[2, 0], [0, 2]])
    with pytest.raises(ValueError):
        matrix_automorphism(Z2, [[Fraction(1, 2), 0], [0, 2]])
    phi = matrix_automorphism(Z2, A)
    assert phi.forward((1, 0)) == (1, 2)
    assert phi.backward(phi.forward((3, -5))) == (3, -5)


def test_pushforward_flag():
    swapped = matrix_pushforward([[0, 1], [1, 0]], LEX1)
    assert swapped.descriptor() == "flag[(0,1);(1,0)]"
    sheared = matrix_pushforward([[1, 1], [0, 1]], LEX1)
    assert sheared.descriptor() == "flag[(1,0);(-1,1)]"


def test_pushforward_matches_oracle_action():
    phi = matrix_automorphism(Z2, A)
    by_flag = matrix_pushforward(A, LEX1).ordering(Z2)
    by_action = act_automorphism(phi, LEX1.ordering(Z2))
    assert separating_element(by_flag, by_action, Z2, 4) is None


def test_preserves():
    assert preserves([[1, 1], [0, 1]], LEX1)
    assert not preserves([[0, 1], [1, 0]], LEX1)
    assert preserves(A, PLUS)
    assert not preserves(A, MINUS)
    assert not preserves(A, LEX1)


def test_eigen_orderings_of_the_hyperbolic_matrix():
    flags = eigen_orderings(A)
    assert [f.descriptor() for f in flags] == [
        "flag[(√2,1)]", "flag[(-√2,-1)]"]
    neg = eigen_orderings([[-1, -2], [-1, -1]])
    assert [f.descriptor() for f in neg] == [
        "flag[(-√2,1)]", "flag[(√2,-1)]"]
    assert not {f.descriptor() for f in flags} & {f.descriptor() for f in neg}


def test_eigen_orderings_scalar_and_degenerate_cases():
    assert eigen_orderings([[2, 0], [0, 2]]) == ALL_ORDERINGS
    assert eigen_orderings([[-1, 0], [0, -1]]) == []
    assert eigen_orderings([[0, -1], [1, 0]]) == []
    assert eigen_orderings([[1, 1], [0, 1]]) == []
    with pytest.raises(UnsupportedFieldError):
        eigen_orderings([[0, 1], [1, 0]])
    with pytest.raises(UnsupportedFieldError):
        eigen_orderings([[1, 5], [1, 1]], d=2)


def test_eigen_orderings_of_large_powers():
    """Entries of A^40 are about 10^15; the field test takes integer square
    roots instead of counting up to them."""
    four = ["flag[(√2,1)]", "flag[(-√2,-1)]", "flag[(-√2,1)]", "flag[(√2,-1)]"]
    for c in (4, 40):
        flags = eigen_orderings(_hyperbolic_power(c, False))
        assert [f.descriptor() for f in flags] == four


def test_eigen_orderings_other_field():
    flags = eigen_orderings([[1, 5], [1, 1]], d=5)
    assert [f.descriptor() for f in flags] == [
        "flag[(√5,1)]", "flag[(-√5,-1)]"]
    assert preserves([[1, 5], [1, 1]], flags[0])


def test_is_scalar_star():
    assert is_scalar_star([[2, 0], [0, 2]]) == (Fraction(2), None)
    half = Fraction(3, 2)
    assert is_scalar_star([[half, 0], [0, half]]) == (half, None)
    assert is_scalar_star([[1, 0], [0, 1]]) == (Fraction(1), None)
    assert is_scalar_star([[-1, 0], [0, -1]]) == (None, (1, 0))
    assert is_scalar_star([[3, 0], [0, 2]]) == (None, (1, 1))
    assert is_scalar_star([[1, 1], [0, 1]]) == (None, (1, 0))
    assert is_scalar_star(A) == (None, (1, 0))


def test_vlo_equal_basics():
    assert vlo_equal(LEX1, LEX1) == (True, None)
    assert vlo_equal(MINUS, LEX1) == (False, (1, 0))
    assert vlo_equal(LEX1, LEX2) == (False, (1, -1))


def test_vlo_equal_on_sublattices():
    two = [[2, 0], [0, 2]]
    assert vlo_equal(LEX1, LEX1, basis1=two) == (True, None)
    assert vlo_equal(LEX1, LEX2, basis1=two) == (False, (2, -2))
    scaled = FormFlag.of([(3, 0), (0, 3)])
    assert vlo_equal(LEX1, scaled) == (True, None)
    with pytest.raises(ValueError):
        vlo_equal(LEX1, LEX1, basis1=[[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        vlo_equal(LEX1, LEX1, basis1=[[Fraction(1, 2), 0], [0, 1]])


def test_canonical_form():
    assert FormFlag.of([(3, 0), (5, 7)]).canonical == LEX1.canonical
    assert FormFlag.of([(1, 0), (1, 0), (2, 1)]).canonical == LEX1.canonical
    assert FormFlag.of([(1, 0), (0, 1), (1, 1)]).canonical == LEX1.canonical
    assert FormFlag.of([(2 * R2 + 2, 2 + R2)]).canonical == PLUS.canonical
    assert FormFlag.of([(-R2 - 2, -R2)]).canonical != PLUS.canonical
    assert LEX1.negated().canonical != LEX1.canonical
    assert FormFlag.of([(1, 1)]).canonical == FormFlag.of([(2, 2), (3, 3)]).canonical


def test_bounded_scans_no_longer_decide():
    nudged = FormFlag.of([(R2 + Fraction(1, 1000), 1)])
    assert vlo_equal(PLUS, nudged) == (False, (41, -58))
    assert not preserves([[1, Fraction(-1, 1000)], [0, 1]], PLUS)
    assert vlo_equal(FormFlag.of([(1, 0)]), FormFlag.of([(0, 1)])) == (False, (1, 0))
    with pytest.raises(UnsupportedFieldError):
        vlo_equal(LEX1, FormFlag.of([(1, 0), (0, 1)], d=3))


def test_probe_flags():
    assert len(probe_flags(2)) == 4
    assert len(probe_flags(3)) == 2
    assert {f.descriptor() for f in probe_flags(2)} == {
        "flag[(1,0);(0,1)]", "flag[(0,1);(1,0)]",
        "flag[(√2,1)]", "flag[(-√2,1)]"}


def test_comm_acts_trivially():
    assert comm_acts_trivially([[2, 0], [0, 2]]) == (True, None)
    half = Fraction(1, 2)
    assert comm_acts_trivially([[half, 0], [0, half]]) == (True, None)
    moved, flag = comm_acts_trivially(A)
    assert moved is False and flag.descriptor() == "flag[(1,0);(0,1)]"
    moved, flag = comm_acts_trivially([[1, 1], [0, 1]])
    assert moved is False and flag.descriptor() == "flag[(0,1);(1,0)]"
    moved, flag = comm_acts_trivially([[-1, 0], [0, -1]])
    assert moved is False and flag.descriptor() == "flag[(1,0);(0,1)]"
    with pytest.raises(ValueError):
        comm_acts_trivially([[1, 1], [1, 1]])


def _reference_form_sign(flag, v):
    """The first nonzero <v, u_i>, summed in QuadRat arithmetic."""
    for u in flag.vectors:
        total = QuadRat.of(0, 0, flag.d)
        for c, x in zip(v, u):
            total = total + Fraction(c) * x
        if total.sign():
            return total.sign()
    return 0


def _differential_flags(d):
    root = QuadRat.root(d)
    q = lambda a, b=0: QuadRat.of(a, b, d)
    rank2 = [
        [(root, 1)],
        [(-root, 1)],
        [(q(Fraction(1, 2), Fraction(-2, 3)), q(Fraction(3, 4)))],
        [(1, 1), (root, 0)],
        [(q(0, Fraction(5, 7)), q(-3, 2)), (0, 1)],
    ]
    rank3 = [
        [(root, 1, 0), (0, 0, 1)],
        [(q(Fraction(1, 2)), q(0, Fraction(-1, 3)), 2), (root, 0, q(Fraction(-1, 5))), (0, 1, 0)],
        [(q(1, -1), -root, q(3, Fraction(1, 2))), (0, 0, 1)],
    ]
    return ([FormFlag.of(f, d) for f in rank2], [FormFlag.of(f, d) for f in rank3])


@pytest.mark.parametrize("d", [2, 3, 5])
def test_integer_form_sign_matches_quadrat_reference(d):
    from ordlib.extensions import rational_plane
    rank2, rank3 = _differential_flags(d)
    plane = rational_plane().ball(4)
    for flag in rank2:
        assert flag.is_total()
        for v in list(Z2.ball(24)) + plane:
            assert flag.form_sign(v) == _reference_form_sign(flag, v), (flag, v)
    for flag in rank3:
        assert flag.is_total()
        for v in lattice_group(3).ball(6):
            assert flag.form_sign(v) == _reference_form_sign(flag, v), (flag, v)


def test_non_total_flag_signs_its_kernel_zero():
    flag = FormFlag.of([(1, 1)])
    assert not flag.is_total()
    assert flag.form_sign((1, -1)) == 0
    assert flag.form_sign((Fraction(-3, 2), Fraction(3, 2))) == 0
    for v in Z2.ball(24):
        assert flag.form_sign(v) == _reference_form_sign(flag, v)


def test_form_sign_rejects_a_rank_mismatch():
    with pytest.raises(ValueError):
        LEX1.form_sign((1, 2, 3))
    with pytest.raises(ValueError):
        LEX1.form_sign((1,))
    with pytest.raises(ValueError):
        FormFlag.of([(1, 0), (0, 1, 2)])


def _field_element(rng, d, positive=False):
    while True:
        x = QuadRat.of(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                       Fraction(rng.randint(-2, 2), rng.randint(1, 3)), d)
        if x.sign() > 0 or (x.sign() and not positive):
            return x


def _random_flag(rng, rank, d):
    def entry():
        roll = rng.random()
        if roll < 0.3:
            return QuadRat.of(0, 0, d)
        if roll < 0.7:
            return QuadRat.of(rng.randint(-3, 3), 0, d)
        return _field_element(rng, d)
    vectors = []
    while not vectors or len(vectors) < rng.randint(1, rank):
        u = tuple(entry() for _ in range(rank))
        if any(x.sign() for x in u):
            vectors.append(u)
    return vectors


def _respelled(rng, vectors, d):
    """The same sign map: each u_i times a positive field element, plus a
    field combination of the rational and sqrt-d parts of earlier vectors,
    with now and then a redundant vector inside the span so far."""
    out, parts = [], []
    for u in vectors:
        scale = _field_element(rng, d, positive=True)
        w = [scale * x for x in u]
        for p in parts:
            if rng.random() < 0.5:
                c = _field_element(rng, d)
                w = [x + c * y for x, y in zip(w, p)]
        out.append(tuple(w))
        parts += [[x.a for x in u], [x.b for x in u]]
        if rng.random() < 0.2:
            c = _field_element(rng, d)
            out.append(tuple(c * y for y in rng.choice(parts)))
    return out


def _near_miss(rng, vectors, d):
    roll = rng.random()
    if roll < 0.4:
        return _random_flag(rng, len(vectors[0]), d)
    out = _respelled(rng, vectors, d)
    i = rng.randrange(len(out))
    if roll < 0.6:
        out[i] = tuple(-x for x in out[i])
    elif roll < 0.8:
        j = rng.randrange(len(out[i]))
        out[i] = tuple(x + Fraction(1, rng.randint(2, 5)) * (k == j)
                       for k, x in enumerate(out[i]))
    else:
        out.reverse()
    return out


@pytest.mark.parametrize("d", [2, 3, 5])
def test_canonical_form_against_ball_scans(d):
    """1,000 seeded flag pairs per field over Z^2 and Z^3, a third of them
    positive respellings: respellings have equal canonical forms, equal
    canonical forms never meet a disagreement on ball(12) / ball(5), and
    nearly every unequal pair meets one there."""
    rng = random.Random(1000 + d)
    balls = {2: [v for v in Z2.ball(12) if any(v)],
             3: [v for v in lattice_group(3).ball(5) if any(v)]}
    equal = differ = 0
    for i in range(1000):
        rank = 2 if i % 2 else 3
        vectors = _random_flag(rng, rank, d)
        respell = i % 3 == 0
        other = _respelled(rng, vectors, d) if respell else _near_miss(rng, vectors, d)
        f1, f2 = FormFlag.of(vectors, d), FormFlag.of(other, d)
        same = f1.canonical == f2.canonical
        assert same or not respell, (vectors, other)
        hit = next((v for v in balls[rank] if f1.form_sign(v) != f2.form_sign(v)), None)
        assert not (same and hit), (vectors, other, hit)
        equal += same
        differ += hit is not None
    assert equal >= 334 and differ >= 0.9 * (1000 - equal)


def _expanded_key(v):
    """The lattice sort key spelled out letter by letter: l1 length, then
    e_i^c written as |c| copies of (i, 0) or (i, 1)."""
    letters = []
    for i, c in enumerate(v):
        letters.extend([(i, 0 if c > 0 else 1)] * abs(c))
    return (sum(map(abs, v)), tuple(letters))


def test_lattice_sort_key_orders_like_the_expanded_key():
    rng = random.Random(41)
    for _ in range(20_000):
        rank = rng.randint(1, 5)
        span = rng.choice((1, 3, 12))
        u, v = (tuple(rng.randint(-span, span) for _ in range(rank)) for _ in range(2))
        if rng.random() < 0.5:
            # same length, so the letters decide
            v = tuple(rng.sample(u, rank)) if rng.random() < 0.5 else tuple(-c for c in u)
        assert ((LatticeGroup.sort_key(u) < LatticeGroup.sort_key(v))
                == (_expanded_key(u) < _expanded_key(v))), (u, v)
    for rank, r in ((1, 30), (2, 21), (3, 8), (4, 5)):
        ball = lattice_group(rank).ball(r)
        assert ball == sorted(ball, key=_expanded_key)
    # one triple per entry, however large
    assert LatticeGroup.sort_key((1, -10**300)) == (10**300 + 1, ((0, False, -1),
                                                                  (1, True, -10**300)))


_BALL24 = [v for v in sorted(Z2.ball(24), key=_expanded_key) if any(v)]


def _scan_witness(f1, f2, basis):
    """The first disagreement of ball(24) of Z^2, in ball order, that lies
    in the sublattice spanned by the basis rows; None if there is none."""
    inverse = basis and mat_inverse(mat_from_rows(basis))
    for v in _BALL24:
        if f1.form_sign(v) != f2.form_sign(v) and (
                not basis or all(x.denominator == 1 for x in row_times_mat(v, inverse))):
            return v
    return None


@pytest.mark.parametrize("d", [2, 3, 5])
def test_vlo_witness_is_the_first_of_the_ball_on_z2(d):
    """1,000 seeded Z^2 pairs per field, flags that are not total and the
    basis 2I included: wherever a scan of ball(24) finds a disagreement,
    the exact witness is the one it finds, and every witness disagrees."""
    rng = random.Random(2000 + d)
    two = [[2, 0], [0, 2]]
    differ = found = 0
    for i in range(1000):
        vectors = _random_flag(rng, 2, d)
        other = _respelled(rng, vectors, d) if i % 5 == 0 else _near_miss(rng, vectors, d)
        f1, f2 = FormFlag.of(vectors, d), FormFlag.of(other, d)
        basis = two if i % 3 == 0 else None
        equal, witness = vlo_equal(f1, f2, basis1=basis)
        assert equal == (f1.canonical == f2.canonical)
        if equal:
            assert witness is None
            continue
        differ += 1
        assert f1.form_sign(witness) != f2.form_sign(witness), (vectors, other)
        if basis:
            assert all(c % 2 == 0 for c in witness)
        scan = _scan_witness(f1, f2, basis)
        if scan is not None:
            found += 1
            assert witness == scan, (vectors, other, basis)
    assert differ >= 550 and found >= 0.9 * differ


def _random_basis(rng, rank):
    while True:
        rows = [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(rank)]
        if mat_det(mat_from_rows(rows)):
            return rows


@pytest.mark.parametrize("rank", [3, 4, 5, 6])
def test_vlo_witness_in_higher_ranks(rank):
    """Seeded pairs with random sublattice bases: the verdict is the
    canonical one, and each witness disagrees and lies in both
    sublattices."""
    rng = random.Random(3000 + rank)
    for i in range(80):
        d = rng.choice((2, 3, 5))
        vectors = _random_flag(rng, rank, d)
        other = _respelled(rng, vectors, d) if i % 5 == 0 else _near_miss(rng, vectors, d)
        f1, f2 = FormFlag.of(vectors, d), FormFlag.of(other, d)
        bases = [_random_basis(rng, rank) if rng.random() < 0.5 else None for _ in range(2)]
        equal, witness = vlo_equal(f1, f2, *bases)
        assert equal == (f1.canonical == f2.canonical)
        if equal:
            assert witness is None
            continue
        assert f1.form_sign(witness) != f2.form_sign(witness), (vectors, other)
        for basis in filter(None, bases):
            image = row_times_mat(witness, mat_inverse(mat_from_rows(basis)))
            assert all(x.denominator == 1 for x in image), (witness, basis)


def test_disagreement_vector_is_exact():
    assert disagreement_vector(LEX1, FormFlag.of([(2, 0), (5, 7)])) is None
    assert disagreement_vector(LEX1, FormFlag.of([(1, Fraction(1, 1000)), (0, 1)])) == (1, -1000)
    rank3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    nudged = [(1, 0, 0), (0, 1, Fraction(1, 1000)), (0, 0, 1)]
    assert disagreement_vector(FormFlag.of(rank3), FormFlag.of(nudged)) == (0, 1, -1000)
    # a flag that stops early differs from one that goes on
    assert disagreement_vector(FormFlag.of([(1, 0, 0)]), FormFlag.of(rank3)) == (0, 1, 0)
    rank4 = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    assert disagreement_vector(FormFlag.of(rank4[:1]), FormFlag.of(rank4)) == (0, 1, 0, 0)
    with pytest.raises(ValueError):
        disagreement_vector(LEX1, FormFlag.of(rank3))


def test_vlo_witness_of_a_tiny_nudge_is_quick():
    start = time.perf_counter()
    nudged = FormFlag.of([(R2 + Fraction(1, 10**300), 1)])
    equal, witness = vlo_equal(PLUS, nudged)
    assert time.perf_counter() - start < 2.0
    assert not equal
    assert PLUS.form_sign(witness) == -1 and nudged.form_sign(witness) == 1


def test_vlo_witness_on_a_skew_sublattice():
    """The basis [[3,1],[1,2]] has index 5.  The witness is the first
    disagreement of Z^2, (1,-1), times 5; the first one of the sublattice
    in ball order would be (2,-1)."""
    assert vlo_equal(LEX1, LEX2, basis1=[[3, 1], [1, 2]]) == (False, (5, -5))
