"""Exact quadratic arithmetic: signs decided without floats."""

from fractions import Fraction

import pytest

from ordlib.quadfield import QuadRat, UnsupportedFieldError

R2 = QuadRat.root(2)


def test_constructor_coerces_to_fraction():
    q = QuadRat(1, 2)
    assert q.a == Fraction(1) and q.b == Fraction(2) and q.d == 2


def test_square_d_rejected():
    with pytest.raises(UnsupportedFieldError):
        QuadRat(0, 1, 4)
    with pytest.raises(UnsupportedFieldError):
        QuadRat(0, 1, 12)


def test_field_arithmetic():
    assert R2 * R2 == 2
    assert (1 + R2) * (1 - R2) == -1
    assert (1 + R2) * (-1 + R2) == 1
    assert (3 + R2) - (1 + R2) == 2
    assert 1 / (1 + R2) == -1 + R2
    assert (QuadRat(2, 3) / QuadRat(2, 3)) == 1


def test_mixed_field_arithmetic_rejected():
    with pytest.raises(UnsupportedFieldError):
        QuadRat.root(2) + QuadRat.root(3)


def test_rational_operands_coerce():
    assert Fraction(1, 2) + R2 == QuadRat(Fraction(1, 2), 1)
    assert 3 * R2 == QuadRat(0, 3)
    assert R2 - 1 == QuadRat(-1, 1)


def test_sign_easy_cases():
    assert QuadRat(0, 0).sign() == 0
    assert QuadRat(3, 0).sign() == 1
    assert QuadRat(0, -1).sign() == -1
    assert QuadRat(1, 1).sign() == 1
    assert QuadRat(-1, -1).sign() == -1


def test_sign_near_cancellation_is_exact():
    # convergents of sqrt(2): p - q*sqrt(2) alternates and shrinks
    assert QuadRat(3, -2).sign() == 1
    assert QuadRat(7, -5).sign() == -1
    assert QuadRat(17, -12).sign() == 1
    assert QuadRat(577, -408).sign() == 1
    assert QuadRat(-577, 408).sign() == -1
    assert QuadRat(Fraction(99), -70).sign() == 1
    assert QuadRat(Fraction(-99, 70), 1).sign() == -1


def test_total_order():
    assert QuadRat(1, -1) < 0 < R2 < QuadRat(3, -1) < 2
    assert max(R2, Fraction(3, 2)) == Fraction(3, 2)


def test_norm_and_conjugate():
    q = QuadRat(3, 1)
    assert q.norm == 7
    assert q * QuadRat(3, -1) == 7


def test_hash_agrees_with_rational_equality():
    assert hash(QuadRat(Fraction(3, 2), 0)) == hash(Fraction(3, 2))
    assert QuadRat(Fraction(3, 2), 0) == Fraction(3, 2)
    assert len({R2, QuadRat(0, 1), 1 + R2}) == 2


def test_str_forms():
    assert str(R2) == "√2"
    assert str(-R2) == "-√2"
    assert str(1 + R2) == "1+√2"
    assert str(QuadRat(-1, 1)) == "-1+√2"
    assert str(QuadRat(1, -1)) == "1-√2"
    assert str(QuadRat(0, 2)) == "2√2"
    assert str(QuadRat(Fraction(1, 2), 0)) == "1/2"
    assert str(QuadRat(0, 0)) == "0"
    assert str(QuadRat.root(3)) == "√3"
