import random
from fractions import Fraction

import pytest

from solvpoly.coeff import (
    BadScalarLiteral,
    DivisionByZero,
    FieldSpec,
    MixedFields,
)


@pytest.fixture(params=["Rationals", "PrimeField"])
def field(request):
    if request.param == "Rationals":
        return FieldSpec("Rationals")
    return FieldSpec("PrimeField", characteristic=7)


def test_field_axioms_sampled(field):
    rnd = random.Random(7)
    zero, one = field.zero, field.one
    for _ in range(200):
        a = field.scalar(rnd.randint(-9, 9), rnd.randint(1, 6))
        b = field.scalar(rnd.randint(-9, 9), rnd.randint(1, 6))
        c = field.scalar(rnd.randint(-9, 9), rnd.randint(1, 6))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a
        assert a * one == a
        assert a - a == zero
        if not a.is_zero():
            assert a * a.inverse() == one


def test_division_and_inverse_errors(field):
    zero = field.zero
    with pytest.raises(DivisionByZero):
        zero.inverse()
    with pytest.raises(DivisionByZero):
        field.one / zero
    with pytest.raises(DivisionByZero):
        field.scalar(1, 0)


def test_prime_field_reduces_canonically():
    gf7 = FieldSpec("PrimeField", characteristic=7)
    assert gf7.scalar(9) == gf7.scalar(2)
    assert gf7.scalar(-1) == gf7.scalar(6)
    assert gf7.scalar(1, 3) * gf7.scalar(3) == gf7.one


def test_prime_field_reads_a_fraction_numerator_whole():
    gf7 = FieldSpec("PrimeField", characteristic=7)
    assert gf7.scalar(Fraction(1, 2)).value == 4
    assert gf7.scalar(Fraction(3, 2), 5).value == 1
    assert gf7.scalar(Fraction(-5, 3), 2) == gf7.scalar(-5, 6)
    assert gf7.scalar(Fraction(7, 2), 7) == gf7.scalar(1, 2)
    with pytest.raises(DivisionByZero):
        gf7.scalar(Fraction(1, 7))
    with pytest.raises(DivisionByZero):
        gf7.scalar(Fraction(2, 3), 14)
    # the integer path keeps its unreduced denominator
    with pytest.raises(DivisionByZero):
        gf7.scalar(7, 7)


def test_literals(field):
    assert field.from_literal("3/4") == field.scalar(3, 4)
    assert field.from_literal("-2") == field.scalar(-2)
    with pytest.raises(BadScalarLiteral):
        field.from_literal("3//4")


def test_mixed_fields_rejected():
    q = FieldSpec("Rationals")
    gf = FieldSpec("PrimeField", characteristic=5)
    with pytest.raises(MixedFields):
        q.one + gf.one


def test_field_spec_validation():
    with pytest.raises(ValueError):
        FieldSpec("Reals")
    with pytest.raises(ValueError):
        FieldSpec("PrimeField", characteristic=6)
    with pytest.raises(ValueError):
        FieldSpec("PrimeField")
