from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import padic_valuation
from quadorbit.algebra import is_square_rational

nonzero_rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=40
).filter(lambda q: q != 0)


@pytest.mark.parametrize(
    "q,p,expected",
    [
        (Fraction(-3, 4), 2, -2),
        (Fraction(3, 2), 2, -1),
        (Fraction(5), 3, 0),
        (Fraction(18), 3, 2),
        (Fraction(1, 27), 3, -3),
    ],
)
def test_padic_examples(q, p, expected):
    assert padic_valuation(q, p) == expected


def test_padic_rejects_zero():
    with pytest.raises(ValueError):
        padic_valuation(Fraction(0), 2)


@given(nonzero_rationals, nonzero_rationals, st.sampled_from([2, 3, 5, 7]))
def test_padic_additive(a, b, p):
    assert padic_valuation(a * b, p) == padic_valuation(a, p) + padic_valuation(b, p)


@pytest.mark.parametrize(
    "q,expected",
    [(Fraction(4, 9), True), (Fraction(-4, 9), False), (Fraction(0), True), (Fraction(2), False)],
)
def test_is_square(q, expected):
    assert is_square_rational(q) is expected


@given(nonzero_rationals)
def test_squares_are_squares(q):
    assert is_square_rational(q * q)
