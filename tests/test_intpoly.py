import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import schoolbook_product
from quadorbit.algebra import IntPolynomial, derivative_is_one_mod2, render_poly

small_polys = st.lists(st.integers(-30, 30), min_size=0, max_size=7).map(IntPolynomial)


def test_trailing_zeros_stripped():
    assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPolynomial((0, 0)).is_zero()


def test_degree_sentinel():
    assert IntPolynomial(()).degree == -1
    assert IntPolynomial((5,)).degree == 0
    assert IntPolynomial((0, 0, 3)).degree == 2


@pytest.mark.parametrize(
    "f,g,expected",
    [
        # x^2+1 composed with the identity
        ((1, 0, 1), (0, 1), (1, 0, 1)),
        # t^2+t at t+1: expanded by hand and cross-checked pointwise below
        ((0, 1, 1), (1, 1), (2, 3, 1)),
        ((), (4, 5), ()),
    ],
)
def test_compose_examples(f, g, expected):
    assert IntPolynomial(f).compose(IntPolynomial(g)) == IntPolynomial(expected)


def test_compose_matches_pointwise_evaluation():
    f = IntPolynomial((0, 1, 1))
    g = IntPolynomial((1, 1))
    h = f.compose(g)
    for t in range(4):
        assert h.evaluate(t) == f.evaluate(g.evaluate(t))


def test_compose_degree_multiplies():
    f = IntPolynomial((3, 0, 2))
    g = IntPolynomial((1, 1, 0, 5))
    assert f.compose(g).degree == f.degree * g.degree


@given(small_polys, small_polys)
def test_mul_degree_and_commutativity(f, g):
    assert f * g == g * f
    if not f.is_zero() and not g.is_zero():
        assert (f * g).degree == f.degree + g.degree


wide_coeffs = st.integers(1, 40).flatmap(
    lambda n: st.lists(st.integers(-(2**300), 2**300), min_size=n, max_size=n)
).filter(lambda cs: cs[-1] != 0)


@settings(max_examples=200, deadline=None)
@given(wide_coeffs, wide_coeffs)
# Every product coefficient is a full sum of 40 extreme terms, and the factor
# sizes (300 + 299 bits) leave no spare bit in the byte-rounded slot width.
@example([2**300 - 1] * 40, [-(2**299 - 1)] * 40)
def test_mul_matches_schoolbook(a, b):
    # Lengths 1..40 put each factor on both sides of the 16-term cutoff.
    assert (IntPolynomial(a) * IntPolynomial(b)).coeffs == tuple(schoolbook_product(a, b))
    f = IntPolynomial(a)
    assert (f * f).coeffs == tuple(schoolbook_product(a, a))


@given(small_polys, small_polys)
def test_eval_is_ring_hom(f, g):
    for t in (-2, 0, 3):
        assert (f + g).evaluate(t) == f.evaluate(t) + g.evaluate(t)
        assert (f * g).evaluate(t) == f.evaluate(t) * g.evaluate(t)


def test_derivative_power_rule():
    assert IntPolynomial((0, 1, 1)).derivative() == IntPolynomial((1, 2))
    assert IntPolynomial((7,)).derivative().is_zero()


def test_exact_division():
    f = IntPolynomial((2, 3, 1))  # (t+1)(t+2)
    assert f.divmod_exact_or_none(IntPolynomial((1, 1))) == IntPolynomial((2, 1))
    assert f.divmod_exact_or_none(IntPolynomial((1, 2))) is None


def test_primitive_part_sign():
    f = IntPolynomial((-4, 0, -6))
    assert f.primitive_part() == IntPolynomial((2, 0, 3))
    assert f.content() == 2


def test_render():
    assert render_poly(IntPolynomial((3, 0, 0, 0, 7))) == "7t^4+3"
    assert render_poly(IntPolynomial((-3, 0, 0, 0, -7))) == "-7t^4-3"
    assert render_poly(IntPolynomial(())) == "0"
    assert render_poly(IntPolynomial((0, -1)), var="x") == "-x"


def test_derivative_is_one_mod2_matches_reduced_derivative():
    # Oracle: reduce the derivative's coefficients mod 2 and compare with 1.
    hits = 0
    for coeffs in itertools.product(range(-2, 3), repeat=6):
        p = IntPolynomial(coeffs)
        reduced = IntPolynomial(c % 2 for c in p.derivative().coeffs)
        expected = reduced == IntPolynomial((1,))
        hits += expected
        assert derivative_is_one_mod2(p) == expected, coeffs
    assert hits == 5**3 * 2 * 3 * 3  # a_1 odd, a_3 and a_5 even, the rest free
