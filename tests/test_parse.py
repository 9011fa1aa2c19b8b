import pytest

from quadorbit.algebra import IntPolynomial, PolynomialSyntaxError, parse_poly, render_poly


@pytest.mark.parametrize(
    "text,coeffs",
    [
        ("7t^4+3", (3, 0, 0, 0, 7)),
        ("-(7t^4+3)", (-3, 0, 0, 0, -7)),
        ("t", (0, 1)),
        ("-t", (0, -1)),
        ("t^2-3t+2", (2, -3, 1)),
        ("2t^3+4", (4, 0, 0, 2)),
        ("5", (5,)),
        ("-5", (-5,)),
        ("0", ()),
        ("t^4 + 5t", (0, 5, 0, 0, 1)),
    ],
)
def test_parse(text, coeffs):
    assert parse_poly(text) == IntPolynomial(coeffs)


def test_parse_x_variable():
    assert parse_poly("x^2-2", var="x") == IntPolynomial((-2, 0, 1))


def test_roundtrip():
    for coeffs in [(3, 0, 0, 0, 7), (-2, 0, 1), (0, 5, 0, 0, 1), (1,), (-1, 1)]:
        p = IntPolynomial(coeffs)
        assert parse_poly(render_poly(p)) == p


@pytest.mark.parametrize("bad", ["", "t^", "t+", "2**t", "t^2 q", "x^2-2", "(", "-()"])
def test_parse_errors_carry_position(bad):
    with pytest.raises((PolynomialSyntaxError, ValueError)) as err:
        parse_poly(bad)
    if isinstance(err.value, PolynomialSyntaxError):
        assert err.value.position >= 0


def test_parenthesized_polynomial():
    assert parse_poly("(7t^4+3)") == parse_poly("7t^4+3")
    with pytest.raises(PolynomialSyntaxError) as err:
        parse_poly("()")
    assert err.value.position == 1
