"""Exact arithmetic substrate: integers, rationals, and polynomials over Z, Q, F2."""

from fractions import Fraction

from .f2poly import F2Polynomial, reduce_mod2
from .factorint import FactorBudget, Factorization, factor_integer, is_probable_prime
from .intpoly import IntPolynomial, render_poly
from .parse import PolynomialSyntaxError, parse_poly
from .rationals import is_square_int, is_square_rational, padic_valuation
from .ratpoly import (
    RatPolynomial,
    discriminant,
    gcd_primitive,
    gcd_qt,
    is_square,
    is_square_qt,
    is_squarefree,
    resultant,
    resultant_int,
    square_in_quadratic_extension,
    squarefree_decomposition,
)


def poly_compose(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    """f(g(t))."""
    return f.compose(g)


__all__ = [
    "Fraction",
    "F2Polynomial",
    "FactorBudget",
    "Factorization",
    "IntPolynomial",
    "PolynomialSyntaxError",
    "RatPolynomial",
    "discriminant",
    "factor_integer",
    "gcd_primitive",
    "gcd_qt",
    "is_probable_prime",
    "is_square",
    "is_square_int",
    "is_square_qt",
    "is_square_rational",
    "is_squarefree",
    "padic_valuation",
    "parse_poly",
    "poly_compose",
    "reduce_mod2",
    "render_poly",
    "resultant",
    "resultant_int",
    "square_in_quadratic_extension",
    "squarefree_decomposition",
]
