"""Exact arithmetic substrate: integers, rationals, and integer polynomials
standing for elements of Q[t] and Q(t)."""

from fractions import Fraction

from .factorint import FactorBudget, Factorization, factor_integer, is_probable_prime
from .intpoly import IntPolynomial, derivative_is_one_mod2, render_poly
from .parse import PolynomialSyntaxError, parse_poly
from .rationals import is_square_int, is_square_rational, padic_valuation
from .ratpoly import (
    discriminant,
    gcd_primitive,
    is_square,
    is_square_qt,
    is_squarefree,
    resultant,
    square_in_quadratic_extension,
    squarefree_decomposition,
)


__all__ = [
    "Fraction",
    "FactorBudget",
    "Factorization",
    "IntPolynomial",
    "PolynomialSyntaxError",
    "derivative_is_one_mod2",
    "discriminant",
    "factor_integer",
    "gcd_primitive",
    "is_probable_prime",
    "is_square",
    "is_square_int",
    "is_square_qt",
    "is_square_rational",
    "is_squarefree",
    "padic_valuation",
    "parse_poly",
    "render_poly",
    "resultant",
    "square_in_quadratic_extension",
    "squarefree_decomposition",
]
