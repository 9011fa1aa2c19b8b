"""Exact helpers on rational numbers (fractions.Fraction carries the type)."""

from __future__ import annotations

from fractions import Fraction
from math import isqrt


def is_square_int(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def is_square_rational(q: Fraction | int) -> bool:
    """True iff q is the square of a rational."""
    q = Fraction(q)
    return is_square_int(q.numerator) and is_square_int(q.denominator)
