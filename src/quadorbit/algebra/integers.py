"""Exact helpers on integers and rationals: square tests and the package's
prime sieve, which the prime scan and trial division both read."""

from __future__ import annotations

from array import array
from fractions import Fraction
from itertools import compress
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


def primes_in_range(lo: int, hi: int) -> array:
    """The primes in [lo, hi], sieved on the odd numbers of [lo, hi] only."""
    primes = array("Q", [2] if lo <= 2 <= hi else [])
    primes.extend(_odd_primes(max(lo, 3) | 1, hi))
    return primes


def _odd_primes(first: int, hi: int) -> compress:
    """The odd primes in [first, hi], first odd and at least 3: those that no
    odd prime up to sqrt(hi), found by a call to itself, divides.  Recursing
    here keeps a wrapper of ``primes_in_range`` at one call per sieve."""
    odd = range(first, hi + 1, 2)
    marks = bytearray(b"\x01") * len(odd)  # marks[i] stands for first + 2i
    if hi >= 9:  # below 3^2 no odd number is composite
        for p in _odd_primes(3, isqrt(hi)):
            # The odd multiples of p from max(p^2, first) on; smaller ones have a smaller factor.
            i = (p * (max(p, -(-first // p)) | 1) - first) // 2
            marks[i::p] = bytes(len(range(i, len(marks), p)))
    return compress(odd, marks)
