"""Polynomials over the rationals, stored as integer numerator / positive denominator.

GCDs run on primitive integer parts through a small-prime homomorphic image
first (a degree-0 image certifies coprimality outright) and a CRT lift with
trial division otherwise, so square-freeness certificates on degree-512
inputs stay cheap.  Square-free decomposition is Yun's iterated-gcd scheme;
no irreducible factorization happens anywhere in this package.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .factorint import is_probable_prime
from .intpoly import IntPolynomial
from .rationals import is_square_rational


class RatPolynomial:
    """Polynomial in Q[t]: IntPolynomial numerator over a positive int denominator.

    Invariant: gcd(denominator, content(numerator)) == 1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: IntPolynomial, den: int = 1):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            num, den = -num, -den
        g = math.gcd(num.content(), den)
        if g > 1:
            num = IntPolynomial(tuple(c // g for c in num.coeffs))
            den //= g
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatPolynomial is immutable")

    @classmethod
    def from_int(cls, poly: IntPolynomial | int) -> "RatPolynomial":
        if isinstance(poly, int):
            poly = IntPolynomial((poly,))
        return cls(poly, 1)

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[Fraction | int]) -> "RatPolynomial":
        fracs = [Fraction(c) for c in coeffs]
        den = math.lcm(*(f.denominator for f in fracs)) if fracs else 1
        return cls(IntPolynomial(tuple(int(f * den) for f in fracs)), den)

    @property
    def degree(self) -> int:
        return self.num.degree

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant()

    def coefficient(self, exp: int) -> Fraction:
        return Fraction(self.num.coefficient(exp), self.den)

    def leading_coefficient(self) -> Fraction:
        return Fraction(self.num.leading_coefficient(), self.den)

    def constant_value(self) -> Fraction:
        """The value as a rational; only valid for constant polynomials."""
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return Fraction(self.num.constant_coefficient(), self.den)

    def content(self) -> Fraction:
        """Signed rational content; zero polynomial has content 0."""
        c = Fraction(self.num.content(), self.den)
        return -c if self.num.leading_coefficient() < 0 else c

    def primitive(self) -> IntPolynomial:
        """Primitive integer part with positive leading coefficient."""
        return self.num.primitive_part()

    def evaluate(self, value: Fraction | int) -> Fraction:
        return Fraction(self.num.evaluate(Fraction(value)), self.den)

    def derivative(self) -> "RatPolynomial":
        return RatPolynomial(self.num.derivative(), self.den)

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __neg__(self) -> "RatPolynomial":
        return RatPolynomial(-self.num, self.den)

    def __add__(self, other) -> "RatPolynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RatPolynomial(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other) -> "RatPolynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RatPolynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "RatPolynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RatPolynomial(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def scale(self, q: Fraction | int) -> "RatPolynomial":
        q = Fraction(q)
        return RatPolynomial(self.num * q.numerator, self.den * q.denominator)

    def __repr__(self) -> str:
        return f"RatPolynomial({self.num!r}, {self.den})"

    def __str__(self) -> str:
        if self.den == 1:
            return str(self.num)
        return f"({self.num})/{self.den}"


def _coerce(value):
    if isinstance(value, RatPolynomial):
        return value
    if isinstance(value, IntPolynomial):
        return RatPolynomial(value, 1)
    if isinstance(value, int):
        return RatPolynomial(IntPolynomial((value,)), 1)
    if isinstance(value, Fraction):
        return RatPolynomial(IntPolynomial((value.numerator,)), value.denominator)
    return NotImplemented


# ---------------------------------------------------------------------------
# GCD machinery on primitive integer polynomials.

def _prime_stream():
    """Word-sized primes for homomorphic images, largest first for good reduction."""
    n = (1 << 62) + 1
    while True:
        if is_probable_prime(n):
            yield n
        n += 2


def _gcd_mod_p(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd of stripped coefficient lists over F_p."""
    while b:
        db = len(b) - 1
        inv = pow(b[-1], p - 2, p)
        r = a[:]
        for k in range(len(r) - 1, db - 1, -1):
            t = r[k]
            if t:
                t = t * inv % p
                off = k - db
                for i in range(db):
                    r[off + i] = (r[off + i] - t * b[i]) % p
                r[k] = 0
        while r and r[-1] == 0:
            r.pop()
        a, b = b, r
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def _symmetric(c: int, m: int) -> int:
    return c - m if 2 * c > m else c


def gcd_primitive(f: IntPolynomial, g: IntPolynomial, max_primes: int = 64) -> IntPolynomial:
    """Primitive gcd (positive leading coefficient) of integer polynomials.

    Modular images with CRT and a trial-division check; falls back to monic
    Euclid over Q if the prime budget somehow runs out.
    """
    if f.is_zero():
        return g.primitive_part()
    if g.is_zero():
        return f.primitive_part()
    f = f.primitive_part()
    g = g.primitive_part()
    if f.is_constant() or g.is_constant():
        return IntPolynomial((1,))
    lc_bound = math.gcd(f.leading_coefficient(), g.leading_coefficient())
    best_deg = min(f.degree, g.degree) + 1
    modulus = 0
    residues: list[int] = []
    used = 0
    for p in _prime_stream():
        if used >= max_primes:
            break
        if f.leading_coefficient() % p == 0 or g.leading_coefficient() % p == 0:
            continue
        used += 1
        h = _gcd_mod_p(f.reduce_mod(p), g.reduce_mod(p), p)
        deg = len(h) - 1
        if deg == 0:
            return IntPolynomial((1,))
        scale = lc_bound % p
        h = [c * scale % p for c in h]
        if deg < best_deg:
            best_deg = deg
            modulus, residues = p, h
        elif deg == best_deg:
            # CRT combine with the accumulated image.
            new = []
            m, q = modulus, p
            inv = pow(m % q, q - 2, q)
            for i in range(best_deg + 1):
                a = residues[i] if i < len(residues) else 0
                b = h[i]
                t = (b - a) % q * inv % q
                new.append(a + m * t)
            modulus *= p
            residues = new
        else:
            continue
        lifted = IntPolynomial(tuple(_symmetric(c % modulus, modulus) for c in residues))
        cand = lifted.primitive_part()
        if f.divmod_exact_or_none(cand) is not None and g.divmod_exact_or_none(cand) is not None:
            return cand
    return _gcd_rational_fallback(f, g)


def _gcd_rational_fallback(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    a = [Fraction(c) for c in f.coeffs]
    b = [Fraction(c) for c in g.coeffs]
    while b:
        db = len(b) - 1
        inv = 1 / b[-1]
        r = a[:]
        for k in range(len(r) - 1, db - 1, -1):
            t = r[k]
            if t:
                t = t * inv
                off = k - db
                for i in range(db):
                    r[off + i] -= t * b[i]
                r[k] = Fraction(0)
        while r and r[-1] == 0:
            r.pop()
        a, b = b, r
    den = math.lcm(*(c.denominator for c in a))
    return IntPolynomial(tuple(int(c * den) for c in a)).primitive_part()


def gcd_qt(f: RatPolynomial, g: RatPolynomial) -> RatPolynomial:
    """GCD in Q[t], returned as a primitive integer polynomial (positive lc)."""
    return RatPolynomial.from_int(gcd_primitive(f.primitive(), g.primitive()))


def is_squarefree(f: RatPolynomial) -> bool:
    """True iff f has no repeated factor in Q[t] (nonzero input)."""
    if f.is_zero():
        raise ValueError("square-freeness of the zero polynomial is undefined")
    if f.is_constant():
        return True
    p = f.primitive()
    return gcd_primitive(p, p.derivative()).is_constant()


def squarefree_decomposition(f: RatPolynomial) -> tuple[Fraction, list[tuple[RatPolynomial, int]]]:
    """Yun decomposition: f == unit * prod(factor_i ** multiplicity_i).

    Factors are primitive integer polynomials, pairwise coprime and square-free,
    with strictly increasing multiplicities.  Constants give an empty list.
    """
    if f.is_zero():
        raise ValueError("cannot decompose the zero polynomial")
    unit = f.content()
    if f.is_constant():
        return unit, []
    poly = f.primitive()
    a = gcd_primitive(poly, poly.derivative())
    out: list[tuple[RatPolynomial, int]] = []
    if a.is_constant():
        return unit, [(RatPolynomial.from_int(poly), 1)]
    b = poly.divmod_exact_or_none(a)
    c = poly.derivative().divmod_exact_or_none(a)
    d = c - b.derivative()
    i = 1
    while b.degree > 0:
        ai = gcd_primitive(b, d)
        if ai.degree > 0:
            out.append((RatPolynomial.from_int(ai), i))
        b = b.divmod_exact_or_none(ai)
        c = d.divmod_exact_or_none(ai)
        d = c - b.derivative()
        i += 1
    return unit, out


def is_square_qt(f: RatPolynomial) -> bool:
    """True iff f is the square of an element of Q(t) (equivalently of Q[t])."""
    if f.is_zero():
        return True
    if f.is_constant():
        return is_square_rational(f.constant_value())
    if f.degree % 2 == 1 or f.content() < 0:
        return False
    unit, parts = squarefree_decomposition(f)
    return all(mult % 2 == 0 for _, mult in parts) and is_square_rational(unit)


def is_square(value) -> bool:
    """Square test in the fraction field: rationals or rational polynomials."""
    if isinstance(value, RatPolynomial):
        return is_square_qt(value)
    return is_square_rational(value)


def square_in_quadratic_extension(a, m) -> bool:
    """Whether a is a square in K(sqrt(m)), for K = Q or Q(t).

    Uses the classical criterion: for non-square m, a is a square in
    K(sqrt(m)) iff a or a*m is a square in K.  Rejects degenerate m.
    """
    kinds = (isinstance(a, RatPolynomial), isinstance(m, RatPolynomial))
    if kinds[0] != kinds[1]:
        raise TypeError("a and m must live in the same field")
    if (m.is_zero() if kinds[1] else Fraction(m) == 0):
        raise ValueError("m must be nonzero")
    if is_square(m):
        raise ValueError("m must not be a square (the extension is degenerate)")
    if kinds[0]:
        return is_square_qt(a) or is_square_qt(a * m)
    a = Fraction(a)
    m = Fraction(m)
    return is_square_rational(a) or is_square_rational(a * m)


# ---------------------------------------------------------------------------
# Resultants and discriminants (subresultant pseudo-remainder chain).

def _pseudo_rem(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """prem(a, b): lc(b)^(deg a - deg b + 1) * a reduced mod b, all in Z[t]."""
    lb = b.leading_coefficient()
    e = a.degree - b.degree + 1
    r = a
    while not r.is_zero() and r.degree >= b.degree:
        shift = IntPolynomial.term(r.leading_coefficient(), r.degree - b.degree)
        r = r * lb - b * shift
        e -= 1
    if e > 0:
        r = r * (lb**e)
    return r


def resultant_int(a: IntPolynomial, b: IntPolynomial) -> int:
    """Resultant of nonzero integer polynomials, exact."""
    if a.is_zero() or b.is_zero():
        raise ValueError("resultant of the zero polynomial is undefined")
    sign = 1
    if a.degree < b.degree:
        if (a.degree * b.degree) % 2 == 1:
            sign = -sign
        a, b = b, a
    if b.degree == 0:
        return sign * b.leading_coefficient() ** a.degree
    ca, cb = a.content(), b.content()
    acc = ca**b.degree * cb**a.degree
    a = IntPolynomial(tuple(c // ca for c in a.coeffs))
    b = IntPolynomial(tuple(c // cb for c in b.coeffs))
    g = h = 1
    while True:
        delta = a.degree - b.degree
        if a.degree % 2 == 1 and b.degree % 2 == 1:
            sign = -sign
        r = _pseudo_rem(a, b)
        a = b
        b_scale = g * h**delta
        if r.is_zero():
            return 0
        b = IntPolynomial(tuple(c // b_scale for c in r.coeffs))
        g = a.leading_coefficient()
        h = g**delta // h ** (delta - 1) if delta > 0 else h
        if b.degree <= 0:
            break
    h = b.leading_coefficient() ** a.degree // h ** (a.degree - 1) if a.degree > 0 else 1
    return sign * acc * h


def resultant(f: RatPolynomial, g: RatPolynomial) -> Fraction:
    """Resultant over Q, rejecting zero inputs."""
    if f.is_zero() or g.is_zero():
        raise ValueError("resultant of the zero polynomial is undefined")
    r = resultant_int(f.num, g.num)
    return Fraction(r, f.den**g.degree * g.den**f.degree)


def discriminant(f: RatPolynomial) -> Fraction:
    """disc(f) = (-1)^(d(d-1)/2) Res(f, f') / lc(f)."""
    if f.is_zero():
        raise ValueError("discriminant of the zero polynomial is undefined")
    d = f.degree
    if d < 1:
        raise ValueError("discriminant needs degree >= 1")
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * resultant(f, f.derivative()) / f.leading_coefficient()
