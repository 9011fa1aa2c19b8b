"""Dense univariate polynomials over arbitrary-precision integers.

This is the package's one polynomial type: every constant, orbit value and
composition it builds has integer coefficients, and the Q[t] and Q(t)
algorithms in ratpoly work on these primitive integer representatives.
A polynomial is an immutable tuple of coefficients indexed by exponent,
with no trailing zeros.  The zero polynomial has the empty tuple and the
sentinel degree -1.  Critical orbit values over Z[t] are dense (every
coefficient of a composed square is nonzero), so the representation is
dense too.  Products of more than 16 terms by more than 16 terms go
through Kronecker substitution: both factors become one big integer, the
integers are multiplied once, and the product's coefficients are read back
from byte slots (D. Harvey, J. Symbolic Comput. 44 (2009)).
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

# Products where one factor has at most this many terms stay schoolbook.
_SCHOOLBOOK_TERMS = 16


def _strip(coeffs: Sequence[int]) -> tuple[int, ...]:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


class IntPolynomial:
    """Immutable dense polynomial with int coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = _strip(list(coeffs))
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficient expected, got {type(c).__name__}")
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, name, value):
        raise AttributeError("IntPolynomial is immutable")

    @property
    def degree(self) -> int:
        """Degree; -1 is the sentinel for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def leading_coefficient(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def constant_coefficient(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def coefficient(self, exp: int) -> int:
        return self.coeffs[exp] if 0 <= exp < len(self.coeffs) else 0

    def max_abs_coefficient(self) -> int:
        """Max absolute value over the coefficients (0 for the zero polynomial)."""
        return max((abs(c) for c in self.coeffs), default=0)

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, IntPolynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == _strip((other,))
        return NotImplemented

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __add__(self, other) -> "IntPolynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    __radd__ = __add__

    def __sub__(self, other) -> "IntPolynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "IntPolynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPolynomial()
        if min(len(a), len(b)) > _SCHOOLBOOK_TERMS:
            return IntPolynomial(_kronecker_product(a, b))
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "IntPolynomial":
        if n < 0:
            raise ValueError("negative power")
        result = IntPolynomial((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def evaluate(self, value):
        """Horner evaluation; works for any value supporting + and *."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def compose(self, inner: "IntPolynomial") -> "IntPolynomial":
        """self(inner(t)), by Horner over polynomials."""
        acc = IntPolynomial()
        for c in reversed(self.coeffs):
            acc = acc * inner + IntPolynomial((c,))
        return acc

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(tuple(i * c for i, c in enumerate(self.coeffs))[1:])

    def content(self) -> int:
        """Nonnegative gcd of the coefficients (0 for the zero polynomial)."""
        g = 0
        for c in self.coeffs:
            g = math.gcd(g, c)
            if g == 1:
                break
        return g

    def primitive_part(self) -> "IntPolynomial":
        """self divided by its content, normalized to positive leading coefficient."""
        if self.is_zero():
            return self
        g = self.content()
        if self.leading_coefficient() < 0:
            g = -g
        return IntPolynomial(tuple(c // g for c in self.coeffs))

    def divmod_exact_or_none(self, divisor: "IntPolynomial"):
        """Quotient if divisor divides self exactly in Z[t], else None."""
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return IntPolynomial()
        dd = divisor.degree
        dl = divisor.leading_coefficient()
        rem = list(self.coeffs)
        dn = self.degree
        if dn < dd:
            return None
        quot = [0] * (dn - dd + 1)
        for k in range(dn - dd, -1, -1):
            top = rem[k + dd]
            if top == 0:
                continue
            q, r = divmod(top, dl)
            if r:
                return None
            quot[k] = q
            for i, c in enumerate(divisor.coeffs):
                rem[k + i] -= q * c
        if any(rem[:dd]):
            return None
        return IntPolynomial(quot)

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)!r})"

    def __str__(self) -> str:
        return render_poly(self)


def _pack_signed(coeffs: Sequence[int], width: int, bias: int) -> int:
    """sum(c_i * 256^(width*i)) for coefficients with |c_i| < bias = 2^(8*width-1)."""
    biased = b"".join((c + bias).to_bytes(width, "little") for c in coeffs)
    return int.from_bytes(biased, "little") - _repeat_slot(bias, width, len(coeffs))


def _repeat_slot(value: int, width: int, count: int) -> int:
    return int.from_bytes(value.to_bytes(width, "little") * count, "little")


def _kronecker_product(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Coefficients of a*b from one big-integer product over width-byte slots.

    A product coefficient sums at most min(len) terms, so |c_k| < 2^bits <=
    bias = 2^(8*width-1).  Adding bias to every slot of x*y therefore puts
    each slot in [0, 2^(8*width)), where its bytes read back exactly.
    """
    bits = (
        max(map(abs, a)).bit_length()
        + max(map(abs, b)).bit_length()
        + min(len(a), len(b)).bit_length()
    )
    width = bits // 8 + 1
    bias = 1 << (8 * width - 1)
    x = _pack_signed(a, width, bias)
    y = x if b is a else _pack_signed(b, width, bias)
    n = len(a) + len(b) - 1
    raw = (x * y + _repeat_slot(bias, width, n)).to_bytes(width * n, "little")
    return [int.from_bytes(raw[i : i + width], "little") - bias for i in range(0, width * n, width)]


def _coerce(value):
    if isinstance(value, IntPolynomial):
        return value
    if isinstance(value, int):
        return IntPolynomial((value,))
    return NotImplemented


def render_poly(poly: IntPolynomial, var: str = "t") -> str:
    """Human/machine readable text form, highest power first, e.g. 7t^4+3."""
    if poly.is_zero():
        return "0"
    parts = []
    for exp in range(poly.degree, -1, -1):
        c = poly.coefficient(exp)
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        if exp == 0:
            body = str(mag)
        else:
            head = "" if mag == 1 else str(mag)
            body = f"{head}{var}" if exp == 1 else f"{head}{var}^{exp}"
        parts.append(sign + body)
    return "".join(parts)


def derivative_is_one_mod2(poly: IntPolynomial) -> bool:
    """poly' reduces to 1 mod 2: a_1 is odd and a_i is even for every odd i >= 3."""
    odd_exponent_coeffs = poly.coeffs[1::2]
    return (
        bool(odd_exponent_coeffs)
        and odd_exponent_coeffs[0] % 2 == 1
        and all(c % 2 == 0 for c in odd_exponent_coeffs[1:])
    )

