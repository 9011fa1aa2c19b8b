"""Exact counting over coefficient boxes and the set-fraction bounds.

Everything here is integer/rational arithmetic: counts come from a closed
form over the constrained coefficients, and on request from direct
enumeration as an independent check.  The reported fractions
count s-element sets containing members with the relevant parity properties,
which is the quantity the lower-bound formulas control; they do not count
large-representation sequences directly.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

from . import _record

STAR_EVEN = "star_even"  # degree d even: a_d odd, a_1 odd, a_i even for odd 3 <= i <= d-1
ODD_DERIVATIVE = "odd_derivative"  # d odd: a_1 odd, a_i even for odd 3 <= i <= d
ODD_LEADING = "odd_leading"  # d odd: a_d odd
MONIC_DERIVATIVE = "monic_derivative"  # d even, monic: a_1 odd, a_i even for odd 3 <= i <= d-1

_PROPERTIES = (STAR_EVEN, ODD_DERIVATIVE, ODD_LEADING, MONIC_DERIVATIVE)


@_record(frozen=True)
class CoefficientBox:
    """Polynomials of degree <= d with coefficients bounded by B in absolute value.

    The monic flavor fixes the leading coefficient of degree exactly d to 1
    and boxes the remaining d coefficients.
    """

    d: int
    B: int
    monic: bool = False

    def __post_init__(self):
        if self.d < 1 or self.B < 1:
            raise ValueError("need d >= 1 and B >= 1")

    @property
    def size(self) -> int:
        width = 2 * self.B + 1
        return width**self.d if self.monic else width ** (self.d + 1)


def odd_count(B: int) -> int:
    """Number of odd integers in [-B, B]: 2*floor((B+1)/2)."""
    return 2 * ((B + 1) // 2)


def even_count(B: int) -> int:
    return 2 * B + 1 - odd_count(B)


def _constraints(prop: str, d: int) -> dict[int, str]:
    """Exponent -> 'odd'/'even' parity constraints; unlisted exponents are free."""
    if prop == STAR_EVEN:
        if d % 2 != 0:
            raise ValueError("star property needs even degree")
        cons = {d: "odd", 1: "odd"}
        cons.update({i: "even" for i in range(3, d, 2)})
        return cons
    if prop == ODD_DERIVATIVE:
        if d % 2 != 1:
            raise ValueError("the derivative property needs odd degree")
        cons = {1: "odd"}
        cons.update({i: "even" for i in range(3, d + 1, 2)})
        return cons
    if prop == ODD_LEADING:
        if d % 2 != 1:
            raise ValueError("the odd-leading property needs odd degree")
        return {d: "odd"}
    if prop == MONIC_DERIVATIVE:
        if d % 2 != 0:
            raise ValueError("the monic property needs even degree")
        cons = {1: "odd"}
        cons.update({i: "even" for i in range(3, d, 2)})
        return cons
    raise ValueError(f"unknown property {prop!r}; expected one of {_PROPERTIES}")


def _property_matches(coeffs: tuple[int, ...], prop: str, d: int) -> bool:
    cons = _constraints(prop, d)
    for exp, parity in cons.items():
        c = coeffs[exp]
        if parity == "odd" and c % 2 == 0:
            return False
        if parity == "even" and c % 2 == 1:
            return False
    return True


def count_property(box: CoefficientBox, prop: str, cross_check: bool = False) -> int:
    """Exact number of box members with the property.

    Closed form: product of #odd/#even/(2B+1) over the coefficient slots.
    With ``cross_check`` a direct enumeration must agree, and a mismatch
    raises.
    """
    if prop == MONIC_DERIVATIVE and not box.monic:
        raise ValueError("the monic property needs a monic box")
    if prop != MONIC_DERIVATIVE and box.monic:
        raise ValueError("non-monic properties need a full box")
    cons = _constraints(prop, box.d)
    width = 2 * box.B + 1
    exponents = range(box.d) if box.monic else range(box.d + 1)
    closed = 1
    for exp in exponents:
        kind = cons.get(exp)
        if kind == "odd":
            closed *= odd_count(box.B)
        elif kind == "even":
            closed *= even_count(box.B)
        else:
            closed *= width
    if cross_check:
        values = range(-box.B, box.B + 1)
        total = 0
        for combo in itertools.product(values, repeat=len(exponents)):
            coeffs = combo + (1,) if box.monic else combo
            if _property_matches(coeffs, prop, box.d):
                total += 1
        if total != closed:
            raise RuntimeError(
                f"closed form {closed} disagrees with enumeration {total} "
                f"for {prop} on {box}"
            )
    return closed


def r_d(d: int) -> Fraction:
    """Limiting density of the qualifying parity property for degree bound d."""
    if d < 1:
        raise ValueError("need d >= 1")
    if d % 2 == 0:
        return Fraction(1, 2) ** (d // 2 + 1)
    return Fraction(1, 2) ** ((d + 1) // 2)


def bound_formula(d: int, s: int, variant: str) -> Fraction:
    """Closed-form lower bound for the limiting fraction of qualifying s-sets."""
    if s < 1:
        raise ValueError("need s >= 1")
    r = r_d(d)
    if variant == "even":
        if d % 2 != 0:
            raise ValueError("even variant needs even d")
        return 1 - (1 - r) ** s
    if variant == "odd":
        if d % 2 != 1:
            raise ValueError("odd variant needs odd d")
        half = Fraction(1, 2)
        return 1 - (1 - r) ** s - half**s + (1 - r - half) ** s
    if variant == "monic":
        if d % 2 != 0:
            raise ValueError("monic variant needs even d")
        return 1 - (1 - Fraction(1, 2) ** (d // 2)) ** s
    raise ValueError(f"unknown variant {variant!r}")


def presence_fraction(d: int, s: int, B: int, prop: str) -> Fraction:
    """Exact fraction of s-element subsets containing >= 1 member with the property."""
    monic = prop == MONIC_DERIVATIVE
    box = CoefficientBox(d, B, monic=monic)
    total = box.size
    k = count_property(box, prop)
    if s > total:
        raise ValueError("s exceeds the box size")
    return Fraction(comb(total, s) - comb(total - k, s), comb(total, s))


def exact_set_fraction(d: int, s: int, B: int, variant: str) -> Fraction:
    """Exact fraction of s-element subsets matching the variant's requirement.

    Even/monic variant: at least one member with the qualifying property.
    Odd variant: at least one member with each of the two odd-degree
    properties, by four-term inclusion-exclusion; the two properties are
    disjoint for d >= 3 (they force opposite parities of the leading
    coefficient) and coincide at d = 1, and the joint count is exact either way.
    """
    if s < 1:
        raise ValueError("need s >= 1")
    if variant == "even":
        return presence_fraction(d, s, B, STAR_EVEN)
    if variant == "monic":
        return presence_fraction(d, s, B, MONIC_DERIVATIVE)
    if variant != "odd":
        raise ValueError(f"unknown variant {variant!r}")
    if d % 2 != 1:
        raise ValueError("odd variant needs odd d")
    box = CoefficientBox(d, B)
    total = box.size
    if s > total:
        raise ValueError("s exceeds the box size")
    k1 = count_property(box, ODD_DERIVATIVE)
    k2 = count_property(box, ODD_LEADING)
    k_both = k1 if d == 1 else 0
    neither = total - k1 - k2 + k_both
    joint = comb(total, s) - comb(total - k1, s) - comb(total - k2, s) + comb(neither, s)
    return Fraction(joint, comb(total, s))


@_record
class CensusRow:
    B: int
    fraction: Fraction
    bound: Fraction

    @property
    def deviation(self) -> Fraction:
        return abs(self.fraction - self.bound)


@_record
class CensusReport:
    d: int
    s: int
    variant: str
    rows: list[CensusRow] = []

    def to_dict(self) -> dict:
        return {
            "format_version": 1,
            "d": self.d,
            "s": self.s,
            "variant": self.variant,
            "rows": [
                {
                    "B": row.B,
                    "fraction_num": row.fraction.numerator,
                    "fraction_den": row.fraction.denominator,
                    "bound_num": row.bound.numerator,
                    "bound_den": row.bound.denominator,
                    "deviation": f"{row.deviation.numerator}/{row.deviation.denominator}",
                }
                for row in self.rows
            ],
        }

    def csv_rows(self) -> list[list[str]]:
        header = [
            "d",
            "s",
            "B",
            "fraction_num",
            "fraction_den",
            "bound_num",
            "bound_den",
            "deviation",
        ]
        out = [header]
        for row in self.rows:
            out.append(
                [
                    str(self.d),
                    str(self.s),
                    str(row.B),
                    str(row.fraction.numerator),
                    str(row.fraction.denominator),
                    str(row.bound.numerator),
                    str(row.bound.denominator),
                    f"{row.deviation.numerator}/{row.deviation.denominator}",
                ]
            )
        return out


def convergence_experiment(d: int, s: int, b_values: list[int], variant: str) -> CensusReport:
    """Exact fractions against the limiting bound for an increasing list of B."""
    if list(b_values) != sorted(set(b_values)):
        raise ValueError("B values must be strictly increasing")
    bound = bound_formula(d, s, variant)
    report = CensusReport(d=d, s=s, variant=variant)
    for B in b_values:
        report.rows.append(CensusRow(B=B, fraction=exact_set_fraction(d, s, B, variant), bound=bound))
    return report
