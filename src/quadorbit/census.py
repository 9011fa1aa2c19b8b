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
from math import comb, prod

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
    def slots(self) -> int:
        """The boxed coefficients: a_0..a_(d-1) when monic, else a_0..a_d."""
        return self.d if self.monic else self.d + 1

    @property
    def size(self) -> int:
        return (2 * self.B + 1) ** self.slots


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


def _density(prop: str, d: int) -> Fraction:
    """Limiting density of the property: 1/2 per constrained coefficient."""
    return Fraction(1, 2) ** len(_constraints(prop, d))


def _property_matches(coeffs: tuple[int, ...], prop: str, d: int) -> bool:
    return all(coeffs[exp] % 2 == (parity == "odd") for exp, parity in _constraints(prop, d).items())


def _table_count(box: CoefficientBox, cons: dict[int, str]) -> int:
    """Box members that meet the parity table: #odd/#even/(2B+1) multiplied over the slots."""
    choices = {"odd": odd_count(box.B), "even": even_count(box.B), None: 2 * box.B + 1}
    return prod(choices[cons.get(exp)] for exp in range(box.slots))


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
    closed = _table_count(box, _constraints(prop, box.d))
    if cross_check:
        values = range(-box.B, box.B + 1)
        total = 0
        for combo in itertools.product(values, repeat=box.slots):
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
    """Limiting density of the qualifying parity property for degree bound d:
    the star property for even d, the derivative property for odd d."""
    if d < 1:
        raise ValueError("need d >= 1")
    return _density(ODD_DERIVATIVE if d % 2 else STAR_EVEN, d)


# Variant -> (the parity of d it needs, the properties of which an s-set
# must hold a member each).
_VARIANTS = {
    "even": (0, (STAR_EVEN,)),
    "odd": (1, (ODD_DERIVATIVE, ODD_LEADING)),
    "monic": (0, (MONIC_DERIVATIVE,)),
}


def _required(d: int, variant: str) -> tuple[str, ...]:
    if variant not in _VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    parity, props = _VARIANTS[variant]
    if d % 2 != parity:
        raise ValueError(f"{variant} variant needs {('even', 'odd')[parity]} d")
    return props


def bound_formula(d: int, s: int, variant: str) -> Fraction:
    """Closed-form lower bound for the limiting fraction of qualifying s-sets.

    From the limiting densities of the variant's properties: 1 - (1 - r)^s
    for one, and the paper's 1 - (1 - r1)^s - (1 - r2)^s + (1 - r1 - r2)^s
    for two, which takes them as disjoint.  The two odd properties are
    disjoint for d >= 3, but at d = 1 both say "a_1 odd", so there the exact
    fractions tend to 1 - 2^(-s) while this bound is 1 - 2^(1-s): at s = 2
    the deviation tends to 1/4 as B grows, instead of to 0.
    """
    if s < 1:
        raise ValueError("need s >= 1")
    if d < 1:
        raise ValueError("need d >= 1")
    r, *rest = (_density(prop, d) for prop in _required(d, variant))
    if not rest:
        return 1 - (1 - r) ** s
    (r2,) = rest
    return 1 - (1 - r) ** s - (1 - r2) ** s + (1 - r - r2) ** s


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
    """Exact fraction of s-element subsets holding a member with each of the
    variant's properties.

    One property: ``presence_fraction``.  Two: four-term inclusion-exclusion,
    where the members with both meet the two parity tables merged, and there
    are none when the tables conflict.  The two odd-degree properties
    conflict for d >= 3 (they force opposite parities of the leading
    coefficient) and coincide at d = 1.
    """
    if s < 1:
        raise ValueError("need s >= 1")
    props = _required(d, variant)
    if len(props) == 1:
        return presence_fraction(d, s, B, props[0])
    box = CoefficientBox(d, B)
    total = box.size
    if s > total:
        raise ValueError("s exceeds the box size")
    a, b = (_constraints(prop, d) for prop in props)
    conflict = any(a[exp] != b[exp] for exp in a.keys() & b.keys())
    k1, k2 = _table_count(box, a), _table_count(box, b)
    neither = total - k1 - k2 + (0 if conflict else _table_count(box, a | b))
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
        header = ["d", "s", "B", "fraction_num", "fraction_den", "bound_num", "bound_den", "deviation"]
        return [header] + [
            [str(self.d), str(self.s)] + [str(row[key]) for key in header[2:]] for row in self.to_dict()["rows"]
        ]


def convergence_experiment(d: int, s: int, b_values: list[int], variant: str) -> CensusReport:
    """Exact fractions against the limiting bound for an increasing list of B.

    The deviation shrinks as B grows, except for the odd variant at d = 1,
    where the bound leaves a gap (``bound_formula``): at s = 2 and B = 1, 2,
    4, 8, 16 it is 5/12, 3/20, 7/36, 15/68, 31/132, tending to 1/4.
    """
    if list(b_values) != sorted(set(b_values)):
        raise ValueError("B values must be strictly increasing")
    bound = bound_formula(d, s, variant)
    report = CensusReport(d=d, s=s, variant=variant)
    for B in b_values:
        report.rows.append(CensusRow(B=B, fraction=exact_set_fraction(d, s, B, variant), bound=bound))
    return report
