import itertools
from fractions import Fraction
from math import comb

import pytest

from quadorbit.algebra import IntPolynomial
from quadorbit.census import (
    MONIC_DERIVATIVE,
    ODD_DERIVATIVE,
    ODD_LEADING,
    STAR_EVEN,
    CoefficientBox,
    bound_formula,
    convergence_experiment,
    count_property,
    even_count,
    exact_set_fraction,
    odd_count,
    presence_fraction,
    r_d,
)
from quadorbit.certify import tool_conditions
from quadorbit.dynamics import QT, GeneratorSet


def brute_force_box(d, B, monic=False):
    """All coefficient tuples of the box, exponent order, leading 1 appended for monic."""
    values = range(-B, B + 1)
    if monic:
        return [combo + (1,) for combo in itertools.product(values, repeat=d)]
    return list(itertools.product(values, repeat=d + 1))


def has_property(coeffs, prop, d):
    if prop == STAR_EVEN:
        return (
            coeffs[d] % 2 == 1
            and coeffs[1] % 2 == 1
            and all(coeffs[i] % 2 == 0 for i in range(3, d, 2))
        )
    if prop == ODD_DERIVATIVE:
        return coeffs[1] % 2 == 1 and all(coeffs[i] % 2 == 0 for i in range(3, d + 1, 2))
    if prop == ODD_LEADING:
        return coeffs[d] % 2 == 1
    if prop == MONIC_DERIVATIVE:
        return coeffs[1] % 2 == 1 and all(coeffs[i] % 2 == 0 for i in range(3, d, 2))
    raise AssertionError(prop)


class TestCounts:
    @pytest.mark.parametrize("B,expected", [(1, 2), (2, 2), (3, 4), (4, 4), (5, 6), (6, 6)])
    def test_odd_count(self, B, expected):
        assert odd_count(B) == expected
        assert odd_count(B) + even_count(B) == 2 * B + 1

    @pytest.mark.parametrize(
        "d,B,prop,monic,expected",
        [
            (2, 1, STAR_EVEN, False, 12),
            (1, 1, ODD_DERIVATIVE, False, 6),
            (2, 1, MONIC_DERIVATIVE, True, 6),
            (1, 1, ODD_LEADING, False, 6),
        ],
    )
    def test_fixed_counts(self, d, B, prop, monic, expected):
        box = CoefficientBox(d, B, monic=monic)
        assert count_property(box, prop, cross_check=True) == expected

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("B", [1, 2, 3, 4])
    def test_closed_form_equals_enumeration(self, d, B):
        # the library raises internally on mismatch when cross-checking;
        # verify independently against this module's own brute force too
        if d % 2 == 0:
            props = [(STAR_EVEN, False), (MONIC_DERIVATIVE, True)]
        else:
            props = [(ODD_DERIVATIVE, False), (ODD_LEADING, False)]
        for prop, monic in props:
            box = CoefficientBox(d, B, monic=monic)
            got = count_property(box, prop, cross_check=True)
            brute = sum(1 for coeffs in brute_force_box(d, B, monic) if has_property(coeffs, prop, d))
            assert got == brute

    def test_parity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            count_property(CoefficientBox(3, 1), STAR_EVEN)
        with pytest.raises(ValueError):
            count_property(CoefficientBox(2, 1), MONIC_DERIVATIVE)

    def test_density_error_bound(self):
        # |count/size - limit| <= (#constrained coefficients)/(2B+1)
        for d, prop, monic, constrained in [
            (2, STAR_EVEN, False, 2),
            (4, STAR_EVEN, False, 3),
            (3, ODD_DERIVATIVE, False, 2),
            (2, MONIC_DERIVATIVE, True, 1),
        ]:
            limit = r_d(d) if prop != MONIC_DERIVATIVE else Fraction(1, 2) ** (d // 2)
            if prop == ODD_LEADING:
                limit = Fraction(1, 2)
            for B in range(1, 7):
                box = CoefficientBox(d, B, monic=monic)
                frac = Fraction(count_property(box, prop, cross_check=False), box.size)
                assert abs(frac - limit) <= Fraction(constrained, 2 * B + 1)


class TestBounds:
    @pytest.mark.parametrize("d,expected", [(1, Fraction(1, 2)), (2, Fraction(1, 4)), (3, Fraction(1, 4)), (4, Fraction(1, 8))])
    def test_r_d_closed_form(self, d, expected):
        # (1/2)^(d/2+1) for even d, (1/2)^((d+1)/2) for odd d
        assert r_d(d) == expected

    def test_bound_formulas(self):
        assert bound_formula(2, 2, "even") == 1 - (1 - r_d(2)) ** 2
        assert bound_formula(1, 2, "odd") == Fraction(1, 2)
        assert bound_formula(2, 3, "monic") == Fraction(7, 8)

    def test_parity_checked(self):
        with pytest.raises(ValueError):
            bound_formula(3, 2, "even")
        with pytest.raises(ValueError):
            bound_formula(2, 2, "odd")

    def test_bound_tends_to_one(self):
        prev = Fraction(0)
        for s in range(1, 40):
            cur = bound_formula(2, s, "even")
            assert cur >= prev
            prev = cur
        assert prev > Fraction(99, 100)


class TestSetFractions:
    def test_presence_example(self):
        assert presence_fraction(1, 2, 1, ODD_DERIVATIVE) == Fraction(11, 12)

    def test_single_element_sets(self):
        for d, B, prop in [(1, 1, ODD_DERIVATIVE), (2, 2, STAR_EVEN)]:
            box = CoefficientBox(d, B)
            k = count_property(box, prop, cross_check=False)
            assert presence_fraction(d, 1, B, prop) == Fraction(k, box.size)

    def test_even_variant_example(self):
        assert exact_set_fraction(2, 2, 1, "even") == Fraction(246, 351)

    def test_even_variant_brute_force(self):
        polys = brute_force_box(2, 1)
        hits = 0
        total = 0
        for pair in itertools.combinations(polys, 2):
            total += 1
            if any(has_property(c, STAR_EVEN, 2) for c in pair):
                hits += 1
        assert exact_set_fraction(2, 2, 1, "even") == Fraction(hits, total)
        assert total == comb(27, 2)

    def test_odd_variant_brute_force(self):
        for B in (1, 2):
            polys = brute_force_box(1, B)
            hits = 0
            total = 0
            for pair in itertools.combinations(polys, 2):
                total += 1
                if any(has_property(c, ODD_DERIVATIVE, 1) for c in pair) and any(
                    has_property(c, ODD_LEADING, 1) for c in pair
                ):
                    hits += 1
            assert exact_set_fraction(1, 2, B, "odd") == Fraction(hits, total)

    def test_odd_variant_d3_brute_force(self):
        polys = brute_force_box(3, 1)
        hits = total = 0
        for pair in itertools.combinations(polys, 2):
            total += 1
            if any(has_property(c, ODD_DERIVATIVE, 3) for c in pair) and any(
                has_property(c, ODD_LEADING, 3) for c in pair
            ):
                hits += 1
        assert exact_set_fraction(3, 2, 1, "odd") == Fraction(hits, total)

    def test_monotone_in_s(self):
        prev = Fraction(0)
        for s in range(1, 8):
            cur = exact_set_fraction(2, s, 2, "even")
            assert 0 <= cur <= 1
            assert cur >= prev
            prev = cur


class TestConvergence:
    def test_deviation_shrinks(self):
        report = convergence_experiment(2, 2, [1, 2, 4, 8, 16], "even")
        devs = [row.deviation for row in report.rows]
        assert all(a > b for a, b in zip(devs, devs[1:]))

    def test_requires_increasing_b(self):
        with pytest.raises(ValueError):
            convergence_experiment(2, 2, [4, 2], "even")

    def test_csv_shape(self):
        report = convergence_experiment(1, 3, [1, 2], "odd")
        rows = report.csv_rows()
        assert rows[0] == ["d", "s", "B", "fraction_num", "fraction_den", "bound_num", "bound_den", "deviation"]
        assert len(rows) == 3

    @pytest.mark.parametrize("d,variant", [(1, "odd"), (2, "even"), (2, "monic"), (3, "odd"), (4, "even"), (4, "monic")])
    def test_csv_cells_equal_json_fields(self, d, variant):
        # Each CSV cell is the JSON field of the same name, d and s from the report.
        report = convergence_experiment(d, 2, [1, 2, 3], variant)
        payload = report.to_dict()
        header, *rows = report.csv_rows()
        assert len(rows) == len(payload["rows"]) == 3
        for cells, row in zip(rows, payload["rows"]):
            fields = {"d": payload["d"], "s": payload["s"], **row}
            assert cells == [str(fields[key]) for key in header]

    def test_odd_bound_gap_at_degree_one(self):
        # At d = 1 both odd properties say "a_1 odd", so the exact fractions
        # tend to 1 - 2^(-s) = 3/4, while the bound, which takes the two as
        # disjoint, is 1 - 2^(1-s) = 1/2.
        fraction = exact_set_fraction(1, 2, 200, "odd")
        assert abs(fraction - Fraction(3, 4)) <= Fraction(1, 100)
        assert fraction - bound_formula(1, 2, "odd") >= Fraction(1, 5)


# The properties of which a counted set holds a member each.
REQUIRED = {"even": [STAR_EVEN], "odd": [ODD_DERIVATIVE, ODD_LEADING], "monic": [MONIC_DERIVATIVE]}


@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.parametrize("d,variant", [(1, "odd"), (2, "even"), (3, "odd"), (2, "monic"), (4, "monic")])
def test_counted_sets_meet_tool_conditions(d, variant, s):
    # Every set that census counts, taken as constants over Z[t], is one
    # whose maximality certificate's tool conditions hold.
    box = brute_force_box(d, 1, monic=variant == "monic")
    counted = 0
    for subset in itertools.combinations(box, s):
        if all(any(has_property(c, prop, d) for c in subset) for prop in REQUIRED[variant]):
            counted += 1
            gens = GeneratorSet.from_constants([IntPolynomial(c) for c in subset], ring=QT)
            assert tool_conditions(gens) is not None, subset
    assert counted == exact_set_fraction(d, s, 1, variant) * comb(len(box), s)
