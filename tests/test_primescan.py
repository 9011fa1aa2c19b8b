from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import brute_force_membership, gamma_values, zero_levels
from quadorbit.dynamics import GeneratorSet, SequenceCoding
from quadorbit.primescan import (
    PrimeOrbitResult,
    density_profile,
    fpp_comparison,
    prime_divides_orbit,
    primes_up_to,
    zero_pattern,
)

CONST = SequenceCoding.constant(1)
X2P1 = GeneratorSet.from_constants([1])


class TestSieve:
    def test_small(self):
        assert list(primes_up_to(30)) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_pi_values(self):
        assert sum(1 for _ in primes_up_to(10**3)) == 168
        assert sum(1 for _ in primes_up_to(10**4)) == 1229

    def test_segment_boundaries(self):
        # tiny segments exercise the segmented path
        assert list(primes_up_to(1000, segment=64)) == list(primes_up_to(1000))

    def test_ranges(self):
        from quadorbit.primescan import primes_in_range

        assert list(primes_in_range(90, 110)) == [97, 101, 103, 107, 109]
        assert list(primes_in_range(2, 11)) == [2, 3, 5, 7, 11]
        assert list(primes_in_range(14, 16)) == []


class TestZeroPattern:
    def test_all_zero_map(self):
        pattern = zero_pattern(GeneratorSet.from_constants([0]), CONST, 0)
        assert all(pattern.is_zero(n) for n in range(20))

    def test_alternating(self):
        pattern = zero_pattern(GeneratorSet.from_constants([-1]), CONST, 0)
        assert [pattern.is_zero(n) for n in range(8)] == [True, False, True, False, True, False, True, False]

    def test_no_zeros_generic(self):
        pattern = zero_pattern(X2P1, CONST, 0)
        assert pattern.is_zero(0)  # a0 itself
        assert not any(pattern.is_zero(n) for n in range(1, 30))

    def test_prefix_zero(self):
        # gamma_1(-1) = 0 for c = -1 as the first prefix map
        gens = GeneratorSet.from_constants([-1, 8])
        pattern = zero_pattern(gens, SequenceCoding((1,), (2,)), -1)
        assert pattern.is_zero(1)
        assert not pattern.is_zero(2)

    def test_fractional_start(self):
        pattern = zero_pattern(X2P1, CONST, Fraction(1, 2))
        assert not any(pattern.is_zero(n) for n in range(12))

    def test_pattern_for_another_start_is_refused(self):
        pattern = zero_pattern(X2P1, CONST, 0)
        assert prime_divides_orbit(5, X2P1, CONST, Fraction(0), pattern=pattern).status == "yes"
        with pytest.raises(ValueError, match="a0"):
            prime_divides_orbit(5, X2P1, CONST, 1, pattern=pattern)


class TestMembership:
    @pytest.mark.parametrize(
        "p,status,index", [(5, "yes", 3), (3, "no", None), (2, "yes", 2)]
    )
    def test_spec_points(self, p, status, index):
        result = prime_divides_orbit(p, X2P1, CONST, 0)
        assert result == PrimeOrbitResult(status, index)

    def test_excluded(self):
        assert prime_divides_orbit(2, X2P1, CONST, Fraction(1, 6)).status == "excluded"
        assert prime_divides_orbit(3, X2P1, CONST, Fraction(1, 6)).status == "excluded"
        assert prime_divides_orbit(5, X2P1, CONST, Fraction(1, 6)).status != "excluded"

    def test_index_zero(self):
        assert prime_divides_orbit(7, X2P1, CONST, 14) == PrimeOrbitResult("yes", 0)

    def test_oracle_equivalence_constant(self):
        values = gamma_values(X2P1, CONST, Fraction(0), 12)
        for p in primes_up_to(200):
            direct = next(
                (n for n, v in enumerate(values, start=1) if v != 0 and v.numerator % p == 0),
                None,
            )
            result = prime_divides_orbit(p, X2P1, CONST, 0)
            scan = (
                result.first_index
                if result.status == "yes" and result.first_index is not None and result.first_index <= 12
                else None
            )
            assert direct == scan, p

    def test_oracle_equivalence_masked_zeros(self):
        # gamma_1(-1) = 0 exactly for the prefix map c = -1; exact zeros are
        # skipped and later congruent-to-zero levels still count.
        gens = GeneratorSet.from_constants([-1, 8])
        coding = SequenceCoding((1,), (2,))
        values = gamma_values(gens, coding, Fraction(-1), 14)
        for p in primes_up_to(100):
            direct = next(
                (n for n, v in enumerate(values, start=1) if v != 0 and v.numerator % p == 0),
                None,
            )
            if direct is None:
                continue
            result = prime_divides_orbit(p, gens, coding, -1)
            assert result.status == "yes" and result.first_index == direct, p

    def test_oracle_equivalence_mixed_cycle(self):
        gens = GeneratorSet.from_constants([3, 1])
        for coding in [SequenceCoding((1,), (2,)), SequenceCoding((), (1, 2)), SequenceCoding((2, 2), (1, 2, 2))]:
            values = gamma_values(gens, coding, Fraction(0), 14)
            for p in primes_up_to(120):
                direct = next(
                    (n for n, v in enumerate(values, start=1) if v != 0 and v.numerator % p == 0),
                    None,
                )
                result = prime_divides_orbit(p, gens, coding, 0)
                scan = (
                    result.first_index
                    if result.status == "yes" and result.first_index is not None and result.first_index <= 14
                    else None
                )
                assert direct == scan, (coding.render(), p)


SMALL_PRIMES = [p for p in range(2, 60) if all(p % d for d in range(2, p))]


@st.composite
def scan_inputs(draw):
    """Distinct constants in [-3, 3], which include the exact-zero maps c = 0,
    -1, -2, a constant, mixed-cycle or prefixed coding, and an integer or
    fractional a0."""
    constants = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3, unique=True))
    index = st.integers(1, len(constants))
    prefix = draw(st.lists(index, max_size=2))
    cycle = draw(st.lists(index, min_size=1, max_size=3))
    a0 = draw(
        st.one_of(
            st.integers(-4, 4),
            st.builds(Fraction, st.integers(-9, 9), st.integers(2, 7)),
        )
    )
    return GeneratorSet.from_constants(constants), SequenceCoding(tuple(prefix), tuple(cycle)), Fraction(a0)


@settings(deadline=None, max_examples=300)
@given(inputs=scan_inputs(), p=st.sampled_from(SMALL_PRIMES))
def test_walker_matches_brute_force(inputs, p):
    gens, coding, a0 = inputs
    result = prime_divides_orbit(p, gens, coding, a0)
    assert (result.status, result.first_index) == brute_force_membership(gens, coding, a0, p)


@settings(deadline=None, max_examples=200)
@given(inputs=scan_inputs())
def test_zero_pattern_matches_exact_zeros(inputs):
    # Levels run to three times the resolution bound of 2*radius + 4 cycle
    # blocks.  Exact level values double their digits every level, so they
    # are compared directly on the first levels and through exact rational
    # preimages of 0 on all of them.
    gens, coding, a0 = inputs
    pattern = zero_pattern(gens, coding, a0)
    constants = [int(c) for c in gens.constants]
    radius = max(abs(c) for c in constants) + 2
    depth = len(coding.prefix) + 3 * len(coding.cycle) * (2 * radius + 4)
    zeros = zero_levels(constants, coding, a0, depth)
    assert {n for n in range(depth + 1) if pattern.is_zero(n)} == zeros
    exact = [a0] + gamma_values(gens, coding, a0, 8)
    assert {n for n, v in enumerate(exact) if v == 0} == zeros & set(range(9))


class TestProfiles:
    def test_counts_monotone_and_exact(self):
        report = density_profile(X2P1, CONST, 0, [100, 1000, 5000])
        counts = [row.in_p for row in report.rows]
        assert counts == sorted(counts)
        assert report.rows[0].pi_x == 25
        assert report.rows[1].pi_x == 168

    def test_excluded_set(self):
        report = density_profile(X2P1, CONST, Fraction(1, 6), [100])
        assert report.excluded == [2, 3]

    def test_zero_start_square_map(self):
        # every orbit term of x^2 at 0 is an exact zero: nothing ever counts
        report = density_profile(GeneratorSet.from_constants([0]), CONST, 0, [50])
        assert report.rows[0].in_p == 0

    def test_ratio_decimal_format(self):
        report = density_profile(X2P1, CONST, 0, [100])
        text = report.rows[0].ratio_decimal()
        assert len(text.split(".")[1]) == 12

    def test_csv_header(self):
        report = density_profile(X2P1, CONST, 0, [100])
        assert report.csv_rows()[0] == ["x", "in_P_count", "pi_x", "ratio_decimal_12dp"]

    def test_requires_integer_critical(self):
        from quadorbit.algebra import parse_poly
        from quadorbit.dynamics import QT

        gens = GeneratorSet.from_constants([parse_poly("t")], ring=QT)
        with pytest.raises(ValueError):
            density_profile(gens, CONST, 0, [100])

    def test_walker_budget(self):
        # p = 1987 never divides the orbit of 0 under x^2+1, and its rho of 44
        # steps is longer than a Brent power of 4 walker steps can cover.
        assert prime_divides_orbit(1987, X2P1, CONST, 0) == PrimeOrbitResult("no")
        assert prime_divides_orbit(1987, X2P1, CONST, 0, max_states=4) == PrimeOrbitResult("over_cap")
        report = density_profile(X2P1, CONST, 0, [2000], max_states=4)
        assert 1987 in report.over_cap
        assert report.over_cap == sorted(report.over_cap)


def test_fpp_comparison_shape():
    result = fpp_comparison(density_profile(X2P1, CONST, 0, [1000]), 5)
    assert result["cutoff"] == 1000
    assert [row["n"] for row in result["fpp"]] == [1, 2, 3, 4, 5]
    assert result["fpp"][0] == {"n": 1, "fpp_num": 1, "fpp_den": 2}
