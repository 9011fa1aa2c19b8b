import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    brute_force_membership,
    gamma_value,
    gamma_values,
    least_exact_level,
    level_walk_membership,
    tail_start,
    tree_walk_membership,
    within_three_sigma,
    zero_levels,
    zero_tree_depth,
)
from quadorbit import pool, primescan
from quadorbit.dynamics import GeneratorSet, SequenceCoding
from quadorbit.process import fpp_rows
from quadorbit.primescan import (
    POOL_MIN_CUTOFF,
    ZERO_TREE_DEPTH,
    PrimeOrbitResult,
    _zero_tree,
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

    def test_ranges(self):
        from quadorbit.primescan import primes_in_range

        assert list(primes_in_range(90, 110)) == [97, 101, 103, 107, 109]
        assert list(primes_in_range(2, 11)) == [2, 3, 5, 7, 11]
        assert list(primes_in_range(14, 16)) == []
        # Every range up to 200 against trial division, base primes included.
        primes = [n for n in range(2, 201) if all(n % d for d in range(2, n))]
        for lo in range(0, 60):
            for hi in range(lo - 1, 201):
                assert list(primes_in_range(lo, hi)) == [p for p in primes if lo <= p <= hi]
        # A range far from 0, whose base primes all lie below it.
        far = [n for n in range(10**6 - 50, 10**6 + 400) if all(n % d for d in range(2, 1001))]
        assert list(primes_in_range(10**6 - 50, 10**6 + 399)) == far


def split(pattern):
    """(tails, tree depth, exact zeros) of a zero pattern."""
    return pattern.tails, len(pattern.outer), pattern.zeros


class TestZeroPattern:
    """The tails hold the level where each escaping phase leaves the bound,
    the tree depth is past every level met inside it and at least
    ZERO_TREE_DEPTH and the prefix length, and the zeros are the exact zero
    levels up to that depth."""

    def test_all_zero_map(self):
        pattern = zero_pattern(GeneratorSet.from_constants([0]), CONST, 0)
        assert split(pattern) == ([], 8, list(range(9)))

    def test_alternating(self):
        # 0, -1, 0, -1, ...: the phase cycles inside the bound, so no tail.
        pattern = zero_pattern(GeneratorSet.from_constants([-1]), CONST, 0)
        assert split(pattern) == ([], 8, [0, 2, 4, 6, 8])

    def test_no_zeros_generic(self):
        # 0, 1, 2, 5, ...: level 0 is exactly 0, and 5 is past the bound 2.
        pattern = zero_pattern(X2P1, CONST, 0)
        assert split(pattern) == ([3], 8, [0])

    def test_prefix_zero(self):
        # gamma_1(-1) = 0 for c = -1 as the first prefix map
        gens = GeneratorSet.from_constants([-1, 8])
        pattern = zero_pattern(gens, SequenceCoding((1,), (2,)), -1)
        assert split(pattern) == ([3], 8, [1])
        assert pattern.outer == [-1] + [8] * 7

    def test_fractional_start(self):
        pattern = zero_pattern(X2P1, CONST, Fraction(1, 2))
        assert split(pattern) == ([0], 8, [])

    def test_depth_passes_the_levels_met_after_a_long_prefix(self):
        # Eight maps x^2 - 1, then its cycle from 0: levels 8 and 9 are met
        # inside the bound, so the tree reaches level 10.
        gens = GeneratorSet.from_constants([-1])
        pattern = zero_pattern(gens, SequenceCoding((1,) * 8, (1,)), 0)
        assert split(pattern) == ([], 10, [0, 2, 4, 6, 8, 10])
        # 24 maps x^2 + 1, then the same map from 0: 0, 1, 2 are met at
        # levels 24 to 26 and 5 escapes at level 27.
        pattern = zero_pattern(X2P1, SequenceCoding((1,) * 24, (1,)), 0)
        assert split(pattern) == ([27], 27, [0])

    def test_start_is_normalized(self):
        assert type(zero_pattern(X2P1, CONST, Fraction(0)).a0) is int
        assert type(zero_pattern(X2P1, CONST, Fraction(1, 2)).a0) is Fraction

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
def scan_inputs(draw, max_prefix=2):
    """Distinct constants in [-3, 3], which include the exact-zero maps c = 0,
    -1, -2, a constant, mixed-cycle or prefixed coding, and an integer or
    fractional a0."""
    constants = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3, unique=True))
    index = st.integers(1, len(constants))
    prefix = draw(st.lists(index, max_size=max_prefix))
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


ORACLE_PRIMES = list(primes_up_to(3000))


@settings(deadline=None, max_examples=200)
@given(inputs=scan_inputs(), primes=st.lists(st.sampled_from(ORACLE_PRIMES), min_size=1, max_size=20))
def test_walker_matches_level_walk(inputs, primes):
    gens, coding, a0 = inputs
    pattern = zero_pattern(gens, coding, a0)
    for p in primes:
        result = prime_divides_orbit(p, gens, coding, a0, pattern)
        assert (result.status, result.first_index) == level_walk_membership(gens, coding, a0, p), p


# Prefixes up to two maps longer than the tree depth, so that the prefix
# level lies below, at and past ZERO_TREE_DEPTH.
TREE_INPUTS = scan_inputs(max_prefix=ZERO_TREE_DEPTH + 2)


@settings(deadline=None, max_examples=300)
@given(
    inputs=TREE_INPUTS,
    primes=st.lists(st.sampled_from(ORACLE_PRIMES), min_size=1, max_size=20),
    max_states=st.sampled_from([1, 2, 5, 1_000_000]),
)
def test_walker_matches_the_tree_depth_oracle(inputs, primes, max_states):
    gens, coding, a0 = inputs
    pattern = zero_pattern(gens, coding, a0)
    for p in primes:
        result = prime_divides_orbit(p, gens, coding, a0, pattern, max_states)
        assert (result.status, result.first_index) == tree_walk_membership(p, pattern, max_states), p
        # The oracle above reads the pattern's tree depth; the level walk
        # reads no pattern, so it checks that depth too.
        if max_states == 1_000_000:
            assert (result.status, result.first_index) == level_walk_membership(gens, coding, a0, p), p


TREE_PRIMES = [p for p in ORACLE_PRIMES if p < 200]


def check_zero_tree(p, outer, a):
    """Check ``_zero_tree(p, outer, a)`` and the ``zero_tree_depth`` oracle
    against brute-force root sets, and return those sets Z_0, Z_1, ...,
    down to the first empty one or along all of ``outer``.

    values[x] is (theta_1 o ... o theta_k)(x) mod p over every residue x,
    composed one inner map at a time, and Z_k holds the x with value 0.
    """
    values = list(range(p))
    expected = [{0}]
    for c in outer:
        values = [values[(x * x + c) % p] for x in range(p)]
        expected.append({x for x in range(p) if values[x] == 0})
        if not expected[-1]:
            break
    dies = not expected[-1]
    assert zero_tree_depth(p, outer) == (len(expected) - 1 if dies else None)
    # Every level returned is complete, down to the empty one or to Z_a.
    levels = _zero_tree(p, outer, a)
    assert [set(level) for level in levels] == expected[: len(levels)]
    assert all(len(level) == len(set(level)) for level in levels)
    if dies:
        assert len(levels) == len(expected)
    else:
        assert levels[-1] and len(levels) > a
    return expected


@settings(deadline=None, max_examples=200)
@given(
    outer=st.lists(st.integers(-6, 6), min_size=1, max_size=6),
    p=st.sampled_from(TREE_PRIMES),
)
def test_zero_tree_matches_brute_force(outer, p):
    # Any list of outer constants, with the kept level a anywhere from 0 to
    # the last, where the tree is descended in full instead of stopping at
    # the last level's first square.
    for a in range(len(outer) + 1):
        check_zero_tree(p, outer, a)


@settings(deadline=None, max_examples=200)
@given(inputs=TREE_INPUTS, p=st.sampled_from(TREE_PRIMES))
def test_zero_tree_of_a_coding_matches_brute_force(inputs, p):
    gens, coding, a0 = inputs
    pattern = zero_pattern(gens, coding, a0)
    expected = check_zero_tree(p, pattern.outer, len(coding.prefix))
    # A dying tree decides the prime: the least level n below the empty one
    # with a0 in Z_n that is not exactly 0.
    if not expected[-1] and a0.denominator % p:
        x0 = a0.numerator * pow(a0.denominator, -1, p) % p
        zeros = zero_levels([int(c) for c in gens.constants], coding, a0, len(expected))
        first = next((n for n, level in enumerate(expected) if x0 in level and n not in zeros), None)
        expected_result = PrimeOrbitResult("no") if first is None else PrimeOrbitResult("yes", first)
        assert prime_divides_orbit(p, gens, coding, a0, pattern) == expected_result


def test_tree_leaves_few_flagship_primes_to_walk(monkeypatch):
    # The flagship scan, x^2+1 from 0 to 10^5: every prime has a tail, and
    # only those whose tree of 0 survives ZERO_TREE_DEPTH levels, and which
    # divide no level below it, are walked.  The share that survives each
    # depth is the chance that theta_1 o ... o theta_n has a root mod p,
    # which tends to the fixed-point proportion.
    walked = []
    walk = primescan._walk_tails
    monkeypatch.setattr(primescan, "_walk_tails", lambda p, *rest: walked.append(p) or walk(p, *rest))
    primes = list(primes_up_to(10**5))
    pattern = zero_pattern(X2P1, CONST, 0)
    members = sum(prime_divides_orbit(p, X2P1, CONST, 0, pattern).status == "yes" for p in primes)
    assert members == 99
    assert (ZERO_TREE_DEPTH, len(walked)) == (8, 1602)
    depths = [zero_tree_depth(p, pattern.outer) for p in primes]
    unanswered = [p for p, k in zip(primes, depths) if k is None and least_exact_level(p, pattern, 8) is None]
    assert walked == unanswered
    for row in fpp_rows(ZERO_TREE_DEPTH):
        survived = sum(k is None or k > row["n"] for k in depths)
        assert within_three_sigma(survived, len(primes), Fraction(row["fpp_num"], row["fpp_den"])), row


@settings(deadline=None, max_examples=200)
@given(inputs=scan_inputs())
def test_zero_pattern_matches_exact_zeros(inputs):
    # Levels run to three times the resolution bound of 2*radius + 4 cycle
    # blocks.  Exact zeros come from exact rational preimages of 0, so the
    # huge values past a tail's start are never computed; every other level
    # at or past the tree depth stays inside the escape bound and is
    # evaluated directly.
    gens, coding, a0 = inputs
    pattern = zero_pattern(gens, coding, a0)
    constants = [int(c) for c in gens.constants]
    radius = max(abs(c) for c in constants) + 2
    depth = len(coding.prefix) + 3 * len(coding.cycle) * (2 * radius + 4)
    zeros = zero_levels(constants, coding, a0, depth)
    a_len, b_len = len(coding.prefix), len(coding.cycle)
    tree_depth = len(pattern.outer)
    assert tree_depth >= max(ZERO_TREE_DEPTH, a_len)
    assert pattern.outer == [constants[coding.index_at(n) - 1] for n in range(1, tree_depth + 1)]
    assert pattern.zeros == sorted(zeros & set(range(tree_depth + 1)))
    below = {gamma_value(gens, coding, a0, n) for n in range(tree_depth)}
    tails = {(n - a_len) % b_len: n for n in pattern.tails}
    assert len(tails) == len(pattern.tails)
    for n in pattern.tails:
        # The tail starts where its phase's inner value first leaves the
        # bound; the start, applied through the prefix, is level n.
        assert n >= a_len
        u = tail_start(pattern, n)
        assert u.denominator > 1 or abs(u) > radius - 1
        if n - b_len >= a_len:
            before = tail_start(pattern, n - b_len)
            assert before.denominator == 1 and abs(before) <= radius - 1
        prefix_value = u
        for i in reversed(coding.prefix):
            prefix_value = prefix_value * prefix_value + constants[i - 1]
        assert prefix_value == gamma_value(gens, coding, a0, n)
    for m in range(depth + 1):
        tail = tails.get((m - a_len) % b_len) if m >= a_len else None
        if tail is not None and m >= tail:
            assert m not in zeros
            continue
        value = gamma_value(gens, coding, a0, m)
        assert (value == 0) == (m in zeros)
        # Every level met inside the bound lies below the tree depth, so a
        # later level that is not a tail level repeats one below it.
        assert m < tree_depth or value in below
    exact = [a0] + gamma_values(gens, coding, a0, 8)
    assert {n for n, v in enumerate(exact) if v == 0} == zeros & set(range(9))


@pytest.mark.parametrize(
    "constants, coding, blocks",
    [
        # x^2+1 inside the bound 13 for 0, 1, 2, 5; 26 escapes.
        ([1, 12], SequenceCoding((2,), (1,)), 4),
        # blocks of x^2 then x^2+1: 0, 1, 2 inside the bound 2; 5 escapes.
        ([1, 0], SequenceCoding((), (1, 2)), 3),
        # blocks of two exact-zero maps, with exact zeros below the tree depth.
        ([-1, -2], SequenceCoding((1,), (1, 2)), 3),
        ([-2, 1], SequenceCoding((), (1, 1, 2)), 3),
    ],
    ids=["one_map_cycle", "two_map_cycle", "zero_maps", "three_map_cycle"],
)
def test_late_escape_matches_brute_force(constants, coding, blocks):
    # A phase stays inside the escape bound for several cycle blocks before
    # its tail starts, so levels met inside the bound and tail levels interleave.
    gens = GeneratorSet.from_constants(constants)
    pattern = zero_pattern(gens, coding, 0)
    assert max((n - len(coding.prefix)) // len(coding.cycle) for n in pattern.tails) == blocks
    for p in SMALL_PRIMES:
        result = prime_divides_orbit(p, gens, coding, 0, pattern)
        assert (result.status, result.first_index) == brute_force_membership(gens, coding, 0, p), p


LONG_PREFIX = SequenceCoding((1,) * 24, (1,))


def test_long_prefix_matches_brute_force():
    # 24 maps x^2 + 1 before the same map forever: the sequence of "|1",
    # whose level 24 has about 2^24 bits, decided from the tree alone.
    pattern = zero_pattern(X2P1, LONG_PREFIX, 0)
    for p in TREE_PRIMES:
        result = prime_divides_orbit(p, X2P1, LONG_PREFIX, 0, pattern)
        assert (result.status, result.first_index) == brute_force_membership(X2P1, LONG_PREFIX, 0, p), p


def integers_in(value):
    """Every int in a nest of lists, tuples and Fractions."""
    if isinstance(value, (list, tuple)):
        return [n for item in value for n in integers_in(item)]
    if isinstance(value, Fraction):
        return [value.numerator, value.denominator]
    return [value]


@pytest.mark.parametrize("prefix", [24, 64])
def test_zero_pattern_holds_no_level_value_of_the_prefix(prefix):
    # Level n of x^2 + 1 from 0 has about 2^(n-3) bits; the pattern keeps
    # only constants, the start, escape points and level numbers.
    pattern = zero_pattern(X2P1, SequenceCoding((1,) * prefix, (1,)), 0)
    held = integers_in([getattr(pattern, name) for name in vars(pattern)])
    assert len(pattern.outer) == prefix + 3
    assert all(type(n) is int and abs(n) < 2**64 for n in held)


@pytest.mark.parametrize("cycle", [24, 64])
def test_zero_pattern_holds_no_level_value_of_the_cycle(cycle):
    # A cycle of maps x^2 + 1 from 0: phase r starts at the r-th level, which
    # escapes from r = 3 on, and phases 0 to 2 escape one cycle later.  The
    # pattern keeps those levels, not the values, of about 2^(r-3) bits.
    pattern = zero_pattern(X2P1, SequenceCoding((), (1,) * cycle), 0)
    held = integers_in([getattr(pattern, name) for name in vars(pattern)])
    assert sorted(pattern.tails) == list(range(3, cycle)) + [cycle, cycle + 1, cycle + 2]
    assert all(type(n) is int and abs(n) < 2**64 for n in held)


def test_p2_reads_levels_past_the_prefix():
    # Every residue is a square mod 2, so the tree of 0 never dies and comes
    # back whole.  After one prefix map, level 2 of x^2 + 1 from 0 is 2, met
    # inside the escape bound: past the prefix, and in no tail.
    coding = SequenceCoding((1,), (1,))
    pattern = zero_pattern(X2P1, coding, 0)
    assert len(_zero_tree(2, pattern.outer, 1)) == len(pattern.outer) + 1
    assert prime_divides_orbit(2, X2P1, coding, 0, pattern) == PrimeOrbitResult("yes", 2)


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

    def test_csv_cells_equal_json_fields(self):
        # Each CSV cell is the JSON row field its column renders; cutoff 2 holds one prime.
        json_field = {"x": "x", "in_P_count": "in_p_count", "pi_x": "pi_x", "ratio_decimal_12dp": "ratio"}
        report = density_profile(X2P1, CONST, 0, [2, 100, 1000])
        header, *rows = report.csv_rows()
        payload_rows = report.to_dict()["rows"]
        assert len(rows) == len(payload_rows) == 3
        for cells, row in zip(rows, payload_rows):
            assert cells == [str(row[json_field[key]]) for key in header]

    def test_requires_integer_critical(self):
        from quadorbit.algebra import parse_poly
        from quadorbit.dynamics import QT

        gens = GeneratorSet.from_constants([parse_poly("t")], ring=QT)
        with pytest.raises(ValueError):
            density_profile(gens, CONST, 0, [100])

    def test_walker_budget(self):
        # p = 1987 never divides the orbit of 0 under x^2+1.  It is 3 mod 4,
        # so -1 has no square root mod p and the preimage tree of 0 decides
        # it without a walk, whatever the budget.  p = 101 never divides the
        # orbit either, but its tree keeps roots through depth 10, past
        # ZERO_TREE_DEPTH, so its tail is walked: level 3 with inner value 5,
        # whose rho mod p has 16 states (7 before a cycle of 9), more than a
        # Brent power of 4 cycle blocks can cover.
        assert prime_divides_orbit(1987, X2P1, CONST, 0) == PrimeOrbitResult("no")
        assert prime_divides_orbit(1987, X2P1, CONST, 0, max_states=4) == PrimeOrbitResult("no")
        assert prime_divides_orbit(101, X2P1, CONST, 0) == PrimeOrbitResult("no")
        assert prime_divides_orbit(101, X2P1, CONST, 0, max_states=4) == PrimeOrbitResult("over_cap")
        report = density_profile(X2P1, CONST, 0, [2000], max_states=4)
        assert 101 in report.over_cap and 1987 not in report.over_cap
        assert report.over_cap == sorted(report.over_cap)

    def test_tail_free_scan_holds_about_a_byte_per_number(self):
        # The sieve's marks take half a byte per number and the prime array 8
        # bytes per prime, about 0.63 bytes per number up to 10^6; the primes
        # as a list of ints would take about 36 bytes each.
        gens, coding = GeneratorSet.from_constants([-1, 3]), SequenceCoding((2,), (1,))
        tracemalloc.start()
        try:
            report = density_profile(gens, coding, 0, [10**6])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.rows[0].pi_x == 78_498
        assert peak < 1.5 * 10**6

    def test_empty_cutoffs_are_refused(self):
        with pytest.raises(ValueError, match="nonempty"):
            density_profile(X2P1, CONST, 0, [])


def reference_profile(gens, coding, a0, cutoffs, max_states=1_000_000):
    """(rows, excluded, over_cap) from one sieve pass deciding each prime in turn."""
    pattern = zero_pattern(gens, coding, a0)
    rows, excluded, over_cap = [], [], []
    in_p = pi_x = 0
    pending = list(cutoffs)
    for p in primes_up_to(cutoffs[-1]):
        while p > pending[0]:
            rows.append((pending.pop(0), in_p, pi_x))
        pi_x += 1
        status = prime_divides_orbit(p, gens, coding, a0, pattern, max_states).status
        if status == "yes":
            in_p += 1
        elif status == "excluded":
            excluded.append(p)
        elif status == "over_cap":
            over_cap.append(p)
    rows += [(cutoff, in_p, pi_x) for cutoff in pending]
    return rows, excluded, over_cap


# (gens, coding, a0, cutoffs, max_states) of pooled scans.
POOLED_SCANS = [
    # the flagship
    pytest.param(X2P1, CONST, 0, [10_000, 50_000], 1_000_000, id="flagship"),
    # excluded primes; cutoffs at the least prime and on consecutive numbers
    pytest.param(X2P1, CONST, Fraction(1, 6), [2, 3, 12_345, 25_000, 25_001], 1_000_000, id="excluded"),
    # over_cap primes throughout
    pytest.param(X2P1, CONST, 0, [999, 21_000], 4, id="over_cap"),
    pytest.param(GeneratorSet.from_constants([1, 3]), SequenceCoding((1,), (1, 2)), -1, [30_000], 1_000_000, id="two_map"),
]


class TestParallelProfiles:
    """Reports are the same for one and two usable CPUs and equal a single sieve pass."""

    @pytest.mark.parametrize("gens, coding, a0, cutoffs, max_states", POOLED_SCANS)
    def test_cpus_do_not_change_the_report(self, monkeypatch, gens, coding, a0, cutoffs, max_states):
        assert cutoffs[-1] > POOL_MIN_CUTOFF
        monkeypatch.setattr(pool, "usable_cpus", lambda: 1)
        one = density_profile(gens, coding, a0, cutoffs, max_states)
        monkeypatch.setattr(pool, "usable_cpus", lambda: 2)
        two = density_profile(gens, coding, a0, cutoffs, max_states)
        assert one.to_dict() == two.to_dict()
        assert one.csv_rows() == two.csv_rows()
        rows, excluded, over_cap = reference_profile(gens, coding, Fraction(a0), cutoffs, max_states)
        assert [(row.cutoff, row.in_p, row.pi_x) for row in two.rows] == rows
        assert (two.excluded, two.over_cap) == (excluded, over_cap)
        if a0 == Fraction(1, 6):
            assert two.excluded == [2, 3]
        if max_states == 4:
            assert two.over_cap and two.over_cap == sorted(two.over_cap)

    @pytest.mark.parametrize(
        "gens, coding, a0, cutoffs, max_states",
        [
            *POOLED_SCANS,
            # no tails: level primes 5003 and 20011 past the first chunk
            pytest.param(
                GeneratorSet.from_constants([-1, 20011]), SequenceCoding((2,), (1,)), 0, [5003, 30_000], 1_000_000,
                id="tail_free",
            ),
        ],
    )
    def test_chunk_size_does_not_change_the_report(self, monkeypatch, gens, coding, a0, cutoffs, max_states):
        # Chunks of one prime, of 7 primes, and one chunk of every prime.
        expected = reference_profile(gens, coding, Fraction(a0), cutoffs, max_states)
        for size in (1, 7, len(primes_up_to(cutoffs[-1])) + 1):
            monkeypatch.setattr(primescan, "SCAN_CHUNK", size)
            for cpus in (1, 2):
                monkeypatch.setattr(pool, "usable_cpus", lambda cpus=cpus: cpus)
                report = density_profile(gens, coding, a0, cutoffs, max_states)
                rows = [(row.cutoff, row.in_p, row.pi_x) for row in report.rows]
                assert (rows, report.excluded, report.over_cap) == expected, (size, cpus)

    def test_no_pool_at_or_below_the_threshold(self, monkeypatch):
        def refuse():
            raise AssertionError("a worker process was forked")

        monkeypatch.setattr(pool.os, "fork", refuse)
        monkeypatch.setattr(pool, "usable_cpus", lambda: 2)
        report = density_profile(X2P1, CONST, 0, [1000, POOL_MIN_CUTOFF])
        assert report.rows[-1].pi_x == 2262
        with pytest.raises(AssertionError, match="forked"):
            density_profile(X2P1, CONST, 0, [POOL_MIN_CUTOFF + 1])

    @pytest.mark.parametrize("cutoffs", [[1000, POOL_MIN_CUTOFF], [5003, 30_000]])
    @pytest.mark.parametrize(
        "gens, coding",
        [
            (GeneratorSet.from_constants([-1, 3]), SequenceCoding((2,), (1,))),
            # level values 20011 and 4 * 5003: primes past the first chunk, and 20011 past POOL_MIN_CUTOFF
            (GeneratorSet.from_constants([-1, 20011]), SequenceCoding((2,), (1,))),
            # every level is 0 exactly, so the product is empty
            (GeneratorSet.from_constants([0]), CONST),
        ],
        ids=["periodic", "large_head_prime", "empty_head"],
    )
    def test_sequences_without_tails_are_counted_in_process(self, monkeypatch, gens, coding, cutoffs):
        assert not zero_pattern(gens, coding, 0).tails

        def refuse():
            raise AssertionError("a worker process was forked")

        monkeypatch.setattr(pool.os, "fork", refuse)
        monkeypatch.setattr(pool, "usable_cpus", lambda: 2)
        report = density_profile(gens, coding, 0, cutoffs)
        rows, excluded, over_cap = reference_profile(gens, coding, Fraction(0), cutoffs)
        assert [(row.cutoff, row.in_p, row.pi_x) for row in report.rows] == rows
        assert report.excluded == excluded == [] and report.over_cap == over_cap == []


def test_fpp_comparison_shape():
    result = fpp_comparison(density_profile(X2P1, CONST, 0, [1000]), fpp_rows(5))
    assert result["cutoff"] == 1000
    assert [row["n"] for row in result["fpp"]] == [1, 2, 3, 4, 5]
    assert result["fpp"][0] == {"n": 1, "fpp_num": 1, "fpp_den": 2}
