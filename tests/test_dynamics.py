import functools
import itertools
import random
from fractions import Fraction

import pytest

from conftest import (
    closure_oracle,
    eisenstein_oracle,
    finite_orbit_oracle,
    gamma_values,
    obstruction_candidate,
    pair_family_membership,
    reach_oracle,
    valuation_lemma_check,
)
from quadorbit import dynamics
from quadorbit.algebra import IntPolynomial, parse_poly
from quadorbit.dynamics import (
    QQ,
    QT,
    GeneratorSet,
    OrbitCaps,
    SequenceCoding,
    _denominator_grows,
    _normalize_point,
    classify_finite_orbit_obstruction,
    composition_polynomial,
    critical_orbit,
    eisenstein_stability,
    escape_bound,
    escape_criterion,
    finite_orbit_points,
    orbit_contains_finite_orbit_point,
    semigroup_orbit,
)

CONST = SequenceCoding.constant(1)


class TestCoding:
    def test_parse_render(self):
        c = SequenceCoding.parse("1,2|2,1")
        assert c.prefix == (1, 2) and c.cycle == (2, 1)
        assert c.render() == "1,2|2,1"
        assert SequenceCoding.parse("|1").render() == "|1"

    def test_index_at(self):
        c = SequenceCoding((1,), (2, 3))
        assert [c.index_at(n) for n in range(1, 7)] == [1, 2, 3, 2, 3, 2]

    def test_empty_cycle_rejected(self):
        with pytest.raises(ValueError):
            SequenceCoding((1,), ())


class TestCriticalOrbit:
    def test_minus_two(self):
        g = GeneratorSet.from_constants([-2])
        assert critical_orbit(g, CONST, 3) == [-2, 2, 2]

    def test_plus_one(self):
        g = GeneratorSet.from_constants([1])
        assert critical_orbit(g, CONST, 4) == [1, 2, 5, 26]

    def test_poly_ring(self):
        g = GeneratorSet.from_constants([parse_poly("t")], ring=QT)
        values = critical_orbit(g, CONST, 3)
        assert [str(v) for v in values] == ["t", "t^2+t", "t^4+2t^3+t^2+t"]

    @pytest.mark.parametrize(
        "spec, ring, kind", [("-3; 2", QQ, int), ("1/2", QQ, Fraction), ("t", QT, IntPolynomial)]
    )
    def test_value_types(self, spec, ring, kind):
        g = GeneratorSet.parse(spec, ring=ring)
        coding = SequenceCoding((1,), (2,)) if g.size == 2 else CONST
        assert all(type(v) is kind for v in critical_orbit(g, coding, 6))

    def test_matches_symbolic_composition(self):
        rng = random.Random(5)
        for _ in range(25):
            s = rng.randint(1, 3)
            cs = rng.sample(range(-6, 7), s)
            g = GeneratorSet.from_constants(cs)
            coding = SequenceCoding(
                tuple(rng.randint(1, s) for _ in range(rng.randint(0, 2))),
                tuple(rng.randint(1, s) for _ in range(rng.randint(1, 3))),
            )
            depth = rng.randint(1, 8)
            values = critical_orbit(g, coding, depth)
            for n in range(1, depth + 1):
                poly = composition_polynomial(g, coding, n)
                assert Fraction(poly.evaluate(0)) == values[n - 1]

    @pytest.mark.parametrize(
        "ring,constants",
        [(QT, [parse_poly("t^2+1"), parse_poly("-t")]), (QQ, [Fraction(-3, 2), Fraction(1)])],
        ids=["qt", "q"],
    )
    def test_matches_naive_composition_for_every_short_coding(self, ring, constants):
        # Every coding with prefix length r <= 2 and cycle length L <= 3 over
        # two maps, against level-by-level right-to-left composition.
        g = GeneratorSet.from_constants(constants, ring=ring)
        zero = IntPolynomial(()) if ring == QT else Fraction(0)
        prefixes = [w for r in range(3) for w in itertools.product((1, 2), repeat=r)]
        cycles = [w for length in range(1, 4) for w in itertools.product((1, 2), repeat=length)]
        for coding in itertools.starmap(SequenceCoding, itertools.product(prefixes, cycles)):
            assert critical_orbit(g, coding, 7) == gamma_values(g, coding, zero, 7)


class TestEscapeCriterion:
    @pytest.mark.parametrize("cs,expected", [([5, 7], True), ([-2, -3], False), ([0], False)])
    def test_examples(self, cs, expected):
        assert escape_criterion(GeneratorSet.from_constants(cs)) is expected

    def test_escape_implies_not_closed(self):
        rng = random.Random(17)
        checked = 0
        while checked < 60:
            s = rng.randint(1, 3)
            cs = rng.sample(range(-50, 51), s)
            g = GeneratorSet.from_constants(cs)
            if not escape_criterion(g):
                continue
            checked += 1
            assert semigroup_orbit(g, 0).kind != "closed"


class TestSemigroupOrbit:
    def test_closed_small(self):
        status = semigroup_orbit(GeneratorSet.from_constants([0, -1]), 0)
        assert status.closed
        assert status.orbit == frozenset({Fraction(0), Fraction(-1), Fraction(1)})

    def test_closed_pm2(self):
        status = semigroup_orbit(GeneratorSet.from_constants([-2, -6]), -2)
        assert status.closed
        assert status.orbit == frozenset({Fraction(-2), Fraction(2)})

    def test_escaping(self):
        assert semigroup_orbit(GeneratorSet.from_constants([5, 7]), 0).kind == "escaping"

    def test_closed_orbits_reverified(self):
        # closure is re-applied internally; a closed result is closed
        status = semigroup_orbit(GeneratorSet.from_constants([-1]), 0)
        g = GeneratorSet.from_constants([-1])
        for v in status.orbit:
            assert g.apply(1, v) in status.orbit

    @pytest.mark.parametrize(
        "c,point", [(-1, Fraction(1, 2)), (Fraction(-3, 4), 0), (Fraction(1, 3), 0)]
    )
    def test_fractional_orbit_escapes_padically(self, c, point):
        # Each orbit stays inside [-1, 1] for levels (for c = -1 and -3/4,
        # forever) while its denominators square, so the walk stops at once.
        g = GeneratorSet.from_constants([c])
        status = semigroup_orbit(g, point)
        assert status.kind == "escaping"
        assert (status.witness, status.cut) == (None, False)

    @pytest.mark.parametrize(
        "spec,ring,point,caps,kind",
        [
            ("1e400", QQ, 0, OrbitCaps(), "escaping"),
            ("-1; 5", QQ, 0, OrbitCaps(), "escaping"),
            ("-1; 1/2", QQ, 0, OrbitCaps(), "escaping"),
            ("x^2+x; x^2-6x", QQ, 2, OrbitCaps(), "unknown"),
            ("-2", QQ, 0, OrbitCaps(max_points=2), "closed"),
            ("t; -1", QT, 0, OrbitCaps(), "escaping"),
        ],
    )
    def test_status_table(self, spec, ring, point, caps, kind):
        # 1e400 leaves the escape window at once.  x^2+5 sends both values of
        # the 2-cycle {0, -1} of x^2-1 out of the window, and x^2+1/2 gives
        # them growing denominators.  2 reaches 0, fixed by x^2+x and x^2-6x,
        # through 6, but 6 -> 42 escapes.  Over Q no cap bounds the walk.
        # Over Z[t], t and t+1 reach degree 2, where the degree doubles.
        status = semigroup_orbit(GeneratorSet.parse(spec, ring=ring), point, caps)
        assert status.kind == kind

    def test_bounded_denominators_still_close(self):
        # den(1/2)^2 divides den(-3/4), and -1/2 is a fixed point.
        status = semigroup_orbit(GeneratorSet.from_constants([Fraction(-3, 4)]), Fraction(1, 2))
        assert status.orbit == frozenset({Fraction(1, 2), Fraction(-1, 2)})

    def test_denominator_growth_passes_to_images(self):
        rng = random.Random(5)
        dens = [1, 2, 3, 4, 6, 9, 12]
        general = [parse_poly(m, var="x") for m in ("2x^2-1", "3x^2+x", "x^3-2x", "6x^2+1")]
        walks = 0
        for _ in range(400):
            if rng.random() < 0.5:
                g = GeneratorSet.from_constants(
                    list({Fraction(rng.randint(-12, 12), rng.choice(dens)) for _ in range(2)})
                )
            else:
                g = GeneratorSet(general=tuple(rng.sample(general, rng.randint(1, 2))))
            grows = _denominator_grows(g)
            v = Fraction(rng.randint(-12, 12), rng.choice(dens))
            if not grows(v):
                continue
            walks += 1
            path = [v]
            for _ in range(4):
                v = g.apply(rng.randint(1, g.size), v)
                assert grows(v) and v not in path, (g, path, v)
                path.append(v)
        assert walks > 100


def assert_status_matches_oracle(g, start, targets, reach):
    """semigroup_orbit against the oracles: closed with the oracle's orbit
    exactly when the start has a finite orbit, escaping exactly when its
    orbit reaches no such point, unknown otherwise.  Returns the kind."""
    status = semigroup_orbit(g, start)
    if start in targets:
        assert (status.kind, status.orbit) == ("closed", closure_oracle(g.constants, start)), (g, start)
    else:
        assert status.kind == ("escaping" if reach == "no" else "unknown"), (g, start)
    return status.kind


class TestFiniteOrbitPoints:
    def test_remark_example(self):
        maps = [parse_poly("x^2+x", var="x"), parse_poly("x^2-6x", var="x")]
        g = GeneratorSet(general=tuple(maps))
        answer = orbit_contains_finite_orbit_point(g, 2)
        assert answer.kind == "yes"
        assert answer.witness == 0

    def test_escaping_pair(self):
        g = GeneratorSet.from_constants([5, 7])
        assert orbit_contains_finite_orbit_point(g, 0).kind == "no"

    def test_pcf_singleton(self):
        g = GeneratorSet.from_constants([-1])
        answer = orbit_contains_finite_orbit_point(g, 0)
        assert answer.kind == "yes" and answer.witness == 0

    def test_x2_x2minus2_is_not_obstructed(self):
        g = GeneratorSet.from_constants([0, -2])
        assert orbit_contains_finite_orbit_point(g, 0).kind == "no"

    def test_finite_orbit_point_enumeration(self):
        # 1 -> 0 -> -1 -> 0 under x^2-1, so all three have finite orbits
        assert finite_orbit_points(GeneratorSet.from_constants([-1])) == {0, -1, 1}
        # {x^2, x^2-2} keeps {-1, 1} finite, but 0 never reaches them
        assert finite_orbit_points(GeneratorSet.from_constants([0, -2])) == {-1, 1}
        assert 0 in finite_orbit_points(GeneratorSet.from_constants([0, -1]))

    def test_integral_search_builds_no_fraction(self, monkeypatch):
        g = GeneratorSet.from_constants([-3, -12, 5])

        def refuse(*args):
            raise AssertionError("Fraction built")

        monkeypatch.setattr(dynamics, "Fraction", refuse)
        bound = escape_bound(g)
        assert type(bound) is int
        assert all(type(q) is int for q in finite_orbit_points(g))
        for start in range(-bound, bound + 1):
            answer = orbit_contains_finite_orbit_point(g, start)
            assert answer.witness is None or type(answer.witness) is int, start

    def test_points_over_zt_normalize_to_polynomials(self):
        g = GeneratorSet.from_constants([parse_poly("t")], ring=QT)
        zero = _normalize_point(g, 0)
        assert type(zero) is IntPolynomial and zero.coeffs == ()
        assert _normalize_point(g, Fraction(3)).coeffs == (3,)
        with pytest.raises(ValueError, match="integral"):
            _normalize_point(g, Fraction(1, 2))

    def test_matches_bfs_oracle(self):
        # Every ordered set of one or two maps x^2+c with c in [-6, 3] (the
        # order decides which finite orbit point is met first), from every
        # integer start inside the escape radius.
        for size in (1, 2):
            for constants in itertools.permutations(range(-6, 4), size):
                g = GeneratorSet.from_constants(constants)
                targets = finite_orbit_oracle(constants)
                assert finite_orbit_points(g) == targets, constants
                radius = max(abs(c) for c in constants) + 2
                for start in range(1 - radius, radius):
                    answer = orbit_contains_finite_orbit_point(g, start)
                    expected = reach_oracle(constants, start, targets)
                    assert (answer.kind, answer.witness) == expected, (constants, start)
                    assert_status_matches_oracle(g, start, targets, expected[0])

    def test_fractional_point_never_reaches_integers(self):
        g = GeneratorSet.from_constants([-1])
        assert orbit_contains_finite_orbit_point(g, Fraction(1, 2)).kind == "no"

    def test_matches_bfs_oracle_over_q(self):
        # Ordered pairs of constants in quarters, not both integral, from
        # every half-integer start inside the escape radius.  A finite orbit
        # point v has den(v)^2 dividing 4, so half-integers hold them all.
        quarters = [Fraction(k, 4) for k in range(-20, 5)]
        kinds = []
        for constants in itertools.permutations(quarters, 2):
            if all(c.denominator == 1 for c in constants):
                continue
            g = GeneratorSet.from_constants(constants)
            targets = finite_orbit_oracle(constants, window=10, den=2)
            radius = max(abs(c) for c in constants) + 2
            for k in range(int(-2 * radius), int(2 * radius) + 1):
                start = Fraction(k, 2)
                answer = orbit_contains_finite_orbit_point(g, start)
                expected = reach_oracle(constants, start, targets, window=10, den=2)
                assert (answer.kind, answer.witness) == expected, (constants, start)
                kinds.append(assert_status_matches_oracle(g, start, targets, expected[0]))
        assert len(kinds) > 11000 and kinds.count("closed") >= 20


class TestPairFamilies:
    @pytest.mark.parametrize(
        "c1,c2,family,y",
        [(-2, -6, "A", 3), (0, -1, "B", 1), (0, -2, "A", 1), (-2, -3, "B", 3)],
    )
    def test_members(self, c1, c2, family, y):
        member = pair_family_membership(c1, c2)
        assert member is not None
        assert (member.family, member.y) == (family, y)

    def test_non_member(self):
        assert pair_family_membership(1, 2) is None

    def test_distinct_required(self):
        with pytest.raises(ValueError):
            pair_family_membership(3, 3)


EXCEPTIONAL = [(-2,), (-1,), (0,), (-6, -2), (-3, -2), (-1, 0)]


def classification_grid():
    """(constants, den) for every integer set of 1-3 maps with c in [-30, 30],
    every pair of rationals with denominator dividing 8 in [-12, 4], and the
    pairs of families A and B for y = 1..15.  A finite orbit point v of such a
    set has den(v)^2 dividing the constants' denominators, so den(v) | den."""
    for size in (1, 2, 3):
        for constants in itertools.combinations(range(-30, 31), size):
            yield constants, 1
    for constants in itertools.combinations([Fraction(k, 8) for k in range(-96, 33)], 2):
        yield constants, 2
    for y in range(1, 16):
        yield (Fraction(1 - y * y, 4), Fraction(1 - (y + 2) ** 2, 4)), 2
        yield (Fraction(1 - y * y, 4), Fraction(-3 - y * y, 4)), 2


# Wider than max|c| + 1 for every set of the grid (family A at y = 15 has -72).
GRID_WINDOW = 80


@functools.cache
def single_map_points(c, den):
    return frozenset(finite_orbit_oracle((c,), window=GRID_WINDOW, den=den))


class TestClassifier:
    def test_exhaustive_scan(self):
        found = []
        for s in (1, 2, 3):
            for combo in itertools.combinations(range(-10, 11), s):
                g = GeneratorSet.from_constants(list(combo))
                if classify_finite_orbit_obstruction(g).exceptional:
                    found.append(combo)
        assert found == EXCEPTIONAL

    def test_walk_agrees_with_theorem(self):
        # The walk from 0 against the paper's classification and the
        # breadth-first oracle, on 46,167 sets.  Every exceptional set is one
        # of the theorem's candidates, and every verdict and witness is the
        # oracle's.
        found = []
        for constants, den in classification_grid():
            result = classify_finite_orbit_obstruction(GeneratorSet.from_constants(constants))
            # A finite semigroup orbit is finite under each map, so the
            # single-map point sets hold every target; starting there is faster.
            within = frozenset.intersection(*(single_map_points(c, den) for c in constants))
            targets = finite_orbit_oracle(constants, den=den, within=within)
            kind, witness = reach_oracle(constants, 0, targets, window=GRID_WINDOW, den=den)
            assert (result.exceptional, result.witness) == (kind == "yes", witness), constants
            if result.exceptional:
                assert obstruction_candidate(constants), constants
                found.append((tuple(sorted(constants)), result.witness))
        assert sorted(set(found)) == sorted(zip(EXCEPTIONAL, (0, 0, 0, -2, -2, 0)))

    def test_non_integral(self):
        g = GeneratorSet.from_constants([Fraction(1, 4), Fraction(-3, 4)])
        assert not classify_finite_orbit_obstruction(g).exceptional

    def test_witness_carried(self):
        result = classify_finite_orbit_obstruction(GeneratorSet.from_constants([-2, -6]))
        assert result.exceptional
        assert result.witness == -2

    def test_general_maps_and_zt_rejected(self):
        for g in (GeneratorSet.parse("x^2+x; x^2-6x"), GeneratorSet.parse("t", ring=QT)):
            with pytest.raises(ValueError, match="critical-mode set over Q"):
                classify_finite_orbit_obstruction(g)


class TestValuationLemma:
    def test_fixed_point(self):
        assert valuation_lemma_check(Fraction(-3, 4), Fraction(3, 2), 2, 2) is True
        assert valuation_lemma_check(Fraction(-3, 4), Fraction(-1, 2), 2, 2) is True

    def test_hypothesis_not_met(self):
        with pytest.raises(ValueError):
            valuation_lemma_check(Fraction(-2), Fraction(2), 2, 2)

    def test_not_preperiodic(self):
        with pytest.raises(ValueError):
            valuation_lemma_check(Fraction(-3, 4), Fraction(7, 2), 2, 2)


class TestEisenstein:
    def test_shifted_case(self):
        g = GeneratorSet.from_constants([-2, -3])
        result = eisenstein_stability(g, SequenceCoding.constant(2), 1)
        assert result.ok and result.case == "shifted"
        # the shifted polynomial is x^2+2x-2
        shifted = composition_polynomial(g, SequenceCoding.constant(2), 1).compose(IntPolynomial((1, 1)))
        assert shifted.coeffs == (-2, 2, 1)

    def test_direct_case(self):
        g = GeneratorSet.from_constants([-2, -6])
        result = eisenstein_stability(g, CONST, 2)
        assert result.ok and result.case == "direct"
        assert result.constant_mod4 == 2

    def test_failure(self):
        result = eisenstein_stability(GeneratorSet.from_constants([-1]), CONST, 1)
        assert not result.ok

    def test_matches_polynomial_oracle(self):
        # Every 1- and 2-map set with constants in [-9, 9]; singletons with
        # coding |1, ordered pairs with |1, |1,2 and 1|2; levels 1 to 6.
        checked = 0
        constants = range(-9, 10)
        for cs in [(c,) for c in constants] + list(itertools.permutations(constants, 2)):
            g = GeneratorSet.from_constants(list(cs))
            codings = [CONST] if len(cs) == 1 else [CONST, SequenceCoding((), (1, 2)), SequenceCoding((1,), (2,))]
            for coding in codings:
                for n in range(1, 7):
                    assert eisenstein_stability(g, coding, n) == eisenstein_oracle(g, coding, n), (cs, coding, n)
                    checked += 1
        assert checked == 6270

    def test_every_composition_for_minus2_minus3(self):
        g = GeneratorSet.from_constants([-2, -3])
        for depth in range(1, 5):
            for word in itertools.product((1, 2), repeat=depth):
                coding = SequenceCoding(word, (word[-1],))
                assert eisenstein_stability(g, coding, depth).ok


def test_generator_set_parse():
    # Integral constants over Q are ints, the others Fractions.
    for spec in ("x^2-2; x^2-6", "-2; -6"):
        g = GeneratorSet.parse(spec)
        assert g.constants == (-2, -6) and all(type(c) is int for c in g.constants)
    assert [type(c) for c in GeneratorSet.parse("1/2; 4/2").constants] == [Fraction, int]
    g3 = GeneratorSet.parse("t^4+5t; -(7t^4+3)", ring=QT)
    assert [str(c) for c in g3.constants] == ["t^4+5t", "-7t^4-3"]
    g4 = GeneratorSet.parse("x^2+x; x^2-6x")
    assert not g4.is_critical


def test_critical_maps_over_qt_parse_to_constant_polynomials():
    g = GeneratorSet.parse("x^2-2; x^2+3", ring=QT)
    assert g.is_critical and g.ring == QT
    assert g.constants == (IntPolynomial((-2,)), IntPolynomial((3,)))


def test_general_maps_over_qt_rejected():
    with pytest.raises(ValueError, match="general maps work over Q only, not over ring 'qt'"):
        GeneratorSet(general=(parse_poly("x^2+x", var="x"),), ring=QT)


def test_composition_polynomial_of_general_maps():
    f, g = parse_poly("x^2+x", var="x"), parse_poly("x^2-6x", var="x")
    gens = GeneratorSet.parse("x^2+x; x^2-6x")
    coding = SequenceCoding((1,), (2,))
    expected = [f, f.compose(g), f.compose(g.compose(g))]
    assert [composition_polynomial(gens, coding, n) for n in (1, 2, 3)] == expected
    assert expected[2].evaluate(3) == gens.apply(1, gens.apply(2, gens.apply(2, 3)))


def test_duplicate_maps_rejected():
    with pytest.raises(ValueError):
        GeneratorSet.from_constants([2, 2])
