"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Criterion 9 is split in two: the bound values the closed forms produce, and
two legacy literal targets that contradict those same closed forms (r_2 would
need a third constrained coefficient that does not exist, and criterion 8's
convergence check pins the other value).  The literal-target test is asserted
verbatim and left red deliberately instead of bending the formulas.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from conftest import (
    coin_transition,
    discriminant_identity_check,
    fpp_brute_force,
    gamma_value,
    gamma_values,
    stay_probability_bound,
    within_three_sigma,
)
from quadorbit.algebra import (
    IntPolynomial,
    gcd_primitive,
    is_square,
    derivative_is_one_mod2,
    parse_poly,
)
from quadorbit.census import (
    MONIC_DERIVATIVE,
    ODD_DERIVATIVE,
    ODD_LEADING,
    STAR_EVEN,
    CoefficientBox,
    bound_formula,
    count_property,
    exact_set_fraction,
    presence_fraction,
    r_d,
)
from quadorbit.certify import (
    MAX_FAILS,
    MAX_PRIMITIVE,
    certify_chain,
    level2_oracle,
    maximality_by_primitive_odd_prime,
    maximality_qt,
)
from quadorbit.dynamics import (
    QT,
    GeneratorSet,
    SequenceCoding,
    classify_finite_orbit_obstruction,
    composition_polynomial,
    critical_orbit,
    eisenstein_stability,
    escape_criterion,
    semigroup_orbit,
)
from quadorbit.primescan import density_profile, prime_divides_orbit, primes_up_to
from quadorbit.process import fpp_dyadic, fpp_enclosure, fpp_full_binary, simulate_process
from quadorbit.reporting import canonical_json

CONST = SequenceCoding.constant(1)


def _report(number: int, description: str, ok: bool, elapsed: float | None = None) -> None:
    stamp = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {number:02d}: {'PASS' if ok else 'FAIL'} - {description}{stamp}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_01_classification_scan():
    start = time.monotonic()
    found = []
    for s in (1, 2, 3):
        for combo in itertools.combinations(range(-10, 11), s):
            if classify_finite_orbit_obstruction(GeneratorSet.from_constants(list(combo))).exceptional:
                found.append(tuple(sorted(combo)))
    elapsed = time.monotonic() - start
    expected = [(-2,), (-1,), (0,), (-6, -2), (-3, -2), (-1, 0)]
    _report(
        1,
        "exhaustive scan c in [-10,10], s <= 3 finds exactly the six exceptional sets",
        sorted(found) == sorted(expected) and elapsed < 60,
        elapsed,
    )


def test_criterion_02_escape_soundness():
    start = time.monotonic()
    rng = random.Random(2025_02)
    checked = 0
    sound = True
    while checked < 500:
        s = rng.randint(1, 3)
        cs = rng.sample(range(-50, 51), s)
        gens = GeneratorSet.from_constants(cs)
        if not escape_criterion(gens):
            continue
        checked += 1
        if semigroup_orbit(gens, 0).kind == "closed":
            sound = False
            break
    elapsed = time.monotonic() - start
    _report(2, "500 random escape-certified sets never produce a closed orbit of 0", sound and elapsed < 30, elapsed)


def test_criterion_03_discriminant_identity():
    start = time.monotonic()
    gens = GeneratorSet.from_constants([1])
    ok = discriminant_identity_check(gens, CONST, 2)
    # the fixed case pins the value 512 on both sides
    from conftest import discriminant
    from quadorbit.dynamics import composition_polynomial

    gamma2 = composition_polynomial(gens, CONST, 2)
    ok = ok and discriminant(gamma2) == 512

    rng = random.Random(2025_03)
    done = 0
    while done < 50:
        s = rng.randint(1, 3)
        cs = rng.sample(range(-9, 10), s)
        gens = GeneratorSet.from_constants(cs)
        coding = SequenceCoding(
            tuple(rng.randint(1, s) for _ in range(rng.randint(0, 2))),
            tuple(rng.randint(1, s) for _ in range(rng.randint(1, 3))),
        )
        n = rng.choice([2, 3, 4])
        if gamma_value(gens, coding, Fraction(0), n) == 0:
            continue
        done += 1
        if not discriminant_identity_check(gens, coding, n):
            ok = False
            break
    elapsed = time.monotonic() - start
    _report(3, "disc identity holds exactly for 50 random cases incl. the 512 instance", ok, elapsed)


def _random_qt_set(rng, max_d=3, size=None):
    s = size or rng.randint(1, 3)
    cs = []
    while len(cs) < s:
        d = rng.randint(0, max_d)
        coeffs = [rng.randint(-5, 5) for _ in range(d + 1)]
        if d > 0 and coeffs[-1] == 0:
            coeffs[-1] = rng.choice([1, -1, 2, 3])
        c = IntPolynomial(coeffs)
        if not c.is_zero() and c not in cs:
            cs.append(c)
    return GeneratorSet.from_constants(cs, ring=QT)


def test_criterion_04_degree_law():
    start = time.monotonic()
    rng = random.Random(2025_04)
    ok = True
    done = 0
    from conftest import degree_law_check

    while done < 200:
        gens = _random_qt_set(rng)
        if max(c.degree for c in gens.constants) < 1:
            continue
        coding = SequenceCoding(
            tuple(rng.randint(1, gens.size) for _ in range(rng.randint(0, 2))),
            tuple(rng.randint(1, gens.size) for _ in range(rng.randint(1, 3))),
        )
        n = rng.randint(1, 6)
        done += 1
        if not degree_law_check(gens, coding, n):
            ok = False
            break
    elapsed = time.monotonic() - start
    _report(4, "degree law (equality + leading-power claim) on 200 random Z[t] sets", ok, elapsed)


def test_criterion_05_squarefree_trick():
    start = time.monotonic()
    rng = random.Random(2025_05)
    done = 0
    ok = True
    while done < 200:
        d = rng.randint(1, 4)
        c_coeffs = [rng.randint(-9, 9) for _ in range(d + 1)]
        if len(c_coeffs) > 1:
            c_coeffs[1] = 2 * rng.randint(-4, 4) + 1
        for i in range(3, d + 1, 2):
            c_coeffs[i] = 2 * rng.randint(-4, 4)
        c = IntPolynomial(c_coeffs)
        if not derivative_is_one_mod2(c):
            continue
        if rng.random() < 0.5:
            dz = rng.randint(max(1, (d + 1) // 2), 3)
            z = IntPolynomial([rng.randint(-9, 9) for _ in range(dz)] + [2 * rng.randint(0, 3) + 1])
        else:
            z = IntPolynomial([rng.randint(-9, 9) for _ in range(rng.randint(0, max(1, d // 2)))] + [rng.randint(1, 5)])
        f = z * z + c
        if f.is_constant() or f.leading_coefficient() % 2 == 0:
            continue
        done += 1
        if not gcd_primitive(f, f.derivative())[0].is_constant():
            ok = False
            break
    elapsed = time.monotonic() - start
    _report(5, "200 qualifying z^2+c values are square-free (derivative gcd constant)", ok, elapsed)


def test_criterion_06_maximality_tool():
    start = time.monotonic()
    single = GeneratorSet.from_constants([parse_poly("t")], ring=QT)
    chain = certify_chain(single, CONST, 10)
    ok = chain.stable and chain.tool_guarantee and chain.maximal_levels == list(range(1, 11))

    pair = GeneratorSet.from_constants([parse_poly("t^4+5t"), parse_poly("-(7t^4+3)")], ring=QT)
    chain2 = certify_chain(pair, SequenceCoding((1,), (2,)), 6)
    ok = ok and chain2.stable and chain2.maximal_levels == list(range(1, 7))
    elapsed = time.monotonic() - start
    _report(
        6,
        "x^2+t certifies stable+maximal through 10; the two-map example through 6",
        ok and elapsed < 120,
        elapsed,
    )


def test_criterion_07_oracle_consistency():
    start = time.monotonic()
    rng = random.Random(2025_07)
    done = 0
    witnesses = 0
    ok = True
    while done < 200:
        s = rng.randint(1, 3)
        cs = rng.sample(range(-20, 21), s)
        gens = GeneratorSet.from_constants(cs)
        coding = SequenceCoding((), tuple(rng.randint(1, s) for _ in range(rng.randint(1, 2))))
        first = -gamma_value(gens, coding, Fraction(0), 1)
        if first == 0 or is_square(first) or gamma_value(gens, coding, Fraction(0), 2) == 0:
            continue
        done += 1
        values = critical_orbit(gens, coding, 2)
        ev = maximality_by_primitive_odd_prime(gens, values)
        if ev.kind == MAX_PRIMITIVE:
            witnesses += 1
            if level2_oracle(gens, values) is not True:
                ok = False
                break
    done_qt = 0
    while done_qt < 100:
        gens = _random_qt_set(rng, max_d=2, size=rng.randint(1, 2))
        coding = SequenceCoding((), tuple(rng.randint(1, gens.size) for _ in range(rng.randint(1, 2))))
        values = critical_orbit(gens, coding, 2)
        first = -values[0]
        if first.is_zero() or is_square(first) or values[1].is_zero():
            continue
        done_qt += 1
        ev = maximality_qt(gens, values)
        if ev.kind == MAX_PRIMITIVE:
            witnesses += 1
            if level2_oracle(gens, values) is not True:
                ok = False
                break
    elapsed = time.monotonic() - start
    _report(
        7,
        f"valuation witnesses at n=2 always imply the exact oracle ({witnesses} hits over 300 instances)",
        ok and witnesses >= 100,
        elapsed,
    )


def test_criterion_08_census():
    start = time.monotonic()
    ok = True
    for d in (1, 2, 3):
        for B in (1, 2, 3, 4):
            props = (
                [(STAR_EVEN, False), (MONIC_DERIVATIVE, True)]
                if d % 2 == 0
                else [(ODD_DERIVATIVE, False), (ODD_LEADING, False)]
            )
            for prop, monic in props:
                # cross_check=True raises if the closed form disagrees with
                # full enumeration
                count_property(CoefficientBox(d, B, monic=monic), prop, cross_check=True)
    ok = ok and presence_fraction(1, 2, 1, ODD_DERIVATIVE) == Fraction(11, 12)
    dev4 = abs(exact_set_fraction(2, 2, 4, "even") - bound_formula(2, 2, "even"))
    dev16 = abs(exact_set_fraction(2, 2, 16, "even") - bound_formula(2, 2, "even"))
    ok = ok and dev16 < dev4
    elapsed = time.monotonic() - start
    _report(
        8,
        "count closed forms = enumeration (d<=3, B<=4); (I)-presence 11/12; deviation shrinks B=4 to 16",
        ok,
        elapsed,
    )


def test_criterion_09_bound_values_closed_forms():
    ok = (
        r_d(1) == Fraction(1, 2)
        and r_d(3) == Fraction(1, 4)
        and bound_formula(1, 2, "odd") == Fraction(1, 2)
        and bound_formula(2, 3, "monic") == Fraction(7, 8)
        and r_d(2) == Fraction(1, 2) ** (2 // 2 + 1)
        and bound_formula(2, 2, "even") == 1 - (1 - r_d(2)) ** 2
    )
    _report(9, "bound formulas match the closed forms (r1, r2, r3, odd, monic, even)", ok)


def test_criterion_09_legacy_literal_targets():
    # These two handed-down targets contradict the closed form: property (*)
    # at d = 2 constrains exactly two coefficients, so r_2 = (1/2)^2 = 1/4 and
    # the even bound at s = 2 is 7/16, which is also what the exact fractions
    # converge to in criterion 8.  Asserted verbatim and expected to fail.
    ok = r_d(2) == Fraction(1, 8) and bound_formula(2, 2, "even") == Fraction(15, 64)
    _report(9, "legacy literal targets r2=1/8 and bound_even(2,2)=15/64 (inconsistent; kept red)", ok)


def test_criterion_10_fpp():
    start = time.monotonic()
    ok = (
        fpp_full_binary(1) == Fraction(1, 2) == fpp_brute_force(1)
        and fpp_full_binary(2) == Fraction(3, 8) == fpp_brute_force(2)
        and fpp_full_binary(3) == Fraction(39, 128) == fpp_brute_force(3)
    )
    # strict decrease: exact dyadic comparison while sizes allow it
    prev = fpp_dyadic(1)
    for n in range(2, 19):
        cur = fpp_dyadic(n)
        # a_n / 2^e_n < a_p / 2^e_p  <=>  a_n < a_p << (e_n - e_p)
        ok = ok and cur[0] < prev[0] << (cur[1] - prev[1])
        prev = cur
    # certified enclosures carry the strict decrease through level 64
    bounds = [fpp_enclosure(n) for n in range(1, 65)]
    for (lo_prev, _), (_, hi_cur) in zip(bounds, bounds[1:]):
        ok = ok and hi_cur < lo_prev
    ok = ok and bounds[63][1] < Fraction(1, 16)
    elapsed = time.monotonic() - start
    _report(
        10,
        "f1=1/2, f2=3/8, f3=39/128 vs brute force; strictly decreasing to 64; f64 < 1/16 (certified)",
        ok,
        elapsed,
    )


def test_criterion_11_martingale():
    ok = True
    for u in range(0, 130, 2):
        dist = coin_transition(u)
        ok = ok and sum(v * p for v, p in dist.items()) == u
    ok = ok and stay_probability_bound(2) == Fraction(1, 2)
    for u in range(4, 130, 2):
        ok = ok and stay_probability_bound(u) < Fraction(1, 2)
    _report(11, "coin-step expectation is exact for even u <= 128; stay prob <= 1/2 with equality only at u=2", ok)


def test_criterion_12_simulation():
    start = time.monotonic()
    report = simulate_process(seed=20250810, depth=12, trials=100_000, workers=1)
    ok = all(
        within_three_sigma(level.positive, level.trials, level.exact_fpp) for level in report.levels
    )
    report8 = simulate_process(seed=20250810, depth=12, trials=100_000, workers=8)
    ok = ok and canonical_json(report.to_dict()) == canonical_json(report8.to_dict())
    elapsed = time.monotonic() - start
    _report(
        12,
        "depth-12 simulation within 3 exact-binomial sigmas of f_n; identical bytes 1 vs 8 workers",
        ok and elapsed < 60,
        elapsed,
    )


def test_criterion_13_prime_scan():
    start = time.monotonic()
    gens = GeneratorSet.from_constants([1])
    ok = (
        prime_divides_orbit(2, gens, CONST, 0).first_index == 2
        and prime_divides_orbit(5, gens, CONST, 0).first_index == 3
        and prime_divides_orbit(3, gens, CONST, 0).status == "no"
    )
    values = gamma_values(gens, CONST, Fraction(0), 12)
    for p in primes_up_to(200):
        direct = next((n for n, v in enumerate(values, 1) if v != 0 and v.numerator % p == 0), None)
        result = prime_divides_orbit(p, gens, CONST, 0)
        scan = (
            result.first_index
            if result.status == "yes" and result.first_index is not None and result.first_index <= 12
            else None
        )
        ok = ok and direct == scan
    report = density_profile(gens, CONST, 0, [10**3, 10**4, 10**5, 10**6])
    ratios = [row.ratio for row in report.rows]
    ok = ok and all(a > b for a, b in zip(ratios, ratios[1:]))
    # frozen after the pilot run of this implementation
    ok = ok and [row.in_p for row in report.rows] == [17, 39, 99, 224]
    ok = ok and [row.pi_x for row in report.rows] == [168, 1229, 9592, 78498]
    elapsed = time.monotonic() - start
    _report(
        13,
        "p=2,5 enter at 2,3; p=3 never; oracle equivalence to 200; scan to 1e6 with decreasing ratios",
        ok and elapsed < 300,
        elapsed,
    )


def test_criterion_14_infinite_index_mechanism():
    start = time.monotonic()
    gens = GeneratorSet.from_constants([-2, -6])
    ok = True
    # every composition of depth <= 6 passes the Eisenstein route
    for depth in range(1, 7):
        for word in itertools.product((1, 2), repeat=depth):
            coding = SequenceCoding(word, (word[-1],))
            if not eisenstein_stability(gens, coding, depth).ok:
                ok = False
                break
    # bounded critical orbit: whenever the innermost map at level n is x^2-2
    # the value sits in {-2, 2}; the odd-valuation criterion then definitively
    # fails there (2 already divides the level-1 value)
    rng = random.Random(2025_14)
    codings = [CONST] + [
        SequenceCoding(
            tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 3))),
            tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 3))),
        )
        for _ in range(12)
    ]
    for coding in codings:
        values = critical_orbit(gens, coding, 10)
        for n in range(1, 11):
            if coding.index_at(n) == 1:
                ok = ok and values[n - 1] in (Fraction(-2), Fraction(2))
                if n >= 2:
                    ev = maximality_by_primitive_odd_prime(gens, critical_orbit(gens, coding, n))
                    ok = ok and ev.kind == MAX_FAILS
    elapsed = time.monotonic() - start
    _report(
        14,
        "all 126 depth<=6 compositions Eisenstein-stable; inner x^2-2 levels stay in {-2,2} and defeat the criterion",
        ok and elapsed < 10,
        elapsed,
    )
