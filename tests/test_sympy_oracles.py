"""Cross-checks against sympy as an independent oracle (tests only)."""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from quadorbit.algebra import (
    IntPolynomial,
    discriminant,
    gcd_primitive,
    resultant,
    squarefree_decomposition,
)
from quadorbit.algebra import factorint
from quadorbit.certify import MAX_FAILS, MAX_PRIMITIVE, maximality_by_primitive_odd_prime, maximality_qt
from quadorbit.dynamics import QT, GeneratorSet, SequenceCoding, critical_orbit

T = sympy.Symbol("t")


def to_sympy(poly: IntPolynomial):
    return sympy.Poly(list(reversed(poly.coeffs or (0,))), T)


def random_poly(rng, max_deg=5, bound=9):
    d = rng.randint(0, max_deg)
    coeffs = [rng.randint(-bound, bound) for _ in range(d + 1)]
    if coeffs[-1] == 0:
        coeffs[-1] = rng.choice([1, -1, 2])
    return IntPolynomial(coeffs)


def test_gcd_matches_sympy():
    # ours is the primitive representative of the Q[t] gcd; sympy keeps the
    # integer content, so compare primitive parts
    rng = random.Random(101)
    for _ in range(40):
        f, g, h = (random_poly(rng, 3) for _ in range(3))
        a, b = f * h, g * h
        if a.is_zero() or b.is_zero():
            continue
        ours = to_sympy(gcd_primitive(a, b)[0])
        theirs = sympy.Poly(sympy.gcd(to_sympy(a), to_sympy(b)), T).primitive()[1]
        assert ours == theirs or ours == -theirs


def test_resultant_matches_sympy():
    # sympy's sign convention drifts from the Sylvester determinant for some
    # degree pairs (it returns the same value for both argument orders); the
    # signed value is pinned elsewhere against the determinant and the root
    # product, so compare magnitudes here
    rng = random.Random(103)
    for _ in range(40):
        f, g = random_poly(rng, 5), random_poly(rng, 5)
        if f.is_zero() or g.is_zero() or f.is_constant() or g.is_constant():
            continue
        ours = resultant(f, g)
        theirs = sympy.resultant(to_sympy(f).as_expr(), to_sympy(g).as_expr(), T)
        assert abs(ours) == abs(Fraction(int(theirs)))


def test_discriminant_matches_sympy():
    rng = random.Random(107)
    for _ in range(30):
        f = random_poly(rng, 6)
        if f.degree < 2:
            continue
        ours = discriminant(f)
        theirs = sympy.discriminant(to_sympy(f).as_expr(), T)
        assert ours == Fraction(int(theirs))


def test_squarefree_decomposition_matches_sympy():
    rng = random.Random(109)
    for _ in range(30):
        f = random_poly(rng, 2)
        g = random_poly(rng, 2)
        e = rng.randint(1, 3)
        poly = f**e * g
        if poly.is_zero() or poly.is_constant():
            continue
        unit, parts = squarefree_decomposition(poly)
        _, sym_parts = sympy.sqf_list(to_sympy(poly).as_expr())
        ours = sorted((mult, to_sympy(p).as_expr()) for p, mult in parts)
        theirs = sorted(
            (mult, sympy.Poly(base, T).primitive()[1].as_expr()) for base, mult in sym_parts
        )
        for (m1, p1), (m2, p2) in zip(ours, theirs):
            assert m1 == m2
            assert sympy.simplify(p1 - p2) == 0 or sympy.simplify(p1 + p2) == 0
        assert len(ours) == len(theirs)


def test_level2_oracle_matches_galois_group_order():
    # For irreducible gamma_2 with irreducible gamma_1 the tower degree is
    # [K2:Q] = 2 [K2:K1], so maximality at level 2 is exactly Galois group
    # order 8 for the quartic.
    from sympy import Poly, galois_group
    from quadorbit.certify import level2_oracle
    from conftest import gamma_value

    x = sympy.Symbol("x")
    rng = random.Random(127)
    checked = 0
    while checked < 20:
        s = rng.randint(1, 2)
        cs = rng.sample(range(-12, 13), s)
        gens = GeneratorSet.from_constants(cs)
        coding = SequenceCoding((), tuple(rng.randint(1, s) for _ in range(rng.randint(1, 2))))
        c_outer = Fraction(gens.constants[coding.index_at(1) - 1])
        minus_first = -gamma_value(gens, coding, Fraction(0), 1)
        if minus_first == 0 or sympy.sqrt(minus_first).is_rational:
            continue
        c_inner = Fraction(gens.constants[coding.index_at(2) - 1])
        quartic = Poly((x**2 + int(c_inner)) ** 2 + int(c_outer), x)
        if not quartic.is_irreducible:
            continue
        checked += 1
        group, _ = galois_group(quartic)
        values = critical_orbit(gens, coding, 2)
        assert level2_oracle(gens, values) == (group.order() == 8), (cs, coding.render())


def test_maximality_witness_matches_sympy_factorization():
    # Independent route: factor the orbit values into irreducibles and test
    # directly for a primitive factor of odd multiplicity.
    rng = random.Random(113)
    done = 0
    while done < 25:
        s = rng.randint(1, 2)
        cs = []
        while len(cs) < s:
            c = random_poly(rng, 3, bound=4)
            if not c.is_zero() and c not in cs:
                cs.append(c)
        gens = GeneratorSet.from_constants(cs, ring=QT)
        coding = SequenceCoding((), tuple(rng.randint(1, s) for _ in range(rng.randint(1, 2))))
        n = rng.randint(2, 4)
        values = critical_orbit(gens, coding, n)
        if values[-1].is_zero() or any(v.is_zero() for v in values):
            continue
        done += 1
        target_factors = sympy.factor_list(to_sympy(values[-1]).as_expr())[1]
        earlier = [to_sympy(v).as_expr() for v in values[:-1]]
        expected = False
        for base, mult in target_factors:
            if sympy.degree(base, T) < 1 or mult % 2 == 0:
                continue
            if all(sympy.rem(e, base, T) != 0 for e in earlier):
                expected = True
                break
        got = maximality_qt(gens, values).kind == MAX_PRIMITIVE
        assert got == expected, (cs, coding.render(), n)


def test_valuation_criterion_over_q_matches_factorint():
    # Kind and witness of every level through 6, against the smallest prime
    # that sympy's complete factorization shows to qualify.
    rng = random.Random(113)
    named = 0
    for _ in range(12):
        s = rng.randint(1, 3)
        gens = GeneratorSet.from_constants(rng.sample(range(-12, 13), s))
        prefix = tuple(rng.randint(1, s) for _ in range(rng.randint(0, 2)))
        coding = SequenceCoding(prefix, tuple(rng.randint(1, s) for _ in range(rng.randint(1, 2))))
        values = critical_orbit(gens, coding, 6)
        for n in range(2, 7):
            if values[n - 1] == 0:
                continue
            qualifying = [
                p
                for p, e in sympy.factorint(abs(values[n - 1])).items()
                if e % 2 == 1 and all(v % p != 0 for v in values[: n - 1])
            ]
            expected = (MAX_PRIMITIVE, str(min(qualifying))) if qualifying else (MAX_FAILS, "")
            ev = maximality_by_primitive_odd_prime(gens, values[:n])
            assert ev.kind == expected[0], (gens, coding.render(), n)
            if ev.witness != expected[1]:
                # Rho ran out of budget before it found the prime: the witness
                # is the residue, which every qualifying prime divides.
                assert min(qualifying) > factorint.TRIAL_BOUND, (gens, coding.render(), n)
                assert all(int(ev.witness) % p == 0 for p in qualifying)
            elif qualifying:
                named += 1
    assert named >= 30
