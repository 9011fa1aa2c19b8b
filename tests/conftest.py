"""Shared independent oracles for the test suite.

These deliberately avoid the library's own code paths: compositions are
evaluated directly with Fractions, resultants via Sylvester determinants,
counts by brute-force enumeration.  The paper's classification of the
finite-orbit obstruction is here too, as the theorem the walk must agree with,
with the valuation lemma; the lemma reads v_p through the library's
``padic_valuation``, which ``test_rationals.py`` checks on its own.  The
Eisenstein oracle reads the coefficients of the library's
``composition_polynomial``, which ``test_dynamics.py`` checks against direct
evaluation.  ``sample_codings_oracle`` draws one ``randrange`` per position, as
``sample_codings`` did before it decoded the generator's words in blocks.
The subresultant ``resultant`` and ``discriminant``, with the discriminant
identity and the degree law they check, live here because no command uses
them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm

from quadorbit.algebra.intpoly import IntPolynomial
from quadorbit.algebra.rationals import padic_valuation
from quadorbit.dynamics import QT, EisensteinResult, SequenceCoding, composition_polynomial, critical_orbit
from quadorbit.process import SampleReport, _chunk_seed


def gamma_value(gens, coding, a0, n):
    """(theta_1 o ... o theta_n)(a0) by direct inside-out evaluation."""
    v = a0 if not isinstance(a0, int) else Fraction(a0)
    for k in range(n, 0, -1):
        c = gens.constants[coding.index_at(k) - 1]
        v = v * v + c
    return v


def gamma_values(gens, coding, a0, depth):
    return [gamma_value(gens, coding, a0, n) for n in range(1, depth + 1)]


def brute_force_membership(gens, coding, a0, p):
    """(status, first_index) as prime_divides_orbit defines them, level by level.

    Level n is (theta_1 o ... o theta_n)(a0).  Both tables below are composed
    outermost map first, one level at a time, so no level goes through the
    prefix/cycle split of the walker:
    - mod_p[x] is the level value at x, mod p;
    - zeros holds the integers x inside the escape radius max|c| + 2 whose
      level value is exactly 0.  A value with a denominator, or outside the
      radius, keeps that property under every map and so is never 0.
    A level counts when it is 0 mod p without being exactly 0.  The horizon
    runs past every level the walker decides: per phase, fewer than 2*radius
    cycle blocks inside the escape bound, then at most p residues mod p.
    """
    a0 = Fraction(a0)
    if a0.denominator % p == 0:
        return "excluded", None
    x0 = a0.numerator * pow(a0.denominator, -1, p) % p
    if a0 != 0 and x0 == 0:
        return "yes", 0
    cs = [int(c) for c in gens.constants]
    radius = max(abs(c) for c in cs) + 2
    mod_p = list(range(p))
    zeros = {0}
    horizon = len(coding.prefix) + len(coding.cycle) * 2 * radius * (p + 1)
    for n in range(1, horizon + 1):
        c = cs[coding.index_at(n) - 1]
        mod_p = [mod_p[(x * x + c) % p] for x in range(p)]
        zeros = {x for x in range(1 - radius, radius) if x * x + c in zeros}
        if mod_p[x0] == 0 and a0 not in zeros:
            return "yes", n
    return "no", None


def zero_levels(constants, coding, a0, depth):
    """{ n <= depth : gamma_n(a0) == 0 } by exact rational preimages of 0.

    P_n = { x in Q : (theta_1 o ... o theta_n)(x) == 0 } satisfies
    P_n = { x : x^2 + c_{theta_n} in P_{n-1} }, and x^2 = y has the rational
    roots +-sqrt(y) only when y is a rational square.  No escape radius and
    no level value is used, so the huge orbit values never appear.
    """
    a0 = Fraction(a0)
    preimages = {Fraction(0)}
    out = {0} if a0 == 0 else set()
    for n in range(1, depth + 1):
        c = constants[coding.index_at(n) - 1]
        nxt = set()
        for y in preimages:
            square = y - c
            if square >= 0:
                num, den = isqrt(square.numerator), isqrt(square.denominator)
                if Fraction(num * num, den * den) == square:
                    nxt.update({Fraction(num, den), Fraction(-num, den)})
        preimages = nxt
        if a0 in preimages:
            out.add(n)
    return out


def primitive_odd_prime_oracle(values):
    """Smallest prime dividing the last value to odd multiplicity and no
    earlier value, or None: the valuation criterion, by full trial division
    of the last value (keep it below about 10^12)."""
    rest = abs(values[-1])
    p = 2
    while rest > 1:
        if p * p > rest:
            p = rest  # what is left is prime
        e = 0
        while rest % p == 0:
            rest //= p
            e += 1
        if e % 2 == 1 and all(v % p != 0 for v in values[:-1]):
            return p
        p += 1
    return None


def finite_orbit_oracle(constants, window=60, den=1, within=None):
    """Rationals with denominator dividing ``den`` whose orbit under every
    x^2 + c stays finite.

    The greatest subset of a wide window of such rationals that every map
    sends into itself; a value leaving the window outgrows every constant and
    never returns, so the window only needs to exceed max|c| + 1.  The
    denominators only need to cover those whose square divides every
    constant's: any other denominator grows under every map.  ``within``, a
    set holding every such point, replaces the window as the starting set.
    """
    points = {Fraction(k, den) for k in range(-window * den, window * den + 1)} if within is None else within
    while True:
        kept = {x for x in points if all(x * x + c in points for c in constants)}
        if kept == points:
            return points
        points = kept


def closure_oracle(constants, start):
    """The orbit of a start with a finite orbit: {start} closed under every
    x^2 + c by repeated passes over the whole set."""
    points = {start}
    while True:
        grown = points | {x * x + c for x in points for c in constants}
        if grown == points:
            return frozenset(points)
        points = grown


def reach_oracle(constants, start, targets, window=60, den=1):
    """(kind, witness) of the first target in breadth-first order of words.

    Level k lists (theta o v) for v in level k-1, then theta in map order,
    deduplicated inside the level only.  The first target of the first level
    that has one is the witness.  Values outside the window (too large, or a
    denominator not dividing ``den``) never come back; once a level's value
    set repeats, no later level brings a new value.
    """
    level = [start]
    seen_levels = set()
    while frozenset(level) not in seen_levels:
        for v in level:
            if v in targets:
                return "yes", v
        seen_levels.add(frozenset(level))
        images = (v * v + c for v in level for c in constants)
        level = list(dict.fromkeys(w for w in images if abs(w) <= window and den % w.denominator == 0))
    return "no", None


# The paper's classification of the finite-orbit obstruction: the orbit of 0
# under a set over Q contains a finite orbit point only for the singletons
# {0, -1, -2} and for integral pairs in two one-parameter families.


@dataclass(frozen=True)
class PairFamily:
    family: str  # "A" | "B"
    y: int


def pair_family_membership(c1, c2):
    """Match (c1, c2) in either order against the two one-parameter families.

    Family A: ((1-y^2)/4, (1-(y+2)^2)/4); family B: ((1-y^2)/4, (-3-y^2)/4),
    with y a nonnegative odd integer (odd is the same as y = +-1 mod 4 here).
    """
    c1, c2 = Fraction(c1), Fraction(c2)
    if c1 == c2:
        raise ValueError("constants must be distinct")
    for u, v in ((c1, c2), (c2, c1)):
        w = 1 - 4 * u
        if w < 0 or w.denominator != 1:
            continue
        y = isqrt(int(w))
        if y * y != int(w) or y % 2 == 0:
            continue
        if v == Fraction(1 - (y + 2) ** 2, 4):
            return PairFamily("A", y)
        if v == Fraction(-3 - y * y, 4):
            return PairFamily("B", y)
    return None


# Widened integer windows for each family's parameter (the published decimal
# endpoints are treated as over-approximations only).
FAMILY_WINDOWS = {"A": range(1, 6), "B": range(1, 6)}


def obstruction_candidate(constants):
    """The theorem's candidates: a singleton in {0, -1, -2}, or an integral
    pair in family A or B with its parameter inside the family's window."""
    cs = [Fraction(c) for c in constants]
    if any(c.denominator != 1 for c in cs):
        return False
    if len(cs) == 1:
        return cs[0] in (0, -1, -2)
    if len(cs) != 2:
        return False
    member = pair_family_membership(*cs)
    return member is not None and member.y in FAMILY_WINDOWS[member.family]


def valuation_lemma_check(c, alpha, p, d=2, cap=256):
    """For alpha preperiodic under x^d + c with v_p(c) < 0: check v_p(c) == d v_p(alpha).

    Expected true; False would falsify the valuation relation.  Raises if the
    preperiodicity of alpha cannot be verified within the cap.
    """
    c, alpha = Fraction(c), Fraction(alpha)
    if d < 2:
        raise ValueError("need d >= 2")
    if c == 0 or padic_valuation(c, p) >= 0:
        raise ValueError("lemma hypothesis v_p(c) < 0 not met")
    seen = set()
    v = alpha
    for _ in range(cap):
        if v in seen:
            break
        seen.add(v)
        v = v**d + c
        if max(abs(v.numerator), v.denominator) > 10**80:
            raise ValueError("orbit is escaping; alpha is not verifiably preperiodic")
    else:
        raise ValueError("could not verify preperiodicity within the cap")
    if alpha == 0:
        raise ValueError("alpha = 0 has no finite valuation")
    return padic_valuation(c, p) == d * padic_valuation(alpha, p)


def gcd_mod_p_oracle(a, b, p):
    """Monic gcd over F_p of coefficient lists (constant term first, no
    trailing zeros mod p), by the textbook Euclid on Python lists."""
    a = [c % p for c in a]
    b = [c % p for c in b]
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


def schoolbook_product(a, b):
    """Coefficients of the product of two coefficient lists, term by term."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def sylvester_resultant(f_coeffs, g_coeffs):
    """Resultant as the Sylvester matrix determinant over Fractions."""
    f = [Fraction(c) for c in f_coeffs]
    g = [Fraction(c) for c in g_coeffs]
    m = len(f) - 1
    n = len(g) - 1
    if m < 0 or n < 0:
        raise ValueError("zero polynomial")
    if m == 0 and n == 0:
        return Fraction(1)
    size = m + n
    rows = []
    for i in range(n):
        row = [Fraction(0)] * size
        for j, c in enumerate(reversed(f)):
            row[i + j] = c
        rows.append(row)
    for i in range(m):
        row = [Fraction(0)] * size
        for j, c in enumerate(reversed(g)):
            row[i + j] = c
        rows.append(row)
    det = Fraction(1)
    for col in range(size):
        pivot = None
        for r in range(col, size):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, size):
            factor = rows[r][col] * inv
            if factor:
                for c2 in range(col, size):
                    rows[r][c2] -= factor * rows[col][c2]
    return det

# The subresultant resultant and the discriminant, with the two identities
# they check: no command computes them, so they live beside their own
# oracles (``sylvester_resultant`` here, sympy in ``test_sympy_oracles.py``).


def _pseudo_rem(a, b):
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


def resultant(a, b):
    """Resultant of nonzero integer polynomials, exact, by the subresultant
    pseudo-remainder chain."""
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


def discriminant(f):
    """disc(f) = (-1)^(d(d-1)/2) Res(f, f') / lc(f); the division is exact."""
    if f.is_zero():
        raise ValueError("discriminant of the zero polynomial is undefined")
    d = f.degree
    if d < 1:
        raise ValueError("discriminant needs degree >= 1")
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * resultant(f, f.derivative()) // f.leading_coefficient()


def discriminant_identity_check(gens, coding, n, cap=5):
    """disc(gamma_n) == Res(gamma_{n-1}, gamma_{n-1}')^2 * 2^(2^n) * gamma_n(0), exactly."""
    if not 2 <= n <= cap:
        raise ValueError(f"n must be between 2 and {cap}")
    if not gens.is_critical:
        raise ValueError("needs a critical set over Q")
    gamma_n = composition_polynomial(gens, coding, n)
    gamma_prev = composition_polynomial(gens, coding, n - 1)
    res = resultant(gamma_prev, gamma_prev.derivative())
    return discriminant(gamma_n) == res * res * 2 ** (2**n) * gamma_n.constant_coefficient()


def degree_law_check(gens, coding, n):
    """Degree bound deg <= d 2^(n-1), with equality and the leading-power law
    whenever the innermost constant attains the maximal degree d."""
    if gens.ring != QT or not gens.is_critical:
        raise ValueError("degree law applies over Z[t]")
    d = max(c.degree for c in gens.constants)
    if d <= 0:
        raise ValueError("needs a nonconstant degree bound")
    value = critical_orbit(gens, coding, n)[-1]
    if value.degree > d * 2 ** (n - 1):
        return False
    inner = gens.constants[coding.index_at(n) - 1]
    if inner.degree == d:
        if value.degree != d * 2 ** (n - 1):
            return False
        if value.leading_coefficient() != inner.leading_coefficient() ** (2 ** (n - 1)):
            return False
    return True



def eisenstein_at_two(poly):
    """Eisenstein's criterion at p = 2 for an integer polynomial."""
    if poly.degree < 1 or poly.leading_coefficient() % 2 == 0:
        return False
    if any(c % 2 for c in poly.coeffs[:-1]):
        return False
    return poly.constant_coefficient() % 4 != 0


def eisenstein_oracle(gens, coding, n):
    """EisensteinResult of the level-n composition f from its coefficients:
    Eisenstein at 2 on f when f(0) = 2 mod 4, on f(x+1) when f(0) is odd."""
    f = composition_polynomial(gens, coding, n)
    c0 = f.constant_coefficient() % 4
    if c0 == 2:
        return EisensteinResult(eisenstein_at_two(f), "direct", c0)
    if c0 in (1, 3):
        return EisensteinResult(eisenstein_at_two(f.compose(IntPolynomial((1, 1)))), "shifted", c0)
    return EisensteinResult(False, "", c0)


def sample_codings_oracle(weights, seed, length, samples, gens=None, certify_count=0, certify_depth=None):
    """The SampleReport of ``sample_codings`` for valid arguments, from one
    ``randrange(denom)`` per position of the chunk-0 stream, mapped through
    the cumulative thresholds by a linear search."""
    from quadorbit.certify import certify_chain

    weights = [Fraction(w) for w in weights]
    denom = lcm(*(w.denominator for w in weights))
    thresholds = []
    acc = 0
    for w in weights:
        acc += int(w * denom)
        thresholds.append(acc)
    rng = random.Random(_chunk_seed(seed, 0))
    first_counts = {}
    totals = {}
    certificates = []
    for sample_index in range(samples):
        word = []
        for _ in range(length):
            roll = rng.randrange(denom)
            for idx, bound in enumerate(thresholds, start=1):
                if roll < bound:
                    word.append(idx)
                    break
        first_counts[word[0]] = first_counts.get(word[0], 0) + 1
        for idx in word:
            totals[idx] = totals.get(idx, 0) + 1
        if sample_index < certify_count:
            coding = SequenceCoding(tuple(word), (word[-1],))
            chain = certify_chain(gens, coding, length if certify_depth is None else certify_depth)
            certificates.append(
                {
                    "coding": coding.render(),
                    "stable": chain.stable,
                    "maximal_levels": chain.maximal_levels,
                    "tool_guarantee": chain.tool_guarantee,
                }
            )
    return SampleReport(
        seed=seed,
        length=length,
        samples=samples,
        weights=[str(w) for w in weights],
        first_index_counts=first_counts,
        index_totals=totals,
        certificates=certificates,
    )
