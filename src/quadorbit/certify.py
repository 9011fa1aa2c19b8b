"""Stability and maximality certificates for sequence prefixes over Q and Q(t).

Stability is per level: a level is certified when the relevant orbit value
is a non-square (the inductive square test), or when Eisenstein at 2 applies
(over Z), or wholesale over Q(t) via the mod-2 derivative shortcut when the
outermost constant reduces with derivative 1.  Maximality for n >= 3 only
ever uses the sufficient valuation criterion (a primitive prime divisor of
the orbit value appearing to odd multiplicity); n = 2 additionally has the
exact oracle in the explicit quadratic extension.

Both rings decide the valuation criterion the same way: strip from the
level value every prime (or irreducible factor) it shares with an earlier
value, by gcds, and test whether the residue is a square.  A coding that
applies one map at every level strips level n only against the levels that
divide n, because the critical orbit of one map is a divisibility sequence
(``_strip_levels``).  The evidence keeps the residue, and naming the witness
is a separate step, taken only when the witness is read: over Q it factors
the residue, so every level is decided whatever the rho iteration cap, and a
caller that reads only the decisions never factors.

Over Z[t], when the derivative shortcut applies, a level value with an odd
leading coefficient is square-free by its reduction mod 2, and its
square-free decomposition is read off without Yun's gcds (``_decomposer``).
"""

from __future__ import annotations

import functools
import math

from . import QQ, QT, _record
from .algebra.factorint import RHO_ITERATIONS, factor_integer
from .algebra.intpoly import IntPolynomial, derivative_is_one_mod2, render_poly
from .algebra.integers import is_square_int, is_square_rational
from .algebra.ratpoly import (
    gcd_primitive,
    is_square,
    square_in_quadratic_extension,
    squarefree_decomposition,
)
from .dynamics import GeneratorSet, SequenceCoding, critical_orbit, eisenstein_stability

STAB_NON_SQUARE = "non_square_witness"
STAB_EISENSTEIN = "eisenstein_witness"
STAB_DERIVATIVE = "derivative_trick"
STAB_FAILED = "failed"

MAX_PRIMITIVE = "primitive_odd_prime"
MAX_ORACLE = "level2_oracle"
MAX_LEVEL_ONE = "level_one"
MAX_FAILS = "criterion_fails"
MAX_NOT_ATTEMPTED = "not_attempted"


@_record(frozen=True)
class StabilityEvidence:
    kind: str
    witness: str = ""
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.kind in (STAB_NON_SQUARE, STAB_EISENSTEIN, STAB_DERIVATIVE)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "witness": self.witness, "detail": self.detail}


@_record(frozen=True)
class MaximalityEvidence:
    kind: str
    residue: int | IntPolynomial | None = None
    oracle: bool | None = None
    guaranteed: bool = False
    rho_iterations: int = RHO_ITERATIONS

    @property
    def ok(self) -> bool:
        if self.kind in (MAX_PRIMITIVE, MAX_LEVEL_ONE):
            return True
        return self.kind == MAX_ORACLE and bool(self.oracle)

    @property
    def witness(self) -> str:
        """Named from a primitive level's ``residue`` when read.  Over Z[t] it
        is the residue.  Over Q it is the residue's smallest prime of odd
        exponent: factoring stops at the first trial prime that qualifies,
        and past the trial bound each composite gets one rho attempt of
        ``rho_iterations`` steps; when none is found it is the residue."""
        if self.residue is None:
            return ""
        if isinstance(self.residue, IntPolynomial):
            return render_poly(self.residue)
        fac = factor_integer(self.residue, self.rho_iterations, stop=lambda p, e: e % 2 == 1)
        return str(next((p for p, e in fac.factors if e % 2 == 1), self.residue))

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "witness": self.witness,
            "oracle": self.oracle,
            "guaranteed": self.guaranteed,
        }


@_record(frozen=True)
class LevelCertificate:
    level: int
    orbit_value: str
    stability: StabilityEvidence
    maximality: MaximalityEvidence

    def to_dict(self) -> dict:
        return {
            "level": self.level,
            "orbit_value": self.orbit_value,
            "stability": self.stability.to_dict(),
            "maximality": self.maximality.to_dict(),
        }


@_record
class CertificateChain:
    generators: list[str]
    coding: str
    ring: str
    depth: int
    levels: list[LevelCertificate] = []
    stable_through: int = 0
    maximal_levels: list[int] = []
    tool_guarantee: bool = False

    @property
    def stable(self) -> bool:
        return self.stable_through >= self.depth

    def to_dict(self) -> dict:
        return {
            "format_version": 1,
            "generators": self.generators,
            "coding": self.coding,
            "ring": self.ring,
            "depth": self.depth,
            "levels": [lc.to_dict() for lc in self.levels],
            "summary": {
                "stable_through": self.stable_through,
                "stable": self.stable,
                "maximal_levels": self.maximal_levels,
                "tool_guarantee": self.tool_guarantee,
            },
        }


def derivative_trick_applies(gens: GeneratorSet, coding: SequenceCoding) -> bool:
    """Mod-2 derivative shortcut over Q(t): certifies every level at once.

    Requires a nonconstant degree bound and the outermost constant to reduce
    mod 2 with derivative exactly 1; then no orbit value (of either sign) is
    a square, so the whole chain passes the square tests wholesale.
    """
    if gens.ring != QT:
        return False
    d = max(c.degree for c in gens.constants)
    if d <= 0:
        return False
    c1 = gens.constants[coding.index_at(1) - 1]
    return derivative_is_one_mod2(c1)


def _decomposer(values: list, mod2_squarefree: bool = False):
    """n -> square-free decomposition of the level-n Z[t] value, made at most once.

    ``mod2_squarefree`` says the chain passes ``derivative_trick_applies``:
    then every value has derivative 1 mod 2 (gamma_n' = 2 z z' + c_(theta_1)'
    for the inner value z).  A value whose leading coefficient is odd keeps
    its degree mod 2 and is coprime there to its derivative, so it has no
    repeated factor over Q: a primitive h with h^2 | gamma_n has an odd
    leading coefficient, so its image mod 2 has positive degree and would
    divide that gcd.  Its decomposition is then (signed content,
    [(primitive part, 1)]), which is what Yun's gives when its first gcd is
    constant, and no gcd is run.  An even leading coefficient still takes
    Yun's path."""

    @functools.cache
    def decompose(n: int):
        value = values[n - 1]
        if mod2_squarefree and value.leading_coefficient() % 2:
            part = value.primitive_part()
            return value.leading_coefficient() // part.leading_coefficient(), [(part, 1)]
        return squarefree_decomposition(value)

    return decompose


def _level_is_square(gens: GeneratorSet, values: list, n: int, decompose) -> bool:
    """Whether the level-n square-test argument (the orbit value, negated at
    level 1) is a square; a nonconstant Z[t] value is judged from its
    square-free decomposition, whose unit changes sign with the value."""
    value = values[n - 1]
    if gens.ring == QT and not value.is_constant():
        unit, parts = decompose(n)
        return all(mult % 2 == 0 for _, mult in parts) and is_square_rational(-unit if n == 1 else unit)
    return is_square(-value if n == 1 else value)


def stability_certificate(
    gens: GeneratorSet, coding: SequenceCoding, values: list
) -> list[StabilityEvidence]:
    """Per-level stability evidence for levels 1..len(values), given the
    critical orbit values of those levels."""
    return _stability(gens, coding, values, _decomposer(values))


def _stability(gens: GeneratorSet, coding: SequenceCoding, values: list, decompose) -> list[StabilityEvidence]:
    depth = len(values)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if not gens.is_critical:
        raise ValueError("stability certificates need critical mode")
    if derivative_trick_applies(gens, coding):
        c1 = gens.constants[coding.index_at(1) - 1]
        ev = StabilityEvidence(STAB_DERIVATIVE, witness=render_poly(c1))
        return [ev] * depth
    out = []
    for n in range(1, depth + 1):
        if not _level_is_square(gens, values, n, decompose):
            out.append(StabilityEvidence(STAB_NON_SQUARE, witness=str(values[n - 1])))
            continue
        if gens.ring == QQ and gens.is_integral():
            eis = eisenstein_stability(gens, coding, n)
            if eis.ok:
                out.append(StabilityEvidence(STAB_EISENSTEIN, detail=eis.case))
                continue
        out.append(StabilityEvidence(STAB_FAILED, witness=str(values[n - 1])))
    return out


def maximality_by_primitive_odd_prime(
    gens: GeneratorSet,
    values: list,
    rho_iterations: int = RHO_ITERATIONS,
) -> MaximalityEvidence:
    """Valuation criterion over Q at level n = len(values), given the orbit
    values of levels 1..n: some prime divides the level-n value to odd
    multiplicity and no earlier one at all.  Strips against every earlier
    value; ``rho_iterations`` caps the factoring that names the witness."""
    if not (gens.ring == QQ and gens.is_critical and gens.is_integral()):
        raise ValueError("needs an integer critical set over Q")
    return _valuation_criterion(gens, values, len(values), range(1, len(values)), None, rho_iterations)


def maximality_qt(gens: GeneratorSet, values: list) -> MaximalityEvidence:
    """Valuation criterion over Q(t) at level n = len(values), given the orbit
    values of levels 1..n, by square-free decomposition and gcd-stripping
    against every earlier value; no factorization needed."""
    if gens.ring != QT or not gens.is_critical:
        raise ValueError("needs a critical set over Z[t]")
    return _valuation_criterion(gens, values, len(values), range(1, len(values)), _decomposer(values))


def _strip_levels(coding: SequenceCoding, n: int):
    """The earlier levels whose values level n's residue is stripped against.

    A coding that applies one map f at every level (every index of its
    prefix and cycle the same) needs only the proper divisors d of n.  There
    gamma_n = f^(n-m)(gamma_m) == f^(n-m)(0) = gamma_(n-m) mod gamma_m, so a
    prime p of Z, or an irreducible p of Z[t], that divides gamma_m divides
    gamma_n iff it divides gamma_(n-m).  By Euclid on the indices any p that
    gamma_n shares with gamma_m divides gamma_gcd(n,m): the critical orbit is
    a rigid divisibility sequence (Rice, "Primitive prime divisors in
    polynomial arithmetic dynamics", Integers 2007).  Each strip step divides
    out of the residue every power of each p it shares with that level and
    no other p: over Z by repeated gcds, over Z[t] by one primitive gcd with
    a positive leading coefficient, as the residue starts square-free.  So
    the residue ends as the part of the level value made of the p that divide
    no earlier value, whichever levels remove them: the same integer or
    polynomial as the full strip.  A zero earlier value makes the critical
    point periodic, which needs a constant c in Z (gamma_n has degree
    deg(c) 2^(n-1)), and then c = 0 or c = -1: an orbit through 0 is bounded,
    so |c| <= 2, and c = -2, 1, 2 never return to 0.  Every nonzero level
    value is then -1, whose residue is 1 before any strip and under either.

    Every other coding strips against all n - 1 earlier levels.
    """
    if len(set(coding.prefix + coding.cycle)) > 1:
        return range(1, n)
    return [d for d in range(1, n // 2 + 1) if n % d == 0]


def _residue(gens: GeneratorSet, values: list, n: int, strip_levels, decompose):
    """The level-n value less every prime (irreducible factor over Z[t]) it
    shares with the values of ``strip_levels``; a zero value shares all.
    Over Q it starts as |gamma_n|; over Z[t] as the primitive product of the
    square-free factors of odd multiplicity (``decompose(n)``), which holds
    each factor that could qualify once, so one gcd per level strips it."""
    if gens.ring == QT:
        residue = math.prod((f for f, mult in decompose(n)[1] if mult % 2), start=IntPolynomial((1,)))
        for m in strip_levels:
            if residue.degree < 1:
                break
            _, residue, _ = gcd_primitive(residue, values[m - 1])
        return residue
    residue = abs(values[n - 1])
    for m in strip_levels:
        g = math.gcd(residue, values[m - 1])
        while g > 1:
            residue //= g
            g = math.gcd(residue, g)
    return residue


def _valuation_criterion(gens, values, n, strip_levels, decompose, rho_iterations=RHO_ITERATIONS):
    """Whether some prime (irreducible factor) divides the level-n value to
    odd multiplicity and no earlier value at all: the ``_residue`` is not a
    square over Q, and of positive degree over Z[t].  Names no witness."""
    if n < 2:
        raise ValueError("the valuation criterion needs n >= 2")
    if not values[n - 1]:
        raise ValueError("degenerate orbit: the level value is zero")
    residue = _residue(gens, values, n, strip_levels, decompose)
    if residue.degree > 0 if gens.ring == QT else not is_square_int(residue):
        return MaximalityEvidence(MAX_PRIMITIVE, residue, rho_iterations=rho_iterations)
    return MaximalityEvidence(MAX_FAILS)


@_record(frozen=True)
class ToolIndices:
    j: int
    k: int
    all_j: tuple[int, ...]
    all_k: tuple[int, ...]


def tool_conditions(gens: GeneratorSet) -> ToolIndices | None:
    """Indices (j, k) with: c_j reducing mod 2 with derivative 1, and c_k of
    maximal degree with odd leading coefficient.  Prefers distinct k when a
    choice exists; either index may coincide when the set is a singleton."""
    if gens.ring != QT or not gens.is_critical:
        raise ValueError("tool conditions apply to critical sets over Z[t]")
    d = max(c.degree for c in gens.constants)
    if d <= 0:
        return None
    all_j = tuple(
        i
        for i, c in enumerate(gens.constants, start=1)
        if derivative_is_one_mod2(c)
    )
    all_k = tuple(
        i
        for i, c in enumerate(gens.constants, start=1)
        if c.degree == d and c.leading_coefficient() % 2 != 0
    )
    if not all_j or not all_k:
        return None
    j = all_j[0]
    distinct = [k for k in all_k if k != j]
    k = distinct[0] if distinct else all_k[0]
    return ToolIndices(j=j, k=k, all_j=all_j, all_k=all_k)


def level2_oracle(gens: GeneratorSet, values: list) -> bool:
    """Exact maximality test at level 2 in the explicit quadratic extension.

    True iff the level-2 orbit value values[1] is not a square in the field
    obtained by adjoining a square root of minus the level-1 value values[0].
    Requires level-1 stability (otherwise the extension is degenerate)."""
    if len(values) < 2:
        raise ValueError("the level-2 oracle needs the level-1 and level-2 values")
    m = -values[0]
    if m == 0 or is_square(m):
        raise ValueError("level-1 value gives a degenerate quadratic extension")
    return not square_in_quadratic_extension(values[1], m)


def certify_chain(
    gens: GeneratorSet,
    coding: SequenceCoding,
    depth: int,
    rho_iterations: int = RHO_ITERATIONS,
) -> CertificateChain:
    """Full stability-plus-maximality certificate chain through the given depth."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    coding.validate_for(gens)
    values = critical_orbit(gens, coding, depth)
    # Both the square test and the valuation criterion read each level's
    # square-free decomposition; the value is decomposed once for both.
    decompose = _decomposer(values, derivative_trick_applies(gens, coding))
    stab = _stability(gens, coding, values, decompose)
    stable_through = 0
    for ev in stab:
        if not ev.ok:
            break
        stable_through += 1

    tool_ok = False
    guaranteed_levels: set[int] = set()
    if gens.ring == QT:
        tool = tool_conditions(gens)
        tool_ok = tool is not None and coding.index_at(1) in tool.all_j
        if tool_ok:
            guaranteed_levels = {
                n for n in range(2, depth + 1) if coding.index_at(n) in tool.all_k
            }

    levels: list[LevelCertificate] = []
    maximal: list[int] = []
    for n in range(1, depth + 1):
        if n == 1:
            max_ev = (
                MaximalityEvidence(MAX_LEVEL_ONE)
                if stab[0].ok
                else MaximalityEvidence(MAX_NOT_ATTEMPTED)
            )
        elif stable_through < n - 1:
            max_ev = MaximalityEvidence(MAX_NOT_ATTEMPTED)
        elif gens.is_integral():
            max_ev = _valuation_criterion(gens, values, n, _strip_levels(coding, n), decompose, rho_iterations)
            if n in guaranteed_levels:
                if max_ev.kind != MAX_PRIMITIVE:
                    raise RuntimeError(
                        f"internal consistency: guaranteed level {n} disagrees "
                        f"with the valuation criterion ({max_ev.kind})"
                    )
                max_ev = MaximalityEvidence(MAX_PRIMITIVE, max_ev.residue, guaranteed=True)
        else:
            # The valuation criterion lives on integer sets; rational sets
            # still get the exact oracle at n = 2.
            max_ev = MaximalityEvidence(MAX_NOT_ATTEMPTED)
        if gens.ring == QQ and n == 2 and max_ev.kind in (MAX_FAILS, MAX_NOT_ATTEMPTED):
            try:
                max_ev = MaximalityEvidence(MAX_ORACLE, oracle=level2_oracle(gens, values[:n]))
            except ValueError:
                pass
        if max_ev.ok:
            maximal.append(n)
        levels.append(
            LevelCertificate(
                level=n,
                orbit_value=str(values[n - 1]),
                stability=stab[n - 1],
                maximality=max_ev,
            )
        )

    return CertificateChain(
        generators=gens.map_strings(),
        coding=coding.render(),
        ring=gens.ring,
        depth=depth,
        levels=levels,
        stable_through=stable_through,
        maximal_levels=maximal,
        tool_guarantee=tool_ok,
    )

