"""Stability and maximality certificates for sequence prefixes over Q and Q(t).

Stability is per level: a level is certified when the relevant orbit value
is a non-square (the inductive square test), or when Eisenstein at 2 applies
(over Z), or wholesale over Q(t) via the mod-2 derivative shortcut when the
outermost constant reduces with derivative 1.  Maximality for n >= 3 only
ever uses the sufficient valuation criterion (a primitive prime divisor of
the orbit value appearing to odd multiplicity); n = 2 additionally has the
exact oracle in the explicit quadratic extension.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .algebra import (
    FactorBudget,
    IntPolynomial,
    derivative_is_one_mod2,
    discriminant,
    factor_integer,
    gcd_primitive,
    is_square,
    is_square_rational,
    render_poly,
    resultant,
    square_in_quadratic_extension,
    squarefree_decomposition,
)
from .dynamics import (
    QQ,
    QT,
    GeneratorSet,
    SequenceCoding,
    composition_polynomial,
    critical_orbit,
    eisenstein_stability,
)

STAB_NON_SQUARE = "non_square_witness"
STAB_EISENSTEIN = "eisenstein_witness"
STAB_DERIVATIVE = "derivative_trick"
STAB_FAILED = "failed"
STAB_INCONCLUSIVE = "inconclusive"

MAX_PRIMITIVE = "primitive_odd_prime"
MAX_ORACLE = "level2_oracle"
MAX_LEVEL_ONE = "level_one"
MAX_FAILS = "criterion_fails"
MAX_NOT_ATTEMPTED = "not_attempted"
MAX_INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class StabilityEvidence:
    kind: str
    witness: str = ""
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.kind in (STAB_NON_SQUARE, STAB_EISENSTEIN, STAB_DERIVATIVE)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "witness": self.witness, "detail": self.detail}


@dataclass(frozen=True)
class MaximalityEvidence:
    kind: str
    witness: str = ""
    oracle: bool | None = None
    guaranteed: bool = False

    @property
    def ok(self) -> bool:
        if self.kind in (MAX_PRIMITIVE, MAX_LEVEL_ONE):
            return True
        return self.kind == MAX_ORACLE and bool(self.oracle)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "witness": self.witness,
            "oracle": self.oracle,
            "guaranteed": self.guaranteed,
        }


@dataclass(frozen=True)
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


@dataclass
class CertificateChain:
    generators: list[str]
    coding: str
    ring: str
    depth: int
    levels: list[LevelCertificate] = field(default_factory=list)
    stable_through: int = 0
    maximal_levels: list[int] = field(default_factory=list)
    tool_guarantee: bool = False

    @property
    def stable(self) -> bool:
        return self.stable_through >= self.depth

    @property
    def inconclusive_levels(self) -> list[int]:
        return [
            lc.level
            for lc in self.levels
            if lc.stability.kind == STAB_INCONCLUSIVE or lc.maximality.kind == MAX_INCONCLUSIVE
        ]

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


def _value_str(value) -> str:
    if isinstance(value, IntPolynomial):
        return render_poly(value)
    return str(value)


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


def _decomposer(values: list):
    """n -> square-free decomposition of the level-n Z[t] value, made at most once."""

    @functools.cache
    def decompose(n: int):
        return squarefree_decomposition(values[n - 1])

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
            out.append(StabilityEvidence(STAB_NON_SQUARE, witness=_value_str(values[n - 1])))
            continue
        if gens.ring == QQ and gens.is_integral():
            eis = eisenstein_stability(gens, coding, n)
            if eis.ok:
                out.append(StabilityEvidence(STAB_EISENSTEIN, detail=eis.case))
                continue
        out.append(StabilityEvidence(STAB_FAILED, witness=_value_str(values[n - 1])))
    return out


def maximality_by_primitive_odd_prime(
    gens: GeneratorSet,
    values: list,
    budget: FactorBudget | None = None,
) -> MaximalityEvidence:
    """Valuation criterion over Q at level n = len(values), given the orbit
    values of levels 1..n: some prime divides the level-n value to odd
    multiplicity and no earlier one at all."""
    if len(values) < 2:
        raise ValueError("the valuation criterion needs n >= 2")
    if not (gens.ring == QQ and gens.is_critical and gens.is_integral()):
        raise ValueError("needs an integer critical set over Q")
    values = [int(v) for v in values]
    target = values[-1]
    if target == 0:
        raise ValueError("degenerate orbit: the level value is zero")
    fac = factor_integer(target, budget)
    earlier = values[:-1]
    for p, e in fac.factors:
        if e % 2 == 1 and all(v % p != 0 for v in earlier):
            return MaximalityEvidence(MAX_PRIMITIVE, witness=str(p))
    if not fac.complete:
        return MaximalityEvidence(MAX_INCONCLUSIVE, witness=str(fac.cofactor))
    return MaximalityEvidence(MAX_FAILS)


def _odd_multiplicity_part(parts: list[tuple[IntPolynomial, int]]) -> IntPolynomial:
    """Product of the square-free factors of odd multiplicity (primitive)."""
    out = IntPolynomial((1,))
    for factor, mult in parts:
        if mult % 2 == 1:
            out = out * factor
    return out


def maximality_qt(gens: GeneratorSet, values: list) -> MaximalityEvidence:
    """Valuation criterion over Q(t) at level n = len(values), given the orbit
    values of levels 1..n, by square-free decomposition and gcd-stripping
    against the earlier values; no factorization needed."""
    return _maximality_qt(gens, values, _decomposer(values))


def _maximality_qt(gens: GeneratorSet, values: list, decompose) -> MaximalityEvidence:
    if len(values) < 2:
        raise ValueError("the valuation criterion needs n >= 2")
    if gens.ring != QT or not gens.is_critical:
        raise ValueError("needs a critical set over Z[t]")
    target = values[-1]
    if target.is_zero():
        raise ValueError("degenerate orbit: the level value is zero")
    residue = _odd_multiplicity_part(decompose(len(values))[1])
    for earlier in values[:-1]:
        if residue.degree < 1:
            break
        if earlier.is_zero():
            return MaximalityEvidence(MAX_FAILS)
        _, residue, _ = gcd_primitive(residue, earlier)
    if residue.degree > 0:
        return MaximalityEvidence(MAX_PRIMITIVE, witness=render_poly(residue))
    return MaximalityEvidence(MAX_FAILS)


@dataclass(frozen=True)
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
    budget: FactorBudget | None = None,
) -> CertificateChain:
    """Full stability-plus-maximality certificate chain through the given depth."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    coding.validate_for(gens)
    values = critical_orbit(gens, coding, depth)
    # Both the square test and the valuation criterion read each level's
    # square-free decomposition; the value is decomposed once for both.
    decompose = _decomposer(values)
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
        elif gens.ring == QT:
            max_ev = _maximality_qt(gens, values[:n], decompose)
            if n in guaranteed_levels:
                if max_ev.kind != MAX_PRIMITIVE:
                    raise RuntimeError(
                        f"internal consistency: guaranteed level {n} disagrees "
                        f"with the valuation criterion ({max_ev.kind})"
                    )
                max_ev = MaximalityEvidence(
                    MAX_PRIMITIVE, witness=max_ev.witness, guaranteed=True
                )
        else:
            # The valuation criterion lives on integer sets; rational sets
            # still get the exact oracle at n = 2.
            if gens.is_integral():
                max_ev = maximality_by_primitive_odd_prime(gens, values[:n], budget)
            else:
                max_ev = MaximalityEvidence(MAX_NOT_ATTEMPTED)
            if n == 2 and max_ev.kind in (MAX_FAILS, MAX_INCONCLUSIVE, MAX_NOT_ATTEMPTED):
                try:
                    max_ev = MaximalityEvidence(MAX_ORACLE, oracle=level2_oracle(gens, values[:n]))
                except ValueError:
                    pass
        if max_ev.ok:
            maximal.append(n)
        levels.append(
            LevelCertificate(
                level=n,
                orbit_value=_value_str(values[n - 1]),
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


# ---------------------------------------------------------------------------
# Identity checkers.

def discriminant_identity_check(
    gens: GeneratorSet, coding: SequenceCoding, n: int, cap: int = 5
) -> bool:
    """disc(gamma_n) == Res(gamma_{n-1}, gamma_{n-1}')^2 * 2^(2^n) * gamma_n(0), exactly."""
    if not 2 <= n <= cap:
        raise ValueError(f"n must be between 2 and {cap}")
    if not gens.is_critical:
        raise ValueError("needs a critical set over Q")
    gamma_n = composition_polynomial(gens, coding, n)
    gamma_prev = composition_polynomial(gens, coding, n - 1)
    res = resultant(gamma_prev, gamma_prev.derivative())
    return discriminant(gamma_n) == res * res * 2 ** (2**n) * gamma_n.constant_coefficient()


def degree_law_check(gens: GeneratorSet, coding: SequenceCoding, n: int) -> bool:
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
