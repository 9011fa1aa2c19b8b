"""Generator sets, sequence codings, semigroup orbits, and the finite-orbit classifier.

Composition convention (used everywhere in this package): a coding lists
generator indices theta_1, theta_2, ... and level n evaluates the critical
orbit value as (theta_1 o theta_2 o ... o theta_n)(0), so *theta_1 is the
outermost map* and new maps compose on the inside.  This is easy to invert
by accident; see also the CLI documentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from typing import Sequence

from .algebra import (
    IntPolynomial,
    padic_valuation,
    parse_poly,
    render_poly,
)

QQ = "q"
QT = "qt"


def _as_constant(c) -> Fraction | IntPolynomial:
    if isinstance(c, IntPolynomial):
        return c
    return Fraction(c)


@dataclass(frozen=True)
class GeneratorSet:
    """A finite set of quadratic maps.

    In critical mode every map is x^2 + c and only the constants are kept;
    constants are Fractions (base field Q) or IntPolynomials (base Q(t)).
    General monic integer maps (e.g. x^2+x) are allowed for orbit
    exploration only, via ``general``.
    """

    constants: tuple = ()
    general: tuple = ()
    ring: str = QQ

    def __post_init__(self):
        if bool(self.constants) == bool(self.general):
            raise ValueError("exactly one of constants/general must be given")
        if self.ring not in (QQ, QT):
            raise ValueError(f"unknown ring {self.ring!r}")
        if self.constants:
            cs = tuple(_as_constant(c) for c in self.constants)
            if self.ring == QT and not all(isinstance(c, IntPolynomial) for c in cs):
                raise ValueError("ring 'qt' needs IntPolynomial constants")
            if self.ring == QQ and not all(isinstance(c, Fraction) for c in cs):
                raise ValueError("ring 'q' needs rational constants")
            object.__setattr__(self, "constants", cs)
            if len(set(cs)) != len(cs):
                raise ValueError("maps must be pairwise distinct")
        else:
            maps = tuple(self.general)
            if len(set(maps)) != len(maps):
                raise ValueError("maps must be pairwise distinct")
            for m in maps:
                if not isinstance(m, IntPolynomial) or m.degree < 2:
                    raise ValueError("general maps must be integer polynomials of degree >= 2")

    @classmethod
    def from_constants(cls, constants, ring: str = QQ) -> "GeneratorSet":
        return cls(constants=tuple(constants), ring=ring)

    @classmethod
    def from_maps(cls, maps: Sequence[IntPolynomial]) -> "GeneratorSet":
        return cls(general=tuple(maps), ring=QQ)

    @classmethod
    def parse(cls, text: str, ring: str = QQ) -> "GeneratorSet":
        """Parse '-2; -6' (critical constants) or 'x^2-2; x^2-6' (maps)."""
        parts = [p.strip() for p in text.split(";") if p.strip()]
        if not parts:
            raise ValueError("empty generator set")
        if any("x" in p for p in parts):
            maps = [parse_poly(p, var="x") for p in parts]
            consts = []
            for m in maps:
                if m.degree == 2 and m.coefficient(2) == 1 and m.coefficient(1) == 0:
                    consts.append(m.coefficient(0))
                else:
                    consts = None
                    break
            if consts is not None:
                if ring == QT:
                    return cls.from_constants([IntPolynomial((c,)) for c in consts], ring)
                return cls.from_constants([Fraction(c) for c in consts], ring)
            return cls.from_maps(maps)
        if ring == QT:
            return cls.from_constants([parse_poly(p, var="t") for p in parts], ring)
        return cls.from_constants([Fraction(p) for p in parts], ring)

    @property
    def size(self) -> int:
        return len(self.constants) if self.constants else len(self.general)

    @property
    def is_critical(self) -> bool:
        return bool(self.constants)

    def is_integral(self) -> bool:
        """All critical constants integral (Z, or Z[t] which always is)."""
        if not self.is_critical:
            return True  # general maps carry integer coefficients by construction
        if self.ring == QT:
            return True
        return all(c.denominator == 1 for c in self.constants)

    def apply(self, index: int, value):
        """Apply the 1-based generator to a value."""
        if self.is_critical:
            c = self.constants[index - 1]
            if isinstance(c, IntPolynomial) and not isinstance(value, IntPolynomial):
                value = IntPolynomial((value,)) if isinstance(value, int) else value
            return value * value + c
        return self.general[index - 1].evaluate(value)

    def map_strings(self) -> list[str]:
        if self.is_critical:
            out = []
            for c in self.constants:
                if isinstance(c, IntPolynomial):
                    body = render_poly(c)
                    out.append(f"x^2+({body})" if c.degree > 0 or "-" in body else f"x^2+{body}")
                elif c:
                    out.append(f"x^2+{c}" if c > 0 else f"x^2-{-c}")
                else:
                    out.append("x^2")
            return out
        return [render_poly(m, var="x") for m in self.general]

    def canonical_name(self) -> str:
        return "{" + ", ".join(self.map_strings()) + "}"


@dataclass(frozen=True)
class SequenceCoding:
    """Eventually periodic sequence of 1-based generator indices: prefix then cycle."""

    prefix: tuple[int, ...]
    cycle: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(self.prefix))
        object.__setattr__(self, "cycle", tuple(self.cycle))
        if not self.cycle:
            raise ValueError("cycle must be nonempty")
        if any(i < 1 for i in self.prefix + self.cycle):
            raise ValueError("indices are 1-based")

    @classmethod
    def constant(cls, index: int = 1) -> "SequenceCoding":
        return cls((), (index,))

    @classmethod
    def parse(cls, text: str) -> "SequenceCoding":
        """Parse 'a,b|c,d' (prefix|cycle); '|1' is the constant first-map coding."""
        if "|" not in text:
            raise ValueError("coding must look like 'prefix|cycle', e.g. '|1' or '1|2'")
        left, right = text.split("|", 1)
        prefix = tuple(int(p) for p in left.split(",") if p.strip())
        cycle = tuple(int(p) for p in right.split(",") if p.strip())
        return cls(prefix, cycle)

    def render(self) -> str:
        return ",".join(map(str, self.prefix)) + "|" + ",".join(map(str, self.cycle))

    def index_at(self, n: int) -> int:
        """Generator index of theta_n (n >= 1)."""
        if n < 1:
            raise ValueError("levels are 1-based")
        if n <= len(self.prefix):
            return self.prefix[n - 1]
        return self.cycle[(n - len(self.prefix) - 1) % len(self.cycle)]

    def validate_for(self, gens: GeneratorSet) -> None:
        if any(i > gens.size for i in self.prefix + self.cycle):
            raise ValueError("coding index out of range for the generator set")


def critical_orbit(gens: GeneratorSet, coding: SequenceCoding, n: int) -> list:
    """[ (theta_1 o ... o theta_k)(0) for k = 1..n ], evaluated right to left."""
    if n < 1:
        raise ValueError("need n >= 1")
    coding.validate_for(gens)
    zero: object = IntPolynomial(()) if gens.ring == QT else Fraction(0)
    out = []
    for k in range(1, n + 1):
        z = gens.apply(coding.index_at(k), zero)
        for i in range(k - 1, 0, -1):
            z = gens.apply(coding.index_at(i), z)
        out.append(z)
    return out


def composition_polynomial(gens: GeneratorSet, coding: SequenceCoding, n: int) -> IntPolynomial:
    """theta_1 o ... o theta_n as a polynomial in x (integral sets only)."""
    if not gens.is_integral():
        raise ValueError("needs an integral generator set")
    if gens.ring == QT:
        raise ValueError("composition polynomials are computed over Z only")
    x = IntPolynomial((0, 1))
    acc = x
    for k in range(n, 0, -1):
        if gens.is_critical:
            c = int(gens.constants[coding.index_at(k) - 1])
            acc = acc * acc + IntPolynomial((c,))
        else:
            acc = gens.general[coding.index_at(k) - 1].compose(acc)
    return acc


# ---------------------------------------------------------------------------
# Escape criterion and semigroup orbits.

def escape_criterion(gens: GeneratorSet) -> bool:
    """|c_i^2 + c_j| > max_k |c_k| for all ordered pairs.

    True certifies that the orbit of 0 contains no finite orbit point
    (integer critical sets only).
    """
    if not (gens.is_critical and gens.ring == QQ and gens.is_integral()):
        raise ValueError("escape criterion needs an integer critical set")
    cs = [int(c) for c in gens.constants]
    bound = max(abs(c) for c in cs)
    return all(abs(ci * ci + cj) > bound for ci in cs for cj in cs)


@dataclass(frozen=True)
class OrbitStatus:
    kind: str  # "closed" | "escaping" | "unknown"
    orbit: frozenset = frozenset()
    level: int = 0
    visited: frozenset = frozenset()

    @property
    def closed(self) -> bool:
        return self.kind == "closed"


@dataclass(frozen=True)
class OrbitCaps:
    max_points: int = 4096
    max_height: int = 10**60
    max_levels: int = 64


def _height(value) -> tuple:
    if isinstance(value, IntPolynomial):
        return (value.degree, value.max_abs_coefficient())
    return (0, abs(value))


def _denominator_grows(gens: GeneratorSet):
    """Predicate: the orbit of this rational value never closes.

    It holds when some prime p has e = v_p(v) < 0 with 2e < v_p(c_i) for all
    maps x^2 + c_i (integer maps with leading coefficients a_i: e < -v_p(a_i)),
    that is, when den(v)^2 does not divide the lcm of the denominators of the
    c_i (den(v) does not divide the lcm of the a_i).  Then every image has
    p-valuation 2e (v_p(a_i) + deg*e) < e and meets the condition again, so no
    value repeats.  Otherwise denominators stay bounded and the height cap
    bounds the orbit.
    """
    if gens.ring == QT:
        return lambda v: False
    if gens.is_critical:
        den = lcm(*(c.denominator for c in gens.constants))
        return lambda v: den % (v.denominator * v.denominator) != 0
    lead = lcm(*(m.leading_coefficient() for m in gens.general))
    return lambda v: lead % v.denominator != 0


def _growth_floor(gens: GeneratorSet):
    """Predicate: every value whose height clears the floor grows strictly forever."""
    if gens.ring == QT:
        dmax = max(c.degree for c in gens.constants)
        return lambda h: h[0] > dmax
    if gens.is_critical:
        bound = max(abs(c) for c in gens.constants) + 1
    else:
        bound = max(sum(abs(c) for c in m.coeffs[:-1]) for m in gens.general) + 1
    return lambda h: h[1] > bound


def semigroup_orbit(gens: GeneratorSet, point, caps: OrbitCaps = OrbitCaps()) -> OrbitStatus:
    """Breadth-first closure of {point} under every generator.

    Closed when the closure stabilizes inside the caps.  Escaping when two
    consecutive frontiers have strictly increasing minima, both clearing the
    bound above which every single value grows under every map (absolute
    value over Q, degree over Q(t)), or when a new value's denominator must
    grow forever (p-adic escape, see ``_denominator_grows``).  Unknown
    otherwise.
    """
    if caps.max_points < 1 or caps.max_levels < 1:
        raise ValueError("caps must be positive")
    point = _normalize_point(gens, point)
    indices = range(1, gens.size + 1)
    above_floor = _growth_floor(gens)
    denominator_grows = _denominator_grows(gens)
    visited = {point}
    frontier = [point]
    prev_min = None
    for level in range(1, caps.max_levels + 1):
        nxt = set()
        for v in frontier:
            for i in indices:
                nxt.add(gens.apply(i, v))
        new = nxt - visited
        if not new:
            orbit = frozenset(visited)
            for v in orbit:  # re-verify closure under every generator
                for i in indices:
                    if gens.apply(i, v) not in orbit:
                        raise RuntimeError("closure verification failed")
            return OrbitStatus("closed", orbit=orbit)
        cur_min = min(_height(v) for v in nxt)
        if any(denominator_grows(v) for v in new) or (
            prev_min is not None
            and cur_min > prev_min
            and above_floor(prev_min)
            and above_floor(cur_min)
        ):
            return OrbitStatus("escaping", level=level, visited=frozenset(visited))
        prev_min = cur_min
        visited |= new
        # The level sets must keep recurring values (a fixed point stays in
        # every level); deduplicating across levels would fake escape minima.
        frontier = sorted(nxt, key=_height)
        if len(visited) > caps.max_points or any(_height(v)[1] > caps.max_height for v in frontier):
            break
    return OrbitStatus("unknown", visited=frozenset(visited))


def _normalize_point(gens: GeneratorSet, point):
    if gens.ring == QT:
        if isinstance(point, IntPolynomial):
            return point
        if Fraction(point).denominator != 1:
            raise ValueError("points over Z[t] must be integral")
        return IntPolynomial((int(point),)) if point else IntPolynomial(())
    return Fraction(point) if not isinstance(point, IntPolynomial) else point


# ---------------------------------------------------------------------------
# Finite orbit points.

@dataclass(frozen=True)
class FiniteOrbitAnswer:
    kind: str  # "yes" | "no" | "unknown"
    witness: object = None


def _integral_escape_radius(maps: list[IntPolynomial]) -> int:
    # |v| >= B forces |f(v)| > |v| for every map: |v|(|v| - S) > 0 with
    # S = sum of non-leading |coefficients|, degree >= 2, |lc| >= 1.
    return max(sum(abs(c) for c in m.coeffs[:-1]) for m in maps) + 2


def _maps_of(gens: GeneratorSet) -> list[IntPolynomial]:
    if gens.is_critical:
        return [IntPolynomial((int(c), 0, 1)) for c in gens.constants]
    return list(gens.general)


def finite_orbit_points(gens: GeneratorSet) -> set[int]:
    """All rational finite orbit points of an integral set (they are integers).

    Integer values beyond the escape radius strictly grow under every map
    and never return, so the search space is the finite window inside it.
    """
    if not (gens.ring == QQ and gens.is_integral()):
        raise ValueError("exact finite-orbit enumeration needs an integral set over Q")
    maps = _maps_of(gens)
    radius = _integral_escape_radius(maps)
    window = range(-radius, radius + 1)
    return {q for q in window if all(abs(w) < radius for w in _orbit_within(maps, q, radius))}


def _orbit_within(maps: list[IntPolynomial], start: int, radius: int):
    """Yield the start, then each new value of its orbit, breadth-first in map order.

    Values at or beyond the escape radius are yielded but not expanded: they
    grow under every map and never come back.
    """
    yield start
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for m in maps:
                w = m.evaluate(v)
                if w not in seen:
                    seen.add(w)
                    yield w
                    if abs(w) < radius:
                        nxt.append(w)
        frontier = nxt


def orbit_contains_finite_orbit_point(
    gens: GeneratorSet, point, caps: OrbitCaps = OrbitCaps()
) -> FiniteOrbitAnswer:
    """Does the semigroup orbit of the point contain a finite orbit point?

    Exact (total) for integral sets over Q with integer starting points:
    candidates and reachability both live inside the escape radius.  Other
    inputs fall back to a capped search that may answer unknown.
    """
    integral = gens.ring == QQ and gens.is_integral() and isinstance(point, (int, Fraction))
    if integral and Fraction(point).denominator == 1:
        maps = _maps_of(gens)
        radius = _integral_escape_radius(maps)
        targets = finite_orbit_points(gens)
        start = int(Fraction(point))
        # Bounded reachability: paths through values beyond the radius never
        # come back, so pruning them is lossless.
        for w in _orbit_within(maps, start, radius):
            if w in targets:
                return FiniteOrbitAnswer("yes", witness=w)
        return FiniteOrbitAnswer("no")

    # Capped heuristic: explore orbit points breadth-first, test each.  Values
    # whose denominators grow forever have infinite orbits, as do all their
    # images, so pruning them loses no finite orbit point.
    point = _normalize_point(gens, point)
    denominator_grows = _denominator_grows(gens)
    seen = {point}
    frontier = [point]
    explored = 0
    unknown_seen = False
    while frontier and explored < caps.max_points:
        for q in frontier:
            explored += 1
            status = semigroup_orbit(gens, q, caps)
            if status.closed:
                return FiniteOrbitAnswer("yes", witness=q)
            if status.kind == "unknown":
                unknown_seen = True
        nxt = set()
        for v in frontier:
            for i in range(1, gens.size + 1):
                w = gens.apply(i, v)
                if w not in seen and _height(w)[1] <= caps.max_height and not denominator_grows(w):
                    nxt.add(w)
        seen |= nxt
        frontier = sorted(nxt, key=_height)
    return FiniteOrbitAnswer("unknown" if unknown_seen or frontier else "no")


# ---------------------------------------------------------------------------
# The two integral pair families and the obstruction classifier.

@dataclass(frozen=True)
class PairFamily:
    family: str  # "A" | "B"
    y: int


def pair_family_membership(c1: Fraction | int, c2: Fraction | int) -> PairFamily | None:
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


@dataclass(frozen=True)
class Classification:
    kind: str  # "exceptional" | "not_obstructed"
    name: str = ""
    witness: object = None

    @property
    def exceptional(self) -> bool:
        return self.kind == "exceptional"


# Widened integer windows for the family parameter (the published decimal
# endpoints are treated as over-approximations only; every candidate is
# confirmed by a direct orbit search, so wider is safe).
_WINDOW_A = range(1, 6)
_WINDOW_B = range(1, 6)


def classify_finite_orbit_obstruction(gens: GeneratorSet) -> Classification:
    """Decide whether the orbit of 0 contains a finite orbit point (over Q).

    Non-integral constants and sets of size >= 3 are never obstructed; one
    map is obstructed exactly for c in {0, -1, -2}; pairs are screened by
    family membership plus the parameter window and confirmed by orbit search.
    """
    if not (gens.is_critical and gens.ring == QQ):
        raise ValueError("classification needs a critical-mode set over Q")
    if not gens.is_integral():
        return Classification("not_obstructed")
    cs = sorted(int(c) for c in gens.constants)
    if len(cs) >= 3:
        return Classification("not_obstructed")
    if len(cs) == 1:
        if cs[0] in (0, -1, -2):
            return Classification("exceptional", name=gens.canonical_name(), witness=0)
        return Classification("not_obstructed")
    member = pair_family_membership(cs[0], cs[1])
    if member is None:
        return Classification("not_obstructed")
    window = _WINDOW_A if member.family == "A" else _WINDOW_B
    if member.y not in window:
        return Classification("not_obstructed")
    answer = orbit_contains_finite_orbit_point(gens, 0)
    if answer.kind == "yes":
        return Classification("exceptional", name=gens.canonical_name(), witness=answer.witness)
    return Classification("not_obstructed")


# ---------------------------------------------------------------------------
# Valuation lemma and Eisenstein stability.

def valuation_lemma_check(
    c: Fraction | int, alpha: Fraction | int, p: int, d: int = 2, cap: int = 256
) -> bool:
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


@dataclass(frozen=True)
class EisensteinResult:
    ok: bool
    case: str = ""  # "direct" | "shifted" | ""
    constant_mod4: int = 0

    def __bool__(self) -> bool:
        return self.ok


def eisenstein_at_two(poly: IntPolynomial) -> bool:
    """Eisenstein's criterion at p = 2 for an integer polynomial."""
    if poly.degree < 1:
        return False
    if poly.leading_coefficient() % 2 == 0:
        return False
    if any(c % 2 for c in poly.coeffs[:-1]):
        return False
    return poly.constant_coefficient() % 4 != 0


def eisenstein_stability(gens: GeneratorSet, coding: SequenceCoding, n: int) -> EisensteinResult:
    """Irreducibility of the level-n composition by Eisenstein at 2.

    Constant term 2 mod 4: test the composition itself; constant term
    +-1 mod 4: test the shift by one.  Anything else is a plain failure.
    """
    if not (gens.is_critical and gens.ring == QQ and gens.is_integral()):
        raise ValueError("Eisenstein stability needs an integer critical set")
    f = composition_polynomial(gens, coding, n)
    c0 = f.constant_coefficient() % 4
    if c0 == 2:
        return EisensteinResult(eisenstein_at_two(f), "direct", c0)
    if c0 in (1, 3):
        return EisensteinResult(eisenstein_at_two(f.shift_by_one()), "shifted", c0)
    return EisensteinResult(False, "", c0)
