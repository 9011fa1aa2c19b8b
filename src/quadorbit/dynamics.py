"""Generator sets, sequence codings, semigroup orbits, and Eisenstein stability.

One closed walk (``_closed_walk``) answers every orbit question: the orbit
of a point, whether it contains a finite orbit point, and so the
finite-orbit obstruction, which asks that of the orbit of 0.

Composition convention (used everywhere in this package): a coding lists
generator indices theta_1, theta_2, ... and level n evaluates the critical
orbit value as (theta_1 o theta_2 o ... o theta_n)(0), so *theta_1 is the
outermost map* and new maps compose on the inside.  This is easy to invert
by accident; see also the CLI documentation.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from . import QQ, QT, _record
from .algebra.intpoly import IntPolynomial, render_poly
from .algebra.parse import parse_poly


def as_number(value) -> int | Fraction | IntPolynomial:
    """The number type of a value: integral rationals become int, other
    rationals stay Fraction, and int and IntPolynomial (an element of Z[t])
    pass unchanged."""
    if isinstance(value, (int, IntPolynomial)):
        return value
    q = Fraction(value)
    return q.numerator if q.denominator == 1 else q


@_record(frozen=True)
class GeneratorSet:
    """A finite set of quadratic maps.

    In critical mode every map is x^2 + c and only the constants are kept.
    Over Q an integral constant is an int and any other a Fraction, so an
    integral set computes in integer arithmetic; over Q(t) the constants are
    IntPolynomials.
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
            cs = tuple(as_number(c) for c in self.constants)
            if self.ring == QT and not all(isinstance(c, IntPolynomial) for c in cs):
                raise ValueError("ring 'qt' needs IntPolynomial constants")
            if self.ring == QQ and any(isinstance(c, IntPolynomial) for c in cs):
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
                return cls.from_constants(consts, ring)
            if ring == QT:
                raise ValueError("general maps work over Q only, not over ring 'qt'")
            return cls.from_maps(maps)
        if ring == QT:
            return cls.from_constants([parse_poly(p, var="t") for p in parts], ring)
        return cls.from_constants(parts, ring)

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


@_record(frozen=True)
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
    """[ (theta_1 o ... o theta_k)(0) for k = 1..n ].

    With Pre = the composed prefix maps, Block = the composed cycle of length
    L and delta_j = the cycle coding's level-j composition, level k beyond
    the prefix is Pre(delta_{k-r}(0)) and delta_j(0) = Block(delta_{j-L}(0)),
    so every level costs r + L map applications instead of k.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    coding.validate_for(gens)

    def compose(indices: tuple[int, ...], z):
        for i in reversed(indices):
            z = gens.apply(i, z)
        return z

    prefix, cycle = coding.prefix, coding.cycle
    out = [compose(prefix[:k], 0) for k in range(1, min(n, len(prefix)) + 1)]
    deltas: list = []
    for j in range(1, n - len(prefix) + 1):
        if j <= len(cycle):
            deltas.append(compose(cycle[:j], 0))
        else:
            deltas.append(compose(cycle, deltas[j - len(cycle) - 1]))
        out.append(compose(prefix, deltas[-1]))
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
            acc = acc * acc + gens.constants[coding.index_at(k) - 1]
        else:
            acc = gens.general[coding.index_at(k) - 1].compose(acc)
    return acc


# ---------------------------------------------------------------------------
# Escape criterion and the rules that bound the closed walk.

def escape_criterion(gens: GeneratorSet) -> bool:
    """|c_i^2 + c_j| > max_k |c_k| for all ordered pairs.

    True certifies that the orbit of 0 contains no finite orbit point
    (integer critical sets only).
    """
    if not (gens.is_critical and gens.ring == QQ and gens.is_integral()):
        raise ValueError("escape criterion needs an integer critical set")
    cs = gens.constants
    bound = max(abs(c) for c in cs)
    return all(abs(ci * ci + cj) > bound for ci in cs for cj in cs)


@_record(frozen=True)
class OrbitCaps:
    """Bounds on the walk over Z[t]; over Q the walk is finite and takes none."""

    max_points: int = 4096
    max_height: int = 10**60

    def __post_init__(self):
        if self.max_points < 1 or self.max_height < 1:
            raise ValueError("size and height caps must be at least 1")


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
    value repeats.  Otherwise denominators stay bounded.
    """
    if gens.ring == QT:
        return lambda v: False
    if gens.is_critical:
        den = lcm(*(c.denominator for c in gens.constants))
        return lambda v: den % (v.denominator * v.denominator) != 0
    lead = lcm(*(m.leading_coefficient() for m in gens.general))
    return lambda v: lead % v.denominator != 0


def escape_bound(gens: GeneratorSet):
    """B such that every rational v with |v| > B grows strictly under every map.

    B = S + 1, with S the largest sum of non-leading |coefficients| of a map
    (|c| for x^2 + c): a map of degree d >= 2 with |leading coefficient| >= 1
    sends v to a value of size at least |v|^(d-1) (|v| - S) > |v|, so the
    image clears B again and the orbit never returns.  The same holds for
    integers over Z[t] when every constant is an integer.
    """
    if gens.is_critical:
        return max(_height(c)[1] for c in gens.constants) + 1
    return max(sum(abs(c) for c in m.coeffs[:-1]) for m in gens.general) + 1


def _growth_floor(gens: GeneratorSet):
    """Predicate: every value whose height clears the floor has an infinite orbit.

    Over Z[t] a value of degree above every constant's doubles its degree
    under every map; with integer constants, so does every nonconstant value,
    and integers grow beyond the escape bound as over Q.  When constants of
    positive degree sit beside integer ones, an integer beyond the integer
    constants' escape bound still grows forever under an integer map.  Such a
    set has no finite orbit point at all (an integer map doubles the degree
    of every nonconstant value, and a nonconstant map makes every integer
    nonconstant), so leaving those integers unexpanded loses nothing.
    """
    dmax = max(c.degree for c in gens.constants) if gens.ring == QT else 0
    if dmax > 0:
        ints = [c.max_abs_coefficient() for c in gens.constants if c.is_constant()]
        if not ints:
            return lambda h: h[0] > dmax
        bound = max(ints) + 1
        return lambda h: h[0] > dmax or (h[0] < 1 and h[1] > bound)
    floor = (0, escape_bound(gens))
    return lambda h: h > floor


def _normalize_point(gens: GeneratorSet, point):
    point = as_number(point)
    if gens.ring == QT and not isinstance(point, IntPolynomial):
        if not isinstance(point, int):
            raise ValueError("points over Z[t] must be integral")
        return IntPolynomial((point,))
    return point


# ---------------------------------------------------------------------------
# Semigroup orbits, finite orbit points and the finite-orbit obstruction.

@_record(frozen=True)
class FiniteOrbitAnswer:
    kind: str  # "yes" | "no" | "unknown"
    witness: object = None


@_record(frozen=True)
class OrbitStatus:
    """The orbit of a point as one closed walk (``_closed_walk``) shows it.

    Closed when the point lies in the walk's closed core, which is then its
    orbit; escaping when the core is empty and no cap cut the walk, so no
    value of the orbit has a finite orbit; unknown otherwise.  ``witness``
    is the first core value and ``cut`` whether a cap cut the walk.
    """

    kind: str  # "closed" | "escaping" | "unknown"
    orbit: frozenset = frozenset()
    witness: object = None
    cut: bool = False

    @property
    def closed(self) -> bool:
        return self.kind == "closed"

    def finite_orbit_answer(self) -> FiniteOrbitAnswer:
        """Yes with the witness, unknown for a cut walk without one, else no."""
        if self.witness is not None:
            return FiniteOrbitAnswer("yes", witness=self.witness)
        return FiniteOrbitAnswer("unknown" if self.cut else "no")


def finite_orbit_points(gens: GeneratorSet) -> set[int]:
    """All rational finite orbit points of an integral set (they are integers).

    Integer values beyond the escape bound strictly grow under every map and
    never return, so these are the closed core of the walk from every integer
    inside it.
    """
    if not (gens.ring == QQ and gens.is_integral()):
        raise ValueError("exact finite-orbit enumeration needs an integral set over Q")
    bound = escape_bound(gens)
    return set(_closed_walk(gens, range(-bound, bound + 1), OrbitCaps())[0])


def _closed_walk(gens: GeneratorSet, starts, caps: OrbitCaps):
    """(closed core in walk order, whether a cap cut the walk).

    The walk visits the orbit of the starts breadth-first in map order and
    expands only values that can still close: at or below the growth floor,
    with a denominator not forced to grow, and over Z[t] within the caps.
    Over Q that is finite: |v| <= B and den(v)^2 divides the lcm of the
    constants' denominators.  The closed core is the largest set of expanded
    values that every map sends into itself.  Its values have finite orbits,
    and unless a cap cut the walk, so has no other value the walk met.
    """
    above_floor = _growth_floor(gens)
    denominator_grows = _denominator_grows(gens)
    capped = gens.ring == QT
    expanded, preimages, cut = [], {}, False
    queue = list(dict.fromkeys(starts))
    seen = set(queue)
    for v in queue:  # the queue grows as the walk meets new values
        if above_floor(_height(v)) or denominator_grows(v):
            continue
        if capped and (len(expanded) >= caps.max_points or _height(v)[1] > caps.max_height):
            cut = True
            continue
        expanded.append(v)
        for i in range(1, gens.size + 1):
            w = gens.apply(i, v)
            preimages.setdefault(w, []).append(v)
            if w not in seen:
                seen.add(w)
                queue.append(w)
    # Greatest fixed point: starting from the images never expanded, drop
    # every value with an image outside the core.
    core = set(expanded)
    drop = [w for w in preimages if w not in core]
    while drop:
        for v in preimages.get(drop.pop(), ()):
            if v in core:
                core.remove(v)
                drop.append(v)
    return [v for v in expanded if v in core], cut


def semigroup_orbit(gens: GeneratorSet, point, caps: OrbitCaps = OrbitCaps()) -> OrbitStatus:
    """The orbit of the point under every generator, from one closed walk.

    The walk starts at the point, so the point lies in the closed core
    exactly when the core's first value is the point.  Over Q the walk is
    exact and no cap applies; over Z[t] the caps bound it.
    """
    point = _normalize_point(gens, point)
    core, cut = _closed_walk(gens, [point], caps)
    witness = core[0] if core else None
    if core and core[0] == point:
        return OrbitStatus("closed", frozenset(core), witness, cut)
    return OrbitStatus("unknown" if core or cut else "escaping", witness=witness, cut=cut)


def orbit_contains_finite_orbit_point(
    gens: GeneratorSet, point, caps: OrbitCaps = OrbitCaps()
) -> FiniteOrbitAnswer:
    """Does the semigroup orbit of the point contain a finite orbit point?

    Yes with the first value of the closed walk's core, else no; a walk
    that a cap cut (over Z[t] only) with an empty core answers unknown.
    """
    return semigroup_orbit(gens, point, caps).finite_orbit_answer()


@_record(frozen=True)
class Classification:
    kind: str  # "exceptional" | "not_obstructed"
    name: str = ""
    witness: object = None

    @property
    def exceptional(self) -> bool:
        return self.kind == "exceptional"


def classify_finite_orbit_obstruction(gens: GeneratorSet) -> Classification:
    """Decide whether the orbit of 0 contains a finite orbit point (over Q).

    The closed walk from 0 is exact over Q, so it decides every critical set
    and names the witness, the first finite orbit point it meets.
    """
    if not (gens.is_critical and gens.ring == QQ):
        raise ValueError("classification needs a critical-mode set over Q")
    answer = orbit_contains_finite_orbit_point(gens, 0)
    if answer.kind == "yes":
        return Classification("exceptional", name=gens.canonical_name(), witness=answer.witness)
    return Classification("not_obstructed")


# ---------------------------------------------------------------------------
# Eisenstein stability.

@_record(frozen=True)
class EisensteinResult:
    ok: bool
    case: str = ""  # "direct" | "shifted" | ""
    constant_mod4: int = 0


def eisenstein_stability(gens: GeneratorSet, coding: SequenceCoding, n: int) -> EisensteinResult:
    """Irreducibility of the level-n composition f by Eisenstein at 2.

    Mod 2 each map x^2 + c is (x + c)^2, so f = (x + f(0))^(2^n) mod 2: f is
    monic and every other coefficient but f(0) is even.  Constant term 2
    mod 4: f itself is Eisenstein.  Constant term +-1 mod 4: f(x+1) is
    x^(2^n) mod 2 with constant term f(1), so it is Eisenstein iff f(1) = 2
    mod 4.  Anything else is a plain failure.  Only f(0) and f(1) mod 4 are
    computed.
    """
    if not (gens.is_critical and gens.ring == QQ and gens.is_integral()):
        raise ValueError("Eisenstein stability needs an integer critical set")
    at0, at1 = 0, 1
    for k in range(n, 0, -1):
        c = gens.constants[coding.index_at(k) - 1]
        at0, at1 = (at0 * at0 + c) % 4, (at1 * at1 + c) % 4
    if at0 == 2:
        return EisensteinResult(True, "direct", at0)
    if at0 in (1, 3):
        return EisensteinResult(at1 == 2, "shifted", at0)
    return EisensteinResult(False, "", at0)
