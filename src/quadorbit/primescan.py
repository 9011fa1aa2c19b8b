"""Exact membership in the prime-divisor set of a quadratic orbit sequence.

For an eventually periodic coding the level-n value is the prefix
composition applied to an inner value, and per cycle phase the inner value
follows the forward orbit of the full cycle block.  Exact zero levels are
skipped by definition, and with integer maps they occur only while an inner
value is an integer inside the escape bound: past it, or with a
denominator, the value never returns.  So the sequence is split once over Q,
without evaluating any value past the escape bound: per escaping phase the
level where its tail starts, and no tail level is a zero; and a depth D
such that every later level is a tail level or repeats one below D.  The
preimage tree of 0 mod p is descended along the first D maps by modular
square roots.  Its level Z_k holds the roots of theta_1 o ... o theta_k mod
p, so p divides a level n >= k only if Z_k is not empty, and p divides
gamma_n(a0) exactly when a0 mod p lies in Z_n: the least n < D with a0 in
Z_n that is not an exact zero answers every level below D, and it is the
answer when there is one or when the tree dies.  By Chebotarev the share of
primes whose tree survives to depth D tends to the fixed-point proportion
of the level-D Galois group, which ``process.fpp_rows`` gives when that
group is maximal.  Only those primes, and only when no level below D is 0
mod p, are walked: Brent's cycle detection on each tail in F_p in O(1)
memory, from its start rebuilt mod p from a0, where an inner value's level
is 0 mod p exactly when the value lies in the tree's Z_a.  A density profile
sieves the primes once and decides each one this way in chunks of a fixed
number of primes, in forked worker processes when the scan is large; a
chunk returns its member primes.  A sequence without tails is counted
instead: its members are the primes that divide the product of its nonzero
levels below D.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from fractions import Fraction
from functools import partial
from math import prod

from . import QQ, _record, pool
from .algebra.integers import primes_in_range
from .dynamics import GeneratorSet, SequenceCoding, as_number, escape_bound


# ---------------------------------------------------------------------------
# Prime generation: the package's one sieve, in ``algebra.integers``.

def primes_up_to(limit: int) -> array:
    """All primes <= limit."""
    return primes_in_range(2, limit)


# ---------------------------------------------------------------------------
# The sequence gamma_n(a0) over Q: zero-free tails and the exact zeros below them.

# Levels of the preimage tree of 0 mod p that prime_divides_orbit descends
# before it walks a prime's tails, or more when the prefix or a phase inside
# the escape bound reaches deeper (``zero_pattern``).  Only the primes whose
# tree survives them all are walked.  By Chebotarev their share tends to the
# fixed-point proportion of the Galois group at this depth, which ``fpp``
# gives when that group is maximal.  Deeper trees cost more per prime and
# save more walks; 8 tied the best depths to 10^5 and beat 4 and 6 to
# 3*10^5 and 10^6 (BENCH_23.json).
ZERO_TREE_DEPTH = 8


@_record
class ZeroPattern:
    """The sequence split once, where its exact zeros end.

    ``tails`` holds the level n of each phase whose inner value leaves the
    escape bound or picks up a denominator there; no level of that phase
    from n on is exactly 0, and the inner value itself, which can be as
    large as the first n maps make it, is neither kept nor computed.  A
    phase that cycles inside the bound has no tail.  ``outer`` holds the
    constants of theta_1..theta_D, outermost first, for the depth D of
    ``zero_pattern``, and ``zeros`` the levels n <= D where gamma_n(a0) is
    exactly 0; no other level value is kept.  The start and the integer
    prefix and cycle constants are kept, so a scan sets them up once and
    not once per prime.
    """

    a0: int | Fraction
    prefix: list[int]
    cycle: list[int]
    tails: list[int]
    outer: list[int]
    zeros: list[int]


def _setup(gens: GeneratorSet, coding: SequenceCoding):
    if not (gens.is_critical and gens.ring == QQ and gens.is_integral()):
        raise ValueError("the prime scanner needs an integer critical set over Q")
    coding.validate_for(gens)
    cs = gens.constants
    prefix = [cs[i - 1] for i in coding.prefix]
    cycle = [cs[i - 1] for i in coding.cycle]
    return prefix, cycle


def _apply_chain_exact(constants: list[int], value: int | Fraction) -> int | Fraction:
    # Innermost map is the last entry, matching the composition convention.
    for c in reversed(constants):
        value = value * value + c
    return value


def _bounded_chain(constants: list[int], value: int | Fraction, escape: int) -> int | None:
    # The chain's value while every value met is an integer inside the
    # escape bound, else None.  A value outside it, or with a denominator,
    # keeps that under every map, so neither it nor any later value is 0.
    for c in reversed(constants):
        if value.denominator > 1 or abs(value) > escape:
            return None
        value = value * value + c
    return None if value.denominator > 1 or abs(value) > escape else value


def zero_pattern(gens: GeneratorSet, coding: SequenceCoding, a0: int | Fraction) -> ZeroPattern:
    """Walk each phase's inner values exactly until they escape or repeat.

    Level a + q*b + r (a prefix maps, b cycle maps, 0 <= r < b) is the prefix
    applied to the inner value u_q of phase r, and u_{q+1} is u_q pushed
    through one full cycle block.  Integer inner values either stay within
    the escape bound (hence repeat within about twice that many blocks) or
    grow forever; fractional ones keep a nontrivial denominator forever, and
    neither of the last two ever gives a zero level.  So the walk stops at
    the first inner value out of the bound, and keeps only its level: no
    value past the bound is evaluated, and the pattern holds only the
    start, the constants and level numbers.

    D is the largest of ZERO_TREE_DEPTH, a, and one more than the last level
    whose inner value is met inside the bound.  Every level n >= D is a tail
    level or repeats the exact value of a level below D.  Proof: n >= a lies
    in a phase r.  If n is not a tail level, the walk of phase r, which
    meets its levels in order until one escapes or repeats, stopped at a
    repeat at or below n, as n is past every met level.  From there the
    inner values run periodically through met ones, so gamma_n(a0) =
    gamma_m(a0) for a met level m < D, under the same prefix.  The exact
    zeros up to D are found the same way, so no level value is kept.

    No tail level is a zero, so the least n < D with a0 mod p in Z_n that is
    not in ``zeros`` is the least level below D that p divides, and no tail
    level below it is 0 mod p.  When that n exists it is p's answer; when
    it does not, the answer is the least tail level from D on that p
    divides, as every other level from D on repeats one below D.
    """
    prefix, cycle = _setup(gens, coding)
    a0 = as_number(a0)
    escape = escape_bound(gens)
    # Fewer than 2*escape + 2 integers v have |v| <= escape, so an integer
    # inner value repeats before this many cycle blocks.
    bound = 2 * escape + 6
    a_len, b_len = len(prefix), len(cycle)
    depth = max(ZERO_TREE_DEPTH, a_len)
    tails = []
    for r in range(b_len):
        v = _bounded_chain(cycle[:r], a0, escape)
        seen = set()
        for n in range(a_len + r, a_len + r + (bound + 1) * b_len, b_len):
            if v is None:
                tails.append(n)
                break
            if v in seen:
                break
            seen.add(v)
            depth = max(depth, n + 1)
            v = _bounded_chain(cycle, v, escape)  # one full cycle block
        else:
            raise RuntimeError(f"zero pattern unresolved within {bound} cycle blocks")
    outer = (prefix + cycle * depth)[:depth]
    zeros = [n for n in range(depth + 1) if _bounded_chain(outer[:n], a0, escape) == 0]
    return ZeroPattern(a0=a0, prefix=prefix, cycle=cycle, tails=tails, outer=outer, zeros=zeros)


# ---------------------------------------------------------------------------
# Per-prime membership.

@_record(frozen=True)
class PrimeOrbitResult:
    status: str  # "yes" | "no" | "excluded" | "over_cap"
    first_index: int | None = None


_NO = PrimeOrbitResult("no")
_EXCLUDED = PrimeOrbitResult("excluded")
_OVER_CAP = PrimeOrbitResult("over_cap")


def _zero_tree(p: int, outer: list[int], a: int) -> list[list[int]]:
    """The levels Z_0, Z_1, ... of the preimage tree of 0 mod p along ``outer``.

    Z_0 = [0] and Z_k = {w : w^2 + c_k in Z_(k-1)} mod p, where c_k is
    ``outer[k - 1]``: Z_k holds the roots of theta_1 o ... o theta_k mod p.
    The list ends with the first empty level when there is one.  Otherwise
    the tree survives, and every level returned is complete, Z_a included;
    for odd p a last level past Z_a is only tested for one square and not
    returned.  Each y = w - c_k with w in Z_(k-1) gets one Tonelli-Shanks
    square root, whose first power also gives Euler's test.
    """
    levels = [[0]]
    if p == 2:
        # w^2 = w mod 2, so each level has the one root w = z - c_k.
        for c in outer:
            levels.append([(levels[-1][0] - c) % 2])
        return levels
    q, s = p - 1, 0  # p - 1 = q * 2^s with q odd
    while not q & 1:
        q, s = q >> 1, s + 1
    gen = None  # z^q for a nonresidue z, found when first needed
    for k, c in enumerate(outer, start=1):
        level = []
        for w in levels[-1]:
            y = (w - c) % p
            if not y:
                level.append(0)
                continue
            # r = y^((q+1)/2) and t = y^q, so r^2 = t*y.  t has order 2^i,
            # and i < s exactly when y is a square.
            x = pow(y, q >> 1, p)
            r = x * y % p
            t = x * r % p
            i, t2 = 0, t
            while t2 != 1:
                t2, i = t2 * t2 % p, i + 1
            if i == s:
                continue
            if k > a and k == len(outer):
                return levels
            if i and gen is None:
                z = 2
                while pow(z, p >> 1, p) == 1:
                    z += 1
                gen = pow(z, q, p)
            m, g = s, gen
            while i:  # each step lowers the order of t and keeps r^2 = t*y
                b = pow(g, 1 << (m - i - 1), p)
                m, g = i, b * b % p
                t, r = t * g % p, r * b % p
                i, t2 = 0, t
                while t2 != 1:
                    t2, i = t2 * t2 % p, i + 1
            level += (r, p - r)
        levels.append(level)
        if not level:
            break
    return levels


def _walk_tails(p: int, pattern: ZeroPattern, x0: int, roots: list[int], max_states: int) -> PrimeOrbitResult:
    """The answer from a walk of each tail mod p, for a prime that no level
    below the tree depth D hits and whose tree survives.

    The start of the tail at level n is its inner value theta_(a+1) o ... o
    theta_n (a0): the first n - a maps of the repeated cycle, innermost
    last, applied to ``x0`` = a0 mod p.  ``roots`` is Z_a, so the level of
    an inner value u is 0 mod p exactly when u is in it.  Brent's cycle
    detection walks each tail from its start while its level stays below
    the best hit so far, in rounds of one loop over at most ``power`` cycle
    blocks, cut short at that hit, with one membership test and one
    tortoise compare a block.  No tail level is exactly 0, so the walk
    needs no mask, and once a state repeats every later level repeats an
    earlier one.  A tail that starts below D meets no hit there, as no
    level below D is 0 mod p; it is walked from its start all the same, so
    that ``max_states`` counts from there.
    """
    roots = set(roots)
    cycle = [c % p for c in pattern.cycle]
    # The cycle block is its innermost map, then the others outward; the
    # guard spares a one-map cycle the loop's setup at every step.
    inner, *rest = reversed(cycle)
    b_len, first = len(cycle), None
    for n in pattern.tails:
        u = x0
        for j in reversed(range(n - len(pattern.prefix))):  # theta_n first, theta_(a+1) last
            u = (u * u + cycle[j % b_len]) % p
        tort, power = u, 1
        while first is None or n < first:
            # The blocks of this round, or those whose level is below first.
            steps = power if first is None else min(power, (first - n - 1) // b_len + 1)
            for i in range(steps):
                if u in roots:
                    first = n + i * b_len
                    break
                u = (u * u + inner) % p
                if rest:
                    for c in rest:
                        u = (u * u + c) % p
                if u == tort:
                    break
            else:
                n += steps * b_len
                if steps == power:
                    tort, power = u, 2 * power
                    if power > max_states:
                        return _OVER_CAP
                continue
            break
    return _NO if first is None else PrimeOrbitResult("yes", first)


def prime_divides_orbit(
    p: int,
    gens: GeneratorSet,
    coding: SequenceCoding,
    a0: Fraction | int,
    pattern: ZeroPattern | None = None,
    max_states: int = 1_000_000,
) -> PrimeOrbitResult:
    """Does p divide gamma_n(a0) for some n >= 0 with gamma_n(a0) != 0 exactly?

    Yes answers carry the least such n.  Primes dividing the denominator of
    a0 are excluded with their own status.  Otherwise the preimage tree of 0
    mod p along the pattern's first D maps (``_zero_tree``) gives the least
    n < D with a0 mod p in Z_n that is not an exact zero, which is the
    answer when it exists or when the tree dies (``zero_pattern``).  Only
    when neither holds are the tails walked with Z_a (``_walk_tails``).
    ``max_states`` bounds each tail's Brent power, counted in cycle blocks
    from the tail's start; a tail that would exceed it makes the answer
    "over_cap".  When a ``pattern`` is given, its start and constants are
    used and ``gens`` and ``coding`` are not read; it must be resolved from
    the same inputs, and a pattern for another start raises ValueError.
    """
    if pattern is None:
        pattern = zero_pattern(gens, coding, a0)
    elif pattern.a0 is not a0 and pattern.a0 != a0:
        raise ValueError(f"zero pattern was resolved for a0 = {pattern.a0}, not {a0}")
    a0 = pattern.a0
    if a0.denominator % p == 0:
        return _EXCLUDED
    a = len(pattern.prefix)
    levels = _zero_tree(p, pattern.outer, a)
    x0 = a0 % p if type(a0) is int else a0.numerator * pow(a0.denominator, -1, p) % p
    first = next((n for n, level in enumerate(levels) if x0 in level and n not in pattern.zeros), None)
    if first is None and levels[-1]:
        return _walk_tails(p, pattern, x0, levels[a], max_states)
    return _NO if first is None else PrimeOrbitResult("yes", first)


# ---------------------------------------------------------------------------
# Density profiles.

@_record
class ScanRow:
    cutoff: int
    in_p: int
    pi_x: int

    @property
    def ratio(self) -> Fraction:
        # A cutoff is at least 2, so it counts at least one prime.
        return Fraction(self.in_p, self.pi_x)

    def ratio_decimal(self) -> str:
        scaled = self.ratio * 10**12
        whole, frac = divmod((scaled.numerator + scaled.denominator // 2) // scaled.denominator, 10**12)
        return f"{whole}.{frac:012d}"

    def to_dict(self) -> dict:
        ratio = self.ratio
        return {
            "x": self.cutoff,
            "in_p_count": self.in_p,
            "pi_x": self.pi_x,
            "ratio_num": ratio.numerator,
            "ratio_den": ratio.denominator,
            "ratio": self.ratio_decimal(),
        }


@_record
class PrimeScanReport:
    generators: list[str]
    coding: str
    a0: str
    rows: list[ScanRow] = []
    excluded: list[int] = []
    over_cap: list[int] = []

    def to_dict(self) -> dict:
        return {
            "format_version": 1,
            "generators": self.generators,
            "coding": self.coding,
            "a0": self.a0,
            "rows": [row.to_dict() for row in self.rows],
            "excluded_primes": self.excluded,
            "over_cap_primes": self.over_cap,
        }

    def csv_rows(self) -> list[list[str]]:
        fields = ("x", "in_p_count", "pi_x", "ratio")
        return [["x", "in_P_count", "pi_x", "ratio_decimal_12dp"]] + [
            [str(row[key]) for key in fields] for row in self.to_dict()["rows"]
        ]


# The primes of a sequence with tails are sieved once and decided in chunks
# of SCAN_CHUNK consecutive primes, one pool task each; neither the chunk
# size nor the worker count changes the report.  Worker processes start only
# above POOL_MIN_CUTOFF, where they pay for their start.
SCAN_CHUNK = 256
POOL_MIN_CUTOFF = 20_000


def _scan_chunk(gens, coding, pattern: ZeroPattern, max_states: int, primes: array, start: int):
    """(members, excluded, over_cap) among the SCAN_CHUNK primes from ``primes[start]`` on, as ascending lists."""
    chunk = primes[start : start + SCAN_CHUNK]
    members, excluded, over_cap = [], [], []
    for p in chunk:
        # Passing the pattern's own a0 lets the start check be an identity test.
        status = prime_divides_orbit(p, gens, coding, pattern.a0, pattern, max_states).status
        if status == "yes":
            members.append(p)
        elif status == "excluded":
            excluded.append(p)
        elif status == "over_cap":
            over_cap.append(p)
    return members, excluded, over_cap


def density_profile(
    gens: GeneratorSet,
    coding: SequenceCoding,
    a0: Fraction | int,
    cutoffs: list[int],
    max_states: int = 1_000_000,
) -> PrimeScanReport:
    """Scan all primes up to the largest cutoff and tabulate membership counts.

    The cutoffs must increase strictly from at least 2, the least prime and
    the least ``x`` of a row.  The primes are sieved once.  Above
    POOL_MIN_CUTOFF the chunks of a sequence with tails are decided by one
    forked worker per usable CPU, which inherit the prime array; the report
    is the same for every CPU count.  Without tails each prime is tested
    against the product of the nonzero levels below the tree depth, in this
    process.
    """
    if not cutoffs or list(cutoffs) != sorted(set(cutoffs)) or cutoffs[0] < 2:
        raise ValueError("cutoffs must be nonempty, strictly increasing and at least 2")
    pattern = zero_pattern(gens, coding, a0)
    report = PrimeScanReport(generators=gens.map_strings(), coding=coding.render(), a0=str(pattern.a0))
    primes = primes_up_to(cutoffs[-1])
    if pattern.tails:
        results = pool.parallel_map(
            partial(_scan_chunk, gens, coding, pattern, max_states, primes),
            range(0, len(primes), SCAN_CHUNK),
            pool.usable_cpus() if cutoffs[-1] > POOL_MIN_CUTOFF else 1,
        )
        members = []
        for chunk_members, excluded, over_cap in results:
            members += chunk_members
            report.excluded += excluded
            report.over_cap += over_cap
    else:
        # Every level repeats one below the tree depth, so p is a member
        # exactly when it divides the product of the distinct nonzero values
        # there.  A fractional a0 would give phase 0 a tail at level
        # len(prefix), so a0 is an integer and no prime is excluded; only a
        # tail walk can exceed max_states, so none is over the cap.
        outer, zeros = pattern.outer, pattern.zeros
        product = prod({_apply_chain_exact(outer[:n], pattern.a0) for n in range(len(outer)) if n not in zeros})
        members = [p for p in primes if not product % p]
    for cutoff in cutoffs:
        report.rows.append(ScanRow(cutoff=cutoff, in_p=bisect_right(members, cutoff), pi_x=bisect_right(primes, cutoff)))
    return report


def fpp_comparison(profile: PrimeScanReport, fpp: list[dict]) -> dict:
    """Juxtapose the profile's empirical prime ratio at its largest cutoff with
    the fixed-point proportion table ``fpp`` of ``process.fpp_rows``
    (informational; the bound concerns the limit)."""
    row = profile.rows[-1].to_dict()
    ratio = {key: row[key] for key in ("ratio_num", "ratio_den", "ratio")}
    return {"format_version": 1, "cutoff": row["x"], **ratio, "fpp": fpp}
