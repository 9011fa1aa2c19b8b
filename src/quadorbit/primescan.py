"""Exact membership in the prime-divisor set of a quadratic orbit sequence.

For an eventually periodic coding the level-n value is the prefix
composition applied to an inner value, and per cycle phase the inner value
follows the forward orbit of the full cycle block.  Exact zero levels are
skipped by definition, and with integer maps they occur only while an inner
value is an integer inside the escape bound: past it, or with a
denominator, the value never returns.  So the sequence is split once over
Q: an exact head of every nonzero level met inside the bound, and per
escaping phase a tail that holds no zero.  Before a prime's tails are
walked, the preimage tree of 0 mod p is descended along the first D =
ZERO_TREE_DEPTH maps by modular square roots: if p divides a level
n >= k, then theta_1 o ... o theta_k has a root mod p, so a prime whose
tree dies at depth k <= D is decided by the exact levels below k.  By
Chebotarev the share of primes whose tree survives to depth D tends to the
fixed-point proportion of the level-D Galois group, which
``process.fpp_rows`` gives when that group is maximal.  Only those primes
are walked: first the least head level they divide, then Brent's cycle
detection on each tail in F_p in O(1) memory.  A density profile sieves
the primes once and decides each one this way in fixed chunks, the chunks
in forked worker processes when the scan is large.  A sequence without
tails is counted instead: its members in a chunk divide the gcd of the head
product and the chunk's prime product.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import partial
from itertools import compress
from math import gcd, isqrt, prod

from . import QQ, _record, pool
from .dynamics import GeneratorSet, SequenceCoding, as_number, escape_bound


# ---------------------------------------------------------------------------
# Prime generation (sieve of Eratosthenes).

def _base_primes(root: int) -> list[int]:
    sieve = bytearray([1]) * (root + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, isqrt(root) + 1):
        if sieve[i]:
            sieve[i * i :: i] = b"\x00" * len(sieve[i * i :: i])
    return [i for i in range(2, root + 1) if sieve[i]]


def primes_in_range(lo: int, hi: int) -> list[int]:
    """The primes in [lo, hi], sieved in one bytearray of the odd numbers."""
    primes = [2] if lo <= 2 <= hi else []
    first = max(lo, 3) | 1  # the least odd number >= lo, from 3 on
    if hi < first:
        return primes
    marks = bytearray([1]) * ((hi - first) // 2 + 1)  # marks[i] stands for first + 2i
    for p in _base_primes(isqrt(hi))[1:]:
        # Odd multiples of p from p^2 on; p itself and smaller primes stay marked.
        start = max(p * p, -(-first // p) * p)
        if not start & 1:
            start += p  # the next multiple is odd
        i = (start - first) // 2
        marks[i::p] = bytes(len(range(i, len(marks), p)))
    primes += compress(range(first, hi + 1, 2), marks)
    return primes


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit."""
    return primes_in_range(2, limit)


# ---------------------------------------------------------------------------
# The sequence gamma_n(a0) over Q: an exact head, then tails without zeros.

# Levels of the preimage tree of 0 mod p that prime_divides_orbit descends
# before it walks a prime's tails.  Only the primes whose tree survives them
# all are walked.  By Chebotarev their share tends to the fixed-point
# proportion of the Galois group at this depth, which ``fpp`` gives when
# that group is maximal.  Deeper trees cost more per prime and save more
# walks; 8 tied the best depths to 10^5 and beat 4 and 6 to 3*10^5 and
# 10^6 (BENCH_23.json).
ZERO_TREE_DEPTH = 8


@_record
class ZeroPattern:
    """The sequence split once, where its exact zeros end.

    ``head`` holds (n, gamma_n(a0)) for every nonzero level met while the
    inner value of its phase stays inside the escape bound, in order of n.
    ``tails`` holds (n, u) for each phase whose inner value u leaves the
    bound or picks up a denominator at level n; no level of that phase from
    n on is exactly 0.  A phase that cycles inside the bound has no tail.
    ``outer`` holds the constants of theta_1..theta_D, outermost first, with
    D = ZERO_TREE_DEPTH, and ``early`` holds (n, gamma_n(a0)) for every
    nonzero level n < D.  The start and the integer prefix and cycle
    constants are kept, so a scan sets them up once and not once per prime.
    """

    a0: int | Fraction
    prefix: list[int]
    cycle: list[int]
    head: list[tuple[int, int | Fraction]]
    tails: list[tuple[int, int | Fraction]]
    outer: list[int]
    early: list[tuple[int, int | Fraction]]


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


def zero_pattern(gens: GeneratorSet, coding: SequenceCoding, a0: int | Fraction) -> ZeroPattern:
    """Walk the sequence exactly up to the end of its exact zeros.

    Level a + q*b + r (a prefix maps, b cycle maps, 0 <= r < b) is the prefix
    applied to the inner value u_q of phase r, and u_{q+1} is u_q pushed
    through one full cycle block.  Integer inner values either stay within
    the escape bound (hence repeat within about twice that many blocks) or
    grow forever; fractional ones keep a nontrivial denominator forever, and
    neither of the last two ever gives a zero level.
    """
    prefix, cycle = _setup(gens, coding)
    a0 = as_number(a0)
    escape = escape_bound(gens)
    # Fewer than 2*escape + 2 integers v have |v| <= escape, so an integer
    # inner value repeats before this many cycle blocks.
    bound = 2 * escape + 6
    a_len, b_len = len(prefix), len(cycle)
    levels = {n: _apply_chain_exact(prefix[:n], a0) for n in range(a_len + 1)}
    tails = []
    for r in range(b_len):
        v = _apply_chain_exact(cycle[:r], a0)
        seen = set()
        for n in range(a_len + r, a_len + r + (bound + 1) * b_len, b_len):
            if v.denominator > 1 or abs(v) > escape:
                tails.append((n, v))
                break
            if v in seen:
                break
            seen.add(v)
            levels[n] = _apply_chain_exact(prefix, v)
            v = _apply_chain_exact(cycle, v)  # one full cycle block
        else:
            raise RuntimeError(f"zero pattern unresolved within {bound} cycle blocks")
    head = [(n, value) for n, value in sorted(levels.items()) if value != 0]
    outer = (prefix + cycle * ZERO_TREE_DEPTH)[:ZERO_TREE_DEPTH]
    early = [(n, value) for n in range(ZERO_TREE_DEPTH) if (value := _apply_chain_exact(outer[:n], a0)) != 0]
    return ZeroPattern(a0=a0, prefix=prefix, cycle=cycle, head=head, tails=tails, outer=outer, early=early)


# ---------------------------------------------------------------------------
# Per-prime membership.

@_record(frozen=True)
class PrimeOrbitResult:
    status: str  # "yes" | "no" | "excluded" | "over_cap"
    first_index: int | None = None


_NO = PrimeOrbitResult("no")
_EXCLUDED = PrimeOrbitResult("excluded")
_OVER_CAP = PrimeOrbitResult("over_cap")


def _zero_tree_depth(p: int, outer: list[int]) -> int | None:
    """The least k with Z_k empty, or None when the last level is not empty.

    Z_0 = {0} and Z_k = {w : w^2 + c_k in Z_(k-1)} mod p, where c_k is
    ``outer[k - 1]``: Z_k holds the roots of theta_1 o ... o theta_k mod p.
    Each y = w - c_k with w in Z_(k-1) gets one Tonelli-Shanks square root,
    whose first power also gives Euler's test; the last level only needs
    one square.
    """
    if p == 2:
        return None  # every residue mod 2 is a square
    q, s = p - 1, 0  # p - 1 = q * 2^s with q odd
    while not q & 1:
        q, s = q >> 1, s + 1
    gen = None  # z^q for a nonresidue z, found when first needed
    roots = [0]
    for k, c in enumerate(outer, start=1):
        level = []
        for w in roots:
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
            if k == len(outer):
                return None
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
        if not level:
            return k
        roots = level
    return None


def _walk_tails(p: int, pattern: ZeroPattern, max_states: int) -> PrimeOrbitResult:
    """The answer from the head and a walk of each tail mod p.

    The least head level whose exact value p divides comes first; then
    Brent's cycle detection walks each tail mod p while its level stays
    below the best hit so far.  No tail level is exactly 0, so the walk
    needs no mask, and once a state repeats every later level repeats an
    earlier one.
    """
    first = next((n for n, value in pattern.head if value.numerator % p == 0), None)
    # Maps are listed innermost first.
    pre = [c % p for c in reversed(pattern.prefix)]
    cyc = [c % p for c in reversed(pattern.cycle)]
    b_len = len(cyc)
    for n, u in pattern.tails:
        u = u.numerator * pow(u.denominator, -1, p) % p
        tort, power, lam = u, 1, 0
        while first is None or n < first:
            v = u
            for c in pre:
                v = (v * v + c) % p
            if v == 0:
                first = n
                break
            for c in cyc:
                u = (u * u + c) % p
            n += b_len
            lam += 1
            if u == tort:
                break
            if power == lam:
                tort, power, lam = u, 2 * power, 0
                if power > max_states:
                    return _OVER_CAP
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
    a0 are excluded with their own status.  Without tails the least head
    level whose exact value p divides is the answer.  Otherwise the preimage
    tree of 0 mod p is descended along the first ZERO_TREE_DEPTH maps: if
    p divides gamma_n(a0) with n >= k, then theta_1 o ... o theta_k has a
    root mod p, so when its level Z_k is empty the least early level below
    k that p divides is the answer.  A prime whose tree survives has its
    head read and its tails walked (``_walk_tails``).  ``max_states`` bounds
    each tail's Brent power, counted in cycle blocks from the tail's start;
    a tail that would exceed it makes the answer "over_cap".  When a
    ``pattern`` is given, its start and constants are used and ``gens`` and
    ``coding`` are not read; it must be resolved from the same inputs, and a
    pattern for another start raises ValueError.
    """
    if pattern is None:
        pattern = zero_pattern(gens, coding, a0)
    elif pattern.a0 is not a0 and pattern.a0 != a0:
        raise ValueError(f"zero pattern was resolved for a0 = {pattern.a0}, not {a0}")
    if pattern.a0.denominator % p == 0:
        return _EXCLUDED
    if not pattern.tails:
        first = next((n for n, value in pattern.head if value.numerator % p == 0), None)
    elif (depth := _zero_tree_depth(p, pattern.outer)) is None:
        return _walk_tails(p, pattern, max_states)
    else:
        first = next((n for n, value in pattern.early if n < depth and value.numerator % p == 0), None)
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
        return Fraction(self.in_p, self.pi_x) if self.pi_x else Fraction(0)

    def ratio_decimal(self, places: int = 12) -> str:
        scaled = self.ratio * 10**places
        digits = (scaled.numerator + scaled.denominator // 2) // scaled.denominator
        text = str(digits).rjust(places + 1, "0")
        return f"{text[:-places]}.{text[-places:]}"


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
            "rows": [
                {
                    "x": row.cutoff,
                    "in_p_count": row.in_p,
                    "pi_x": row.pi_x,
                    "ratio_num": row.ratio.numerator,
                    "ratio_den": row.ratio.denominator,
                    "ratio": row.ratio_decimal(),
                }
                for row in self.rows
            ],
            "excluded_primes": self.excluded,
            "over_cap_primes": self.over_cap,
        }

    def csv_rows(self) -> list[list[str]]:
        out = [["x", "in_P_count", "pi_x", "ratio_decimal_12dp"]]
        for row in self.rows:
            out.append([str(row.cutoff), str(row.in_p), str(row.pi_x), row.ratio_decimal()])
        return out


# Primes up to the largest cutoff are sieved once and decided in chunks cut
# at every multiple of SCAN_TASK_WIDTH and at every cutoff, so the chunks and
# the merged report do not depend on the worker count.  Worker processes
# start only above POOL_MIN_CUTOFF, where they pay for their start, and only
# for a sequence with tails, whose primes are decided one by one.
SCAN_TASK_WIDTH = 5_000
POOL_MIN_CUTOFF = 20_000


def _scan_chunks(primes: list[int], cutoffs: list[int]) -> list[tuple[int, int]]:
    """Index ranges [start, stop) that cover ``primes`` in order, each ending
    at a cutoff or a multiple of SCAN_TASK_WIDTH."""
    ends = {c for c in cutoffs if c >= 2}
    ends.update(range(SCAN_TASK_WIDTH, cutoffs[-1], SCAN_TASK_WIDTH))
    stops = [bisect_right(primes, end) for end in sorted(ends)]
    return list(zip([0] + stops, stops))


def _scan_chunk(gens, coding, pattern: ZeroPattern, max_states: int, primes: list[int], bounds: tuple[int, int]):
    """(members, excluded, over_cap) of ``primes[start:stop]``."""
    chunk = primes[slice(*bounds)]
    if not pattern.tails:
        # Every nonzero level is in the head, so p is a member exactly when it
        # divides the product of the head values.  A fractional a0 would give
        # phase 0 a tail at level len(prefix), so a0 is an integer and no
        # prime is excluded; only a tail walk can exceed max_states, so none
        # is over the cap.
        g = gcd(prod(value.numerator for _, value in pattern.head), prod(chunk))
        return (sum(g % p == 0 for p in chunk) if g > 1 else 0), [], []
    members = 0
    excluded, over_cap = [], []
    for p in chunk:
        # Passing the pattern's own a0 lets the start check be an identity test.
        status = prime_divides_orbit(p, gens, coding, pattern.a0, pattern, max_states).status
        if status == "yes":
            members += 1
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

    The primes are sieved once.  Above POOL_MIN_CUTOFF the chunks of a
    sequence with tails are decided by one forked worker per usable CPU,
    which inherit the prime list; the report is the same for every CPU
    count.  Without tails each chunk is one gcd, in this process.
    """
    if list(cutoffs) != sorted(set(cutoffs)):
        raise ValueError("cutoffs must be strictly increasing")
    pattern = zero_pattern(gens, coding, a0)
    report = PrimeScanReport(generators=gens.map_strings(), coding=coding.render(), a0=str(pattern.a0))
    primes = primes_up_to(cutoffs[-1])
    chunks = _scan_chunks(primes, cutoffs)
    results = pool.parallel_map(
        partial(_scan_chunk, gens, coding, pattern, max_states, primes),
        chunks,
        pool.usable_cpus() if pattern.tails and cutoffs[-1] > POOL_MIN_CUTOFF else 1,
    )
    totals = {0: 0}  # n -> members among the first n primes, at each chunk end
    in_p = 0
    for (_, stop), (members, excluded, over_cap) in zip(chunks, results):
        in_p += members
        report.excluded += excluded
        report.over_cap += over_cap
        totals[stop] = in_p
    for cutoff in cutoffs:
        pi_x = bisect_right(primes, cutoff)
        report.rows.append(ScanRow(cutoff=cutoff, in_p=totals[pi_x], pi_x=pi_x))
    return report


def fpp_comparison(profile: PrimeScanReport, fpp: list[dict]) -> dict:
    """Juxtapose the profile's empirical prime ratio at its largest cutoff with
    the fixed-point proportion table ``fpp`` of ``process.fpp_rows``
    (informational; the bound concerns the limit)."""
    row = profile.rows[-1]
    return {
        "format_version": 1,
        "cutoff": row.cutoff,
        "ratio_num": row.ratio.numerator,
        "ratio_den": row.ratio.denominator,
        "ratio": row.ratio_decimal(),
        "fpp": fpp,
    }
