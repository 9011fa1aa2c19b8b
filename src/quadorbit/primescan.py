"""Exact membership in the prime-divisor set of a quadratic orbit sequence.

For an eventually periodic coding the level-n value factors through the
prefix composition applied to a forward orbit of the full cycle block, so
membership mod p is decided by finite cycle detection: per cycle phase the
inner value walks a rho-shaped orbit in F_p.  One walker decides every
prime: per phase it runs Brent's cycle detection in O(1) memory on the
states (inner value mod p, step mod the period of the phase's exact-zero
mask).  Exact zero terms of the sequence (skipped by definition) are
resolved completely over Q first: with integer maps, inner values that
leave the escape bound or pick up a denominator can never produce zeros
again, so the zero pattern is eventually periodic and computed exactly.  A
density profile sieves fixed ranges of primes and decides each prime with
that walker, the ranges in worker processes when the scan is large.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import compress
from math import isqrt

from . import QQ, pool
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


def primes_in_range(lo: int, hi: int):
    """Yield primes in [lo, hi], sieved in one bytearray (scan ranges are short)."""
    lo = max(lo, 2)
    if hi < lo:
        return
    marks = bytearray([1]) * (hi - lo + 1)
    for p in _base_primes(isqrt(hi)):
        # Multiples of p from p^2 on; p itself and smaller primes stay marked.
        start = max(p * p, -(-lo // p) * p) - lo
        marks[start::p] = b"\x00" * len(marks[start::p])
    yield from compress(range(lo, hi + 1), marks)


def primes_up_to(limit: int):
    """Yield all primes <= limit."""
    yield from primes_in_range(2, limit)


# ---------------------------------------------------------------------------
# Exact zero pattern of the sequence gamma_n(a0) over Q.

@dataclass
class _PhaseZeros:
    pre_hits: set[int]
    cycle_start: int | None = None  # None: no zeros beyond the recorded ones
    cycle_len: int = 0
    cycle_hits: frozenset[int] = frozenset()

    def is_zero(self, q: int) -> bool:
        if self.cycle_start is not None and q >= self.cycle_start:
            return (q - self.cycle_start) % self.cycle_len in self.cycle_hits
        return q in self.pre_hits


@dataclass
class ZeroPattern:
    """Exact description of { n >= 0 : gamma_n(a0) == 0 }, eventually periodic.

    It keeps the start and the integer prefix and cycle constants it was
    resolved from, so a scan sets them up once and not once per prime.
    """

    a0: int | Fraction
    prefix: list[int]
    cycle: list[int]
    prefix_zeros: set[int]
    phases: list[_PhaseZeros]

    def is_zero(self, n: int) -> bool:
        if n == 0:
            return self.a0 == 0
        if n <= len(self.prefix):
            return n in self.prefix_zeros
        q, r = divmod(n - len(self.prefix), len(self.cycle))
        return self.phases[r].is_zero(q)


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
    """Resolve every exact zero of the sequence.

    Integer inner values either stay within the escape bound (hence become
    periodic within about twice that many steps) or grow forever; fractional
    values keep a nontrivial denominator forever.  Both resolve each phase
    completely.
    """
    prefix, cycle = _setup(gens, coding)
    a0 = as_number(a0)
    escape = escape_bound(gens)
    # Fewer than 2*escape + 2 integers v have |v| <= escape, so an integer
    # inner value repeats before this many cycle blocks.
    bound = 2 * escape + 6
    pattern = ZeroPattern(a0=a0, prefix=prefix, cycle=cycle, prefix_zeros=set(), phases=[])
    for n in range(1, len(prefix) + 1):
        if _apply_chain_exact(prefix[:n], a0) == 0:
            pattern.prefix_zeros.add(n)
    for r in range(len(cycle)):
        v = _apply_chain_exact(cycle[:r], a0)
        hits: set[int] = set()
        seen: dict[int, int] = {}
        for q in range(bound + 1):
            if v.denominator > 1 or abs(v) > escape:
                # No zero can ever appear from here on.
                pattern.phases.append(_PhaseZeros(pre_hits=hits))
                break
            if v in seen:
                start = seen[v]
                length = q - start
                cyc = frozenset((h - start) % length for h in hits if h >= start)
                pattern.phases.append(
                    _PhaseZeros(
                        pre_hits={h for h in hits if h < start},
                        cycle_start=start,
                        cycle_len=length,
                        cycle_hits=cyc,
                    )
                )
                break
            if _apply_chain_exact(prefix, v) == 0:
                hits.add(q)
            seen[v] = q
            v = _apply_chain_exact(cycle, v)  # one full cycle block
        else:
            raise RuntimeError(f"zero pattern unresolved within {bound} cycle blocks")
    return pattern


# ---------------------------------------------------------------------------
# Per-prime membership.

@dataclass(frozen=True)
class PrimeOrbitResult:
    status: str  # "yes" | "no" | "excluded" | "over_cap"
    first_index: int | None = None


def prime_divides_orbit(
    p: int,
    gens: GeneratorSet,
    coding: SequenceCoding,
    a0: Fraction | int,
    pattern: ZeroPattern | None = None,
    max_states: int = 1_000_000,
) -> PrimeOrbitResult:
    """Does p divide gamma_n(a0) for some n >= 0 with gamma_n(a0) != 0 exactly?

    Exact decision via cycle detection in F_p; yes answers carry the least
    index.  Primes dividing the denominator of a0 are excluded with their
    own status.  ``max_states`` bounds each phase's Brent power, counted in
    walker steps; a phase that would exceed it makes the answer "over_cap".
    When a ``pattern`` is given, its start and constants are used and
    ``gens`` and ``coding`` are not read; it must be resolved from the same
    inputs, and a pattern for another start raises ValueError.
    """
    if pattern is None:
        pattern = zero_pattern(gens, coding, a0)
    elif pattern.a0 is not a0 and pattern.a0 != a0:
        raise ValueError(f"zero pattern was resolved for a0 = {pattern.a0}, not {a0}")
    num, den = pattern.a0.numerator, pattern.a0.denominator
    prefix, cycle = pattern.prefix, pattern.cycle
    if den % p == 0:
        return PrimeOrbitResult("excluded")
    x0 = num * pow(den, -1, p) % p

    if num and x0 == 0:
        return PrimeOrbitResult("yes", 0)

    # Prefix levels: level n applies the first n prefix maps, innermost last.
    for n in range(1, len(prefix) + 1):
        v = x0
        for c in reversed(prefix[:n]):
            v = (v * v + c) % p
        if v == 0 and not pattern.is_zero(n):
            return PrimeOrbitResult("yes", n)

    # Level a_len + q*b_len + r is the prefix applied to the inner value u_q of
    # phase r, and u_{q+1} is u_q pushed through one full cycle block.  Maps
    # are listed innermost first.
    a_len, b_len = len(prefix), len(cycle)
    pre = [c % p for c in reversed(prefix)]
    cyc = [c % p for c in reversed(cycle)]
    first = None  # least hit level found so far; later phases stop there
    for r, phase in enumerate(pattern.phases):
        # From step `settle` on, the exact-zero mask of the phase repeats with
        # `period`, so the walk is a function of the state (u_q, q mod period).
        if phase.cycle_start is None:
            period, settle = 1, max(phase.pre_hits, default=-1) + 1
        else:
            period, settle = phase.cycle_len, phase.cycle_start
        n = a_len + r
        u = x0
        for c in cyc[b_len - r :]:
            u = (u * u + c) % p
        # Brent's cycle detection on those states.  lam starts low enough that
        # the first tortoise lands on step max(settle, 1): the settle steps and
        # the caller's level-0 slot are tested for hits but never enrolled, as a
        # masked slot must not retire a value whose later occurrences are
        # unmasked.  Every level is tested before the walker moves past it.
        tort = None
        power, lam = 1, 2 - max(settle, 1)
        while first is None or n < first:
            v = u
            for c in pre:
                v = (v * v + c) % p
            if v == 0 and not pattern.is_zero(n):
                first = n
                break
            for c in cyc:
                u = (u * u + c) % p
            n += b_len
            if u == tort and lam % period == 0:
                break
            if power == lam:
                tort, power, lam = u, 2 * power, 0
                if power > max_states:
                    return PrimeOrbitResult("over_cap")
            lam += 1
    return PrimeOrbitResult("no") if first is None else PrimeOrbitResult("yes", first)


# ---------------------------------------------------------------------------
# Density profiles.

@dataclass
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


@dataclass
class PrimeScanReport:
    generators: list[str]
    coding: str
    a0: str
    rows: list[ScanRow] = field(default_factory=list)
    excluded: list[int] = field(default_factory=list)
    over_cap: list[int] = field(default_factory=list)

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


# Primes up to the largest cutoff are decided in ranges cut at every multiple
# of SCAN_TASK_WIDTH and at every cutoff, each sieved on its own, so the
# ranges and the merged report do not depend on the worker count.  Worker
# processes start only above POOL_MIN_CUTOFF, where they pay for their start.
SCAN_TASK_WIDTH = 5_000
POOL_MIN_CUTOFF = 20_000


def _scan_ranges(cutoffs: list[int]) -> list[tuple[int, int]]:
    """Ranges [lo, hi] that cover 2..cutoffs[-1] in order."""
    ends = {c for c in cutoffs if c >= 2}
    ends.update(range(SCAN_TASK_WIDTH, cutoffs[-1], SCAN_TASK_WIDTH))
    ends = sorted(ends)
    return list(zip([2] + [hi + 1 for hi in ends], ends))


def _scan_range(gens, coding, pattern: ZeroPattern, max_states: int, bounds: tuple[int, int]):
    """(primes, members, excluded, over_cap) of the primes in [lo, hi]."""
    count = members = 0
    excluded, over_cap = [], []
    for p in primes_in_range(*bounds):
        count += 1
        # Passing the pattern's own a0 lets the start check be an identity test.
        status = prime_divides_orbit(p, gens, coding, pattern.a0, pattern, max_states).status
        if status == "yes":
            members += 1
        elif status == "excluded":
            excluded.append(p)
        elif status == "over_cap":
            over_cap.append(p)
    return count, members, excluded, over_cap


def density_profile(
    gens: GeneratorSet,
    coding: SequenceCoding,
    a0: Fraction | int,
    cutoffs: list[int],
    max_states: int = 1_000_000,
) -> PrimeScanReport:
    """Scan all primes up to the largest cutoff and tabulate membership counts.

    Above POOL_MIN_CUTOFF the ranges are decided by one worker process per
    usable CPU; the report is the same for every CPU count.
    """
    if list(cutoffs) != sorted(set(cutoffs)):
        raise ValueError("cutoffs must be strictly increasing")
    pattern = zero_pattern(gens, coding, a0)
    report = PrimeScanReport(generators=gens.map_strings(), coding=coding.render(), a0=str(pattern.a0))
    ranges = _scan_ranges(cutoffs)
    results = pool.parallel_map(
        partial(_scan_range, gens, coding, pattern, max_states),
        ranges,
        pool.usable_cpus() if cutoffs[-1] > POOL_MIN_CUTOFF else 1,
    )
    totals = {}  # range end -> (in_p, pi_x) up to it
    pi_x = in_p = 0
    for (_, hi), (count, members, excluded, over_cap) in zip(ranges, results):
        pi_x += count
        in_p += members
        report.excluded += excluded
        report.over_cap += over_cap
        totals[hi] = (in_p, pi_x)
    for cutoff in cutoffs:
        in_p, pi_x = totals.get(cutoff, (0, 0))
        report.rows.append(ScanRow(cutoff=cutoff, in_p=in_p, pi_x=pi_x))
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
