"""Integer factorization with a fixed trial bound and one rho attempt per composite.

Trial division up to TRIAL_BOUND, in ascending order, then Pollard's rho
(Brent's variant) with an iteration cap: every composite left over gets one
rho call, and one that the call does not split stays in the cofactor while
the other parts are still factored.  An incomplete result is not an error:
it carries the primes found plus the unfactored cofactor.  Certificates
decide their criterion without factoring and call this only to name a
witness prime, stopping at the first trial prime that qualifies.

Trial division walks blocks of 512 consecutive odd numbers.  Each block
carries its primes and their product, read from ``integers.primes_in_range``
once per process, a batch of blocks at a time and as far as the square
roots of the inputs need.  A block whose product is coprime to what is left
of n is skipped whole, and a block that shares a factor with it tries its
primes one at a time, so the primes found, and the order in which ``stop``
sees them, are those of a plain trial division.
"""

from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_left
from typing import Callable

from .. import _record
from .integers import primes_in_range

# The first 13 primes: as Miller-Rabin bases they are deterministic below
# psi_13 = 3317044064679887385961981 (Y. Jiang and Y. Deng, Math. Comp. 83
# (2014)); without 41 the bound is psi_12 = 318665857834031151167461, itself
# a strong pseudoprime to every base up to 37.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
TRIAL_BOUND = 10**6
RHO_ITERATIONS = 200_000

_BLOCK_SPAN = 1024  # block j holds the 512 odd numbers in [j*1024, (j+1)*1024)
_SIEVE_BLOCKS = 64  # blocks sieved together
# A per-process cache, filled in order by _sieve_blocks; what it holds
# depends on nothing but the block index.
_block_products: list[int] = []  # block j: the product of its odd primes up to TRIAL_BOUND
_block_primes: list[array] = []  # block j: those primes, ascending


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin; deterministic below 3.3e24 via a fixed base set."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@_record
class Factorization:
    """sign * prod(p^e) * cofactor == the input; complete iff cofactor == 1."""

    sign: int
    factors: list[tuple[int, int]] = []
    cofactor: int = 1

    @property
    def complete(self) -> bool:
        return self.cofactor == 1


def _pollard_brent(n: int, iterations: int, rng: random.Random) -> int | None:
    if n % 2 == 0:
        return 2
    y = rng.randrange(1, n)
    c = rng.randrange(1, n)
    m = 128
    g = r = q = 1
    x = ys = y
    steps = 0
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = math.gcd(q, n)
            k += m
        steps += 2 * r
        r *= 2
        if g == 1 and steps > iterations:
            return None
    if g == n:
        # Batched gcd overshot; replay one step at a time from the save point.
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
    if 1 < g < n:
        return g
    return None


def _sieve_blocks(last: int) -> None:
    """Append the primes and their product of each block through block
    ``last`` <= TRIAL_BOUND // _BLOCK_SPAN, up to _SIEVE_BLOCKS at a time."""
    while len(_block_products) <= last:
        lo = len(_block_products) * _BLOCK_SPAN
        hi = min(lo + _SIEVE_BLOCKS * _BLOCK_SPAN, (last + 1) * _BLOCK_SPAN, TRIAL_BOUND + 1)
        primes = primes_in_range(max(lo, 3), hi - 1)
        start = 0
        for edge in range(lo + _BLOCK_SPAN, hi + _BLOCK_SPAN, _BLOCK_SPAN):
            end = bisect_left(primes, edge, start)
            _block_primes.append(primes[start:end])
            _block_products.append(math.prod(_block_primes[-1]))
            start = end


def factor_integer(
    n: int, rho_iterations: int = RHO_ITERATIONS, *, stop: Callable[[int, int], bool] | None = None
) -> Factorization:
    """Factor a nonzero integer: trial division, then one rho attempt of
    ``rho_iterations`` steps on each composite left.

    A composite that its attempt does not split goes into the cofactor, so
    an incomplete result (cofactor > 1) never silently drops a factor.
    ``stop(p, e)`` is asked about each prime p that trial division takes
    out (to exponent e), in ascending order, and about the prime left over
    when trial division ends; once it answers true, factoring ends there and
    the undivided rest is the cofactor.  Rho is never stopped early.
    """
    if n == 0:
        raise ValueError("cannot factor zero")
    sign = -1 if n < 0 else 1
    n = abs(n)
    found: dict[int, int] = {}

    def record(p: int, e: int = 1) -> None:
        found[p] = found.get(p, 0) + e

    def take(p: int) -> bool:
        """Divide p out of n; whether ``stop`` ends factoring at p."""
        nonlocal n
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if not e:
            return False
        record(p, e)
        return stop is not None and stop(p, e)

    def result(cofactor: int) -> Factorization:
        return Factorization(sign=sign, factors=sorted(found.items()), cofactor=cofactor)

    # Trial division by the primes f <= TRIAL_BOUND with f * f <= n,
    # skipping each block whose primes n does not share.
    if take(2):
        return result(n)
    lo = 0
    while lo <= TRIAL_BOUND and lo * lo <= n:
        block = lo // _BLOCK_SPAN
        if block == len(_block_products):
            _sieve_blocks(min(TRIAL_BOUND, math.isqrt(n)) // _BLOCK_SPAN)
        if math.gcd(_block_products[block], n) > 1:
            for f in _block_primes[block]:
                if f * f > n:
                    break
                if n % f == 0 and take(f):
                    return result(n)
        lo += _BLOCK_SPAN
    # No factor up to the trial bound and below its square means prime.
    if n > 1 and (n < TRIAL_BOUND * TRIAL_BOUND or is_probable_prime(n)) and take(n):
        return result(n)

    # Pollard rho on what remains.
    rng = random.Random(0x5EED ^ n)
    stack = [n] if n > 1 else []
    cofactor = 1
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            record(m)
            continue
        d = _pollard_brent(m, rho_iterations, rng)
        if d is None:
            cofactor *= m
            continue
        stack.append(d)
        stack.append(m // d)

    return result(cofactor)
