import math
import random
import types

import pytest
from hypothesis import given, settings, strategies as st

from conftest import reassemble, wheel_factor_oracle
from quadorbit.algebra import factor_integer, factorint, is_probable_prime

# psi_12 (Jiang and Deng, 2014): the least strong pseudoprime to the 12 bases
# 2, 3, ..., 37, so Miller-Rabin needs base 41 to reject it.
PSI_12 = 318665857834031151167461
assert PSI_12 == 399165290221 * 798330580441


@pytest.mark.parametrize(
    "n,sign,factors",
    [
        (26, 1, [(2, 1), (13, 1)]),
        (-5, -1, [(5, 1)]),
        (677, 1, [(677, 1)]),
        (1, 1, []),
        (360, 1, [(2, 3), (3, 2), (5, 1)]),
    ],
)
def test_examples(n, sign, factors):
    result = factor_integer(n)
    assert result.sign == sign
    assert result.factors == factors
    assert result.complete


def test_zero_rejected():
    with pytest.raises(ValueError):
        factor_integer(0)


def test_reassemble_random():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(2, 10**12) * rng.choice([1, -1])
        result = factor_integer(n)
        assert result.complete
        assert reassemble(result) == n


def test_large_semiprime_with_rho():
    p, q = 1_000_003, 1_000_033  # both beyond the trial bound
    result = factor_integer(p * q)
    assert result.complete
    assert result.factors == [(p, 1), (q, 1)]


def test_partial_when_budget_too_small():
    # Two 40-digit-ish primes: rho with a tiny budget gives up and reports
    # the cofactor instead of failing.
    p = 2_543_568_463_757_438_675_740_327
    q = 2_543_568_463_757_438_675_740_817  # adjusted below if not prime
    n = p * q
    result = factor_integer(n, rho_iterations=4)
    assert reassemble(result) == n
    if not result.complete:
        assert result.cofactor > 1


def test_one_rho_attempt_per_composite(monkeypatch):
    # A composite that its one attempt does not split is the cofactor, whole.
    calls = []

    def failing_rho(n, iterations, rng):
        calls.append(n)
        return None

    monkeypatch.setattr(factorint, "_pollard_brent", failing_rho)
    n = 1_000_003 * 1_000_033
    result = factor_integer(-6 * n)
    assert calls == [n]
    assert (result.sign, result.factors, result.cofactor) == (-1, [(2, 1), (3, 1)], n)


@pytest.mark.parametrize("n,seed,expected", [(10403, 2, 101), (10403, 1, None), (1022117, 0, 1009)])
def test_rho_replays_a_batched_gcd_that_overshoots(monkeypatch, n, seed, expected):
    # A batch's gcd that reaches n itself is replayed one step at a time
    # from the batch's start; a replay that reaches n again gives up.
    gcds = []

    def recording_gcd(a, b):
        gcds.append(math.gcd(a, b))
        return gcds[-1]

    monkeypatch.setattr(factorint, "math", types.SimpleNamespace(gcd=recording_gcd))
    assert factorint._pollard_brent(n, 10**5, random.Random(seed)) == expected
    replay = gcds[gcds.index(n) + 1 :]
    assert replay[-1] == (expected or n)
    assert set(replay[:-1]) <= {1}


@pytest.mark.parametrize(
    "stop_at,factors,cofactor",
    [
        (7, [(2, 1), (3, 2), (5, 1), (7, 2)], 11 * 1_000_003),
        (1_000_003, [(2, 1), (3, 2), (5, 1), (7, 2), (11, 1), (1_000_003, 1)], 1),  # the prime left over
        (13, [(2, 1), (3, 2), (5, 1), (7, 2), (11, 1), (1_000_003, 1)], 1),  # never asked: factors fully
    ],
)
def test_stop_ends_trial_division(stop_at, factors, cofactor):
    n = -2 * 3**2 * 5 * 7**2 * 11 * 1_000_003
    asked = []

    def stop(p, e):
        asked.append(p)
        return p == stop_at

    result = factor_integer(n, stop=stop)
    assert (result.factors, result.cofactor, result.sign) == (factors, cofactor, -1)
    assert reassemble(result) == n
    assert asked == [p for p, _ in factors]


@pytest.mark.parametrize(
    "n,expected",
    [(2, True), (41, True), (677, True), (561, False), (1, False), (PSI_12, False), (399165290221, True)],
)
def test_probable_prime(n, expected):
    assert is_probable_prime(n) is expected


def test_psi_12_is_never_a_factor():
    result = factor_integer(PSI_12)
    assert PSI_12 not in [p for p, _ in result.factors]
    assert reassemble(result) == PSI_12
    assert all(is_probable_prime(p) for p, _ in result.factors)


# --- Trial division in blocks against the per-candidate wheel -------------

SPAN = factorint._BLOCK_SPAN
BOUND = factorint.TRIAL_BOUND


def _sieve(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for q in range(2, math.isqrt(limit) + 1):
        if flags[q]:
            flags[q * q :: q] = bytes(len(range(q * q, limit + 1, q)))
    return [q for q in range(limit + 1) if flags[q]]


PRIMES = _sieve(BOUND + 2 * SPAN)
PRIME_SET = set(PRIMES)


def _edge_primes(block):
    """The last prime below and the first prime above the start of a block."""
    edge = block * SPAN
    below = max(p for p in range(edge - 1, edge - 400, -1) if p in PRIME_SET)
    above = min(p for p in range(edge + 1, edge + 400) if p in PRIME_SET)
    return below, above


EDGES = [_edge_primes(j) for j in range(1, BOUND // SPAN + 2)]
NEAR_BOUND = (999_961, 999_979, 999_983, 1_000_003, 1_000_033)


def _compare(n, rho_iterations, stop_at=None):
    """factor_integer against the wheel oracle: factors, cofactor, sign, and
    every ``stop(p, e)`` call with its answer."""
    runs = []
    for factor in (factor_integer, wheel_factor_oracle):
        calls = []

        def stop(p, e):
            answer = stop_at is not None and stop_at(p, e)
            calls.append((p, e, answer))
            return answer

        result = factor(n, rho_iterations, stop=stop)
        runs.append((result.sign, result.factors, result.cofactor, calls))
    assert runs[0] == runs[1]
    return runs[0]


def test_block_products_are_the_primes_of_each_block():
    factorint._sieve_blocks(BOUND // SPAN)
    expected = [1] * (BOUND // SPAN + 1)
    for p in PRIMES:
        if 2 < p <= BOUND:
            expected[p // SPAN] *= p
    assert factorint._block_products == expected


def test_primes_on_both_sides_of_every_block_edge():
    # Each block but the first holds the first prime above its start and the
    # last prime below its end.  The wheel asks about every one of them up to
    # TRIAL_BOUND in ascending order; rho splits the two past it.  A number
    # per 64 edges keeps each n % f cheap.
    primes = sorted(p for pair in EDGES for p in pair)
    assert primes[-3] < BOUND < primes[-2]
    for start in range(0, len(primes), 128):
        expected = [(p, 1 + p % 3) for p in primes[start : start + 128]]
        asked = []
        result = factor_integer(-math.prod(p**e for p, e in expected), stop=lambda p, e: asked.append((p, e)) or False)
        assert (result.sign, result.factors, result.cofactor) == (-1, expected, 1)
        assert asked == [(p, e) for p, e in expected if p < BOUND]
    # Stopping on either side of an edge, against the wheel itself.
    for j in (0, 1, 40):
        below, above = EDGES[j]
        n = math.prod(p for pair in EDGES[: j + 2] for p in pair)
        for p in (below, above):
            _, _, cofactor, calls = _compare(n, 4, lambda q, e, p=p: q == p)
            assert calls[-1] == (p, 1, True) and cofactor == n // math.prod(q for q, _, _ in calls)
    _compare(math.prod(EDGES[-2]) * math.prod(EDGES[-1]), 4, lambda q, e: q > BOUND)


@pytest.mark.parametrize("rho_iterations", [4, factorint.RHO_ITERATIONS])
@pytest.mark.parametrize(
    "n",
    [
        *range(-30, 0),
        *range(1, 30),
        999_983 * 1_000_003,
        999_983**2,
        -(999_979**2),
        1_000_003**2,
        999_961 * 999_979 * 999_983,
        999_983 * 1_000_003 * 1_000_033,
        5**20,
        -(1021**3) * 1031**2,
        2**10 * 3**5 * 1_000_003**2,
        999_983**3 * 7,
        PSI_12,
        -6 * PSI_12,
    ],
)
def test_wheel_and_blocks_agree_near_the_bounds(n, rho_iterations):
    _compare(n, rho_iterations)
    _compare(n, rho_iterations, lambda p, e: e % 2 == 1)
    _compare(n, rho_iterations, lambda p, e: p > 1000)


@settings(deadline=None, max_examples=150)
@given(
    st.lists(st.sampled_from([p for pair in EDGES[:40] for p in pair] + list(NEAR_BOUND)), min_size=1, max_size=4),
    st.lists(st.integers(1, 3), min_size=4, max_size=4),
    st.sampled_from([1, -1, 6, -10, 1_000_003]),
    st.sampled_from([4, factorint.RHO_ITERATIONS]),
    st.integers(0, 4),
)
def test_wheel_and_blocks_agree_on_edge_products(primes, exponents, unit, rho_iterations, stop_residue):
    n = unit * math.prod(p**e for p, e in zip(primes, exponents))
    _compare(n, rho_iterations, lambda p, e: p % (stop_residue + 2) == 1)
