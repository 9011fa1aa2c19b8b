import random

import pytest

from quadorbit.algebra import factor_integer, factorint, is_probable_prime


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
        assert result.reassemble() == n


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
    assert result.reassemble() == n
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
    assert result.reassemble() == n
    assert asked == [p for p, _ in factors]


@pytest.mark.parametrize("n,expected", [(2, True), (677, True), (561, False), (1, False)])
def test_probable_prime(n, expected):
    assert is_probable_prime(n) is expected
