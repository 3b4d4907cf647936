"""Integer utilities: primality, sieving, factoring, orders."""

import math

import pytest
from hypothesis import given, strategies as st

from fineselmer.modular import (euler_phi, factorize, is_prime,
                                multiplicative_order, primes_below, valuation)


def test_primes_below_matches_reference_sieve():
    bound = 2000
    flags = [True] * bound
    flags[0:2] = [False, False]
    for i in range(2, int(bound ** 0.5) + 1):
        if flags[i]:
            flags[i * i::i] = [False] * len(flags[i * i::i])
    expected = [i for i, ok in enumerate(flags) if ok]
    assert primes_below(bound) == expected


def test_primes_below_is_strict():
    assert primes_below(11) == [2, 3, 5, 7]
    assert primes_below(12) == [2, 3, 5, 7, 11]
    assert primes_below(2) == []


@given(st.integers(min_value=0, max_value=10 ** 6))
def test_is_prime_agrees_with_trial_division(n):
    naive = n >= 2 and all(n % d for d in range(2, int(math.isqrt(n)) + 1))
    assert is_prime(n) == naive


def test_is_prime_large_composites():
    # strong-pseudoprime classics
    assert not is_prime(3215031751)
    assert not is_prime(341550071728321)
    assert is_prime(2 ** 61 - 1)


@given(st.integers(min_value=1, max_value=10 ** 9))
def test_factorize_roundtrip(n):
    fac = factorize(n)
    prod = 1
    for q, e in fac.items():
        assert is_prime(q) and e >= 1
        prod *= q ** e
    assert prod == n


@given(st.integers(min_value=1, max_value=20000))
def test_euler_phi_by_count(m):
    if m < 3:
        assert euler_phi(m) == 1
    else:
        assert euler_phi(m) == sum(1 for k in range(1, m) if math.gcd(k, m) == 1)


@given(st.integers(min_value=2, max_value=3000), st.integers(min_value=1, max_value=3000))
def test_multiplicative_order_divides_phi(m, a):
    if math.gcd(a, m) != 1:
        with pytest.raises(ValueError):
            multiplicative_order(a, m)
        return
    d = multiplicative_order(a, m)
    assert pow(a, d, m) == 1 % m
    assert euler_phi(m) % d == 0
    # minimality on a sample of proper divisors
    for e in range(1, min(d, 50)):
        if d % e == 0 and e < d:
            assert pow(a, e, m) != 1 % m


def test_valuation_examples():
    assert valuation(40, 2) == 3
    assert valuation(40, 5) == 1
    assert valuation(-250, 5) == 3
    assert valuation(7, 5) == 0
    assert valuation(11 ** 4 - 1, 5) == 1   # the worked-example witness
    with pytest.raises(ValueError):
        valuation(0, 5)


@given(st.integers(min_value=1, max_value=10 ** 12),
       st.sampled_from([2, 3, 5, 7, 11]))
def test_valuation_defining_property(n, p):
    v = valuation(n, p)
    assert n % p ** v == 0 and (n // p ** v) % p != 0
