"""Integer utilities: primality, sieving, factoring, orders."""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from fineselmer.modular import (MR_EXACT_LIMIT, euler_phi, factorize, is_prime,
                                multiplicative_order, primes_below,
                                valuation)


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


def factorize_by_trial_division(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=10 ** 12 - 1))
def test_factorize_matches_trial_division(n):
    fac = factorize(n)
    assert fac == factorize_by_trial_division(n)
    assert list(fac) == sorted(fac)


# primes on both sides of TRIAL_BOUND, 2^64 and 10^12, up to 10^24
LARGE_PRIMES = (4099, 65537, 1000003, 2147483647, 1000000007, 1099511627791,
                999999999989, 1000000000039, 9999999999999937, 2 ** 61 - 1,
                2 ** 64 - 59, 2 ** 64 + 13, 999999999999999999999743)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from((2, 3, 5, 7, 11, 13, 4093) + LARGE_PRIMES),
                min_size=1, max_size=6))
def test_factorize_products_of_primes_up_to_10_24(primes):
    n = math.prod(primes)
    assume(n <= 10 ** 24)
    fac = factorize(n)
    assert math.prod(q ** k for q, k in fac.items()) == n
    assert fac == {q: primes.count(q) for q in sorted(set(primes))}


def test_factorize_gives_up_loudly_within_its_budget(deadline):
    # up to sign the discriminant of y^2 + y = x^3 - x + 100000000000000003,
    # whose trial division did not return: 11 times a 119-bit composite
    # that the Pollard-Brent budget cannot split
    with deadline(5), pytest.raises(ValueError, match="119-bit cofactor"):
        factorize(4320000000000000280800000000000004499)


def test_miller_rabin_range_is_exact_and_no_wider():
    # psi_12 and psi_13 of Sorenson & Webster: strong pseudoprimes to every
    # prime base up to 37, and to every one up to 41
    psi12, psi13 = 318665857834031151167461, 3317044064679887385961981
    assert psi13 == MR_EXACT_LIMIT
    assert not is_prime(psi12)
    assert factorize(psi12) == {399165290221: 1, 798330580441: 1}
    assert is_prime(2 ** 64 + 13) and is_prime(999999999999999999999743)
    with pytest.raises(ValueError, match="cannot prove"):
        is_prime(psi13)
    # above the range a failed base still proves compositeness; this one
    # is 101 * 1019 * 32229656960132603173, with no factor below 43
    assert not is_prime(psi13 + 6)
    assert factorize(psi13 + 6) == {101: 1, 1019: 1, 32229656960132603173: 1}
