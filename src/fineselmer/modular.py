"""Modular integer arithmetic: orders, primality, factoring, valuations.

Python ints are the arbitrary-precision integer type throughout the
package, so this module is thin: its value is in the contracts (explicit
domain errors, deterministic answers) rather than in clever algorithms.
Group-order factoring for multiplicative_order uses trial division, which
is instant at the scale this package works at (moduli up to ~10^7).
"""

from __future__ import annotations

import math

__all__ = [
    "multiplicative_order",
    "is_prime",
    "primes_below",
    "valuation",
    "euler_phi",
    "factorize",
]


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 by trial division, as {prime: exponent}."""
    if n < 1:
        raise ValueError(f"factorize expects n >= 1, got {n}")
    out: dict[int, int] = {}
    for q in (2, 3):
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
    # wheel over 6k +- 1
    q = 5
    while q * q <= n:
        for r in (q, q + 2):
            while n % r == 0:
                out[r] = out.get(r, 0) + 1
                n //= r
        q += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def euler_phi(m: int) -> int:
    """Euler's totient of m >= 1."""
    phi = 1
    for q, k in factorize(m).items():
        phi *= (q - 1) * q ** (k - 1)
    return phi


def multiplicative_order(a: int, m: int) -> int:
    """Least n >= 1 with a**n = 1 mod m.

    Requires gcd(a, m) = 1. The order is found by computing phi(m),
    factoring it, and stripping each prime while the power still fixes 1;
    that is exact for every m, not only the prime-power moduli the rest of
    the package feeds in.
    """
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    if math.gcd(a, m) != 1:
        raise ValueError(f"multiplicative_order needs gcd(a, m) = 1, got a={a}, m={m}")
    order = euler_phi(m)
    for q in factorize(order):
        while order % q == 0 and pow(a, order // q, m) == 1:
            order //= q
    return order


def is_prime(n: int) -> bool:
    """Deterministic primality test.

    Below 2^64 the fixed Miller-Rabin base set {2, 3, 5, 7, 11, 13, 17,
    19, 23, 29, 31, 37} is known to be exact; larger inputs fall back to
    trial division (nothing in this package needs large primes, but the
    answer must never be probabilistic).
    """
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for q in small:
        if n % q == 0:
            return n == q
    if n >= 1 << 64:
        q = 41
        while q * q <= n:
            if n % q == 0:
                return False
            q += 2
        return True
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in small:
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_below(bound: int) -> list[int]:
    """All primes < bound, by sieve of Eratosthenes."""
    if bound <= 2:
        return []
    sieve = bytearray([1]) * bound
    sieve[0] = sieve[1] = 0
    for q in range(2, math.isqrt(bound - 1) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytearray(len(range(q * q, bound, q)))
    return [i for i in range(bound) if sieve[i]]


def valuation(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer n (p >= 2)."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite; handle zero before calling")
    if p < 2:
        raise ValueError(f"valuation base must be >= 2, got {p}")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v
