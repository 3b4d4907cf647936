"""Modular integer arithmetic: orders, primality, factoring, valuations.

Python ints are the arbitrary-precision integer type throughout the
package, so this module is thin: its value is in the contracts (explicit
domain errors, deterministic answers) rather than in clever algorithms.

Primality is Miller-Rabin on the prime bases up to 41, which is exact
below MR_EXACT_LIMIT (about 3.3 * 10^24; Sorenson & Webster, Math. Comp.
86, 2017).  factorize trial-divides below TRIAL_BOUND and splits what is
left with Pollard-Brent rho (Brent 1980) under RHO_BUDGET iterations.
Above MR_EXACT_LIMIT a composite is still recognised, but a number that
passes every base cannot be proven prime, so it raises ValueError, as
does a cofactor that the budget cannot split: nothing is guessed.
"""

from __future__ import annotations

import math

__all__ = [
    "multiplicative_order",
    "is_prime",
    "require_odd_prime",
    "primes_below",
    "valuation",
    "euler_phi",
    "factorize",
]

PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# Miller-Rabin on PRIME_BASES decides primality exactly below this bound
MR_EXACT_LIMIT = 3_317_044_064_679_887_385_961_981

# factorize trial-divides by the integers 6k +- 1 below this bound
TRIAL_BOUND = 1 << 12

# Pollard-Brent steps x -> x^2 + c allowed in one factorize call; enough
# to split off a prime factor of about 10^12 in a second or so
RHO_BUDGET = 1 << 21


def _strong_probable_prime(n: int) -> bool:
    """Does odd n > 41 pass the strong test to every base in PRIME_BASES?"""
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in PRIME_BASES:
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


def _rho_split(n: int, budget: int) -> tuple[int | None, int]:
    """(d, steps): a factor 1 < d < n of the odd composite n, or None.

    Brent's cycle search on x -> x^2 + c for c = 1, 2, ..., with the
    differences multiplied in batches of 128 before each gcd.  `steps`
    counts the map evaluations; the search gives up (d = None) once it
    would pass `budget`.
    """
    steps = 0
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if steps + 2 * r > budget:
                return None, steps
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            steps += 2 * r
            r *= 2
        if g == n:
            # the batch overshot: step again one difference at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g, steps
    return None, steps


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}, primes increasing.

    Raises ValueError when a cofactor can neither be split within
    RHO_BUDGET Pollard-Brent steps nor proven prime.
    """
    if n < 1:
        raise ValueError(f"factorize expects n >= 1, got {n}")
    out: dict[int, int] = {}
    for q in (2, 3):
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
    # wheel over 6k +- 1
    q = 5
    while q * q <= n and q < TRIAL_BOUND:
        for r in (q, q + 2):
            while n % r == 0:
                out[r] = out.get(r, 0) + 1
                n //= r
        q += 6
    # n has no prime factor below q, so it is 1 or prime if n < q^2
    pending = [n] if n > 1 else []
    budget = RHO_BUDGET
    while pending:
        m = pending.pop()
        if m < q * q or is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d, steps = _rho_split(m, budget)
        budget -= steps
        if d is None:
            raise ValueError(f"cannot factor a {m.bit_length()}-bit cofactor "
                             f"within {RHO_BUDGET} Pollard-Brent steps")
        pending += [d, m // d]
    return dict(sorted(out.items()))


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

    Trial division by PRIME_BASES decides every n < 43^2 = 1849, and
    Miller-Rabin on them is exact below MR_EXACT_LIMIT.  Above it
    a failed base still proves n composite, but a number that passes
    every base raises ValueError: the answer is never probabilistic.
    """
    if n < 2:
        return False
    for q in PRIME_BASES:
        if n % q == 0:
            return n == q
    # every composite below 43^2 has a prime factor <= 41
    if n < 43 * 43:
        return True
    if _strong_probable_prime(n):
        if n >= MR_EXACT_LIMIT:
            raise ValueError(f"cannot prove a {n.bit_length()}-bit integer prime: "
                             "Miller-Rabin is exact only below 3.3 * 10^24")
        return True
    return False


def _require_provable(n, name: str) -> None:
    """ValueError naming `name` for an int n past MR_EXACT_LIMIT, before
    is_prime, which cannot prove it prime and would take seconds on it."""
    if type(n) is int and n >= MR_EXACT_LIMIT:
        raise ValueError(f"{name} has {n.bit_length()} bits; a prime is proven only below 3.3 * 10^24")


def require_odd_prime(p: int) -> None:
    """The one check that p is an odd prime; ValueError otherwise, also for
    a p past MR_EXACT_LIMIT or not an int (a bool, 5.0 or Fraction(5))."""
    _require_provable(p, "p")
    if type(p) is not int or p == 2 or not is_prime(p):
        raise ValueError("p must be an odd prime")


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
