"""Bernoulli numbers, regularity of primes, and ramification in the tower.

Two independent Bernoulli routes live here on purpose.  The exact table
runs the defining recurrence over Q and checks every even value against
the von Staudt-Clausen denominator theorem, which pins the denominator
completely and is about as strong a self-test as a closed form allows.
Regularity testing instead runs the same recurrence mod p in plain
integers; for k <= p - 3 the number B_k is p-integral, so the residue
is well defined.  The tests tie the two routes together.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import NamedTuple

from .localdata import require_field
from .modular import primes_below, require_odd_prime

__all__ = [
    "bernoulli_table",
    "is_regular",
    "irregular_primes_below",
    "RamificationStatement",
    "kinf_ramification",
]

MAX_REGULARITY_PRIME = 10_000

_exact_cache: list[Fraction] = [Fraction(1), Fraction(-1, 2)]


def bernoulli_table(n: int) -> list[Fraction]:
    """B_0 .. B_n with B_1 = -1/2, by the defining recurrence.

    Every even entry from B_2 on is verified against von Staudt-Clausen:
    B_m plus the sum of 1/q over primes q with (q-1) | m is an integer.
    Quadratic in n; meant for moderate n (a few hundred).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    while len(_exact_cache) <= n:
        m = len(_exact_cache)
        if m % 2 == 1:
            _exact_cache.append(Fraction(0))
            continue
        acc = Fraction(0)
        for j, bj in enumerate(_exact_cache):
            acc += comb(m + 1, j) * bj
        bm = -acc / (m + 1)
        check = bm + sum(Fraction(1, q) for q in primes_below(m + 2)
                         if m % (q - 1) == 0)
        if check.denominator != 1:
            raise AssertionError(f"von Staudt-Clausen failed at B_{m}")
        _exact_cache.append(bm)
    return _exact_cache[: n + 1]


def _bernoulli_mod_p(p: int) -> list[int]:
    """Residues of B_0 .. B_{p-3} mod p via the recurrence over F_p.

    Denominators of B_k for k <= p - 3 are prime to p (von Staudt-
    Clausen needs (p-1) | k for p to divide one), so each step's
    division by k + 1 and the final residues are well defined.
    """
    out = [1 % p, (-pow(2, p - 2, p)) % p]
    # binomial row maintained incrementally: C(m+1, j)
    for m in range(2, p - 2):
        if m % 2 == 1:
            out.append(0)
            continue
        acc = 0
        row = 1  # C(m+1, 0)
        for j in range(m):
            acc = (acc + row * out[j]) % p
            row = row * (m + 1 - j) % p * pow(j + 1, p - 2, p) % p
        bm = (-acc) % p * pow(m + 1, p - 2, p) % p
        out.append(bm)
    return out


def is_regular(p: int) -> bool:
    """Is p a regular prime: p divides no numerator of B_2 .. B_{p-3}?

    Accepts odd primes up to 10^4 (the residue recurrence is quadratic
    in p).  Small primes with an empty index range (3, 5, 7) are
    regular by convention and by the empty check alike.
    """
    if type(p) is int and p > MAX_REGULARITY_PRIME:
        raise ValueError(f"p is capped at {MAX_REGULARITY_PRIME} by the regularity test")
    require_odd_prime(p)
    if p in (3, 5, 7):
        return True
    residues = _bernoulli_mod_p(p)
    return all(residues[k] != 0 for k in range(2, p - 2, 2))


def irregular_primes_below(bound: int) -> list[int]:
    return [p for p in primes_below(bound) if p > 2 and not is_regular(p)]


class RamificationStatement(NamedTuple):
    field: str
    p: int
    detail: str


def kinf_ramification(p: int, field: str = "Q") -> RamificationStatement:
    """Ramification of p in the cyclotomic Z_p-extension of the base field.

    For Q and Q(mu_p) the unique prime above p is totally ramified in
    the tower, a computation inside Q(mu_{p^infty}) that needs no input
    data: certified.  Any other base field is a ValueError.
    """
    require_field(field)
    if field == "Q":
        return RamificationStatement(
            "Q", p,
            f"p = {p} is totally ramified in every layer Q(mu_{{{p}^n}})+")
    return RamificationStatement(
        "Q(mu_p)", p,
        f"eta_{p} is totally ramified in Q(mu_{{{p}^infty}})")
