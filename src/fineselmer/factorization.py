"""Polynomial factorization over Z, through one good prime.

factor_int_poly is Zassenhaus, and squarefree input is its contract.
It factors f modulo a good prime l: one not dividing the leading
coefficient, with f mod l squarefree of the same degree. It tries the
first SQUAREFREE_TRIES candidates one at a time and then sieves the
whole range below GOOD_PRIME_BOUND. A good prime proves f squarefree
over Q, and a repeated factor stays repeated mod every l, so such an f
has no good prime and raises NoGoodPrime after the full scan. Every
caller in the package passes psi_p of a nonsingular curve, which is
squarefree, though not always modulo a prime below the bound.

It factors modulo l first. The distinct-degree split and the randomized
equal-degree split (Cantor & Zassenhaus, Math. Comp. 36, 1981, with the
quadratic residue trick) run on plain coefficient lists mod l with the
`_vec_*` helpers of finitefield, and so do the squarefree test of
good_reduction and the inverses the Hensel lift starts from. The random
source is a `random.Random` seeded with DEFAULT_SEED, so repeated runs
produce factors in identical order. Each step of the distinct-degree
split raises x^(l^(i-1)) to the l-th power mod the unsplit rest with
finitefield's `_vec_frobenius`. Over F_l that power is a substitution,
a(x)^l = a(x^l) (von zur Gathen & Gerhard, 14.2), so for l <= 7 a step
is one reduction of a spread of a's coefficients, about (l - 1) n^2
operations for a rest of degree n, and no product; above 7 it falls
back to square-and-multiply, bit_length(l) + popcount(l) - 2 products
mod the rest, which timing shows to be the cheaper one there.

A degree cap k asks for the irreducible factors of degree <= k only
(Zassenhaus with a degree bound; von zur Gathen & Gerhard, Modern
Computer Algebra, 15.6). Without one, k is the degree of f. The
distinct-degree split runs only through k and the equal-degree split
only on its parts of degree <= k; every other factor mod l is left
unsplit and is never lifted.

It lifts the monic factors of lc^(-1) f of degree <= k (lc the leading
coefficient) past 2 |lc| times a Landau-Mignotte bound for divisors of
degree <= k, with quadratic Hensel steps, each of which at most
doubles the exponent of l. Their cofactor and their product stay
implicit: each lift h is corrected from lc^(-1) f rem h alone, so a
step costs O(deg f deg h) for each h, and a linear h = x - r takes
Newton's iteration on its root, one Horner evaluation of f and one of
f' a step (von zur Gathen & Gerhard, 9.4). The lift stops at the first power of l above the bound, the power a
linear lift would reach. It recombines the lifts in subsets of degree
<= k, with the leading coefficient in place (Alg. 15.19 there): for a
subset S of the lifted factors h_i that belongs to a divisor F,
lc * prod(h_S) read with symmetric representatives is
(lc / lc(F)) * F. Before that product is formed, the constant-term
test (Abbott, Shoup & Zimmermann, ISSAC 2000) asks that
lc * prod h_i(0) divide lc * f(0); it is exact, and it rejects almost
every false subset with one product of integers. Each survivor is
trial-divided exactly in Z[x]; every product, in the lift and in the
recombination, is polynomial._mul reduced mod a power of l. The
returned factors times the leftover the cap leaves out are checked
exactly against the primitive part of the input before returning; a
mismatch is a bug, not a condition the caller handles.

QPolys appear only at the boundary. factor_int_poly reads the
primitive part of its input into an integer coefficient list once,
splits off x by slicing, and builds QPolys only for the factors it
returns; the good-prime search, the lift, the recombination and the
check in between all run on integer coefficient lists.

The same reduction answers a cheaper question first. Every divisor of f
over Q reduces mod a good l to a product of distinct irreducibles of
f mod l, so a divisor of degree d needs d to be a subset sum of the
degrees of those irreducibles, and only the degrees up to d matter.
GoodReduction runs the distinct-degree split only that far; when the
answer is no, nothing is lifted or recombined, and when it is yes,
factor_int_poly, capped at d, takes the same reduction up where the
split stopped.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations, islice

from .finitefield import (_vec_frobenius, _vec_gcd, _vec_inverse_mod,
                          _vec_mulmod, _vec_powmod, _vec_quo, _vec_rem)
from .modular import is_prime, primes_below
from .polynomial import QPoly, _derivative, _mul, _sub, _trim

__all__ = [
    "DEFAULT_SEED",
    "factor_int_poly",
    "NoGoodPrime",
]

DEFAULT_SEED = 0x5E1F

# primes tried when reducing an integer polynomial; exhausting the range
# without finding a good one is a hard error, not a retry
GOOD_PRIME_BOUND = 10_000

# candidate primes tested one at a time before the search sieves the
# whole range: nearly every squarefree input has a good prime among them
SQUAREFREE_TRIES = 8


class NoGoodPrime(ValueError):
    """No prime below GOOD_PRIME_BOUND is good for the polynomial.

    A polynomial with a repeated factor has no good prime at all, so
    factor_int_poly raises this for it. A squarefree one may have none
    below the bound either, when it is squarefree modulo no small prime.
    The message names the bound in force when it is raised, and `what`,
    never the polynomial, whose digits may be past the int-to-str limit.
    """

    def __init__(self, what: str):
        super().__init__(f"no good reduction prime below {GOOD_PRIME_BOUND} "
                         f"for {what}")


# ---------------------------------------------------------------------------
# factorization mod l, on coefficient lists
# ---------------------------------------------------------------------------


class _DistinctDegree:
    """Distinct-degree split of a monic squarefree f mod l, run on demand.

    f is a coefficient list mod the prime l, lowest degree first.
    `through(k)` returns [(product of the irreducibles of degree j, j)]
    for every j <= k that occurs, in increasing j, each product a monic
    coefficient list. It keeps its place, so a later call with a larger
    k only takes the steps still missing. The last entry may have a
    degree above k: once the unsplit rest has degree below 2(j + 1) it
    is itself irreducible. `rest` is the monic product of the
    irreducibles not split off yet; after `through(k)` each has degree
    above k.

    Step i takes x^(l^i) mod rest as the l-th power of x^(l^(i-1)) by
    `_vec_frobenius`: for l <= 7 the substitution a(x)^l = a(x^l) and
    one reduction, about (l - 1) n^2 operations with n = deg rest, and
    for larger l the fallback `_vec_powmod`, about
    2 (bit_length(l) + popcount(l) - 2) n^2.
    """

    def __init__(self, f: list[int], l: int):
        self.l = l
        self._parts: list[tuple[list[int], int]] = []
        self.rest = f
        self._frob = [0, 1]  # x^(l^searched) mod rest
        self._searched = 0

    def through(self, k: int) -> list[tuple[list[int], int]]:
        l = self.l
        while self._searched < k and len(self.rest) > 1:
            if len(self.rest) - 1 < 2 * (self._searched + 1):
                self._parts.append((self.rest, len(self.rest) - 1))
                self.rest = [1]
                break
            self._searched += 1
            self._frob = _vec_frobenius(self._frob, self.rest, l)
            g = _vec_gcd(self.rest, [c % l for c in _sub(self._frob, [0, 1])], l)
            if len(g) > 1:
                inv = pow(g[-1], -1, l)
                g = [c * inv % l for c in g]
                self._parts.append((g, self._searched))
                self.rest = _vec_quo(self.rest, g, l)
                if len(self.rest) > 1:
                    self._frob = _vec_rem(self._frob, self.rest, l)
        return self._parts


def _equal_degree_ints(f: list[int], d: int, l: int, rng: random.Random) -> list[list[int]]:
    """Cantor-Zassenhaus on a monic squarefree coefficient list mod odd l.

    f is a product of irreducibles of degree d; the factors come out
    unsorted.
    """
    n = len(f) - 1
    if n == d:
        return [f]
    half = (l**d - 1) // 2
    while True:
        r = _trim([rng.randrange(l) for _ in range(n)])
        if len(r) < 2:
            continue
        g = _vec_gcd(f, r, l)
        if len(g) == 1:
            s = _sub(_vec_powmod(r, half, f, l), [1])
            g = _vec_gcd(f, [c % l for c in s], l)
        if 1 < len(g) <= n:
            inv = pow(g[-1], -1, l)
            g = [c * inv % l for c in g]
            return (_equal_degree_ints(g, d, l, rng)
                    + _equal_degree_ints(_vec_quo(f, g, l), d, l, rng))


# ---------------------------------------------------------------------------
# factorization over Z
# ---------------------------------------------------------------------------


def _landau_mignotte(g: list[int], max_degree: int) -> int:
    """Coefficient bound for any divisor of g in Z[x] of degree at most
    max_degree, monic or not; deliberately generous.

    g is an integer coefficient list of degree n. Mignotte's bound
    ||F||_1 <= 2^deg(F) |lc(F) / lc(g)| ||g||_2 holds for every divisor
    F, and lc(F) divides lc(g), so it is at most 2^k sqrt(n + 1) height(g)
    when deg(F) <= k.
    """
    n = len(g) - 1
    k = min(max_degree, n)
    height = max(abs(c) for c in g)
    return (1 << k) * (math.isqrt(n + 1) + 1) * height


class GoodReduction:
    """An integer polynomial f modulo a good prime l.

    Good means that l does not divide the leading coefficient and that
    f mod l is squarefree of the same degree. That proves f squarefree
    over Q, and it makes every divisor of f in Z[x] reduce to a product
    of distinct monic irreducibles of f mod l. The distinct-degree split
    mod l runs only as far as a question needs it, and a later question
    takes up where the last one stopped.
    """

    def __init__(self, l: int, residue: list[int]):
        self.l = l
        inv = pow(residue[-1], -1, l)
        self._split = _DistinctDegree([c * inv % l for c in residue], l)

    def admits_divisor_of_degree(self, d: int) -> bool:
        """Can f have a divisor of degree d over Q? False is a proof.

        A rational divisor of degree d reduces to distinct irreducibles of
        degree <= d whose degrees sum to d, so d must be a subset sum of
        the degrees the split finds up to d.
        """
        reach = 1  # bit s set: some subset of the factors has degree s
        for part, k in self._split.through(d):
            if k <= d:
                for _ in range((len(part) - 1) // k):
                    reach |= reach << k
        return bool(reach >> d & 1)

    def residues(self, k: int) -> list[list[int]]:
        """The monic irreducible factors of f mod l of degree <= k, sorted
        by (degree, coefficients).

        The distinct-degree split runs only through k, and the
        equal-degree split only on its parts of degree <= k; the other
        factors are never split or multiplied out. f mod l is
        squarefree, so the factors are pairwise coprime and coprime to
        their cofactor: what _hensel_lift_factors lifts.
        """
        rng = random.Random(DEFAULT_SEED)
        small = [h for part, j in self._split.through(k) if j <= k
                 for h in _equal_degree_ints(part, j, self.l, rng)]
        return sorted(small, key=lambda h: (len(h), h))


def good_reduction(f: QPoly, tries: int | None = None) -> GoodReduction | None:
    """f modulo its first good prime, or None when there is none.

    f has integer coefficients. The candidates are the odd primes below
    GOOD_PRIME_BOUND that do not divide the leading coefficient; `tries`
    caps how many of them are tested (all when None). The test is the
    gcd of f mod l with its derivative.
    """
    return _good_reduction(f.int_coeffs(), tries)


def _good_reduction(coeffs: list[int], tries: int | None) -> GoodReduction | None:
    """good_reduction on the integer coefficient list of f."""
    lead = abs(coeffs[-1])
    if tries is None:
        # the scan may run through the whole range: sieve it once
        primes = primes_below(GOOD_PRIME_BOUND)
    else:
        # only the first few primes are reached: test them one at a time
        primes = (l for l in range(3, GOOD_PRIME_BOUND, 2) if is_prime(l))
    candidates = (l for l in primes if l != 2 and lead % l)
    for l in islice(candidates, tries):
        reduced = [c % l for c in coeffs]
        if len(_vec_gcd(reduced, [c % l for c in _derivative(reduced)], l)) == 1:
            return GoodReduction(l, reduced)
    return None


def _hensel_lift_factors(f: list[int], l: int, hbars: list[list[int]], target: int) -> tuple[int, list[list[int]]]:
    """Lift monic factors hbars of f mod l to factors of lc^(-1) f mod l^K > target.

    f is an integer coefficient list, squarefree mod l of the same
    degree, with leading coefficient lc, and hbars are distinct monic
    irreducible factors of f mod l. Returns (l^K, the monic lifts of
    hbars mod l^K), with K the least exponent for which l^K > target;
    their cofactor in lc^(-1) f is never lifted. Quadratic Hensel steps
    (von zur Gathen & Gerhard, Modern Computer Algebra, 15.4-15.5): the
    exponent runs 1, ..., ceil(K/2), K. At a step from m to M (M | m^2),
    lc^(-1) f rem h_i is m e_i mod M; it is (lc^(-1) f rem A) rem h_i
    for A the product of the lifts, which is never formed. h_i gains
    m (e_i t_i rem h_i), t_i = (lc^(-1) f / h_i)^(-1) mod h_i. As
    f = h_i G_i gives f' = h_i' G_i mod h_i, t_i = h_i' u_i with
    u_i = (lc^(-1) f' rem h_i)^(-1), and u_i takes one Newton step a
    lift step. A linear h_i = x - r takes the degree-1 case, Newton's
    iteration (9.4 there): r <- r - f(r) u and u <- u (2 - u f'(r)),
    u = f'(r)^(-1), with no lc^(-1) f. Monic lifts of a coprime
    factorization are unique, so l^K and the lifts are those a linear
    lift of every factor, one digit per step, would reach.
    """
    derivative = _derivative(f)
    inv = pow(f[-1], -1, l)
    monic_derivative = [c * inv % l for c in derivative]
    us = [pow(_horner_mod(derivative, -h[0], l), -1, l) if len(h) == 2
          else _vec_inverse_mod(monic_derivative, h, l) for h in hbars]

    top, power = 1, l
    while power <= target:
        top, power = top + 1, power * l
    exponents = [top]
    while exponents[-1] > 1:
        exponents.append((exponents[-1] + 1) // 2)
    exponents.reverse()

    lifted = [list(h) for h in hbars]
    for k, k_next in zip(exponents, exponents[1:]):
        # every correction is m times a residue mod q = M / m <= m
        m, modulus = l**k, l**k_next
        q = modulus // m
        last = k_next == top
        if any(len(h) > 2 for h in lifted):
            inv = pow(f[-1], -1, modulus)
            monic = [c * inv % modulus for c in f]
            monic_derivative = _derivative(monic)
        for i, h in enumerate(lifted):
            u = us[i]
            if len(h) == 2:
                # Newton's iteration on the root r of h = x - r, u = f'(r)^(-1)
                r = (-h[0] - _horner_mod(f, -h[0], modulus) * u) % modulus
                h[0] = -r % modulus
                if not last:
                    us[i] = u * (2 - u * _horner_mod(derivative, r, modulus)) % modulus
                continue
            e = [c // m for c in _vec_rem(monic, h, modulus)]
            hq = [c % q for c in h]
            t = _vec_mulmod(_derivative(hq), u, hq, q)
            for j, d in enumerate(_vec_mulmod(e, t, hq, q)):
                h[j] = (h[j] + m * d) % modulus
            if not last:
                # u_i <- u_i (2 - u_i w_i), w_i = lc^(-1) f' rem h_i: exact mod m^2
                w = _vec_mulmod(u, _vec_rem(monic_derivative, h, modulus), h, modulus)
                us[i] = _vec_mulmod(u, _sub([2], w), h, modulus)
    return l**top, lifted


def _horner_mod(a: list[int], x: int, mod: int) -> int:
    """a(x) mod `mod`, reduced at every step."""
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % mod
    return acc


def _symmetric(c: int, mod: int) -> int:
    c %= mod
    return c - mod if c > mod // 2 else c


def factor_int_poly(f: QPoly, max_degree: int | None = None,
                    reduction: GoodReduction | None = None
                    ) -> tuple[Fraction, list[tuple[QPoly, int]]]:
    """The irreducible factors over Q of degree <= max_degree of a nonzero
    squarefree f with rational coefficients; all of them when None.

    Returns (content, [(primitive integer irreducible with positive leading
    coefficient, 1)]) sorted by (degree, coefficients). f == content *
    prod(factor) * rest, with rest a primitive integer polynomial with
    positive leading coefficient and no factor of degree <= max_degree;
    rest is 1 when max_degree is None, and the identity is asserted
    exactly before returning. `reduction`, when given, is
    good_reduction(f) for an integral f, already computed by the caller;
    it is used as it stands, and it may already be part way split.
    Raises NoGoodPrime when no good prime is found, as for every f with
    a repeated factor.
    """
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    if max_degree is not None and max_degree < 1:
        raise ValueError(f"max_degree must be at least 1, got {max_degree}")
    content = f.content() if f.leading > 0 else -f.content()
    prim = [int(c / content) for c in f.coeffs]
    k = len(prim) - 1 if max_degree is None else min(max_degree, len(prim) - 1)
    if reduction is None:
        reduction = (_good_reduction(prim, SQUAREFREE_TRIES)
                     or _good_reduction(prim, None))
    if reduction is None:
        raise NoGoodPrime(f"a polynomial of degree {len(prim) - 1}")
    parts: list[list[int]] = []
    g, residues = prim, reduction.residues(k)
    # x is split off to keep the constant coefficient nonzero
    if g[0] == 0:
        parts.append([0, 1])
        g = g[1:]
        residues.remove([0, 1])
    parts += _factor_squarefree(g, reduction.l, residues, k)
    # prim and every part are primitive and have a positive leading
    # coefficient, so their product is prim exactly
    check = [1]
    for part in parts:
        check = _mul(check, part)
    if len(check) != len(prim):
        raise AssertionError("factor_int_poly lost degree; this is a bug")
    if check != prim:
        raise AssertionError("factor_int_poly reconstruction failed; this is a bug")
    factors = sorted((t for t in parts if len(t) - 1 <= k), key=lambda t: (len(t), t))
    return content, [(QPoly(t), 1) for t in factors]


def _factor_squarefree(g: list[int], l: int, residues: list[list[int]],
                       max_degree: int) -> list[list[int]]:
    """Split a primitive squarefree integer coefficient list g into its
    irreducible factors of degree <= max_degree and one rest.

    l is a good prime for g, and g(0) != 0. `residues` are the monic
    irreducible factors of g mod l of degree <= max_degree. They alone
    are lifted as factors of lc^(-1) g, with lc the leading coefficient
    of g, far enough that lc * F / lc(F) is read off exactly for every
    divisor F of g of degree <= max_degree, and recombined in subsets of
    degree <= max_degree.

    Returns primitive integer coefficient lists with positive leading
    coefficients whose product is g: the irreducible factors of degree
    <= max_degree, and at most one of higher degree, which has none.
    """
    if len(g) <= 1:
        return []
    # no residue, or one of full degree: g has no proper divisor to find
    if len(g) == 2 or not residues or len(residues[0]) == len(g):
        return [_primitive(g)]
    current = g
    bound = 2 * abs(current[-1]) * _landau_mignotte(current, max_degree) + 1
    modulus, lifted = _hensel_lift_factors(current, l, residues, bound)
    degrees = [len(h) - 1 for h in lifted]
    remaining = list(range(len(lifted)))
    out: list[list[int]] = []
    size = 1
    while size <= len(remaining):
        if sum(sorted(degrees[i] for i in remaining)[:size]) > max_degree:
            break
        # stop at half the remaining factors only once current has degree
        # <= max_degree: then no subset was skipped for its degree, and a
        # proper divisor of current or its complement takes at most half of
        # them. A current with a factor mod l left unlifted never gets there
        if len(current) - 1 <= max_degree and 2 * size > len(remaining):
            break
        found = _try_subsets(current, lifted, remaining, size, modulus, max_degree)
        if found is None:
            size += 1
            continue
        subset, factor, current = found
        out.append(factor)
        remaining = [i for i in remaining if i not in subset]
    out.append(_primitive(current))
    return out


def _passes_constant_test(current: list[int], constants: list[int], modulus: int) -> bool:
    """May lc * prod(h_S) mod modulus be a multiple of a divisor of current?

    `constants` are the constant terms h_i(0) of the lifted factors in S
    and lc is the leading coefficient of current. For a true divisor F,
    c = lc * prod h_i(0), read symmetrically, is (lc / lc(F)) * F(0),
    which divides lc * current(0); c = 0 would need current(0) = 0.
    A False is a proof that S gives no factor.
    """
    c = current[-1]
    for h0 in constants:
        c = c * h0 % modulus
    c = _symmetric(c, modulus)
    return c != 0 and current[-1] * current[0] % c == 0


def _try_subsets(current, lifted, remaining, size, modulus, max_degree):
    """The first subset of `size` lifted factors, of degree at most
    max_degree, that gives a factor of current.

    Returns (subset, primitive factor, current / factor), all on
    integer coefficient lists, or None. Only the subsets that pass the
    constant-term test have their product formed and trial-divided.
    """
    lc = current[-1]
    for subset in combinations(remaining, size):
        if sum(len(lifted[i]) - 1 for i in subset) > max_degree:
            continue
        if not _passes_constant_test(current, [lifted[i][0] for i in subset], modulus):
            continue
        prod = [lc]
        for i in subset:
            prod = [c % modulus for c in _mul(prod, lifted[i])]
        candidate = _primitive([_symmetric(c, modulus) for c in prod])
        quotient = _exact_quotient(current, candidate)
        if quotient is not None:
            return set(subset), candidate, quotient
    return None


def _primitive(a: list[int]) -> list[int]:
    """a divided by its content, with a positive leading coefficient."""
    content = math.gcd(*a)
    if a[-1] < 0:
        content = -content
    return [c // content for c in a]


def _exact_quotient(a: list[int], b: list[int]) -> list[int] | None:
    """a / b when b divides a, else None; b is primitive with b(0) != 0.

    b primitive makes divisibility in Z[x] and in Q[x] the same thing
    (Gauss), so the first inexact integer division is a proof.
    """
    m = len(b) - 1
    if a[0] % b[0]:
        return None
    rem = list(a)
    quotient = [0] * (len(a) - m)
    for k in range(len(quotient) - 1, -1, -1):
        q, r = divmod(rem[k + m], b[-1])
        if r:
            return None
        quotient[k] = q
        if q:
            for j in range(m):
                rem[k + j] -= q * b[j]
    return quotient if not any(rem[:m]) else None
