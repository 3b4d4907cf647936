"""Reference code that only the tests run.

The package factors modulo a prime l on plain coefficient lists. The
boxed FqPoly factoring below is the code it replaced, kept so that every
int-list split stays cross-checked against it: squarefree decomposition
in characteristic p, the distinct-degree split, and the equal-degree
split over any F_q (the quadratic residue trick for odd q, the trace map
for q = 2^k). `factor_fq` chains the three and `is_irreducible_fq` is an
independent irreducibility test. The package no longer reaches
`compose_linear` either; the rational oracles use it.
"""

from __future__ import annotations

import random

from fineselmer.factorization import DEFAULT_SEED
from fineselmer.finitefield import FqElem, FqPoly
from fineselmer.polynomial import QPoly


# ---------------------------------------------------------------------------
# factoring over F_q on FqPoly
# ---------------------------------------------------------------------------


def poly_key(f: FqPoly) -> tuple:
    return tuple(c.coords for c in f.coeffs)


def squarefree_decomposition(f: FqPoly) -> list[tuple[FqPoly, int]]:
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
    return sorted(out.items(), key=lambda t: (t[0].degree, t[1], poly_key(t[0])))


class DistinctDegreeBoxed:
    """The distinct-degree split of a monic squarefree f over F_q, on FqPoly.

    Same contract as the package's int-list `_DistinctDegree`: `through(k)`
    returns [(product of the irreducibles of degree j, j)] for every
    j <= k that occurs, keeps its place between calls, and may end with
    an irreducible rest of degree above k.
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


def admits_divisor_of_degree(split: DistinctDegreeBoxed, d: int) -> bool:
    """Is d a sum of degrees of distinct irreducibles of degree <= d?"""
    degrees = [k for part, k in split.through(d) if k <= d
               for _ in range(part.degree // k)]
    sums = {0}
    for k in degrees:
        sums |= {s + k for s in sums}
    return d in sums


def equal_degree_boxed(f: FqPoly, d: int, rng: random.Random) -> list[FqPoly]:
    """Split monic squarefree f = product of irreducibles of degree d over any F_q."""
    field = f.field
    if f.degree == d:
        return [f]
    q = field.order
    while True:
        r = random_poly(f, rng)
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
                equal_degree_boxed(g.monic(), d, rng) + equal_degree_boxed((f // g).monic(), d, rng),
                key=lambda t2: (t2.degree, poly_key(t2)),
            )


def random_poly(f: FqPoly, rng: random.Random) -> FqPoly:
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
    for squarefree, mult in squarefree_decomposition(f):
        for same_degree, d in DistinctDegreeBoxed(squarefree).through(squarefree.degree):
            for irreducible in equal_degree_boxed(same_degree, d, rng):
                factors.append((irreducible, mult))
    factors.sort(key=lambda t: (t[0].degree, poly_key(t[0])))
    check = FqPoly(f.field, (1,)) * unit
    for poly, mult in factors:
        for _ in range(mult):
            check = check * poly
    if check != f:
        raise AssertionError("factor_fq reconstruction failed; this is a bug")
    return unit, factors


def is_irreducible_fq(f: FqPoly) -> bool:
    """Independent irreducibility check.

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
# rational polynomials
# ---------------------------------------------------------------------------


def compose_linear(f: QPoly, a, b) -> QPoly:
    """f(a*x + b), exact."""
    inner = QPoly((b, a))
    acc = QPoly.zero()
    for c in reversed(f.coeffs):
        acc = acc * inner + QPoly.constant(c)
    return acc
