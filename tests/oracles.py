"""Reference code that only the tests run.

The package computes over prime fields only, on plain ints. The
F_{l^f} arithmetic below (fields with a Rabin-tested defining
polynomial, elements as coordinate tuples, polynomials, the quadratic
character and the trace to F_l) is the code it replaced, kept as an
oracle: it checks the package's F_l at f = 1, the split test of
reduction_over_K over the residue field F_{l^f}, and torsion over
extension fields. `count_points` counts E(F_q) on it, the slow path
against which the trace sweep frobenius_traces is checked.

The package runs all polynomial arithmetic mod a prime l on plain
coefficient lists, the `_vec_*` helpers of finitefield, and its own
FqPoly keeps only `roots()`, on those helpers. Its Frobenius step
substitutes x^l for x where l is small and powers left to right from a
otherwise; `square_and_multiply` is the right-to-left powering from 1
that both replaced, the slow path the tests check them against. The
boxed FqPoly below, with its long division, gcd, `pow_mod` and `roots`,
is the layer they replaced, and the reference the tests check `_vec_*`
and the package's `FqPoly.roots` against. The boxed FqPoly factoring
is kept so that every int-list split stays cross-checked against it: squarefree decomposition
in characteristic p, the distinct-degree split, and the equal-degree
split over any F_q (the quadratic residue trick for odd q, the trace map
for q = 2^k). `factor_fq` chains the three and `is_irreducible_fq` is an
independent irreducibility test. `fq_inverse_mod` is the boxed extended
Euclid that the Hensel lift's Bezout cofactors used to run on, and the
boxed `gcd` with `derivative` is the squarefree test good_reduction
used to run. The package no longer reaches `compose_linear` either; the
rational oracles use it, and `divides` is the exact divisibility test
QPoly used to carry.

The package factors over Q only squarefree polynomials, through one
good prime. `yun_squarefree` is Yun's decomposition over Q that it used
to fall back on, kept so the tests can build a reference factorization
of any input. The package's closure test clears the denominator of
x([g]P) by homogenising, and runs on ints through y = lc x, lc the
leading coefficient of the primitive kernel;
`closed_under_multiples_by_inverse` is the test it replaced, which
inverted the denominator modulo the kernel with the rational extended
Euclid `xgcd` on QPoly, and it stays the reference. The package's stable-line search
factors psi_p only up to the degree (p-1)/2 a kernel can have;
`find_stable_subgroups_by_full_factoring` is the search it replaced,
which factored psi_p in full and then filtered.

The package lifts only the factors mod l of degree at most its cap,
quadratically, and leaves their cofactor and their product implicit:
each factor is corrected from the remainder of f by itself alone, and a
linear one by Newton's iteration on its root. `hensel_lift_linear`, one
l-adic digit a step, and `hensel_lift_multifactor`, quadratic, are the
lifts it replaced, which lift every factor, the lumped cofactor among
them; the tests check that all three reach the same modulus and the
same small factors.

The package builds division polynomials and the x-multiple maps on
integer coefficient lists. The f/g ladder on QPoly below is the code it
replaced, and the tests compare the two.

The package computes the invariants of an integral model, and the
coordinate changes of one by integral r, s, t, on plain ints.
`invariants_fraction` and `change_model_fraction` at the end of this
file are the Fraction formulas they replaced, for any rational model.

The package's PadicNumber is only the value a Z_p-root search returns.
`QpNumber` below is it with the Q_p field arithmetic the package once
carried (from_rational, +, -, *, /, inverse, agrees_with), a subclass so
that its numbers compare equal to the package's roots; the tests of
p-adic arithmetic, the Eisenstein oracle and the old y-test run on it.
The package's Newton lift takes only seeds with a unit derivative;
`hensel_lift` is the general-criterion lift it replaced, with
`NoLiftError`, and the slow path the tests check it against.
`torsion_x_has_rational_y_padic` is delta_v's y-test on QpNumber, which
the package replaced by one Legendre symbol mod p; `padic_is_square` is
the square test it runs, once the method PadicNumber.is_square.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from fineselmer.elliptic import COUNT_LIMIT, WeierstrassModel
from fineselmer.factorization import DEFAULT_SEED, factor_int_poly
from fineselmer.finitefield import (_vec_gcd, _vec_inverse_mod, _vec_mulmod, _vec_powmod,
                                    _vec_rem)
from fineselmer.galoisimage import (StableSubgroupWitness, _closed_under_multiples,
                                    _halfgroup_generators, _matching_trace_primes,
                                    _velu_quotient)
from fineselmer.modular import is_prime, valuation
from fineselmer.padic import DEFAULT_PRECISION, PadicNumber
from fineselmer.polynomial import QPoly, _add, _derivative, _horner, _mul, _trim as _vec_trim


# ---------------------------------------------------------------------------
# F_{l^f} on coordinate tuples
# ---------------------------------------------------------------------------

_FIELD_CACHE: dict[tuple[int, int], "FiniteField"] = {}


def _poly_irreducible(mod: list[int], l: int, f: int) -> bool:
    """Rabin test: x^(l^f) = x mod g, and gcd(x^(l^(f/q)) - x, g) = 1 for q | f."""
    x = [0, 1]
    frob = _vec_powmod(x, l**f, mod, l)
    width = max(len(frob), 2)
    diff = [((frob[i] if i < len(frob) else 0) - (x[i] if i < len(x) else 0)) % l for i in range(width)]
    if _vec_trim(diff):
        return False
    fq = f
    seen: set[int] = set()
    q = 2
    while q * q <= fq:
        if fq % q == 0:
            seen.add(q)
            while fq % q == 0:
                fq //= q
        q += 1
    if fq > 1:
        seen.add(fq)
    for q in seen:
        sub = _vec_powmod(x, l ** (f // q), mod, l)
        diff = [(sub[i] if i < len(sub) else 0) % l for i in range(max(len(sub), 2))]
        diff[1] = (diff[1] - 1) % l
        if len(_vec_gcd(diff, mod, l)) != 1:
            return False
    return True


class FiniteField:
    """The field with l^f elements, l prime, f >= 1."""

    __slots__ = ("char", "degree", "order", "modulus")

    def __new__(cls, char: int, degree: int = 1):
        key = (char, degree)
        cached = _FIELD_CACHE.get(key)
        if cached is not None:
            return cached
        if not is_prime(char):
            raise ValueError(f"field characteristic must be prime, got {char}")
        if degree < 1:
            raise ValueError(f"extension degree must be >= 1, got {degree}")
        self = object.__new__(cls)
        object.__setattr__(self, "char", char)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "order", char**degree)
        object.__setattr__(self, "modulus", cls._defining_polynomial(char, degree))
        _FIELD_CACHE[key] = self
        return self

    def __setattr__(self, name, value):
        raise AttributeError("FiniteField is immutable")

    @staticmethod
    def _defining_polynomial(l: int, f: int) -> tuple[int, ...]:
        if f == 1:
            return (0, 1)  # the polynomial x
        for code in range(l**f):
            coeffs = []
            c = code
            for _ in range(f):
                coeffs.append(c % l)
                c //= l
            mod = coeffs + [1]
            if _poly_irreducible(mod, l, f):
                return tuple(mod)
        raise AssertionError("no irreducible polynomial found; unreachable")

    def element(self, value) -> "FqElem":
        """Coerce an int (any f) or coefficient sequence (f coords) into the field."""
        if isinstance(value, FqElem):
            if value.field is not self:
                raise ValueError("element belongs to a different field")
            return value
        if isinstance(value, int):
            coords = [value % self.char] + [0] * (self.degree - 1)
            return FqElem(self, tuple(coords))
        coords = [int(v) % self.char for v in value]
        if len(coords) != self.degree:
            raise ValueError(f"expected {self.degree} coordinates, got {len(coords)}")
        return FqElem(self, tuple(coords))

    def zero(self) -> "FqElem":
        return self.element(0)

    def one(self) -> "FqElem":
        return self.element(1)

    def gen(self) -> "FqElem":
        """Image of x, a root of the defining polynomial (= 0 when f = 1)."""
        if self.degree == 1:
            return self.zero()
        return self.element([0, 1] + [0] * (self.degree - 2))

    def elements(self):
        """Iterate over all l^f elements (small fields only; used by oracles)."""
        for code in range(self.order):
            coords = []
            c = code
            for _ in range(self.degree):
                coords.append(c % self.char)
                c //= self.char
            yield FqElem(self, tuple(coords))

    def __repr__(self) -> str:
        return f"F_{self.char}" if self.degree == 1 else f"F_{self.char}^{self.degree}"


class FqElem:
    """An element of a FiniteField, as coordinates over F_l in the power basis."""

    __slots__ = ("field", "coords")

    def __init__(self, field: FiniteField, coords: tuple[int, ...]):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("FqElem is immutable")

    def _coerce(self, other) -> "FqElem":
        if isinstance(other, FqElem):
            if other.field is not self.field:
                raise ValueError("mixed-field arithmetic")
            return other
        if isinstance(other, int):
            return self.field.element(other)
        return NotImplemented  # type: ignore[return-value]

    def __bool__(self) -> bool:
        return any(self.coords)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = self.field.element(other)
        return isinstance(other, FqElem) and other.field is self.field and other.coords == self.coords

    def __hash__(self) -> int:
        return hash((id(self.field), self.coords))

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        l = self.field.char
        return FqElem(self.field, tuple((a + b) % l for a, b in zip(self.coords, o.coords)))

    __radd__ = __add__

    def __neg__(self):
        l = self.field.char
        return FqElem(self.field, tuple(-a % l for a in self.coords))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        field = self.field
        if field.degree == 1:
            return FqElem(field, ((self.coords[0] * o.coords[0]) % field.char,))
        prod = _vec_mulmod(list(self.coords), list(o.coords), list(field.modulus), field.char)
        prod += [0] * (field.degree - len(prod))
        return FqElem(field, tuple(prod))

    __rmul__ = __mul__

    def inverse(self) -> "FqElem":
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        field = self.field
        if field.degree == 1:
            return FqElem(field, (pow(self.coords[0], -1, field.char),))
        # extended Euclid in F_l[x] against the defining polynomial
        l = field.char
        r0, r1 = list(field.modulus), _vec_trim(list(self.coords))
        s0, s1 = [], [1]
        while r1:
            inv_lead = pow(r1[-1], -1, l)
            dm = len(r1) - 1
            q = [0] * (len(r0) - dm) if len(r0) > dm else []
            rem = list(r0)
            for i in range(len(rem) - 1, dm - 1, -1):
                c = rem[i]
                if c:
                    qq = c * inv_lead % l
                    q[i - dm] = qq
                    for j, mc in enumerate(r1):
                        rem[i - dm + j] = (rem[i - dm + j] - qq * mc) % l
            del rem[dm:]
            rem = _vec_trim(rem)
            # s_new = s0 - q*s1
            qs1 = [0] * (len(q) + len(s1) - 1) if q and s1 else []
            for i, cq in enumerate(q):
                if cq:
                    for j, cs in enumerate(s1):
                        qs1[i + j] = (qs1[i + j] + cq * cs) % l
            s_new = [( (s0[i] if i < len(s0) else 0) - (qs1[i] if i < len(qs1) else 0)) % l for i in range(max(len(s0), len(qs1), 1))]
            r0, r1 = r1, rem
            s0, s1 = s1, _vec_trim(s_new)
        # r0 is a nonzero constant gcd; normalize
        c_inv = pow(r0[0], -1, l)
        inv = [x * c_inv % l for x in s0]
        inv += [0] * (field.degree - len(inv))
        return FqElem(field, tuple(inv[: field.degree]))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, e: int) -> "FqElem":
        if e < 0:
            return self.inverse() ** (-e)
        result = self.field.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def lift(self) -> int:
        """Integer representative in [0, l); prime fields only."""
        if self.field.degree != 1:
            raise ValueError("lift is defined for prime-field elements only")
        return self.coords[0]

    def trace(self) -> "FqElem":
        """Absolute trace down to F_l: sum of x^(l^i), i < f."""
        acc = self
        power = self
        for _ in range(self.field.degree - 1):
            power = power ** self.field.char
            acc = acc + power
        return acc

    def __repr__(self) -> str:
        if self.field.degree == 1:
            return f"{self.coords[0]}(mod {self.field.char})"
        return f"{list(self.coords)}(in {self.field!r})"


def is_square(x: FqElem) -> bool:
    """True iff x is a square in its field; Euler criterion, 0 counts as square.

    Rejects characteristic 2, where squaring is a bijection and the
    question the callers actually mean is answered by the trace map.
    """
    if x.field.char == 2:
        raise ValueError("is_square is not defined in characteristic 2")
    if not x:
        return True
    return x ** ((x.field.order - 1) // 2) == x.field.one()


# ---------------------------------------------------------------------------
# polynomials over a finite field
# ---------------------------------------------------------------------------


class FqPoly:
    """Immutable dense polynomial over a FiniteField; zero has degree -1."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FiniteField, coeffs=()):
        cs = [field.element(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("FqPoly is immutable")

    @classmethod
    def x(cls, field: FiniteField) -> "FqPoly":
        return cls(field, (0, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> FqElem:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> FqElem:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.field.zero()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FqPoly)
            and other.field is self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self) -> int:
        return hash((id(self.field), self.coeffs))

    def __add__(self, other: "FqPoly") -> "FqPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return FqPoly(self.field, out)

    def __neg__(self) -> "FqPoly":
        return FqPoly(self.field, [-c for c in self.coeffs])

    def __sub__(self, other: "FqPoly") -> "FqPoly":
        return self + (-other)

    def __mul__(self, other) -> "FqPoly":
        if isinstance(other, (int, FqElem)):
            o = self.field.element(other)
            return FqPoly(self.field, [c * o for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return FqPoly(self.field)
        zero = self.field.zero()
        out = [zero] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] = out[i + j] + ca * cb
        return FqPoly(self.field, out)

    __rmul__ = __mul__

    def divmod(self, other: "FqPoly") -> tuple["FqPoly", "FqPoly"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return FqPoly(self.field), self
        zero = self.field.zero()
        quot = [zero] * (dq + 1)
        inv_lead = other.leading.inverse()
        for i in range(dq, -1, -1):
            c = rem[i + other.degree]
            if c:
                q = c * inv_lead
                quot[i] = q
                for j, oc in enumerate(other.coeffs):
                    rem[i + j] = rem[i + j] - q * oc
        return FqPoly(self.field, quot), FqPoly(self.field, rem)

    def __floordiv__(self, other: "FqPoly") -> "FqPoly":
        return self.divmod(other)[0]

    def __mod__(self, other: "FqPoly") -> "FqPoly":
        return self.divmod(other)[1]

    def monic(self) -> "FqPoly":
        if self.is_zero:
            raise ValueError("zero polynomial cannot be made monic")
        if self.leading == self.field.one():
            return self
        inv = self.leading.inverse()
        return FqPoly(self.field, [c * inv for c in self.coeffs])

    def gcd(self, other: "FqPoly") -> "FqPoly":
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        return a if a.is_zero else a.monic()

    def pow_mod(self, e: int, mod: "FqPoly") -> "FqPoly":
        result = FqPoly(self.field, (1,))
        base = self % mod
        while e:
            if e & 1:
                result = (result * base) % mod
            base = (base * base) % mod
            e >>= 1
        return result

    def derivative(self) -> "FqPoly":
        return FqPoly(self.field, [c * i for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x: FqElem) -> FqElem:
        acc = self.field.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def roots(self) -> list[FqElem]:
        """All roots in the base field, by gcd with x^q - x then a scan of
        every element; unlike the package's scan, it never stops early."""
        if self.is_zero:
            raise ValueError("zero polynomial has every root")
        xq = FqPoly.x(self.field).pow_mod(self.field.order, self)
        linear_part = self.gcd(xq - FqPoly.x(self.field))
        if linear_part.degree <= 0:
            return []
        return [a for a in self.field.elements() if not linear_part(a)]

    def __repr__(self) -> str:
        if self.is_zero:
            return "FqPoly(0)"
        body = ", ".join(str(c.coords[0] if self.field.degree == 1 else list(c.coords)) for c in self.coeffs)
        return f"FqPoly[{self.field!r}]({body})"


# ---------------------------------------------------------------------------
# point counting over F_q
# ---------------------------------------------------------------------------


def count_points(model: WeierstrassModel, field: FiniteField) -> int:
    """#E(F_q) including the point at infinity, by direct character sums.

    Odd q: each x contributes 1 + chi(D(x)) points, D the completed-square
    discriminant of the y-quadratic.  q = 2^f: the y-equation is Artin-
    Schreier and the fiber size is decided by a trace.  Guarded to
    q <= 10^6 and to nonsingular reductions.
    """
    if field.order > COUNT_LIMIT:
        raise ValueError(f"field order {field.order} exceeds counting limit {COUNT_LIMIT}")
    a1, a2, a3, a4, a6 = model.reduction(field)
    if field.element(int(model.discriminant)) == field.zero():
        raise ValueError("singular reduction: count on the minimal model at a good prime")
    q = field.order
    total = 1  # infinity
    if field.char != 2:
        four = field.element(4)
        for x in field.elements():
            g = x**3 + a2 * x * x + a4 * x + a6
            h = a1 * x + a3
            d = h * h + four * g
            if d == field.zero():
                total += 1
            elif is_square(d):
                total += 2
        return total
    # characteristic 2
    zero = field.zero()
    for x in field.elements():
        g = x**3 + a2 * x * x + a4 * x + a6
        h = a1 * x + a3
        if h == zero:
            total += 1  # y -> y^2 is a bijection
        else:
            w = g / (h * h)
            if w.trace() == zero:
                total += 2
    return total


# ---------------------------------------------------------------------------
# powering mod a polynomial over F_l, on coefficient lists
# ---------------------------------------------------------------------------


def square_and_multiply(a: list[int], e: int, mod: list[int], l: int) -> list[int]:
    """a^e mod `mod` over F_l, right to left from the product 1.

    The powering the package's `_vec_powmod` ran before it started from
    a, and the step of the distinct-degree split before `_vec_frobenius`
    substituted x^l for x: a product with 1 on the first set bit and a
    squaring after the last one, both of which are wasted.
    """
    result = [1]
    base = _vec_rem(a, mod, l)
    while e:
        if e & 1:
            result = _vec_mulmod(result, base, mod, l)
        base = _vec_mulmod(base, base, mod, l)
        e >>= 1
    return result


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


def fq_inverse_mod(a: FqPoly, mod: FqPoly) -> FqPoly:
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


# ---------------------------------------------------------------------------
# the linear Hensel lift
# ---------------------------------------------------------------------------


def hensel_lift_linear(f: list[int], l: int, hbars: list[list[int]],
                       target: int) -> tuple[int, list[list[int]]]:
    """Lift the mod-l factorization f = lc * prod(hbars) one l-adic digit a step.

    hbars are all the monic factors of f mod l. Returns (l^k, monic
    factors mod l^k of lc^(-1) f) with l^k the first power above target.
    The Bezout elements of the residue factorization stay valid at every
    step because the corrections vanish mod l.
    """
    ts = []
    for i, hi in enumerate(hbars):
        prod_others = [1]
        for j, hj in enumerate(hbars):
            if j != i:
                prod_others = _vec_mulmod(prod_others, hj, hi, l)
        ts.append(_vec_inverse_mod(prod_others, hi, l))

    modulus = l
    lifted = [list(h) for h in hbars]
    while modulus <= target:
        # error e = (lc^(-1) f - prod lifted) / modulus mod l
        step = modulus * l
        inv = pow(f[-1], -1, step)
        prod = [1]
        for h in lifted:
            prod = [c % step for c in _mul(prod, h)]
        e_over = [(a * inv - b) % step // modulus for a, b in zip(f, prod)]
        for h, t, hbar in zip(lifted, ts, hbars):
            # delta_i = e * t_i mod hbar_i (all mod l)
            for k_idx, d in enumerate(_vec_mulmod(e_over, t, hbar, l)):
                if d:
                    h[k_idx] = (h[k_idx] + modulus * d) % step
        modulus = step
    return modulus, lifted


def hensel_lift_multifactor(f: list[int], l: int, hbars: list[list[int]],
                            target: int) -> tuple[int, list[list[int]]]:
    """Lift the whole mod-l factorization f = lc * prod(hbars) quadratically.

    The package's quadratic lift before it lifted only the small
    factors: hbars are all the monic factors of f mod l, the lumped
    cofactor among them, and the result is (l^K, monic factors mod l^K
    of lc^(-1) f) with l^K the first power above target, as for
    hensel_lift_linear. Each step from m to M corrects the factors h_i
    and then the partial-fraction cofactors t_i, which keep
    sum_i t_i prod_{j != i} h_j = 1 mod M; every step costs O(deg f^2).
    """
    def mod_q_rem(a, t, h, q):
        return _vec_mulmod(a, [c % q for c in t], [c % q for c in h], q)

    # Bezout: t_i = (prod_{j != i} hbar_j)^(-1) mod hbar_i
    ts = []
    for i, hi in enumerate(hbars):
        prod_others = [1]
        for j, hj in enumerate(hbars):
            if j != i:
                prod_others = _vec_mulmod(prod_others, hj, hi, l)
        t = _vec_inverse_mod(prod_others, hi, l)
        ts.append(t + [0] * (len(hi) - 1 - len(t)))

    top, power = 1, l
    while power <= target:
        top, power = top + 1, power * l
    exponents = [top]
    while exponents[-1] > 1:
        exponents.append((exponents[-1] + 1) // 2)
    exponents.reverse()

    lifted = [list(h) for h in hbars]
    for k, k_next in zip(exponents, exponents[1:]):
        m, modulus = l**k, l**k_next
        q = modulus // m
        inv = pow(f[-1], -1, modulus)
        prod = [1]
        for h in lifted:
            prod = [c % modulus for c in _mul(prod, h)]
        # e = (lc^(-1) f - prod h_i) / m; h_i += m * (e t_i rem h_i)
        e = [(a * inv - b) % modulus // m for a, b in zip(f, prod)]
        for h, t in zip(lifted, ts):
            for i, d in enumerate(mod_q_rem(e, t, h, q)):
                h[i] = (h[i] + m * d) % modulus
        if k_next == top:
            break
        # b = (sum_i t_i prod_{j != i} h_j - 1) / m; t_i -= m * (b t_i rem h_i)
        total, prefix = [], [1]
        for h, t in zip(lifted, ts):
            total = [c % modulus for c in _add(_mul(total, h), _mul(t, prefix))]
            prefix = [c % modulus for c in _mul(prefix, h)]
        b = [(c - (i == 0)) % modulus // m for i, c in enumerate(total)]
        for h, t in zip(lifted, ts):
            for i, d in enumerate(mod_q_rem(b, t, h, q)):
                t[i] = (t[i] - m * d) % modulus
    return l**top, lifted


# ---------------------------------------------------------------------------
# rational polynomials
# ---------------------------------------------------------------------------


def divides(d: QPoly, f: QPoly) -> bool:
    """True iff d divides f exactly in Q[x]."""
    if d.is_zero:
        return f.is_zero
    return (f % d).is_zero


def compose_linear(f: QPoly, a, b) -> QPoly:
    """f(a*x + b), exact."""
    inner = QPoly((b, a))
    acc = QPoly.zero()
    for c in reversed(f.coeffs):
        acc = acc * inner + QPoly.constant(c)
    return acc


def yun_squarefree(f: QPoly) -> list[tuple[QPoly, int]]:
    """Yun's squarefree decomposition: [(g_i, i)] with f = lc * prod g_i^i.

    Each g_i is monic squarefree, pairwise coprime; trivial factors are
    omitted. Characteristic zero only.
    """
    f = f.monic()
    if f.degree == 0:
        return []
    g = f.gcd(f.derivative())
    b = f // g
    c = f.derivative() // g
    d = c - b.derivative()
    out: list[tuple[QPoly, int]] = []
    i = 1
    while b.degree > 0:
        a = b.gcd(d)
        if a.degree > 0:
            out.append((a, i))
        b = b // a
        c = d // a
        d = c - b.derivative()
        i += 1
    return out


def xgcd(a: QPoly, b: QPoly) -> tuple[QPoly, QPoly, QPoly]:
    """(g, u, v) with u a + v b = g, g the monic gcd."""
    r0, r1 = a, b
    u0, u1 = QPoly.one(), QPoly.zero()
    v0, v1 = QPoly.zero(), QPoly.one()
    while not r1.is_zero:
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    if r0.is_zero:
        return r0, u0, v0
    scale = QPoly.constant(1 / r0.leading)
    return r0.monic(), u0 * scale, v0 * scale


def closed_under_multiples_by_inverse(model: WeierstrassModel, h: QPoly,
                                      gens: tuple[int, ...]) -> bool:
    """galoisimage._closed_under_multiples as it ran with an inverse mod h.

    x([g]P) = N/D is reduced to N D^(-1) mod h, and h of it must vanish
    mod h; a D sharing a root with h has no inverse and is rejected.
    """
    for g in gens:
        num, den = model.x_multiple_fraction(g)
        common, dinv, _ = xgcd(den % h, h)
        if common.degree != 0:
            return False
        xg = (num % h) * (dinv % h) % h
        acc = QPoly.zero()
        for c in reversed(h.coeffs):
            acc = (acc * xg) % h + QPoly.constant(c)
        if not acc.is_zero:
            return False
    return True


def find_stable_subgroups_by_full_factoring(
        model: WeierstrassModel, p: int) -> tuple[StableSubgroupWitness, ...]:
    """galoisimage.find_stable_subgroups as it ran before its degree cap.

    It factors psi_p over Q in full and then keeps the subsets of the
    irreducibles whose degrees sum to (p-1)/2; the closure test, Velu
    and the trace matching are the package's own. It skips the mod-l
    degree test too, so it checks that short cut as well.
    """
    E = model.integral_model()
    d = (p - 1) // 2
    _, factors = factor_int_poly(E.division_polynomial(p))
    irreducibles = [f for f, _ in factors]
    gens = _halfgroup_generators(p)
    witnesses: list[StableSubgroupWitness] = []
    E_traces: dict[int, int] = {}
    idx = range(len(irreducibles))
    for size in range(1, len(irreducibles) + 1):
        for subset in combinations(idx, size):
            if sum(irreducibles[i].degree for i in subset) != d:
                continue
            h = QPoly.one()
            for i in subset:
                h = h * irreducibles[i].monic()
            if not _closed_under_multiples(E, h, gens):
                continue
            quotient = _velu_quotient(E, h).integral_model()
            traces = _matching_trace_primes(E, quotient, p, E_traces)
            assert traces is not None
            witnesses.append(StableSubgroupWitness(
                p, h, h.primitive(), quotient, gens, traces))
    witnesses.sort(key=lambda w: tuple(w.kernel_monic.coeffs))
    return tuple(witnesses)


# ---------------------------------------------------------------------------
# the division-polynomial ladder on QPoly
# ---------------------------------------------------------------------------


def division_ladder_qpoly(model: WeierstrassModel):
    """(get_f, get_g) of the f/g bisection ladder on rational QPolys.

    The package runs the same recurrences on integer coefficient lists;
    this is the code it replaced, and it takes any rational model.
    """
    b2, b4, b6, b8 = model.b2, model.b4, model.b6, model.b8
    F = two_torsion_polynomial(model)
    f = {1: QPoly.one(), 3: QPoly([b8, 3 * b6, 3 * b4, b2, 3])}
    g = {
        0: QPoly.zero(),
        2: QPoly.one(),
        4: QPoly([b4 * b8 - b6 * b6, b2 * b8 - b4 * b6,
                  10 * b8, 10 * b6, 5 * b4, b2, 2]),
    }
    F2 = F * F

    def get_f(k: int) -> QPoly:
        if k not in f:
            m = (k - 1) // 2
            if m % 2 == 0:
                f[k] = F2 * get_g(m + 2) * get_g(m) ** 3 - get_f(m - 1) * get_f(m + 1) ** 3
            else:
                f[k] = get_f(m + 2) * get_f(m) ** 3 - F2 * get_g(m - 1) * get_g(m + 1) ** 3
        return f[k]

    def get_g(k: int) -> QPoly:
        if k not in g:
            m = k // 2
            if m % 2 == 0:
                g[k] = get_g(m) * (get_g(m + 2) * get_f(m - 1) ** 2
                                   - get_g(m - 2) * get_f(m + 1) ** 2)
            else:
                g[k] = get_f(m) * (get_f(m + 2) * get_g(m - 1) ** 2
                                   - get_f(m - 2) * get_g(m + 1) ** 2)
        return g[k]

    return get_f, get_g


def two_torsion_polynomial(model: WeierstrassModel) -> QPoly:
    """4x^3 + b2 x^2 + 2 b4 x + b6, the square of the 2-division value."""
    return QPoly([model.b6, 2 * model.b4, model.b2, 4])


def division_polynomial_qpoly(model: WeierstrassModel, n: int) -> QPoly:
    """psi_n for odd n, from the QPoly ladder."""
    return division_ladder_qpoly(model)[0](n)


def x_multiple_fraction_qpoly(model: WeierstrassModel, k: int) -> tuple[QPoly, QPoly]:
    """(num, den) with x([k]P) = num(x)/den(x), from the QPoly ladder."""
    get_f, get_g = division_ladder_qpoly(model)
    F = two_torsion_polynomial(model)
    if k % 2:
        den = get_f(k) ** 2
        num = QPoly.x() * den - F * get_g(k - 1) * get_g(k + 1)
    else:
        den = F * get_g(k) ** 2
        num = QPoly.x() * den - get_f(k - 1) * get_f(k + 1)
    return num, den


# ---------------------------------------------------------------------------
# Weierstrass invariants and coordinate changes in Fraction arithmetic
# ---------------------------------------------------------------------------


def invariants_fraction(a1, a2, a3, a4, a6) -> dict[str, Fraction]:
    """WeierstrassModel's 12 attributes by name, all in Fraction arithmetic;
    ValueError on a singular model."""
    a1, a2, a3, a4, a6 = (Fraction(v) for v in (a1, a2, a3, a4, a6))
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -b2**3 + 36 * b2 * b4 - 216 * b6
    disc = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    assert 4 * b8 == b2 * b6 - b4 * b4
    assert 1728 * disc == c4**3 - c6 * c6
    if disc == 0:
        raise ValueError("singular model: discriminant is zero")
    return {"a1": a1, "a2": a2, "a3": a3, "a4": a4, "a6": a6,
            "b2": b2, "b4": b4, "b6": b6, "b8": b8,
            "c4": c4, "c6": c6, "discriminant": disc}


def change_model_fraction(model: WeierstrassModel, u, r, s, t) -> tuple[Fraction, ...]:
    """The a-invariants after x = u^2 x' + r, y = u^3 y' + s u^2 x' + t."""
    u, r, s, t = (Fraction(v) for v in (u, r, s, t))
    a1, a2, a3, a4, a6 = model.a_invariants
    return ((a1 + 2 * s) / u,
            (a2 - s * a1 + 3 * r - s * s) / u**2,
            (a3 + r * a1 + 2 * t) / u**3,
            (a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t) / u**4,
            (a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1) / u**6)


# ---------------------------------------------------------------------------
# Q_p arithmetic and the general Hensel lift
# ---------------------------------------------------------------------------


class QpNumber(PadicNumber):
    """A PadicNumber with the Q_p field operations.

    Precision combines pessimistically: addition keeps the smaller
    absolute precision, multiplication the smaller relative precision.
    Nothing ever claims digits it cannot justify, which the property
    tests check against exact rational arithmetic.
    """

    __slots__ = ()

    @classmethod
    def of(cls, x: PadicNumber) -> "QpNumber":
        """The same element, with arithmetic."""
        return cls(x.p, x.val, x.unit, x.absprec)

    @classmethod
    def from_rational(cls, q: Fraction, p: int, absprec: int) -> "QpNumber":
        if q == 0:
            return cls(p, absprec, 0, absprec)
        vnum = valuation(q.numerator, p) if q.numerator else 0
        vden = valuation(q.denominator, p)
        v = vnum - vden
        rel = absprec - v
        if rel <= 0:
            return cls(p, absprec, 0, absprec)
        num = q.numerator // p**vnum
        den = q.denominator // p**vden
        unit = num * pow(den, -1, p**rel) % p**rel
        return cls(p, v, unit, absprec)

    @classmethod
    def zero(cls, p: int, absprec: int) -> "QpNumber":
        return cls(p, absprec, 0, absprec)

    @property
    def is_zero(self) -> bool:
        """True iff certified zero to the working precision (not 'exactly zero')."""
        return self.unit == 0

    @property
    def relprec(self) -> int:
        return 0 if self.unit == 0 else self.absprec - self.val

    def _check_partner(self, other: PadicNumber) -> None:
        if not isinstance(other, PadicNumber) or other.p != self.p:
            raise TypeError("PadicNumber arithmetic requires matching primes")

    def __add__(self, other: PadicNumber) -> "QpNumber":
        self._check_partner(other)
        absprec = min(self.absprec, other.absprec)
        m = min(self.val, other.val)  # zero-certified has val = absprec
        if m >= absprec:
            return QpNumber.zero(self.p, absprec)
        total = 0
        if self.unit != 0:
            total += self.unit * self.p ** (self.val - m)
        if other.unit != 0:
            total += other.unit * self.p ** (other.val - m)
        total %= self.p ** (absprec - m)
        if total == 0:
            return QpNumber.zero(self.p, absprec)
        w = valuation(total, self.p)
        return QpNumber(self.p, m + w, total // self.p**w, absprec)

    def __neg__(self) -> "QpNumber":
        if self.unit == 0:
            return self
        rel = self.relprec
        return QpNumber(self.p, self.val, (-self.unit) % self.p**rel, self.absprec)

    def __sub__(self, other: PadicNumber) -> "QpNumber":
        return self + (-QpNumber.of(other))

    def __mul__(self, other) -> "QpNumber":
        if isinstance(other, int):
            # exact integer scalar: no relative precision is lost
            if other == 0:
                return QpNumber.zero(self.p, self.absprec + 1)
            v = valuation(other, self.p)
            if self.unit == 0:
                return QpNumber.zero(self.p, self.absprec + v)
            rel = self.relprec
            unit = self.unit * (other // self.p**v) % self.p**rel
            return QpNumber(self.p, self.val + v, unit, self.val + v + rel)
        self._check_partner(other)
        other = QpNumber.of(other)
        if self.unit == 0 or other.unit == 0:
            # 0-to-N times something of valuation v is 0 to N + v
            if self.unit == 0 and other.unit == 0:
                return QpNumber.zero(self.p, self.absprec + other.absprec)
            z, nz = (self, other) if self.unit == 0 else (other, self)
            return QpNumber.zero(self.p, z.absprec + nz.val)
        rel = min(self.relprec, other.relprec)
        val = self.val + other.val
        unit = self.unit * other.unit % self.p**rel
        return QpNumber(self.p, val, unit, val + rel)

    __rmul__ = __mul__

    def inverse(self) -> "QpNumber":
        if self.unit == 0:
            raise ZeroDivisionError("cannot invert an element certified zero")
        rel = self.relprec
        inv_unit = pow(self.unit, -1, self.p**rel)
        return QpNumber(self.p, -self.val, inv_unit, -self.val + rel)

    def __truediv__(self, other: PadicNumber) -> "QpNumber":
        self._check_partner(other)
        return self * QpNumber.of(other).inverse()

    def agrees_with(self, other: PadicNumber) -> bool:
        """True iff the two elements coincide to their common precision."""
        return (self - other).unit == 0

    def __hash__(self) -> int:
        return hash((self.p, self.val, self.unit, self.absprec))


class NoLiftError(Exception):
    """The Hensel criterion v(f(r0)) > 2 v(f'(r0)) fails at this seed."""


def hensel_lift(f: QPoly, r0: int, p: int, absprec: int = DEFAULT_PRECISION) -> QpNumber:
    """Newton-lift the approximate root r0 of f to absolute precision absprec.

    Requires v(f(r0)) > 2 v(f'(r0)) and raises NoLiftError otherwise, and
    raises ValueError for absprec < 1, as padic_roots does. The
    returned root r satisfies v(f(r)) >= absprec and is congruent to r0
    modulo p^(v(f'(r0)) + 1). f must have integer coefficients.
    """
    if absprec < 1:
        raise ValueError("absprec must be positive")
    coeffs = f.int_coeffs()
    dcoeffs = _derivative(coeffs)
    fr = _horner(coeffs, r0)
    if fr == 0:
        return QpNumber.from_int(r0, p, absprec)
    dfr = _horner(dcoeffs, r0)
    b = valuation(dfr, p) if dfr else absprec  # dfr = 0 means criterion fails below
    a = valuation(fr, p)
    if dfr == 0 or a <= 2 * b:
        raise NoLiftError(f"v(f(r0)) = {a} <= 2*v(f'(r0)) = {2*b} at r0 = {r0}")

    # work modulo p^big; the root is determined mod p^absprec once
    # v(f(r)) >= absprec + b
    big = p ** (absprec + 2 * b + 4)
    r = r0
    for _ in range(absprec.bit_length() + 34):
        fr = _horner(coeffs, r)
        if fr % p ** (absprec + b) == 0:
            root = r % p**absprec
            assert _horner(coeffs, root) % p**absprec == 0
            return QpNumber.from_int(root, p, absprec)
        dfr = _horner(dcoeffs, r)
        u = dfr // p**b
        delta = (fr // p**b) * pow(u, -1, big) % big
        r = (r - delta) % big
    raise AssertionError("Newton iteration failed to converge; this is a bug")


def torsion_x_has_rational_y_padic(model: WeierstrassModel, x0: PadicNumber,
                                   p: int) -> bool | None:
    """Does the x-coordinate x0 support a Q_p-rational point?  None = undecided.

    y exists iff D(x) = (a1 x + a3)^2 + 4(x^3 + a2 x^2 + a4 x + a6) is a
    square in Q_p.
    """
    x0 = QpNumber.of(x0)
    prec = x0.absprec
    coeffs = [QpNumber.from_rational(Fraction(v), p, prec)
              for v in (model.a1, model.a2, model.a3, model.a4, model.a6)]
    a1, a2, a3, a4, a6 = coeffs
    g = ((x0 * x0 * x0) + a2 * (x0 * x0) + a4 * x0 + a6)
    h = a1 * x0 + a3
    d = h * h + g * 4
    return padic_is_square(d)


def padic_is_square(x: PadicNumber) -> bool | None:
    """Squareness in Q_p (p odd): True/False, or None if precision cannot decide.

    An element certified zero is undecidable (its true valuation is
    unknown); otherwise the answer needs only the parity of the
    valuation and the Legendre symbol of the unit.
    """
    if x.p == 2:
        raise ValueError("square test implemented for odd p only")
    if x.unit == 0:
        return None
    if x.val % 2 == 1:
        return False
    return pow(x.unit % x.p, (x.p - 1) // 2, x.p) == 1
